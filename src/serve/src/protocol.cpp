#include "orion/serve/protocol.hpp"

#include <cstring>

namespace orion::serve {

namespace {

constexpr char kRequestMagic[4] = {'O', 'Q', 'P', '1'};
constexpr char kResponseMagic[4] = {'O', 'Q', 'R', '1'};

template <typename T>
void append_le(std::vector<std::uint8_t>& out, T value) {
  auto v = static_cast<std::make_unsigned_t<T>>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_str16(std::vector<std::uint8_t>& out, const std::string& s) {
  append_le<std::uint16_t>(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked little-endian cursor; every getter reports truncation
/// instead of reading past the end.
struct Cursor {
  const std::uint8_t* p;
  std::size_t left;

  template <typename T>
  bool get(T& value) {
    if (left < sizeof(T)) return false;
    std::make_unsigned_t<T> v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::make_unsigned_t<T>>(p[i]) << (8 * i);
    }
    value = static_cast<T>(v);
    p += sizeof(T);
    left -= sizeof(T);
    return true;
  }

  bool str16(std::string& s, std::size_t cap) {
    std::uint16_t n = 0;
    if (!get(n) || n > left || n > cap) return false;
    s.assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }

  bool magic(const char (&expected)[4]) {
    if (left < 4 || std::memcmp(p, expected, 4) != 0) return false;
    p += 4;
    left -= 4;
    return true;
  }
};

bool valid_kind(std::uint8_t k) {
  return k <= static_cast<std::uint8_t>(QueryKind::FlowImpact);
}

bool valid_status(std::uint8_t s) {
  return s <= static_cast<std::uint8_t>(Status::ServerError);
}

}  // namespace

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::Ping: return "ping";
    case QueryKind::StoreInfo: return "store-info";
    case QueryKind::FlowImpact: return "flow-impact";
  }
  return "?";
}

const char* to_string(Status status) {
  switch (status) {
    case Status::Ok: return "ok";
    case Status::BadRequest: return "bad-request";
    case Status::NotFound: return "not-found";
    case Status::Overloaded: return "overloaded";
    case Status::ServerError: return "server-error";
  }
  return "?";
}

std::vector<std::uint8_t> encode_request(const QueryRequest& request) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + request.tenant.size() + 4 * request.sources.size());
  for (const char c : kRequestMagic) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  append_le<std::uint8_t>(out, static_cast<std::uint8_t>(request.kind));
  append_str16(out, request.tenant);
  append_le<std::uint32_t>(out, request.router);
  append_le<std::int64_t>(out, request.day);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(request.sources.size()));
  for (const net::Ipv4Address ip : request.sources) {
    append_le<std::uint32_t>(out, ip.value());
  }
  return out;
}

bool decode_request(std::span<const std::uint8_t> payload,
                    QueryRequest& request, std::string& error) {
  Cursor c{payload.data(), payload.size()};
  if (!c.magic(kRequestMagic)) {
    error = "request: bad magic";
    return false;
  }
  std::uint8_t kind = 0;
  if (!c.get(kind) || !valid_kind(kind)) {
    error = "request: bad kind";
    return false;
  }
  request.kind = static_cast<QueryKind>(kind);
  if (!c.str16(request.tenant, kMaxTenantBytes)) {
    error = "request: bad tenant";
    return false;
  }
  std::uint32_t count = 0;
  if (!c.get(request.router) || !c.get(request.day) || !c.get(count)) {
    error = "request: truncated header";
    return false;
  }
  if (count > kMaxSources || c.left != std::size_t{count} * 4) {
    error = "request: source count disagrees with payload size";
    return false;
  }
  request.sources.clear();
  request.sources.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t raw = 0;
    c.get(raw);
    request.sources.push_back(net::Ipv4Address(raw));
  }
  return true;
}

std::vector<std::uint8_t> encode_response(const QueryResponse& response) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + response.error.size() + 10 * response.impact.ports.size());
  for (const char c : kResponseMagic) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  append_le<std::uint8_t>(out, static_cast<std::uint8_t>(response.status));
  append_le<std::uint8_t>(out, static_cast<std::uint8_t>(response.kind));
  append_le<std::uint64_t>(out, response.generation);
  append_str16(out, response.error);
  if (response.status != Status::Ok) return out;
  switch (response.kind) {
    case QueryKind::Ping:
      break;
    case QueryKind::StoreInfo: {
      const StoreInfoBody& b = response.info;
      append_le<std::uint32_t>(out, b.sampling_rate);
      append_le<std::uint64_t>(out, b.flow_count);
      append_le<std::int64_t>(out, b.start_day);
      append_le<std::int64_t>(out, b.end_day);
      append_le<std::uint64_t>(out, b.segment_count);
      append_le<std::uint8_t>(out, b.has_events ? 1 : 0);
      append_le<std::uint64_t>(out, b.event_count);
      break;
    }
    case QueryKind::FlowImpact: {
      const FlowImpactBody& b = response.impact;
      append_le<std::uint32_t>(out, b.router);
      append_le<std::int64_t>(out, b.day);
      append_le<std::uint64_t>(out, b.matched_packets);
      append_le<std::uint64_t>(out, b.total_packets);
      append_le<std::uint64_t>(out, b.matched_sources);
      append_le<std::uint64_t>(out, b.probed_sources);
      for (const std::uint64_t p : b.protocols) append_le<std::uint64_t>(out, p);
      append_le<std::uint64_t>(out, b.ports_bound);
      append_le<std::uint64_t>(out, b.ports_spilled_weight);
      append_le<std::uint64_t>(out, b.ports_spilled_adds);
      append_le<std::uint32_t>(out, static_cast<std::uint32_t>(b.ports.size()));
      for (const auto& [port, estimate] : b.ports) {
        append_le<std::uint16_t>(out, port);
        append_le<std::uint64_t>(out, estimate);
      }
      break;
    }
  }
  return out;
}

bool decode_response(std::span<const std::uint8_t> payload,
                     QueryResponse& response, std::string& error) {
  Cursor c{payload.data(), payload.size()};
  if (!c.magic(kResponseMagic)) {
    error = "response: bad magic";
    return false;
  }
  std::uint8_t status = 0;
  std::uint8_t kind = 0;
  if (!c.get(status) || !valid_status(status) || !c.get(kind) ||
      !valid_kind(kind)) {
    error = "response: bad status/kind";
    return false;
  }
  response.status = static_cast<Status>(status);
  response.kind = static_cast<QueryKind>(kind);
  if (!c.get(response.generation) ||
      !c.str16(response.error, kMaxFramePayload)) {
    error = "response: truncated header";
    return false;
  }
  response.impact = {};
  response.info = {};
  if (response.status != Status::Ok) {
    if (c.left != 0) {
      error = "response: trailing bytes";
      return false;
    }
    return true;
  }
  switch (response.kind) {
    case QueryKind::Ping:
      break;
    case QueryKind::StoreInfo: {
      StoreInfoBody& b = response.info;
      std::uint8_t has_events = 0;
      if (!c.get(b.sampling_rate) || !c.get(b.flow_count) ||
          !c.get(b.start_day) || !c.get(b.end_day) || !c.get(b.segment_count) ||
          !c.get(has_events) || !c.get(b.event_count)) {
        error = "response: truncated store-info body";
        return false;
      }
      b.has_events = has_events != 0;
      break;
    }
    case QueryKind::FlowImpact: {
      FlowImpactBody& b = response.impact;
      std::uint32_t port_count = 0;
      if (!c.get(b.router) || !c.get(b.day) || !c.get(b.matched_packets) ||
          !c.get(b.total_packets) || !c.get(b.matched_sources) ||
          !c.get(b.probed_sources) || !c.get(b.protocols[0]) ||
          !c.get(b.protocols[1]) || !c.get(b.protocols[2]) ||
          !c.get(b.ports_bound) || !c.get(b.ports_spilled_weight) ||
          !c.get(b.ports_spilled_adds) || !c.get(port_count)) {
        error = "response: truncated flow-impact body";
        return false;
      }
      if (c.left != std::size_t{port_count} * 10) {
        error = "response: port count disagrees with payload size";
        return false;
      }
      b.ports.clear();
      b.ports.reserve(port_count);
      for (std::uint32_t i = 0; i < port_count; ++i) {
        std::uint16_t port = 0;
        std::uint64_t estimate = 0;
        c.get(port);
        c.get(estimate);
        b.ports.emplace_back(port, estimate);
      }
      break;
    }
  }
  if (c.left != 0) {
    error = "response: trailing bytes";
    return false;
  }
  return true;
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

int try_extract_frame(std::span<const std::uint8_t> buffer, std::size_t* begin,
                      std::size_t* end) {
  if (buffer.size() < 4) return 0;
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buffer[i]) << (8 * i);
  }
  if (len > kMaxFramePayload) return -1;
  if (buffer.size() < 4 + std::size_t{len}) return 0;
  *begin = 4;
  *end = 4 + len;
  return 1;
}

}  // namespace orion::serve
