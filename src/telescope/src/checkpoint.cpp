#include "orion/telescope/checkpoint.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "orion/netbase/crc32.hpp"

namespace orion::telescope {

namespace {

constexpr char kMagic[4] = {'O', 'C', 'P', '1'};
constexpr std::uint64_t kVersion = 1;

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

void CheckpointWriter::u64(std::uint64_t v) { append_u64(payload_, v); }

void CheckpointWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void CheckpointWriter::bytes(std::span<const std::uint8_t> data) {
  payload_.insert(payload_.end(), data.begin(), data.end());
}

namespace {

std::vector<std::uint8_t> frame_of(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + 8 + 8 + payload.size() + 4);
  for (const char c : kMagic) frame.push_back(static_cast<std::uint8_t>(c));
  append_u64(frame, kVersion);
  append_u64(frame, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  const std::uint32_t crc = net::Crc32::of(payload);
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  return frame;
}

}  // namespace

std::uint64_t CheckpointWriter::finish(std::ostream& out) const {
  const std::vector<std::uint8_t> frame = frame_of(payload_);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  // Flush before checking: an ofstream buffers, and a failure that only
  // surfaces in its destructor is a snapshot silently truncated.
  out.flush();
  if (!out) {
    throw std::runtime_error("checkpoint: write failure");
  }
  return frame.size();
}

std::uint64_t CheckpointWriter::finish(net::io::File& out) const {
  const std::vector<std::uint8_t> frame = frame_of(payload_);
  out.write(frame);
  return frame.size();
}

CheckpointReader::CheckpointReader(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (in.gcount() != 4 || std::memcmp(magic, kMagic, 4) != 0) {
    fail("bad magic (not an OCP1 checkpoint)");
  }
  std::uint8_t header[16];
  in.read(reinterpret_cast<char*>(header), 16);
  if (in.gcount() != 16) fail("truncated header");
  const std::uint64_t version = load_u64(header);
  if (version != kVersion) {
    fail("unsupported version " + std::to_string(version));
  }
  const std::uint64_t length = load_u64(header + 8);
  // Snapshots are bounded by live state, not by the dataset; refuse
  // anything over 1 GiB rather than trusting a corrupt length field.
  if (length > (std::uint64_t{1} << 30)) fail("absurd payload length");
  payload_.resize(static_cast<std::size_t>(length));
  in.read(reinterpret_cast<char*>(payload_.data()),
          static_cast<std::streamsize>(length));
  if (static_cast<std::uint64_t>(in.gcount()) != length) {
    fail("truncated payload");
  }
  std::uint8_t crc_bytes[4];
  in.read(reinterpret_cast<char*>(crc_bytes), 4);
  if (in.gcount() != 4) fail("truncated CRC trailer");
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) stored |= std::uint32_t{crc_bytes[i]} << (8 * i);
  if (stored != net::Crc32::of(payload_)) fail("CRC mismatch");
}

std::uint64_t CheckpointReader::u64(const char* what) {
  if (payload_.size() - pos_ < 8) {
    fail(std::string("truncated field: ") + what);
  }
  const std::uint64_t v = load_u64(payload_.data() + pos_);
  pos_ += 8;
  return v;
}

double CheckpointReader::f64(const char* what) {
  return std::bit_cast<double>(u64(what));
}

std::uint8_t CheckpointReader::u8(const char* what) {
  if (pos_ >= payload_.size()) {
    fail(std::string("truncated field: ") + what);
  }
  return payload_[pos_++];
}

std::vector<std::uint8_t> CheckpointReader::bytes(std::size_t n,
                                                  const char* what) {
  if (payload_.size() - pos_ < n) {
    fail(std::string("truncated field: ") + what);
  }
  std::vector<std::uint8_t> out(payload_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                payload_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::uint64_t CheckpointReader::count(const char* what,
                                      std::size_t min_entry_bytes) {
  const std::uint64_t n = u64(what);
  if (n > remaining() / min_entry_bytes) {
    fail(std::string("count exceeds payload: ") + what);
  }
  return n;
}

void CheckpointReader::expect_tag(std::uint64_t expected, const char* component) {
  if (u64("section tag") != expected) {
    fail(std::string("wrong section tag for ") + component);
  }
}

void CheckpointReader::fail(const std::string& why) const {
  throw std::runtime_error("checkpoint: " + why);
}

void put_events(CheckpointWriter& w, const std::vector<DarknetEvent>& events) {
  w.u64(events.size());
  for (const DarknetEvent& e : events) {
    w.u64(e.key.src.value());
    w.u64(e.key.dst_port);
    w.u8(static_cast<std::uint8_t>(e.key.type));
    w.i64(e.start.since_epoch().total_nanos());
    w.i64(e.end.since_epoch().total_nanos());
    w.u64(e.packets);
    w.u64(e.unique_dests);
    for (const std::uint64_t t : e.packets_by_tool) w.u64(t);
  }
}

std::vector<DarknetEvent> get_events(CheckpointReader& r) {
  // Six u64 fields, the type byte and the per-tool packet counts.
  constexpr std::size_t kEventBytes = 6 * 8 + 1 + sizeof(ToolPackets);
  std::vector<DarknetEvent> events(
      static_cast<std::size_t>(r.count("event count", kEventBytes)));
  for (DarknetEvent& e : events) {
    e.key.src = net::Ipv4Address(static_cast<std::uint32_t>(r.u64("event src")));
    e.key.dst_port = static_cast<std::uint16_t>(r.u64("event port"));
    const std::uint8_t type = r.u8("event type");
    if (type > static_cast<std::uint8_t>(pkt::TrafficType::Other)) {
      throw std::runtime_error("checkpoint: bad traffic type");
    }
    e.key.type = static_cast<pkt::TrafficType>(type);
    e.start = net::SimTime::at(net::Duration::nanos(r.i64("event start")));
    e.end = net::SimTime::at(net::Duration::nanos(r.i64("event end")));
    e.packets = r.u64("event packets");
    e.unique_dests = r.u64("event dests");
    for (std::uint64_t& t : e.packets_by_tool) t = r.u64("tool packets");
  }
  return events;
}

}  // namespace orion::telescope
