#include "orion/store/ode2.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "layout.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/store/mapped.hpp"

namespace orion::store {

namespace {

constexpr char kMagic[4] = {'O', 'D', 'E', '2'};

std::uint64_t total_block_bytes(std::uint64_t n, std::uint64_t b) {
  if (n == 0) return 0;
  const std::uint64_t full = n / b;
  const std::uint64_t rest = n % b;
  return full * ode2_block_bytes(b) + (rest ? ode2_block_bytes(rest) : 0);
}

}  // namespace

std::uint64_t write_events_ode2(const telescope::EventDataset& dataset,
                                net::io::File& out,
                                std::uint64_t block_events) {
  if (block_events == 0 || block_events > detail::kMaxBlockEvents) {
    throw std::invalid_argument("ode2 store: bad block size");
  }
  const auto& events = dataset.events();
  const std::uint64_t n = events.size();
  for (std::uint64_t i = 1; i < n; ++i) {
    if (events[i].start < events[i - 1].start) {
      throw std::invalid_argument(
          "ode2 store: events not in start order (day index needs it)");
    }
  }

  const std::uint64_t b = block_events;
  const std::uint64_t block_count = n == 0 ? 0 : (n + b - 1) / b;
  const std::uint64_t footer_offset =
      kOde2HeaderBytes + total_block_bytes(n, b);

  // Header: magic, CRC over the 32 field bytes, then the fields —
  // assembled in memory and emitted as one write.
  std::vector<std::uint8_t> header;
  header.reserve(kOde2HeaderBytes);
  header.insert(header.end(), kMagic, kMagic + 4);
  std::vector<std::uint8_t> fields;
  fields.reserve(32);
  detail::append<std::uint64_t>(fields, dataset.darknet_size());
  detail::append<std::uint64_t>(fields, n);
  detail::append<std::uint64_t>(fields, b);
  detail::append<std::uint64_t>(fields, footer_offset);
  detail::append<std::uint32_t>(header, net::Crc32::of({fields.data(), 32}));
  header.insert(header.end(), fields.begin(), fields.end());
  out.write(header.data(), header.size());

  // Column blocks, each assembled in memory for one write + one CRC.
  std::vector<BlockMeta> metas;
  metas.reserve(static_cast<std::size_t>(block_count));
  std::vector<std::uint8_t> buf;
  std::uint64_t offset = kOde2HeaderBytes;
  for (std::uint64_t k = 0; k < block_count; ++k) {
    const std::uint64_t lo = k * b;
    const std::uint64_t hi = std::min(n, lo + b);
    buf.clear();
    buf.reserve(static_cast<std::size_t>(ode2_block_bytes(hi - lo)));
    for (std::uint64_t i = lo; i < hi; ++i) {
      detail::append<std::int64_t>(buf, events[i].start.since_epoch().total_nanos());
    }
    for (std::uint64_t i = lo; i < hi; ++i) {
      detail::append<std::int64_t>(buf, events[i].end.since_epoch().total_nanos());
    }
    for (std::uint64_t i = lo; i < hi; ++i) {
      detail::append<std::uint64_t>(buf, events[i].packets);
    }
    for (std::uint64_t i = lo; i < hi; ++i) {
      detail::append<std::uint64_t>(buf, events[i].unique_dests);
    }
    for (std::size_t t = 0; t < std::tuple_size_v<telescope::ToolPackets>; ++t) {
      for (std::uint64_t i = lo; i < hi; ++i) {
        detail::append<std::uint64_t>(buf, events[i].packets_by_tool[t]);
      }
    }
    for (std::uint64_t i = lo; i < hi; ++i) {
      detail::append<std::uint32_t>(buf, events[i].key.src.value());
    }
    for (std::uint64_t i = lo; i < hi; ++i) {
      detail::append<std::uint16_t>(buf, events[i].key.dst_port);
    }
    for (std::uint64_t i = lo; i < hi; ++i) {
      detail::append<std::uint8_t>(buf,
                                   static_cast<std::uint8_t>(events[i].key.type));
    }
    buf.resize(static_cast<std::size_t>(ode2_block_bytes(hi - lo)), 0);  // pad

    BlockMeta meta;
    meta.offset = offset;
    meta.min_day = meta.max_day = events[lo].day();
    meta.min_src = meta.max_src = events[lo].key.src.value();
    for (std::uint64_t i = lo; i < hi; ++i) {
      meta.min_day = std::min(meta.min_day, events[i].day());
      meta.max_day = std::max(meta.max_day, events[i].day());
      meta.min_src = std::min(meta.min_src, events[i].key.src.value());
      meta.max_src = std::max(meta.max_src, events[i].key.src.value());
    }
    meta.crc = net::Crc32::of({buf.data(), buf.size()});
    metas.push_back(meta);
    out.write(buf.data(), buf.size());
    offset += buf.size();
  }

  // Footer: window + day index + zone maps + block CRCs, CRC-sealed.
  const std::int64_t first_day = n == 0 ? 0 : dataset.first_day();
  const std::int64_t last_day = n == 0 ? -1 : dataset.last_day();
  const std::uint64_t day_count =
      n == 0 ? 0 : static_cast<std::uint64_t>(last_day - first_day + 1);
  std::vector<std::uint8_t> footer;
  detail::append<std::int64_t>(footer, first_day);
  detail::append<std::int64_t>(footer, last_day);
  detail::append<std::uint64_t>(footer, day_count);
  detail::append<std::uint64_t>(footer, block_count);
  detail::append<std::uint64_t>(footer, 0);  // day_start[0]
  std::uint64_t cursor = 0;
  for (std::uint64_t d = 0; d < day_count; ++d) {
    while (cursor < n &&
           events[cursor].day() <= first_day + static_cast<std::int64_t>(d)) {
      ++cursor;
    }
    detail::append<std::uint64_t>(footer, cursor);
  }
  for (const BlockMeta& meta : metas) {
    detail::append<std::uint64_t>(footer, meta.offset);
    detail::append<std::int64_t>(footer, meta.min_day);
    detail::append<std::int64_t>(footer, meta.max_day);
    detail::append<std::uint32_t>(footer, meta.min_src);
    detail::append<std::uint32_t>(footer, meta.max_src);
  }
  for (const BlockMeta& meta : metas) {
    detail::append<std::uint32_t>(footer, meta.crc);
  }
  const std::uint32_t footer_crc =
      net::Crc32::of({footer.data(), footer.size()});
  detail::append<std::uint32_t>(footer, footer_crc);
  out.write(footer.data(), footer.size());
  return footer_offset + footer.size();
}

std::uint64_t write_events_ode2_file(const telescope::EventDataset& dataset,
                                     const std::string& path,
                                     std::uint64_t block_events) {
  net::io::File out = net::io::File::create(path);
  const std::uint64_t bytes = write_events_ode2(dataset, out, block_events);
  out.sync();
  out.close();
  return bytes;
}

namespace {

/// Parsed, CRC-verified header fields (salvage-side mirror of the strict
/// reader's checks; returns false with `error` set instead of throwing).
struct Header {
  std::uint64_t darknet_size = 0;
  std::uint64_t event_count = 0;
  std::uint64_t block_events = 0;
  std::uint64_t footer_offset = 0;
};

bool parse_header(const std::vector<std::uint8_t>& bytes, Header& h,
                  std::string& error) {
  if (bytes.size() < kOde2HeaderBytes) {
    error = "ode2 store: truncated header";
    return false;
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    error = "ode2 store: bad magic (not an ODE2 file)";
    return false;
  }
  const std::uint32_t stored_crc = detail::get_u32(bytes.data() + 4);
  if (net::Crc32::of({bytes.data() + 8, 32}) != stored_crc) {
    error = "ode2 store: header CRC mismatch";
    return false;
  }
  h.darknet_size = detail::get_u64(bytes.data() + 8);
  h.event_count = detail::get_u64(bytes.data() + 16);
  h.block_events = detail::get_u64(bytes.data() + 24);
  h.footer_offset = detail::get_u64(bytes.data() + 32);
  if (h.event_count > detail::kMaxEventCount) {
    error = "ode2 store: absurd event count";
    return false;
  }
  if (h.block_events == 0 || h.block_events > detail::kMaxBlockEvents) {
    error = "ode2 store: absurd block size";
    return false;
  }
  if (h.footer_offset !=
      kOde2HeaderBytes + total_block_bytes(h.event_count, h.block_events)) {
    error = "ode2 store: header geometry mismatch";
    return false;
  }
  return true;
}

/// True when every traffic-type byte of the block is a valid enum value.
bool types_valid(const std::uint8_t* base, std::uint64_t rows) {
  const detail::ColumnLayout at(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    if (base[at.type + i] > static_cast<std::uint8_t>(pkt::TrafficType::Other)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Ode2SalvageResult read_events_ode2_salvage(const std::string& path) {
  Ode2SalvageResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.error = "ode2 store: cannot open " + path;
    return result;
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};

  Header h;
  if (!parse_header(bytes, h, result.error)) {
    return result;
  }
  result.declared_count = h.event_count;
  const std::uint64_t n = h.event_count;
  const std::uint64_t b = h.block_events;
  const std::uint64_t block_count = n == 0 ? 0 : (n + b - 1) / b;

  // Try the footer; its CRC decides whether per-block CRCs are usable.
  std::vector<std::uint32_t> block_crcs;
  if (h.footer_offset + 32 + 8 <= bytes.size()) {
    const std::uint8_t* f = bytes.data() + h.footer_offset;
    const std::uint64_t day_count = detail::get_u64(f + 16);
    const std::uint64_t footer_blocks = detail::get_u64(f + 24);
    const std::uint64_t footer_bytes =
        32 + 8 * (day_count + 1) + (32 + 4) * footer_blocks + 4;
    if (footer_blocks == block_count && day_count <= detail::kMaxEventCount &&
        h.footer_offset + footer_bytes == bytes.size()) {
      const std::uint32_t stored =
          detail::get_u32(bytes.data() + bytes.size() - 4);
      if (net::Crc32::of({f, static_cast<std::size_t>(footer_bytes - 4)}) ==
          stored) {
        result.footer_intact = true;
        const std::uint8_t* crcs =
            f + 32 + 8 * (day_count + 1) + 32 * footer_blocks;
        for (std::uint64_t k = 0; k < block_count; ++k) {
          block_crcs.push_back(detail::get_u32(crcs + 4 * k));
        }
      }
    }
  }

  // Recover the prefix of complete, valid blocks (CRC-checked when the
  // footer survived; structurally validated when it did not).
  std::vector<telescope::DarknetEvent> events;
  events.reserve(static_cast<std::size_t>(std::min(n, std::uint64_t{1} << 16)));
  result.complete = result.footer_intact;
  std::uint64_t offset = kOde2HeaderBytes;
  for (std::uint64_t k = 0; k < block_count; ++k) {
    const std::uint64_t rows = std::min(b, n - k * b);
    const std::uint64_t block_bytes = ode2_block_bytes(rows);
    if (offset + block_bytes > bytes.size()) {
      result.complete = false;
      result.error = "ode2 store: truncated block " + std::to_string(k);
      break;
    }
    const std::uint8_t* base = bytes.data() + offset;
    if (result.footer_intact) {
      if (net::Crc32::of({base, static_cast<std::size_t>(block_bytes)}) !=
          block_crcs[static_cast<std::size_t>(k)]) {
        result.complete = false;
        result.error = "ode2 store: block " + std::to_string(k) + " CRC mismatch";
        break;
      }
    } else if (!types_valid(base, rows)) {
      result.complete = false;
      result.error = "ode2 store: bad traffic type in block " + std::to_string(k);
      break;
    }
    for (std::uint64_t i = 0; i < rows; ++i) {
      events.push_back(detail::decode_row(base, rows, i));
    }
    offset += block_bytes;
  }
  if (!result.footer_intact && result.error.empty()) {
    result.error = "ode2 store: footer missing or corrupt";
  }
  result.recovered_count = events.size();
  result.dataset = telescope::EventDataset(std::move(events), h.darknet_size);
  return result;
}

}  // namespace orion::store
