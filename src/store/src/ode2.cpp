#include "orion/store/ode2.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "layout.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/store/mapped.hpp"

namespace orion::store {

namespace {

constexpr char kMagic[4] = {'O', 'D', 'E', '2'};

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
  const std::uint64_t footer_offset = detail::ode2_footer_offset(n, b);

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

  // Column blocks, each sized once (pad included) and filled in place for
  // one write + one CRC.
  std::vector<BlockMeta> metas;
  metas.reserve(static_cast<std::size_t>(block_count));
  std::vector<std::uint8_t> buf;
  std::uint64_t offset = kOde2HeaderBytes;
  for (std::uint64_t k = 0; k < block_count; ++k) {
    const std::uint64_t lo = k * b;
    const std::uint64_t m = std::min(n, lo + b) - lo;
    buf.assign(static_cast<std::size_t>(ode2_block_bytes(m)), 0);
    std::uint8_t* block = buf.data();
    const detail::ColumnLayout col(m);
    BlockMeta meta;
    meta.offset = offset;
    meta.min_day = meta.max_day = events[lo].day();
    meta.min_src = meta.max_src = events[lo].key.src.value();
    for (std::uint64_t i = 0; i < m; ++i) {
      const telescope::DarknetEvent& e = events[lo + i];
      detail::put<std::int64_t>(block, col.start, i, e.start.since_epoch().total_nanos());
      detail::put<std::int64_t>(block, col.end, i, e.end.since_epoch().total_nanos());
      detail::put<std::uint64_t>(block, col.packets, i, e.packets);
      detail::put<std::uint64_t>(block, col.dests, i, e.unique_dests);
      for (std::size_t t = 0; t < std::tuple_size_v<telescope::ToolPackets>; ++t) {
        detail::put<std::uint64_t>(block, col.tool[t], i, e.packets_by_tool[t]);
      }
      detail::put<std::uint32_t>(block, col.src, i, e.key.src.value());
      detail::put<std::uint16_t>(block, col.port, i, e.key.dst_port);
      detail::put<std::uint8_t>(block, col.type, i,
                                static_cast<std::uint8_t>(e.key.type));
      meta.min_day = std::min(meta.min_day, e.day());
      meta.max_day = std::max(meta.max_day, e.day());
      meta.min_src = std::min(meta.min_src, e.key.src.value());
      meta.max_src = std::max(meta.max_src, e.key.src.value());
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

Ode2SalvageResult read_events_ode2_salvage(const std::string& path) {
  Ode2SalvageResult result;
  const auto fail = [&result](const std::string& what) {
    result.error = "ode2 store: " + what;
  };
  std::string error;
  const FileBytes file = FileBytes::open(path, error);
  Ode2Header header;
  if (!error.empty() || !detail::parse_ode2_header(file.bytes(), header, error)) {
    fail(error);
    return result;
  }
  result.declared_count = header.event_count;

  // A footer that parses makes the per-block CRCs usable; without one the
  // blocks are walked from the header geometry and checked structurally.
  Ode2Footer footer;
  result.footer_intact =
      detail::parse_ode2_footer(file.bytes(), header, footer, error);

  // Recover the prefix of complete, valid blocks.
  std::vector<telescope::DarknetEvent> events;
  events.reserve(static_cast<std::size_t>(
      std::min(header.event_count, std::uint64_t{1} << 16)));
  std::uint64_t offset = kOde2HeaderBytes;
  for (std::uint64_t k = 0; k < header.block_count(); ++k) {
    const std::uint64_t block_bytes = ode2_block_bytes(header.block_rows(k));
    if (offset + block_bytes > file.size()) {
      fail("truncated block " + std::to_string(k));
      break;
    }
    const std::uint8_t* base = file.data() + offset;
    const BlockView view =
        detail::ode2_block_view(base, header.block_rows(k), events.size());
    if (result.footer_intact) {
      if (net::Crc32::of({base, static_cast<std::size_t>(block_bytes)}) !=
          footer.blocks[static_cast<std::size_t>(k)].crc) {
        fail("block " + std::to_string(k) + " CRC mismatch");
        break;
      }
    } else if (std::any_of(view.type.begin(), view.type.end(), [](std::uint8_t t) {
                 return t > static_cast<std::uint8_t>(pkt::TrafficType::Other);
               })) {
      fail("bad traffic type in block " + std::to_string(k));
      break;
    }
    for (std::size_t i = 0; i < view.rows(); ++i) events.push_back(view.event(i));
    offset += block_bytes;
  }
  result.complete = result.footer_intact && result.error.empty();
  if (!result.footer_intact && result.error.empty()) {
    fail("footer missing or corrupt");
  }
  result.recovered_count = events.size();
  result.dataset = telescope::EventDataset(std::move(events), header.darknet_size);
  return result;
}

}  // namespace orion::store
