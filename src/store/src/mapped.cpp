#include "orion/store/mapped.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "layout.hpp"
#include "orion/netbase/crc32.hpp"

namespace orion::store {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("ode2 store: " + what);
}

}  // namespace

telescope::DarknetEvent BlockView::event(std::size_t i) const {
  telescope::DarknetEvent e;
  e.key.src = net::Ipv4Address(src[i]);
  e.key.dst_port = dst_port[i];
  e.key.type = static_cast<pkt::TrafficType>(type[i]);
  e.start = net::SimTime::at(net::Duration::nanos(start_ns[i]));
  e.end = net::SimTime::at(net::Duration::nanos(end_ns[i]));
  e.packets = packets[i];
  e.unique_dests = unique_dests[i];
  for (std::size_t t = 0; t < e.packets_by_tool.size(); ++t) {
    e.packets_by_tool[t] = tool_packets[t][i];
  }
  return e;
}

namespace detail {

bool parse_ode2_header(std::span<const std::uint8_t> file, Ode2Header& h,
                       std::string& error) {
  if (file.size() < kOde2HeaderBytes) return reject(error, "truncated header");
  const std::uint8_t* p = file.data();
  if (std::memcmp(p, "ODE2", 4) != 0) {
    return reject(error, "bad magic (not an ODE2 file)");
  }
  if (net::Crc32::of({p + 8, 32}) != get_u32(p + 4)) {
    return reject(error, "header CRC mismatch");
  }
  h.darknet_size = get_u64(p + 8);
  h.event_count = get_u64(p + 16);
  h.block_events = get_u64(p + 24);
  h.footer_offset = get_u64(p + 32);
  if (h.event_count > kMaxEventCount) return reject(error, "absurd event count");
  if (h.block_events == 0 || h.block_events > kMaxBlockEvents) {
    return reject(error, "absurd block size");
  }
  if (h.footer_offset != ode2_footer_offset(h.event_count, h.block_events)) {
    return reject(error, "header geometry mismatch");
  }
  return true;
}

bool parse_ode2_footer(std::span<const std::uint8_t> file, const Ode2Header& h,
                       Ode2Footer& footer, std::string& error) {
  const std::uint64_t n = h.event_count;
  const std::uint64_t block_count = h.block_count();
  if (h.footer_offset + 32 + 8 + 4 > file.size()) {
    return reject(error, "truncated footer");
  }
  const std::uint8_t* f = file.data() + h.footer_offset;
  footer.first_day = get_i64(f);
  footer.last_day = get_i64(f + 8);
  const std::uint64_t day_count = get_u64(f + 16);
  if (get_u64(f + 24) != block_count) return reject(error, "corrupt block count");
  // day_count must equal the window's width, and it is bounded before it
  // sizes the footer below.
  const bool day_count_ok =
      n == 0 ? day_count == 0
             : footer.last_day >= footer.first_day &&
                   day_count <= kMaxEventCount &&
                   day_count == static_cast<std::uint64_t>(footer.last_day) -
                                    static_cast<std::uint64_t>(footer.first_day) + 1;
  if (!day_count_ok) return reject(error, "corrupt day index");
  const std::uint64_t footer_bytes =
      32 + 8 * (day_count + 1) + (kOde2BlockMetaBytes + 4) * block_count + 4;
  if (h.footer_offset + footer_bytes != file.size()) {
    return reject(error, "truncated footer");
  }
  if (net::Crc32::of({f, static_cast<std::size_t>(footer_bytes - 4)}) !=
      get_u32(file.data() + file.size() - 4)) {
    return reject(error, "footer CRC mismatch");
  }

  const std::uint8_t* cursor = f + 32;
  footer.day_start.resize(static_cast<std::size_t>(day_count + 1));
  for (std::uint64_t& start : footer.day_start) {
    start = get_u64(cursor);
    cursor += 8;
  }
  // An empty file's window is empty too.
  if (footer.day_start.front() != 0 || footer.day_start.back() != n ||
      !std::is_sorted(footer.day_start.begin(), footer.day_start.end()) ||
      (n == 0 && footer.last_day >= footer.first_day)) {
    return reject(error, "corrupt day index");
  }

  footer.blocks.resize(static_cast<std::size_t>(block_count));
  std::uint64_t offset = kOde2HeaderBytes;
  for (std::uint64_t k = 0; k < block_count; ++k, cursor += kOde2BlockMetaBytes) {
    BlockMeta& meta = footer.blocks[static_cast<std::size_t>(k)];
    meta.offset = get_u64(cursor);
    meta.min_day = get_i64(cursor + 8);
    meta.max_day = get_i64(cursor + 16);
    meta.min_src = get_u32(cursor + 24);
    meta.max_src = get_u32(cursor + 28);
    if (meta.offset != offset || meta.min_day > meta.max_day ||
        meta.min_src > meta.max_src) {
      return reject(error, "corrupt block metadata");
    }
    offset += ode2_block_bytes(h.block_rows(k));
  }
  for (BlockMeta& meta : footer.blocks) {
    meta.crc = get_u32(cursor);
    cursor += 4;
  }
  return true;
}

BlockView ode2_block_view(const std::uint8_t* base, std::uint64_t rows,
                          std::size_t first_row) {
  const ColumnLayout at(rows);
  const auto m = static_cast<std::size_t>(rows);
  BlockView view;
  view.first_row = first_row;
  view.start_ns = {reinterpret_cast<const std::int64_t*>(base + at.start), m};
  view.end_ns = {reinterpret_cast<const std::int64_t*>(base + at.end), m};
  view.packets = {reinterpret_cast<const std::uint64_t*>(base + at.packets), m};
  view.unique_dests = {reinterpret_cast<const std::uint64_t*>(base + at.dests), m};
  for (std::size_t t = 0; t < view.tool_packets.size(); ++t) {
    view.tool_packets[t] = {
        reinterpret_cast<const std::uint64_t*>(base + at.tool[t]), m};
  }
  view.src = {reinterpret_cast<const std::uint32_t*>(base + at.src), m};
  view.dst_port = {reinterpret_cast<const std::uint16_t*>(base + at.port), m};
  view.type = {base + at.type, m};
  return view;
}

}  // namespace detail

MappedEventStore::MappedEventStore(const std::string& path) {
  std::string error;
  file_ = FileBytes::open(path, error);
  if (!error.empty() ||
      !detail::parse_ode2_header(file_.bytes(), header_, error) ||
      !detail::parse_ode2_footer(file_.bytes(), header_, footer_, error)) {
    fail(error);
  }
}

void MappedEventStore::row_outside_window(std::uint64_t row) {
  fail("row " + std::to_string(row) + " starts outside the day window");
}

BlockView MappedEventStore::block(std::size_t k) const {
  return detail::ode2_block_view(file_.data() + footer_.blocks[k].offset,
                                 header_.block_rows(k),
                                 k * static_cast<std::size_t>(header_.block_events));
}

std::pair<std::uint64_t, std::uint64_t> MappedEventStore::day_range(
    std::int64_t day) const {
  if (header_.event_count == 0 || day < footer_.first_day ||
      day > footer_.last_day) {
    return {0, 0};
  }
  const auto index = static_cast<std::size_t>(day - footer_.first_day);
  return {footer_.day_start[index], footer_.day_start[index + 1]};
}

std::size_t MappedEventStore::verify_blocks() const {
  for (std::size_t k = 0; k < footer_.blocks.size(); ++k) {
    const std::uint64_t bytes = ode2_block_bytes(header_.block_rows(k));
    if (net::Crc32::of({file_.data() + footer_.blocks[k].offset,
                        static_cast<std::size_t>(bytes)}) != footer_.blocks[k].crc) {
      return k;
    }
  }
  return footer_.blocks.size();
}

telescope::DarknetEvent MappedEventStore::event(std::uint64_t row) const {
  if (row >= header_.event_count) fail("event index out of range");
  const auto k = static_cast<std::size_t>(row / header_.block_events);
  return block(k).event(static_cast<std::size_t>(row % header_.block_events));
}

telescope::EventDataset MappedEventStore::to_dataset() const {
  std::vector<telescope::DarknetEvent> events;
  events.reserve(event_count());
  for (std::size_t k = 0; k < footer_.blocks.size(); ++k) {
    const BlockView view = block(k);
    for (std::size_t i = 0; i < view.rows(); ++i) {
      events.push_back(view.event(i));
    }
  }
  return telescope::EventDataset(std::move(events), header_.darknet_size);
}

}  // namespace orion::store
