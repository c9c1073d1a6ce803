#include "orion/store/mapped.hpp"

#include <algorithm>

#include "layout.hpp"

namespace orion::store {

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

bool parse_ode2_footer(std::span<const std::uint8_t> file, const FrameHeader& h,
                       Ode2Footer& footer, std::string& error) {
  FooterHead head;
  // day_start[0] is there even when the window is empty.
  if (!read_footer_head(file, h, 8, head, error)) return false;
  const std::uint64_t n = h.row_count;
  footer.first_day = head.day_a;
  footer.last_day = head.day_b;
  const std::uint64_t day_count = head.index_count;
  // day_count must equal the window's width, and it is bounded before it
  // sizes the footer below.
  const bool day_count_ok =
      n == 0 ? day_count == 0
             : footer.last_day >= footer.first_day &&
                   day_count <= kMaxRows &&
                   day_count == static_cast<std::uint64_t>(footer.last_day) -
                                    static_cast<std::uint64_t>(footer.first_day) + 1;
  if (!day_count_ok) return reject(error, "corrupt day index");
  if (!seal_footer(kOde2, file, h, 8 * (day_count + 1), error)) return false;

  const std::uint8_t* cursor = file.data() + h.footer_offset + 32;
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
  return read_block_metas(
      kOde2, h, cursor, footer.blocks,
      [](const std::uint8_t* zone, BlockMeta& meta) {
        meta.min_day = get_i64(zone);
        meta.max_day = get_i64(zone + 8);
        meta.min_src = get_u32(zone + 16);
        meta.max_src = get_u32(zone + 20);
        return meta.min_day <= meta.max_day && meta.min_src <= meta.max_src;
      },
      error);
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

MappedEventStore::MappedEventStore(const std::string& path)
    : MappedEventStore(detail::open_or_fail(detail::kOde2, path)) {}

MappedEventStore::MappedEventStore(FileBytes file) : file_(std::move(file)) {
  std::string error;
  if (!detail::parse_header(detail::kOde2, file_.bytes(), header_, error) ||
      !detail::parse_ode2_footer(file_.bytes(), header_, footer_, error)) {
    detail::fail(detail::kOde2, error);
  }
}

void MappedEventStore::row_outside_window(std::uint64_t row) {
  detail::fail(detail::kOde2,
               "row " + std::to_string(row) + " starts outside the day window");
}

BlockView MappedEventStore::block(std::size_t k) const {
  return detail::ode2_block_view(file_.data() + footer_.blocks[k].offset,
                                 header_.block_rows(k),
                                 k * static_cast<std::size_t>(header_.block_size));
}

std::pair<std::uint64_t, std::uint64_t> MappedEventStore::day_range(
    std::int64_t day) const {
  if (header_.row_count == 0 || day < footer_.first_day ||
      day > footer_.last_day) {
    return {0, 0};
  }
  const auto index = static_cast<std::size_t>(day - footer_.first_day);
  return {footer_.day_start[index], footer_.day_start[index + 1]};
}

std::size_t MappedEventStore::verify_blocks() const {
  return detail::verify_blocks(detail::kOde2, file_, header_, footer_.blocks);
}

telescope::DarknetEvent MappedEventStore::event(std::uint64_t row) const {
  if (row >= header_.row_count) detail::fail(detail::kOde2, "event index out of range");
  const auto k = static_cast<std::size_t>(row / header_.block_size);
  return block(k).event(static_cast<std::size_t>(row % header_.block_size));
}

telescope::EventDataset MappedEventStore::to_dataset() const {
  std::vector<telescope::DarknetEvent> events;
  events.reserve(event_count());
  for (std::size_t k = 0; k < footer_.blocks.size(); ++k) {
    if (!detail::block_crc_ok(detail::kOde2, file_.data() + footer_.blocks[k].offset,
                              header_.block_rows(k), footer_.blocks[k].crc)) {
      detail::fail(detail::kOde2, "block " + std::to_string(k) + " CRC mismatch");
    }
    const BlockView view = block(k);
    for (std::size_t i = 0; i < view.rows(); ++i) {
      events.push_back(view.event(i));
      check_window(events.back().day(), view.first_row + i);
    }
  }
  return telescope::EventDataset(std::move(events), header_.param);
}

}  // namespace orion::store
