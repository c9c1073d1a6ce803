#include "orion/store/mapped_flow.hpp"

#include <algorithm>
#include <tuple>

#include "flow_layout.hpp"

namespace orion::store {

flowsim::FlowRecord FlowView::record(std::size_t i) const {
  flowsim::FlowRecord r;
  r.ts_ns = ts_ns[i];
  r.packets = packets[i];
  r.bytes = bytes[i];
  r.src = net::Ipv4Address(src[i]);
  r.dst = net::Ipv4Address(dst[i]);
  r.src_port = src_port[i];
  r.dst_port = dst_port[i];
  r.router = router[i];
  r.proto = proto[i];
  return r;
}

namespace detail {

bool parse_fde1_footer(std::span<const std::uint8_t> file, const FrameHeader& h,
                       Fde1Footer& footer, std::string& error) {
  FooterHead head;
  if (!read_footer_head(file, h, 0, head, error)) return false;
  const std::uint64_t n = h.row_count;
  footer.start_day = head.day_a;
  footer.end_day = head.day_b;
  const std::uint64_t segment_count = head.index_count;
  if (footer.start_day > footer.end_day) return reject(error, "corrupt day window");
  if (segment_count > kMaxSegmentCount) {
    return reject(error, "absurd segment count");
  }
  if (!seal_footer(kFde1, file, h, kFde1SegmentBytes * segment_count, error)) {
    return false;
  }

  if (static_cast<std::uint64_t>(footer.end_day) -
          static_cast<std::uint64_t>(footer.start_day) >
      kMaxWindowDays) {
    return reject(error, "corrupt day window");
  }

  const std::uint8_t* cursor = file.data() + h.footer_offset + 32;
  footer.segments.resize(static_cast<std::size_t>(segment_count));
  for (std::uint64_t s = 0; s < segment_count; ++s, cursor += kFde1SegmentBytes) {
    FlowSegment& seg = footer.segments[static_cast<std::size_t>(s)];
    seg.router = static_cast<std::size_t>(get_u64(cursor));
    seg.day = get_i64(cursor + 8);
    seg.row_begin = get_u64(cursor + 16);
    seg.row_end = s + 1 < segment_count
                      ? get_u64(cursor + kFde1SegmentBytes + 16)
                      : n;
    seg.total_packets = get_u64(cursor + 24);
    seg.user_packets = get_u64(cursor + 32);
    seg.scanner_packets = get_u64(cursor + 40);
    if (seg.day < footer.start_day || seg.day >= footer.end_day) {
      return reject(error, "corrupt segment index (day outside window)");
    }
    if (seg.row_begin > seg.row_end || seg.row_end > n) {
      return reject(error, "corrupt segment index (bad row range)");
    }
    if (s > 0) {
      const FlowSegment& prev = footer.segments[static_cast<std::size_t>(s - 1)];
      if (std::tie(prev.router, prev.day) >= std::tie(seg.router, seg.day)) {
        return reject(error, "corrupt segment index (unordered)");
      }
    }
  }
  if (!footer.segments.empty() && (footer.segments.front().row_begin != 0 ||
                                   footer.segments.back().row_end != n)) {
    return reject(error, "corrupt segment index (row coverage)");
  }
  if (footer.segments.empty() && n != 0) {
    return reject(error, "corrupt segment index (rows without segments)");
  }
  return read_block_metas(
      kFde1, h, cursor, footer.blocks,
      [](const std::uint8_t* zone, FlowBlockMeta& meta) {
        meta.min_src = get_u32(zone);
        meta.max_src = get_u32(zone + 4);
        return meta.min_src <= meta.max_src;
      },
      error);
}

FlowView fde1_block_view(const std::uint8_t* base, std::uint64_t rows,
                         std::size_t first_row) {
  const FlowColumnLayout at(rows);
  const auto m = static_cast<std::size_t>(rows);
  FlowView view;
  view.first_row = first_row;
  view.ts_ns = {reinterpret_cast<const std::int64_t*>(base + at.ts), m};
  view.packets = {reinterpret_cast<const std::uint64_t*>(base + at.packets), m};
  view.bytes = {reinterpret_cast<const std::uint64_t*>(base + at.bytes), m};
  view.src = {reinterpret_cast<const std::uint32_t*>(base + at.src), m};
  view.dst = {reinterpret_cast<const std::uint32_t*>(base + at.dst), m};
  view.src_port = {reinterpret_cast<const std::uint16_t*>(base + at.src_port), m};
  view.dst_port = {reinterpret_cast<const std::uint16_t*>(base + at.dst_port), m};
  view.router = {reinterpret_cast<const std::uint16_t*>(base + at.router), m};
  view.proto = {base + at.proto, m};
  return view;
}

}  // namespace detail

MappedFlowStore::MappedFlowStore(const std::string& path)
    : MappedFlowStore(detail::open_or_fail(detail::kFde1, path)) {}

MappedFlowStore::MappedFlowStore(FileBytes image) : file_(std::move(image)) {
  std::string error;
  if (!detail::parse_header(detail::kFde1, file_.bytes(), header_, error) ||
      !detail::parse_fde1_footer(file_.bytes(), header_, footer_, error)) {
    detail::fail(detail::kFde1, error);
  }
}

FlowView MappedFlowStore::block(std::size_t k) const {
  return detail::fde1_block_view(file_.data() + footer_.blocks[k].offset,
                                 header_.block_rows(k),
                                 k * static_cast<std::size_t>(header_.block_size));
}

const FlowSegment* MappedFlowStore::segment(std::size_t router,
                                            std::int64_t day) const {
  const auto it = std::lower_bound(
      footer_.segments.begin(), footer_.segments.end(), std::make_pair(router, day),
      [](const FlowSegment& seg, const std::pair<std::size_t, std::int64_t>& key) {
        return std::tie(seg.router, seg.day) < std::tie(key.first, key.second);
      });
  if (it == footer_.segments.end() || it->router != router || it->day != day) {
    return nullptr;
  }
  return &*it;
}

std::pair<std::uint64_t, std::uint64_t> MappedFlowStore::row_range(
    std::size_t router, std::int64_t day) const {
  const FlowSegment* seg = segment(router, day);
  if (seg == nullptr) return {0, 0};
  return {seg->row_begin, seg->row_end};
}

std::size_t MappedFlowStore::verify_blocks() const {
  return detail::verify_blocks(detail::kFde1, file_, header_, footer_.blocks);
}

flowsim::FlowRecord MappedFlowStore::record(std::uint64_t row) const {
  if (row >= header_.row_count) detail::fail(detail::kFde1, "flow index out of range");
  const auto k = static_cast<std::size_t>(row / header_.block_size);
  return block(k).record(static_cast<std::size_t>(row % header_.block_size));
}

flowsim::RouterDay MappedFlowStore::cell(const FlowSegment& seg) const {
  flowsim::RouterDay rd;
  rd.router = static_cast<std::uint16_t>(seg.router);
  rd.day = seg.day;
  rd.total_packets = seg.total_packets;
  rd.user_packets = seg.user_packets;
  rd.scanner_packets = seg.scanner_packets;
  rd.rows.reserve(static_cast<std::size_t>(seg.row_end - seg.row_begin));
  for_each_span(seg.row_begin, seg.row_end,
                [&rd](const FlowView& view, std::size_t lo, std::size_t hi) {
                  rd.rows.append_columns(view, lo, hi);
                });
  return rd;
}

}  // namespace orion::store
