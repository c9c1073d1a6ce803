#include "orion/store/mapped_flow.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <tuple>

#include "flow_layout.hpp"
#include "orion/netbase/crc32.hpp"

namespace orion::store {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("fde1 store: " + what);
}

FileBytes open_or_fail(const std::string& path) {
  std::string error;
  FileBytes file = FileBytes::open(path, error);
  if (!error.empty()) fail(error);
  return file;
}

}  // namespace

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

bool parse_fde1_header(std::span<const std::uint8_t> file, Fde1Header& h,
                       std::string& error) {
  if (file.size() < kFde1HeaderBytes) return reject(error, "truncated header");
  const std::uint8_t* p = file.data();
  if (std::memcmp(p, "FDE1", 4) != 0) {
    return reject(error, "bad magic (not an FDE1 file)");
  }
  if (net::Crc32::of({p + 8, 32}) != get_u32(p + 4)) {
    return reject(error, "header CRC mismatch");
  }
  h.sampling_rate = static_cast<std::uint32_t>(get_u64(p + 8));
  h.flow_count = get_u64(p + 16);
  h.block_flows = get_u64(p + 24);
  h.footer_offset = get_u64(p + 32);
  if (h.flow_count > kMaxFlowCount) return reject(error, "absurd flow count");
  if (h.block_flows == 0 || h.block_flows > kMaxBlockFlows) {
    return reject(error, "absurd block size");
  }
  if (h.footer_offset != fde1_footer_offset(h.flow_count, h.block_flows)) {
    return reject(error, "header geometry mismatch");
  }
  return true;
}

bool parse_fde1_footer(std::span<const std::uint8_t> file, const Fde1Header& h,
                       Fde1Footer& footer, std::string& error) {
  const std::uint64_t n = h.flow_count;
  const std::uint64_t block_count = h.block_count();
  if (h.footer_offset + 32 + 4 > file.size()) {
    return reject(error, "truncated footer");
  }
  const std::uint8_t* f = file.data() + h.footer_offset;
  footer.start_day = get_i64(f);
  footer.end_day = get_i64(f + 8);
  const std::uint64_t segment_count = get_u64(f + 16);
  if (get_u64(f + 24) != block_count) return reject(error, "corrupt block count");
  if (footer.start_day > footer.end_day) return reject(error, "corrupt day window");
  if (segment_count > kMaxSegmentCount) {
    return reject(error, "absurd segment count");
  }
  const std::uint64_t footer_bytes = 32 + kFde1SegmentBytes * segment_count +
                                     (kFde1BlockMetaBytes + 4) * block_count + 4;
  if (h.footer_offset + footer_bytes != file.size()) {
    return reject(error, "truncated footer");
  }
  if (net::Crc32::of({f, static_cast<std::size_t>(footer_bytes - 4)}) !=
      get_u32(file.data() + file.size() - 4)) {
    return reject(error, "footer CRC mismatch");
  }

  if (static_cast<std::uint64_t>(footer.end_day) -
          static_cast<std::uint64_t>(footer.start_day) >
      kMaxWindowDays) {
    return reject(error, "corrupt day window");
  }

  const std::uint8_t* cursor = f + 32;
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

  footer.blocks.resize(static_cast<std::size_t>(block_count));
  std::uint64_t offset = kFde1HeaderBytes;
  for (std::uint64_t k = 0; k < block_count; ++k, cursor += kFde1BlockMetaBytes) {
    FlowBlockMeta& meta = footer.blocks[static_cast<std::size_t>(k)];
    meta.offset = get_u64(cursor);
    meta.min_src = get_u32(cursor + 8);
    meta.max_src = get_u32(cursor + 12);
    if (meta.offset != offset || meta.min_src > meta.max_src) {
      return reject(error, "corrupt block metadata");
    }
    offset += fde1_block_bytes(h.block_rows(k));
  }
  for (FlowBlockMeta& meta : footer.blocks) {
    meta.crc = get_u32(cursor);
    cursor += 4;
  }
  return true;
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
    : MappedFlowStore(open_or_fail(path)) {}

MappedFlowStore::MappedFlowStore(FileBytes image) : file_(std::move(image)) {
  std::string error;
  if (!detail::parse_fde1_header(file_.bytes(), header_, error) ||
      !detail::parse_fde1_footer(file_.bytes(), header_, footer_, error)) {
    fail(error);
  }
}

FlowView MappedFlowStore::block(std::size_t k) const {
  return detail::fde1_block_view(file_.data() + footer_.blocks[k].offset,
                                 header_.block_rows(k),
                                 k * static_cast<std::size_t>(header_.block_flows));
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
  for (std::size_t k = 0; k < footer_.blocks.size(); ++k) {
    const std::uint64_t bytes = fde1_block_bytes(header_.block_rows(k));
    if (net::Crc32::of({file_.data() + footer_.blocks[k].offset,
                        static_cast<std::size_t>(bytes)}) != footer_.blocks[k].crc) {
      return k;
    }
  }
  return footer_.blocks.size();
}

flowsim::FlowRecord MappedFlowStore::record(std::uint64_t row) const {
  if (row >= header_.flow_count) fail("flow index out of range");
  const auto k = static_cast<std::size_t>(row / header_.block_flows);
  return block(k).record(static_cast<std::size_t>(row % header_.block_flows));
}

flowsim::FlowBatch MappedFlowStore::to_batch() const {
  flowsim::FlowBatch batch(flow_count());
  for_each_span(0, header_.flow_count,
                [&batch](const FlowView& view, std::size_t lo, std::size_t hi) {
                  batch.append_columns(view, lo, hi);
                });
  return batch;
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

flowsim::FlowDataset MappedFlowStore::to_dataset() const {
  flowsim::FlowSimConfig config;
  config.start_day = footer_.start_day;
  config.end_day = footer_.end_day;
  config.sampling_rate = header_.sampling_rate;
  const auto days = static_cast<std::size_t>(footer_.end_day - footer_.start_day);
  std::vector<flowsim::RouterDay> cells(flowsim::kRouterCount * days);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].router = static_cast<std::uint16_t>(i / days);
    cells[i].day = footer_.start_day + static_cast<std::int64_t>(i % days);
  }
  for (const FlowSegment& seg : footer_.segments) {
    if (seg.router >= flowsim::kRouterCount) {
      fail("to_dataset: segment router outside the paper topology");
    }
    cells[seg.router * days +
          static_cast<std::size_t>(seg.day - footer_.start_day)] = cell(seg);
  }
  return flowsim::FlowDataset(std::move(config), std::move(cells));
}

}  // namespace orion::store
