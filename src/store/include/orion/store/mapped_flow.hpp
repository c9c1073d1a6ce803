// MappedFlowStore — the zero-copy query engine over FDE1 flow archives.
//
// Opens an FDE1 file via mmap (read-into-buffer fallback when mapping is
// unavailable), or an FDE1 image built in memory (fde1_image), and
// exposes the column blocks as typed spans. The footer's
// per-(router, day) segment index answers row_range() with one binary
// search, so an impact query touches exactly the rows of its cell — no
// FlowRecord is ever materialized on that path: FlowSourceIndex builds
// straight from the mapped src/dst_port/proto/packets spans
// (impact::FlowImpactAnalyzer), and the per-block src zone maps let
// source-targeted scans skip whole blocks. This is the flow-side sibling
// of MappedEventStore.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "orion/flowsim/flow_batch.hpp"
#include "orion/flowsim/flows.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/file_bytes.hpp"
#include "orion/store/mapped.hpp"

namespace orion::store {

/// One row group of flows, viewed column-wise. `first_row` is the global
/// index of the block's row 0, so row_range() results translate directly.
struct FlowView {
  std::size_t first_row = 0;
  ColumnSpan<std::int64_t> ts_ns;
  ColumnSpan<std::uint64_t> packets;
  ColumnSpan<std::uint64_t> bytes;
  ColumnSpan<std::uint32_t> src;
  ColumnSpan<std::uint32_t> dst;
  ColumnSpan<std::uint16_t> src_port;
  ColumnSpan<std::uint16_t> dst_port;
  ColumnSpan<std::uint16_t> router;
  ColumnSpan<std::uint8_t> proto;

  std::size_t rows() const { return src.size(); }

  /// Gathers one row into a full FlowRecord (the only materializing
  /// accessor; scans should read the spans instead).
  flowsim::FlowRecord record(std::size_t i) const;
};

/// Footer metadata for one flow block: where it lives and its src zone
/// map (FDE1 blocks need no day zone map — the segment index already
/// bounds every (router, day) scan to an exact row range).
struct FlowBlockMeta {
  std::uint64_t offset = 0;  // file offset of the block's first byte
  std::uint32_t min_src = 0;
  std::uint32_t max_src = 0;
  std::uint32_t crc = 0;  // CRC-32 of the block's padded bytes
};

/// An FDE1 footer whose CRC, day window, segment index and block metadata
/// checked out against its header.
struct Fde1Footer {
  std::int64_t start_day = 0;
  std::int64_t end_day = 0;
  std::vector<FlowSegment> segments;  // sorted by (router, day)
  std::vector<FlowBlockMeta> blocks;
};

class MappedFlowStore {
 public:
  /// Strict open: maps the file and verifies magic, header CRC, geometry,
  /// footer CRC and segment-index sanity (block payloads stay lazy —
  /// verify_blocks() checks them on demand). Throws std::runtime_error
  /// with context on any mismatch.
  explicit MappedFlowStore(const std::string& path);
  /// The same strict open over bytes already in memory — fde1_image()'s
  /// heap-mode image of a FlowDataset or of lifted cells.
  explicit MappedFlowStore(FileBytes image);

  std::uint32_t sampling_rate() const {
    return static_cast<std::uint32_t>(header_.param);
  }
  std::size_t flow_count() const {
    return static_cast<std::size_t>(header_.row_count);
  }
  std::int64_t start_day() const { return footer_.start_day; }
  std::int64_t end_day() const { return footer_.end_day; }
  std::uint64_t block_flows() const { return header_.block_size; }
  std::size_t block_count() const { return footer_.blocks.size(); }
  const std::vector<FlowBlockMeta>& blocks() const { return footer_.blocks; }
  const std::vector<FlowSegment>& segments() const { return footer_.segments; }
  std::uint64_t file_bytes() const { return file_.size(); }
  /// False when the portable read-into-buffer fallback is serving reads.
  bool mapped() const { return file_.mapped(); }

  FlowView block(std::size_t k) const;

  /// The (router, day) cell's metadata, or nullptr when the archive has
  /// no such segment. O(log segments).
  const FlowSegment* segment(std::size_t router, std::int64_t day) const;

  /// Global row range [begin, end) of the cell; empty for absent cells.
  std::pair<std::uint64_t, std::uint64_t> row_range(std::size_t router,
                                                    std::int64_t day) const;

  /// CRC-checks every block payload; returns block_count() when clean,
  /// else the index of the first corrupt block.
  std::size_t verify_blocks() const;

  /// Gathers one flow by global row index (bounds-checked).
  flowsim::FlowRecord record(std::uint64_t row) const;

  /// One segment as a flowsim::RouterDay: its totals and a column-wise
  /// copy of its rows. Any router number; the u64 segment router is
  /// narrowed to the rows' u16 router column.
  flowsim::RouterDay cell(const FlowSegment& seg) const;

  /// Calls fn(const FlowView&) for blocks whose src zone map intersects
  /// [src_lo, src_hi]; pass the full range to visit everything.
  template <typename Fn>
  void for_each_block(std::uint32_t src_lo, std::uint32_t src_hi,
                      Fn&& fn) const {
    for (std::size_t k = 0; k < footer_.blocks.size(); ++k) {
      const FlowBlockMeta& meta = footer_.blocks[k];
      if (meta.max_src < src_lo || meta.min_src > src_hi) continue;
      fn(block(k));
    }
  }

  /// Calls fn(const FlowView&, lo, hi) for each block slice covering the
  /// global row range [begin, end): lo/hi are row indices within the
  /// block. The zero-copy feed for per-segment consumers.
  template <typename Fn>
  void for_each_span(std::uint64_t begin, std::uint64_t end, Fn&& fn) const {
    header_.for_each_slice(begin, end, [&](std::size_t k, std::uint64_t lo,
                                           std::uint64_t hi) {
      fn(block(k), static_cast<std::size_t>(lo), static_cast<std::size_t>(hi));
    });
  }

 private:
  FileBytes file_;
  detail::FrameHeader header_;
  Fde1Footer footer_;
};

}  // namespace orion::store
