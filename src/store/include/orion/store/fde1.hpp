// FDE1 — the columnar on-disk flow archive (DESIGN.md §15).
//
// FDE1 is the column frame ODE2 uses (DESIGN.md §10.1) with its own
// schema: the whole window is one file of little-endian column blocks in
// a global (router, day, src, dst_port, type) order, with a
// per-(router,day) segment index in the footer so a query touches exactly
// one row range:
//
//   header  := "FDE1" | crc32([8,40)) | sampling_rate u64 | flow_count u64
//              | block_flows u64 | footer_offset u64           (40 bytes)
//   block   := ts i64[m] | packets u64[m] | bytes u64[m] | src u32[m]
//              | dst u32[m] | src_port u16[m] | dst_port u16[m]
//              | router u16[m] | proto u8[m] | zero pad to 8
//   footer  := start_day i64 | end_day i64 | segment_count u64
//              | block_count u64 | segment[segment_count]
//              | block meta[block_count] | block_crc u32[block_count]
//              | footer crc32
//   segment := router u64 | day i64 | row_begin u64 | total_packets u64
//              | user_packets u64 | scanner_packets u64        (48 bytes)
//   meta    := offset u64 | min_src u32 | max_src u32          (16 bytes)
//
// Widest columns first keep every column 8-aligned, so the mapped bytes
// are exposed as typed spans directly (MappedFlowStore). Segments are
// strictly increasing in (router, day) and carry the row range implicitly
// (row_end = next segment's row_begin, or flow_count for the last), plus
// the SNMP-side ground-truth totals a RouterDay holds — which is what
// lets FlowImpactAnalyzer answer query() from the file alone. Block
// min/max over src are the zone maps source-targeted scans prune with.
//
// Integrity is the frame's (DESIGN.md §10.2): when truncation took the
// footer, the salvage reader validates the global row order structurally
// (every flow field is total, so order is the only structure unverified
// bytes have).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "orion/flowsim/flow_batch.hpp"
#include "orion/flowsim/flows.hpp"
#include "orion/netbase/io.hpp"
#include "orion/store/file_bytes.hpp"

namespace orion::store {

/// Rows per full block: same trade-off as kOde2DefaultBlockEvents (fine
/// salvage granularity, selective zone maps, amortized column runs).
constexpr std::uint64_t kFde1DefaultBlockFlows = 1024;

constexpr std::uint64_t kFde1HeaderBytes = 40;
constexpr std::uint64_t kFde1SegmentBytes = 48;
constexpr std::uint64_t kFde1BlockMetaBytes = 16;

/// Bytes of one block holding `rows` flows (including the trailing pad).
constexpr std::uint64_t fde1_block_bytes(std::uint64_t rows) {
  const std::uint64_t raw = rows * (3 * 8 + 2 * 4 + 3 * 2 + 1);
  return (raw + 7) & ~std::uint64_t{7};
}

/// One (router, day) cell of the archive: its row range plus the
/// ground-truth interface counters the impact denominator needs.
struct FlowSegment {
  std::size_t router = 0;
  std::int64_t day = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = 0;
  std::uint64_t total_packets = 0;
  std::uint64_t user_packets = 0;
  std::uint64_t scanner_packets = 0;
};

/// Writes one segment per cell, rows as given; returns total bytes
/// written. The window [start_day, end_day) may span at most 2^16 days.
/// Cells must be strictly increasing in (router, day) with every day
/// inside the window (an empty cell — a router that sampled nothing that
/// day — still has interface counters), and every row must carry its
/// cell's router, a timestamp inside its cell's day, and keep the
/// (src, dst_port, traffic type) order — std::invalid_argument otherwise.
/// Every write goes through the io::File seam (EINTR retries, short-write
/// completion, FaultFs crash-matrix visibility); errors surface as
/// net::io::IoError.
std::uint64_t write_flows_fde1(std::uint32_t sampling_rate,
                               std::int64_t start_day, std::int64_t end_day,
                               const std::vector<flowsim::RouterDay>& cells,
                               net::io::File& out,
                               std::uint64_t block_flows = kFde1DefaultBlockFlows);

/// Archives a whole simulated dataset: its cells, one segment each, as
/// they are (they are already in FDE1's order and form).
std::uint64_t write_flows_fde1(const flowsim::FlowDataset& flows,
                               net::io::File& out,
                               std::uint64_t block_flows = kFde1DefaultBlockFlows);

/// The bytes the writers above emit, built in memory instead and owned by
/// a heap-mode FileBytes — what MappedFlowStore(FileBytes) opens. Same
/// validation and exceptions as write_flows_fde1.
FileBytes fde1_image(std::uint32_t sampling_rate, std::int64_t start_day,
                     std::int64_t end_day,
                     const std::vector<flowsim::RouterDay>& cells,
                     std::uint64_t block_flows = kFde1DefaultBlockFlows);
FileBytes fde1_image(const flowsim::FlowDataset& flows,
                     std::uint64_t block_flows = kFde1DefaultBlockFlows);

/// Convenience: write straight to a file path (truncating, io::File seam,
/// NOT atomic — use ArchiveDir publication for crash safety).
std::uint64_t write_flows_fde1_file(const flowsim::FlowDataset& flows,
                                    const std::string& path,
                                    std::uint64_t block_flows = kFde1DefaultBlockFlows);
std::uint64_t write_flows_fde1_file(std::uint32_t sampling_rate,
                                    std::int64_t start_day,
                                    std::int64_t end_day,
                                    const std::vector<flowsim::RouterDay>& cells,
                                    const std::string& path,
                                    std::uint64_t block_flows = kFde1DefaultBlockFlows);

/// Salvage-mode read, the same walk as read_events_ode2_salvage: recovers
/// every complete valid block preceding the first error into `rows`
/// instead of throwing the whole archive away. Segment metadata (and with
/// it the per-(router,day) totals) survives only when the footer's CRC
/// does.
struct Fde1SalvageResult : SalvageStatus {
  flowsim::FlowBatch rows;             // recovered rows, archive order
  std::vector<FlowSegment> segments;   // footer-intact only
  std::uint32_t sampling_rate = 0;
  std::int64_t start_day = 0;
  std::int64_t end_day = 0;            // valid when footer_intact
};

Fde1SalvageResult read_flows_fde1_salvage(const std::string& path);

/// Sniffs what kind of flow input a path holds: "FDE1" (magic), "NFV5"
/// (a NetFlow v5 export-packet stream — big-endian version 5 in the first
/// two bytes), "CSV" (printable text), or "?" — used by every CLI
/// flow-reading path.
std::string sniff_flow_format(const std::string& path);

}  // namespace orion::store
