// ODE2 — the on-disk darknet-event format, and the columnar layout behind
// the zero-copy analysis engine (DESIGN.md §10).
//
// Events are laid out as little-endian column blocks (row groups), so an
// analysis can mmap the archive and scan only the columns — and only the
// days — it needs (store/mapped.hpp). A caller that wants the rows in
// memory calls MappedEventStore(path).to_dataset(). ODE2 is the column
// frame it shares with FDE1 (DESIGN.md §10.1: a 40-byte CRC'd header,
// 8-padded blocks, a CRC-sealed footer of index, block metadata and
// block CRCs) with its own schema:
//
//   header := "ODE2" | crc32([8,40)) | darknet_size u64 | event_count u64
//             | block_events u64 | footer_offset u64          (40 bytes)
//   block  := start i64[m] | end i64[m] | packets u64[m] | dests u64[m]
//             | tool0..tool3 u64[m] | src u32[m] | port u16[m] | type u8[m]
//             | zero pad to 8                (m = rows in the block)
//   footer := first_day i64 | last_day i64 | day_count u64 | block_count u64
//             | day_start u64[day_count+1] | block meta[block_count]
//             | block_crc u32[block_count] | footer crc32
//   meta   := offset u64 | min_day i64 | max_day i64 | min_src u32
//             | max_src u32                                   (32 bytes)
//
// day_start relies on the EventDataset total order (start, key): start
// days are non-decreasing, so each day is one contiguous row range.
// Block min/max (day, src) are the zone maps that let scans skip whole
// blocks without touching their data. Footerless salvage checks each
// block's traffic-type bytes; the rest of the integrity contract is the
// frame's (DESIGN.md §10.2).
#pragma once

#include <cstdint>
#include <string>

#include "orion/netbase/io.hpp"
#include "orion/store/file_bytes.hpp"
#include "orion/telescope/capture.hpp"

namespace orion::store {

/// Rows per full block. Small enough that salvage granularity stays fine
/// and zone maps stay selective; large enough that column runs amortize.
constexpr std::uint64_t kOde2DefaultBlockEvents = 1024;

constexpr std::uint64_t kOde2HeaderBytes = 40;
constexpr std::uint64_t kOde2BlockMetaBytes = 32;

/// Bytes of one block holding `rows` events (including the trailing pad).
constexpr std::uint64_t ode2_block_bytes(std::uint64_t rows) {
  const std::uint64_t raw = rows * (8 * 8 + 4 + 2 + 1);
  return (raw + 7) & ~std::uint64_t{7};
}

/// Writes `dataset` in ODE2 form; returns total bytes written. Every
/// write goes through the io::File seam, so it is EINTR-retried,
/// short-write-completed, and visible to the FaultFs crash matrix; errors
/// surface as net::io::IoError. Throws std::invalid_argument if the
/// dataset's events are not in non-decreasing start order (EventDataset
/// guarantees the order; a hand-built vector might not).
std::uint64_t write_events_ode2(
    const telescope::EventDataset& dataset, net::io::File& out,
    std::uint64_t block_events = kOde2DefaultBlockEvents);

/// Convenience: write straight to a file path (truncating, io::File
/// seam, NOT atomic — use ArchiveDir publication for crash safety).
std::uint64_t write_events_ode2_file(
    const telescope::EventDataset& dataset, const std::string& path,
    std::uint64_t block_events = kOde2DefaultBlockEvents);

/// Salvage-mode read: recovers every complete valid block preceding the
/// first error into `dataset` instead of throwing the whole archive away.
struct Ode2SalvageResult : SalvageStatus {
  telescope::EventDataset dataset{{}, 0};
};

Ode2SalvageResult read_events_ode2_salvage(const std::string& path);

}  // namespace orion::store
