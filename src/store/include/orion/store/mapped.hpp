// MappedEventStore — the zero-copy query engine over ODE2 archives.
//
// Opens an ODE2 file via mmap (falling back to a read-into-buffer when
// mapping is unavailable) and exposes the column blocks as typed spans:
// analyses scan columns in place, with no per-event materialization, no
// istream parsing, and no upfront vector build. The per-day row index
// answers day() predicates with a range lookup instead of a full-archive
// rescan, the per-block (day, src) zone maps let scans skip whole blocks,
// and parallel_scan() fans blocks out over threads with a deterministic
// in-order merge — the same ordered-merge discipline the PR 2 sharded
// pipeline uses, applied to at-rest data.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "orion/store/file_bytes.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/event.hpp"

namespace orion::store {

/// A borrowed, typed view of one column's values inside a block. Points
/// straight into the mapped file; valid while the store is alive.
template <typename T>
using ColumnSpan = std::span<const T>;

/// One row group, viewed column-wise. `first_row` is the global index of
/// the block's row 0, so day_range() results translate directly.
struct BlockView {
  std::size_t first_row = 0;
  ColumnSpan<std::int64_t> start_ns;
  ColumnSpan<std::int64_t> end_ns;
  ColumnSpan<std::uint64_t> packets;
  ColumnSpan<std::uint64_t> unique_dests;
  std::array<ColumnSpan<std::uint64_t>, 4> tool_packets;
  ColumnSpan<std::uint32_t> src;
  ColumnSpan<std::uint16_t> dst_port;
  ColumnSpan<std::uint8_t> type;

  std::size_t rows() const { return src.size(); }

  /// Gathers one row into a full DarknetEvent (the only materializing
  /// accessor; scans should read the spans instead).
  telescope::DarknetEvent event(std::size_t i) const;
};

/// Footer metadata for one block: where it lives and its zone map.
struct BlockMeta {
  std::uint64_t offset = 0;  // file offset of the block's first byte
  std::int64_t min_day = 0;
  std::int64_t max_day = 0;
  std::uint32_t min_src = 0;
  std::uint32_t max_src = 0;
  std::uint32_t crc = 0;  // CRC-32 of the block's padded bytes
};

/// An ODE2 footer whose CRC, day window, day index and block metadata
/// checked out against its header.
struct Ode2Footer {
  std::int64_t first_day = 0;
  std::int64_t last_day = -1;
  std::vector<std::uint64_t> day_start;  // day_count + 1 boundaries
  std::vector<BlockMeta> blocks;
};

/// Row proxy handed to for_each_event callbacks: the DarknetEvent read
/// interface (key/start/end/packets/unique_dests/day/dispersion) built
/// from column loads on the stack — no heap, no tool columns touched.
struct EventRow {
  telescope::EventKey key;
  net::SimTime start;
  net::SimTime end;
  std::uint64_t packets = 0;
  std::uint64_t unique_dests = 0;

  std::int64_t day() const { return start.day(); }
  double dispersion(std::uint64_t darknet_size) const {
    return darknet_size == 0 ? 0.0
                             : static_cast<double>(unique_dests) /
                                   static_cast<double>(darknet_size);
  }
};

class MappedEventStore {
 public:
  /// Strict open: maps the file and verifies magic, header CRC, geometry,
  /// footer CRC and the footer's structure (block payloads stay lazy —
  /// verify_blocks() checks them on demand). Throws std::runtime_error
  /// with context on any mismatch.
  explicit MappedEventStore(const std::string& path);

  std::uint64_t darknet_size() const { return header_.param; }
  std::size_t event_count() const {
    return static_cast<std::size_t>(header_.row_count);
  }
  std::int64_t first_day() const { return footer_.first_day; }
  std::int64_t last_day() const { return footer_.last_day; }
  std::uint64_t block_events() const { return header_.block_size; }
  std::size_t block_count() const { return footer_.blocks.size(); }
  const std::vector<BlockMeta>& blocks() const { return footer_.blocks; }
  std::uint64_t file_bytes() const { return file_.size(); }
  /// False when the portable read-into-buffer fallback is serving reads.
  bool mapped() const { return file_.mapped(); }

  BlockView block(std::size_t k) const;

  /// Global row range [begin, end) of events starting on `day`; empty
  /// range for days outside the dataset window. O(1).
  std::pair<std::uint64_t, std::uint64_t> day_range(std::int64_t day) const;

  /// CRC-checks every block payload; returns block_count() when clean,
  /// else the index of the first corrupt block.
  std::size_t verify_blocks() const;

  /// Gathers one event by global row index (bounds-checked).
  telescope::DarknetEvent event(std::uint64_t row) const;

  /// Full materialization, for callers that need an in-memory
  /// EventDataset. The result equals the dataset the archive was written
  /// from, event for event. Every block is CRC-checked, and a mismatch
  /// ("block k CRC mismatch") or a row starting outside the day window
  /// throws std::runtime_error.
  telescope::EventDataset to_dataset() const;

  /// Calls fn(const BlockView&) for blocks whose zone map intersects
  /// [day_lo, day_hi] x [src_lo, src_hi]; pass the full ranges to visit
  /// everything.
  template <typename Fn>
  void for_each_block(std::int64_t day_lo, std::int64_t day_hi,
                      std::uint32_t src_lo, std::uint32_t src_hi,
                      Fn&& fn) const {
    for (std::size_t k = 0; k < footer_.blocks.size(); ++k) {
      const BlockMeta& meta = footer_.blocks[k];
      if (meta.max_day < day_lo || meta.min_day > day_hi) continue;
      if (meta.max_src < src_lo || meta.min_src > src_hi) continue;
      fn(block(k));
    }
  }

  /// Calls fn(const EventRow&) for every event in row (= dataset) order.
  /// A row whose start day lies outside [first_day(), last_day()] (block
  /// payloads are not CRC-checked on this path) throws
  /// std::runtime_error, so consumers may index per-day tables by it.
  template <typename Fn>
  void for_each_event(Fn&& fn) const {
    for (std::size_t k = 0; k < footer_.blocks.size(); ++k) {
      const BlockView view = block(k);
      for (std::size_t i = 0; i < view.rows(); ++i) fn(row_of(view, i));
    }
  }

  /// Calls fn(const EventRow&) for every event starting on `day`, using
  /// the day index to touch only that row range. Rows are checked
  /// against the day window as in for_each_event().
  template <typename Fn>
  void for_each_event_on_day(std::int64_t day, Fn&& fn) const {
    const auto [begin, end] = day_range(day);
    header_.for_each_slice(begin, end, [&](std::size_t k, std::uint64_t lo,
                                           std::uint64_t hi) {
      const BlockView view = block(k);
      for (std::uint64_t i = lo; i < hi; ++i) {
        fn(row_of(view, static_cast<std::size_t>(i)));
      }
    });
  }

  /// Chunked parallel scan: blocks are split into contiguous ranges, one
  /// per thread; per_block(State&, const BlockView&) folds each block
  /// into a thread-local State, and merge(State&, State&&) combines the
  /// States in block order. Because the partition is a deterministic
  /// function of (block_count, n_threads) and the merge is ordered, the
  /// result is identical for every thread count whenever merge is
  /// associative — the same ordered-merge argument as the PR 2 pipeline.
  /// A throwing per_block stops its thread's range; after the join the
  /// first failure in block order is rethrown, which is what the one-
  /// thread path throws.
  template <typename State, typename PerBlock, typename Merge>
  State parallel_scan(std::size_t n_threads, PerBlock per_block,
                      Merge merge) const {
    const std::size_t nb = footer_.blocks.size();
    if (n_threads == 0) {
      n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    n_threads = std::min(n_threads, std::max<std::size_t>(nb, 1));
    if (n_threads <= 1) {
      State state{};
      for (std::size_t k = 0; k < nb; ++k) per_block(state, block(k));
      return state;
    }
    std::vector<State> states(n_threads);
    std::vector<std::exception_ptr> failed(n_threads);
    const std::size_t per = (nb + n_threads - 1) / n_threads;
    {
      std::vector<std::thread> threads;
      threads.reserve(n_threads);
      for (std::size_t t = 0; t < n_threads; ++t) {
        const std::size_t lo = std::min(nb, t * per);
        const std::size_t hi = std::min(nb, lo + per);
        threads.emplace_back([this, &states, &failed, &per_block, t, lo, hi] {
          try {
            for (std::size_t k = lo; k < hi; ++k) per_block(states[t], block(k));
          } catch (...) {
            failed[t] = std::current_exception();
          }
        });
      }
      for (std::thread& th : threads) th.join();
    }
    for (const std::exception_ptr& failure : failed) {
      if (failure) std::rethrow_exception(failure);
    }
    State out = std::move(states[0]);
    for (std::size_t t = 1; t < n_threads; ++t) {
      merge(out, std::move(states[t]));
    }
    return out;
  }

 private:
  /// The strict open over bytes already owned (the path constructor's).
  explicit MappedEventStore(FileBytes file);

  EventRow row_of(const BlockView& view, std::size_t i) const {
    EventRow row;
    row.key.src = net::Ipv4Address(view.src[i]);
    row.key.dst_port = view.dst_port[i];
    row.key.type = static_cast<pkt::TrafficType>(view.type[i]);
    row.start = net::SimTime::at(net::Duration::nanos(view.start_ns[i]));
    row.end = net::SimTime::at(net::Duration::nanos(view.end_ns[i]));
    row.packets = view.packets[i];
    row.unique_dests = view.unique_dests[i];
    check_window(row.day(), view.first_row + i);
    return row;
  }
  /// Throws unless `day`, the start day of global row `row`, lies in
  /// [first_day(), last_day()].
  void check_window(std::int64_t day, std::uint64_t row) const {
    if (day < footer_.first_day || day > footer_.last_day) row_outside_window(row);
  }
  [[noreturn]] static void row_outside_window(std::uint64_t row);

  FileBytes file_;
  detail::FrameHeader header_;
  Ode2Footer footer_;
};

}  // namespace orion::store
