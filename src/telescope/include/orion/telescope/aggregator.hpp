// Streaming aggregation of darknet packets into darknet events.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "orion/netbase/flat_map.hpp"
#include "orion/netbase/prefix.hpp"
#include "orion/packet/batch.hpp"
#include "orion/stats/cardinality.hpp"
#include "orion/telescope/event.hpp"

namespace orion::telescope {

class CheckpointReader;
class CheckpointWriter;

struct AggregatorConfig {
  /// Inactivity period after which an event is considered ended (see
  /// timeout.hpp for the derivation used by the scenarios).
  net::Duration timeout = net::Duration::minutes(10);
  /// How often (in event time) the lazy expiry sweep runs.
  net::Duration sweep_interval = net::Duration::minutes(5);
  /// Slots pre-reserved in the live-event table (hot per-packet map);
  /// sized for the concurrent-scanner population, not total sources.
  /// Capacity only — results are unaffected, so it is not config-echoed.
  std::size_t live_reserve = 4096;
};

/// Turns a time-ordered stream of darknet packets into completed
/// DarknetEvents, keyed by (src, dst port, traffic type) and delimited by
/// the inactivity timeout. Non-scanning packets ("Other") and packets
/// outside the dark space are ignored but counted.
///
/// Expiry is lazy: a sweep runs every `sweep_interval` of stream time,
/// over a timing wheel of live events (DESIGN.md §11.3) rather than the
/// whole live-event table. The sweep compares against packet timestamps,
/// so events are emitted with exact start/end times regardless of when
/// the sweep happens to run.
class EventAggregator {
 public:
  EventAggregator(net::PrefixSet dark_space, AggregatorConfig config,
                  EventSink sink);

  /// Feeds one packet, as a one-record observe_batch(). Timestamps must be
  /// non-decreasing; a regression throws std::invalid_argument (the
  /// pipeline always merges sorted streams, so a violation is a
  /// programming error worth failing loudly).
  void observe(const pkt::Packet& packet);

  /// Feeds a whole columnar batch. State after the call is byte-identical
  /// to feeding the records one by one — same events in the same order,
  /// same counters, same checkpoint bytes — for any batch size and at
  /// every SIMD tier (DESIGN.md §11.4). The engine pre-classifies and
  /// pre-hashes every record and software-prefetches the live-table
  /// buckets. Timestamps are validated for the whole batch up front, so a
  /// regression throws before any record of the batch is applied.
  void observe_batch(const pkt::PacketBatch& batch) {
    observe_batch(batch, {});
  }

  /// Same, with dark-space membership precomputed by the caller: member
  /// (when non-empty) must hold batch.size() 0/1 bytes equal to what
  /// dark_space.contains_batch returns for batch's dst column — the
  /// ParallelPipeline dispatcher vectorizes that test once per incoming
  /// batch and scatters the column alongside the records, so per-shard
  /// aggregators skip recomputing it. Empty member means "compute here"
  /// (identical results either way); any other size throws
  /// std::invalid_argument.
  void observe_batch(const pkt::PacketBatch& batch,
                     std::span<const std::uint8_t> member);

  /// Expires everything idle at `now` without feeding a packet (used at
  /// day boundaries by the longitudinal driver).
  void advance_to(net::SimTime now);

  /// Closes and emits all live events (end of capture).
  void finish();

  // --- capture-level counters (Table 1 inputs)
  std::uint64_t packets_seen() const { return packets_seen_; }
  std::uint64_t scanning_packets() const { return scanning_packets_; }
  std::uint64_t ignored_out_of_space() const { return ignored_out_of_space_; }
  std::uint64_t ignored_non_scanning() const { return ignored_non_scanning_; }
  std::uint64_t events_emitted() const { return events_emitted_; }
  std::size_t live_events() const { return live_.size(); }
  std::uint64_t darknet_size() const { return dark_space_.total_addresses(); }

  /// Snapshots the full aggregator state (live-event table, per-event
  /// destination sets, counters, stream clock) so a killed process
  /// resumes mid-capture: the AGG2 section (DESIGN.md §8.1). Restore
  /// verifies the snapshot was taken under the same configuration and
  /// dark space (std::runtime_error otherwise, and for a snapshot that
  /// repeats a live-event key or holds a destination set that cannot
  /// exist); the sink is NOT serialized — the restoring caller wires its
  /// own.
  void checkpoint(CheckpointWriter& writer) const;
  void restore(CheckpointReader& reader);

 private:
  struct LiveEvent {
    net::SimTime start;
    net::SimTime last_seen;
    std::uint64_t packets = 0;
    ToolPackets packets_by_tool{};
    stats::CardinalityEstimator dests;

    explicit LiveEvent(std::uint64_t darknet_size) : dests(darknet_size) {}
  };

  void emit(const EventKey& key, const LiveEvent& live);
  void sweep_wheel(net::SimTime now);
  void rebuild_wheel();
  void rebase_wheel(std::int64_t top_granule);
  std::size_t bucket_of(std::int64_t last_seen_ns) const;

  net::PrefixSet dark_space_;
  AggregatorConfig config_;
  EventSink sink_;
  /// Open-addressing flat table: probed once per scanning packet, so it
  /// avoids unordered_map's per-node allocations and pointer chases.
  net::FlatMap<EventKey, LiveEvent, EventKeyHash> live_;

  net::SimTime last_timestamp_;
  net::SimTime next_sweep_;
  bool saw_packet_ = false;

  // --- expiry wheel (DESIGN.md §11.3) ---
  // A lazy timing wheel over last_seen, in coarse granules of granule_ns_:
  // bucket i holds (key, hash) stamps for events whose last_seen entered
  // granule base_granule_ + i; bucket 0 also absorbs everything older than
  // the base (rebases fold entries down). Stamps are append-only — touching
  // an event leaves its old stamp stale — and a sweep validates only the
  // stamps in buckets at or below the expiry cutoff against the live
  // table, so it never walks the whole table. The constructor builds the
  // wheel, restore() rebuilds it from the restored table, and finish()
  // clears it.
  static constexpr std::size_t kBuckets = 64;
  using Stamp = std::pair<EventKey, std::size_t>;  // key + its hash
  std::int64_t granule_ns_ = 1;
  std::int64_t base_granule_ = 0;
  std::array<std::vector<Stamp>, kBuckets> wheel_;
  std::vector<Stamp> candidates_;  // sweep scratch
  pkt::PacketBatch single_;        // observe()'s one-record batch
  // Per-record scratch columns reused across batches (kept as members so
  // a steady-state observe_batch call performs zero allocations).
  std::vector<std::uint8_t> scratch_kind_;
  std::vector<std::uint8_t> scratch_member_;  // SIMD dark-space membership
  std::vector<std::uint8_t> scratch_type_;    // SIMD traffic classification
  std::vector<std::uint8_t> scratch_tool_;
  std::vector<EventKey> scratch_key_;
  std::vector<std::size_t> scratch_hash_;
  std::vector<std::uint64_t> scratch_offset_;

  std::uint64_t packets_seen_ = 0;
  std::uint64_t scanning_packets_ = 0;
  std::uint64_t ignored_out_of_space_ = 0;
  std::uint64_t ignored_non_scanning_ = 0;
  std::uint64_t events_emitted_ = 0;
};

/// Convenience sink that collects events into a vector.
class EventCollector {
 public:
  EventSink sink() {
    return [this](const DarknetEvent& e) { events_.push_back(e); };
  }
  const std::vector<DarknetEvent>& events() const { return events_; }
  std::vector<DarknetEvent> take() { return std::move(events_); }
  /// Checkpoint support: reinstates the pending-event backlog.
  void restore(std::vector<DarknetEvent> events) { events_ = std::move(events); }

 private:
  std::vector<DarknetEvent> events_;
};

}  // namespace orion::telescope
