// Network-impact analysis: joining AH lists against border flow data
// (Section 4 — Tables 2, 3, 4, 8 and Figure 5).
//
// The join is columnar end to end (DESIGN.md §12): router-day flow rows
// arrive as sorted FDE1 column spans, FlowSourceIndex regroups
// them by source into flat columns, and one query() probe — sorted,
// pre-hashed sources with prefetch-ahead, mirroring
// telescope::EventAggregator::observe_batch — fills every per-table
// number (impact, protocol mix, port mix, visibility) at once. query()
// is the ONLY per-cell entry point — serve::execute_query and orion_cli
// both go through it — and join_flow_index_scalar() pins the original
// scalar algorithm as the equivalence/timing baseline (bench_flowjoin's
// gate and the flowjoin_test scalar-join pin).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/flowsim/flow_batch.hpp"
#include "orion/flowsim/flows.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/stats/topk.hpp"

namespace orion::store {
class MappedEventStore;
class MappedFlowStore;
struct FlowSegment;
}

namespace orion::impact {

/// One router-day of joined impact numbers.
struct RouterDayImpact {
  std::size_t router = 0;
  std::int64_t day = 0;
  /// NetFlow estimate of packets from matched sources (sampled * rate).
  std::uint64_t matched_packets = 0;
  /// All packets the router processed that day (ground truth).
  std::uint64_t total_packets = 0;
  /// Matched sources with at least one sampled flow.
  std::size_t matched_sources = 0;

  double percentage() const {
    return total_packets == 0 ? 0.0
                              : 100.0 * static_cast<double>(matched_packets) /
                                    static_cast<double>(total_packets);
  }
};

/// Per-traffic-type packet estimates for a set of sources at a router-day
/// (the flow side of Table 3); indices follow pkt::TrafficType.
using ProtocolMix = std::array<std::uint64_t, 3>;

/// Distinct ports tracked exactly per (router, day) report: the first
/// kPortMixBound distinct ports in add order (sources ascending, each
/// source's entries in (port, type) order). Every later new port's weight
/// goes to one spill bucket, stats::TopK's bounded rule, so the heavy head
/// stays exact (any port whose weight exceeds the spill is provably
/// tracked). Both join paths use the same rule, so the
/// batched/scalar/mmap/parallel equivalence stays bit-exact.
constexpr std::size_t kPortMixBound = 4096;

/// One Figure-5 row: a destination port and its packet estimate.
using PortRow = std::pair<std::uint16_t, std::uint64_t>;

/// Figure 5's port estimates for one report, in the wire's shape: the
/// tracked ports as rows sorted by port, plus the spilled weight and the
/// number of adds that spilled.
class PortMix {
 public:
  PortMix() = default;
  /// `rows` must be sorted by port, one row per port.
  PortMix(std::vector<PortRow> rows, std::uint64_t spilled_weight,
          std::uint64_t spilled_adds)
      : rows_(std::move(rows)),
        spilled_weight_(spilled_weight),
        spilled_adds_(spilled_adds) {}

  const std::vector<PortRow>& rows() const& { return rows_; }
  /// Moves the rows out (what the engine puts on the wire).
  std::vector<PortRow> rows() && { return std::move(rows_); }

  /// Estimate of a tracked port; 0 for a port never added or spilled.
  std::uint64_t count(std::uint16_t port) const;
  /// Total weight added, spill included.
  std::uint64_t total() const;
  /// Tracked ports (at most kPortMixBound).
  std::size_t distinct() const { return rows_.size(); }
  std::uint64_t spilled_weight() const { return spilled_weight_; }
  std::uint64_t spilled_adds() const { return spilled_adds_; }

  /// Rows and both spill fields.
  friend bool operator==(const PortMix&, const PortMix&) = default;

 private:
  std::vector<PortRow> rows_;
  std::uint64_t spilled_weight_ = 0;
  std::uint64_t spilled_adds_ = 0;
};

/// Everything the Section 4 tables need from one (router, day, sources)
/// join, filled by a single index probe: Table 2/4's impact row, Table 3's
/// flow-side protocol mix, Figure 5's port estimates and Table 8's
/// visibility. `impact.matched_sources` doubles as the visibility
/// numerator — a source is "visible" exactly when it has >= 1 sampled
/// flow, which is the same predicate impact counts.
struct RouterDayReport {
  RouterDayImpact impact;
  ProtocolMix protocols{};
  PortMix ports;
  /// Distinct sources probed (the visibility denominator).
  std::size_t probed_sources = 0;

  /// Table 8: percent of probed sources seen at this router-day.
  double visibility_percent() const {
    return probed_sources == 0
               ? 0.0
               : 100.0 * static_cast<double>(impact.matched_sources) /
                     static_cast<double>(probed_sources);
  }
};

/// THE canonical form of a source list: sorted and distinct. A list that
/// is already strictly ascending costs one O(n) check and is left as is;
/// any other is sorted and deduplicated. SourceSet and the daemon's
/// batching identity both go through this one rule.
void canonicalize_sources(std::vector<net::Ipv4Address>& ips);

/// A probe-ready AH source list: sorted distinct addresses with their
/// index hashes precomputed once. Tables walk every router-day with the
/// same definition list, so hashing is hoisted out of the join loop —
/// build one SourceSet per definition and reuse it for every query().
class SourceSet {
 public:
  SourceSet() = default;
  explicit SourceSet(const detect::IpSet& ips);
  /// Duplicates are collapsed (the paper's active lists are unique); a
  /// list already in canonical form is not sorted again.
  explicit SourceSet(const std::vector<net::Ipv4Address>& ips);

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  net::Ipv4Address value(std::size_t i) const { return values_[i]; }
  std::size_t hash(std::size_t i) const { return hashes_[i]; }
  const std::vector<net::Ipv4Address>& values() const { return values_; }

 private:
  std::vector<net::Ipv4Address> values_;  // sorted, distinct
  std::vector<std::size_t> hashes_;       // FlowSourceIndex::hash_of each
};

/// Flows of one router-day regrouped by source, built from sorted
/// FlowBatch spans: `srcs` is sorted and distinct, and the entry columns
/// [offsets[g], offsets[g+1]) hold source g's (port, type, sampled count)
/// rows. A flat hash table maps source -> group so a probe is one
/// prefetchable lookup instead of a binary search. append() accepts the
/// batch in any chunking — rows must keep the (src, dst_port, type) order
/// of flowsim::canonical_rows (std::invalid_argument otherwise),
/// and consecutive duplicate keys (NetFlow's split oversized flows) merge
/// by summing. finalize() seals the offsets and builds the group table.
///
/// append_span() is the zero-copy form: it consumes raw column pointers
/// (an FDE1 FlowView slice straight out of the mapped file) with the
/// exact same grouping/merging/ordering semantics, so an index built from
/// disk spans is bit-identical to one built from the in-memory batch.
class FlowSourceIndex {
 public:
  void append(const flowsim::FlowBatch& batch);
  void append_span(const std::uint32_t* src, const std::uint16_t* dst_port,
                   const std::uint8_t* proto, const std::uint64_t* packets,
                   std::size_t n);
  void finalize();

  std::size_t source_count() const { return srcs_.size(); }
  const std::vector<net::Ipv4Address>& srcs() const { return srcs_; }
  const std::vector<std::uint32_t>& offsets() const { return offsets_; }
  const std::vector<std::uint16_t>& entry_ports() const { return entry_port_; }
  /// Raw pkt::TrafficType values (0..3), not collapsed type indices.
  const std::vector<std::uint8_t>& entry_types() const { return entry_type_; }
  const std::vector<std::uint64_t>& entry_counts() const { return entry_count_; }

  static std::size_t hash_of(net::Ipv4Address src) {
    return GroupMap::hash_of(src);
  }
  void prefetch_group(std::size_t hash) const { groups_.prefetch(hash); }
  /// Group number of a source, or nullptr if it has no sampled flow here.
  const std::uint32_t* find_group(net::Ipv4Address src,
                                  std::size_t hash) const {
    return groups_.find_hashed(src, hash);
  }

 private:
  using GroupMap =
      net::FlatMap<net::Ipv4Address, std::uint32_t, net::Ipv4AddressHash>;

  std::vector<net::Ipv4Address> srcs_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint16_t> entry_port_;
  std::vector<std::uint8_t> entry_type_;
  std::vector<std::uint64_t> entry_count_;
  GroupMap groups_;
  bool finalized_ = false;
  bool has_last_ = false;
  net::Ipv4Address last_src_;
  std::uint16_t last_port_ = 0;
  std::uint8_t last_type_ = 0;
};

/// The batched join core: one pass over the source set, hashes
/// precomputed, group buckets prefetched 8 ahead, all four table outputs
/// accumulated per matched group. Ports accumulate in the calling
/// thread's dense slot table (port -> slot in first-seen order; only the
/// touched slots are reset), so concurrent queries share nothing.
/// Byte-identical to join_flow_index_scalar for every input
/// (tests/flowjoin_test.cpp).
RouterDayReport join_flow_index(const FlowSourceIndex& index,
                                const SourceSet& sources,
                                std::uint32_t sampling_rate,
                                std::uint64_t total_packets, std::size_t router,
                                std::int64_t day);

/// The pinned scalar reference: the pre-redesign algorithm verbatim —
/// four independent passes (impact, protocols, ports, visibility), each
/// probing `sources` per group with the std hash, ports counted in a
/// bounded stats::TopK. Kept as the equivalence gate and timing baseline
/// for bench_flowjoin; not for production use.
RouterDayReport join_flow_index_scalar(const FlowSourceIndex& index,
                                       const detect::IpSet& sources,
                                       std::uint32_t sampling_rate,
                                       std::uint64_t total_packets,
                                       std::size_t router, std::int64_t day);

/// Joins AH source sets against border flow data held as FDE1 — an
/// archive file, or a simulated dataset's in-memory image
/// (store::fde1_image) — where indexes build zero-copy from the column
/// spans: no FlowRecord is ever materialized. Every impact number in the
/// tree (paper benches, orion_cli, the daemon) comes through this one
/// path, so memory ≡ mmap holds by construction.
///
/// Queries share a lazily built per-(router, day) FlowSourceIndex, so
/// repeated queries against the same router-day (every table walks all
/// definitions) skip the raw rescan after the first. The lazy cache makes
/// query() single-threaded by design; prebuild_indexes() is the
/// concurrent entry point — it fans the per-cell builds out over threads
/// (router-days are embarrassingly parallel, the §9 sharding argument)
/// and merges in deterministic cell order, after which queries only read.
class FlowImpactAnalyzer {
 public:
  explicit FlowImpactAnalyzer(const store::MappedFlowStore* store);

  /// Builds every (router, day) index not yet cached, `n_threads`-wide
  /// (0: hardware concurrency). Results are identical to the lazy path
  /// for every thread count: each cell's index is a pure function of its
  /// rows, and the merge into the cache happens in cell order on the
  /// calling thread. If a cell's build throws, the first failing cell's
  /// exception is rethrown on the calling thread and the cache is left
  /// as it was.
  void prebuild_indexes(std::size_t n_threads = 0) const;

  /// THE query API: every Section 4 number for one (router, day, sources)
  /// cell from a single batched index probe.
  RouterDayReport query(std::size_t router, std::int64_t day,
                        const SourceSet& sources) const;
  /// Convenience overload; builds the SourceSet per call — hoist a
  /// SourceSet out of the loop when walking many router-days.
  RouterDayReport query(std::size_t router, std::int64_t day,
                        const detect::IpSet& sources) const;
  /// Scalar reference path (join_flow_index_scalar); identical results.
  RouterDayReport query_scalar(std::size_t router, std::int64_t day,
                               const detect::IpSet& sources) const;

  /// Every (router, day) cell of the archive, in segment order, for one
  /// source set.
  std::vector<RouterDayImpact> impact_table(const detect::IpSet& sources) const;

 private:
  /// (router, day) as a real pair key. The previous cache packed both
  /// into one uint64 as (router << 32) | (day - start_day) and consulted
  /// the cache BEFORE range validation, so adversarial values that
  /// overflow either half (router = 2^32, day = start_day + 2^32) aliased
  /// a warm entry and silently returned the wrong index instead of
  /// throwing (regression: tests/flowjoin_test.cpp).
  struct RouterDayKey {
    std::size_t router = 0;
    std::int64_t day = 0;
    friend bool operator==(const RouterDayKey&, const RouterDayKey&) = default;
  };
  struct RouterDayKeyHash {
    std::size_t operator()(const RouterDayKey& k) const {
      const std::size_t h = std::hash<std::size_t>{}(k.router);
      return h ^ (std::hash<std::int64_t>{}(k.day) + 0x9E3779B97F4A7C15ull +
                  (h << 6) + (h >> 2));
    }
  };

  const FlowSourceIndex& index_of(std::size_t router, std::int64_t day) const;
  /// Builds one cell's index from its column spans (pure; safe to call
  /// concurrently for distinct cells).
  FlowSourceIndex build_index(std::size_t router, std::int64_t day) const;
  /// The archive segment for a cell; throws std::out_of_range when the
  /// archive has no such cell.
  const store::FlowSegment& segment_of(std::size_t router,
                                       std::int64_t day) const;

  const store::MappedFlowStore* store_ = nullptr;
  mutable std::unordered_map<RouterDayKey, FlowSourceIndex, RouterDayKeyHash>
      index_cache_;
};

/// Darknet-side mixes of a source set for EVERY day of the dataset
/// window, built in one sweep: per day, the protocol mix of the events
/// started that day (the "D" columns of Table 3) and their per-port packet
/// counts (Figure 5's x-axis). Each per-day query is then O(1) / O(ports
/// of that day).
class DailyDarknetMix {
 public:
  /// One templated sweep for both event sources (EventDataset in memory,
  /// MappedEventStore reading ODE2 columns in place); identical results
  /// (tests/store_test.cpp).
  template <typename EventSource>
  DailyDarknetMix(const EventSource& source, const detect::IpSet& sources);

  std::int64_t first_day() const { return first_day_; }
  std::int64_t last_day() const { return last_day_; }

  /// Zeroed mix / empty counter for days outside the dataset window.
  const ProtocolMix& protocols(std::int64_t day) const;
  const stats::TopK<std::uint16_t>& ports(std::int64_t day) const;

 private:
  bool in_window(std::int64_t day) const {
    return day >= first_day_ && day <= last_day_;
  }
  template <typename Event>
  void fold(const Event& e, const detect::IpSet& sources);

  std::int64_t first_day_ = 0;
  std::int64_t last_day_ = -1;
  std::vector<ProtocolMix> protocols_;
  std::vector<stats::TopK<std::uint16_t>> ports_;
};

extern template DailyDarknetMix::DailyDarknetMix(const telescope::EventDataset&,
                                                 const detect::IpSet&);
extern template DailyDarknetMix::DailyDarknetMix(const store::MappedEventStore&,
                                                 const detect::IpSet&);

}  // namespace orion::impact
