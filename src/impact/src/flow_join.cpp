#include "orion/impact/flow_join.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "orion/store/mapped.hpp"
#include "orion/store/mapped_flow.hpp"

namespace orion::impact {

namespace {

std::size_t type_index(pkt::TrafficType t) {
  switch (t) {
    case pkt::TrafficType::TcpSyn: return 0;
    case pkt::TrafficType::Udp: return 1;
    case pkt::TrafficType::IcmpEchoReq: return 2;
    case pkt::TrafficType::Other: break;
  }
  return 0;
}

/// The calling thread's port accumulator for join_flow_index: a dense
/// port -> slot table (slot + 1; 0 = untracked) and the tracked rows in
/// first-seen order. Between joins every table entry is 0, so a join
/// resets only the slots it touched.
class PortSlots {
 public:
  PortSlots() : slot_of_(std::make_unique<std::uint16_t[]>(kPorts)) {
    tracked_.reserve(kPortMixBound);
  }

  /// The calling thread's accumulator, emptied for a new join. Its table
  /// is all zero already: take() resets it before anything can throw.
  static PortSlots& for_new_join() {
    thread_local PortSlots slots;
    slots.tracked_.clear();
    slots.spilled_weight_ = 0;
    slots.spilled_adds_ = 0;
    return slots;
  }

  /// Adds `weight` to a tracked port, tracks a new port while fewer than
  /// kPortMixBound are, and otherwise spills. Never allocates: the tracked
  /// rows were reserved to the bound up front.
  void add(std::uint16_t port, std::uint64_t weight) {
    std::uint16_t& slot = slot_of_[port];
    if (slot == 0) {
      if (tracked_.size() == kPortMixBound) {
        spilled_weight_ += weight;
        ++spilled_adds_;
        return;
      }
      tracked_.emplace_back(port, 0);
      slot = static_cast<std::uint16_t>(tracked_.size());
    }
    tracked_[slot - 1].second += weight;
  }

  /// The accumulated mix, rows sorted by port. Resets the touched slots
  /// first, so a failed row allocation cannot leave a stale slot behind.
  PortMix take() {
    for (const PortRow& row : tracked_) slot_of_[row.first] = 0;
    std::vector<PortRow> rows(tracked_.begin(), tracked_.end());
    std::sort(rows.begin(), rows.end());
    return PortMix(std::move(rows), spilled_weight_, spilled_adds_);
  }

 private:
  static constexpr std::size_t kPorts = std::size_t{1} << 16;
  static_assert(kPortMixBound < 0xFFFF, "slot + 1 must fit a u16");

  std::unique_ptr<std::uint16_t[]> slot_of_;
  std::vector<PortRow> tracked_;
  std::uint64_t spilled_weight_ = 0;
  std::uint64_t spilled_adds_ = 0;
};

}  // namespace

std::uint64_t PortMix::count(std::uint16_t port) const {
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), port,
      [](const PortRow& row, std::uint16_t p) { return row.first < p; });
  return it != rows_.end() && it->first == port ? it->second : 0;
}

std::uint64_t PortMix::total() const {
  std::uint64_t t = spilled_weight_;
  for (const auto& [port, estimate] : rows_) t += estimate;
  return t;
}

void canonicalize_sources(std::vector<net::Ipv4Address>& ips) {
  const auto not_ascending = [](net::Ipv4Address a, net::Ipv4Address b) {
    return !(a < b);
  };
  if (std::adjacent_find(ips.begin(), ips.end(), not_ascending) == ips.end()) {
    return;
  }
  std::sort(ips.begin(), ips.end());
  ips.erase(std::unique(ips.begin(), ips.end()), ips.end());
}

SourceSet::SourceSet(const detect::IpSet& ips)
    : values_(ips.begin(), ips.end()) {
  canonicalize_sources(values_);
  hashes_.reserve(values_.size());
  for (const net::Ipv4Address ip : values_) {
    hashes_.push_back(FlowSourceIndex::hash_of(ip));
  }
}

SourceSet::SourceSet(const std::vector<net::Ipv4Address>& ips) : values_(ips) {
  canonicalize_sources(values_);
  hashes_.reserve(values_.size());
  for (const net::Ipv4Address ip : values_) {
    hashes_.push_back(FlowSourceIndex::hash_of(ip));
  }
}

void FlowSourceIndex::append(const flowsim::FlowBatch& batch) {
  append_span(batch.src_col().data(), batch.dst_port_col().data(),
              batch.proto_col().data(), batch.packets_col().data(),
              batch.size());
}

void FlowSourceIndex::append_span(const std::uint32_t* src_col,
                                  const std::uint16_t* dst_port_col,
                                  const std::uint8_t* proto_col,
                                  const std::uint64_t* packets_col,
                                  std::size_t n) {
  if (finalized_) {
    throw std::logic_error("FlowSourceIndex: append after finalize");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const net::Ipv4Address src(src_col[i]);
    const std::uint16_t port = dst_port_col[i];
    const auto type =
        static_cast<std::uint8_t>(flowsim::traffic_type_of(proto_col[i]));
    const std::uint64_t count = packets_col[i];
    if (has_last_) {
      const auto last = std::tie(last_src_, last_port_, last_type_);
      const auto cur = std::tie(src, port, type);
      if (cur < last) {
        throw std::invalid_argument(
            "FlowSourceIndex: rows out of (src, dst_port, type) order");
      }
      if (cur == last) {  // split oversized flow: same key, merge
        entry_count_.back() += count;
        continue;
      }
    }
    if (srcs_.empty() || srcs_.back() != src) {
      srcs_.push_back(src);
      offsets_.push_back(static_cast<std::uint32_t>(entry_count_.size()));
    }
    entry_port_.push_back(port);
    entry_type_.push_back(type);
    entry_count_.push_back(count);
    last_src_ = src;
    last_port_ = port;
    last_type_ = type;
    has_last_ = true;
  }
}

void FlowSourceIndex::finalize() {
  if (finalized_) return;
  offsets_.push_back(static_cast<std::uint32_t>(entry_count_.size()));
  groups_.reserve(srcs_.size());
  for (std::size_t g = 0; g < srcs_.size(); ++g) {
    groups_.try_emplace(srcs_[g], static_cast<std::uint32_t>(g));
  }
  finalized_ = true;
}

RouterDayReport join_flow_index(const FlowSourceIndex& index,
                                const SourceSet& sources,
                                std::uint32_t sampling_rate,
                                std::uint64_t total_packets, std::size_t router,
                                std::int64_t day) {
  RouterDayReport report;
  report.impact.router = router;
  report.impact.day = day;
  report.impact.total_packets = total_packets;
  report.probed_sources = sources.size();

  const std::vector<std::uint32_t>& offsets = index.offsets();
  const std::vector<std::uint16_t>& ports = index.entry_ports();
  const std::vector<std::uint8_t>& types = index.entry_types();
  const std::vector<std::uint64_t>& counts = index.entry_counts();
  PortSlots& port_slots = PortSlots::for_new_join();

  // Same shape as EventAggregator::observe_batch: hashes were precomputed
  // by the SourceSet, so probe i can have probe i+8's bucket line already
  // in flight while it scans its entry span.
  constexpr std::size_t kPrefetchAhead = 8;
  const std::size_t n = sources.size();
  std::uint64_t sampled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      index.prefetch_group(sources.hash(i + kPrefetchAhead));
    }
    const std::uint32_t* group =
        index.find_group(sources.value(i), sources.hash(i));
    if (group == nullptr) continue;
    ++report.impact.matched_sources;
    for (std::uint32_t e = offsets[*group]; e < offsets[*group + 1]; ++e) {
      const std::uint64_t estimate = counts[e] * sampling_rate;
      sampled += counts[e];
      report.protocols[type_index(static_cast<pkt::TrafficType>(types[e]))] +=
          estimate;
      port_slots.add(ports[e], estimate);
    }
  }
  report.impact.matched_packets = sampled * sampling_rate;
  report.ports = port_slots.take();
  return report;
}

RouterDayReport join_flow_index_scalar(const FlowSourceIndex& index,
                                       const detect::IpSet& sources,
                                       std::uint32_t sampling_rate,
                                       std::uint64_t total_packets,
                                       std::size_t router, std::int64_t day) {
  RouterDayReport report;
  report.impact.router = router;
  report.impact.day = day;
  report.impact.total_packets = total_packets;
  report.probed_sources = sources.size();

  const std::vector<net::Ipv4Address>& srcs = index.srcs();
  const std::vector<std::uint32_t>& offsets = index.offsets();
  const std::vector<std::uint16_t>& ports = index.entry_ports();
  const std::vector<std::uint8_t>& types = index.entry_types();
  const std::vector<std::uint64_t>& counts = index.entry_counts();
  const std::size_t groups = srcs.size();

  // The pre-redesign algorithm, preserved pass for pass: the legacy API
  // forced one full probe sweep per table.

  // Pass 1 — impact (legacy impact()).
  std::uint64_t sampled = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    if (!sources.contains(srcs[g])) continue;
    ++report.impact.matched_sources;
    for (std::uint32_t e = offsets[g]; e < offsets[g + 1]; ++e) {
      sampled += counts[e];
    }
  }
  report.impact.matched_packets = sampled * sampling_rate;

  // Pass 2 — protocol mix (legacy protocol_mix()).
  for (std::size_t g = 0; g < groups; ++g) {
    if (!sources.contains(srcs[g])) continue;
    for (std::uint32_t e = offsets[g]; e < offsets[g + 1]; ++e) {
      report.protocols[type_index(static_cast<pkt::TrafficType>(types[e]))] +=
          counts[e] * sampling_rate;
    }
  }

  // Pass 3 — port mix (legacy port_mix()), counted in a bounded TopK.
  stats::TopK<std::uint16_t> port_mix(kPortMixBound);
  for (std::size_t g = 0; g < groups; ++g) {
    if (!sources.contains(srcs[g])) continue;
    for (std::uint32_t e = offsets[g]; e < offsets[g + 1]; ++e) {
      port_mix.add(ports[e], counts[e] * sampling_rate);
    }
  }
  std::vector<PortRow> port_rows(port_mix.counts().begin(),
                                 port_mix.counts().end());
  std::sort(port_rows.begin(), port_rows.end());
  report.ports = PortMix(std::move(port_rows), port_mix.spilled_weight(),
                         port_mix.spilled_adds());

  // Pass 4 — visibility (legacy visibility_percent()): one binary search
  // per probed source. Its count is the same "has >= 1 sampled flow"
  // predicate pass 1 already counted, which is exactly why query() can
  // fold all four tables into one probe.
  std::size_t visible = 0;
  for (const net::Ipv4Address ip : sources) {
    if (std::binary_search(srcs.begin(), srcs.end(), ip)) ++visible;
  }
  if (visible != report.impact.matched_sources) {
    throw std::logic_error("join_flow_index_scalar: visibility disagrees");
  }
  return report;
}

FlowImpactAnalyzer::FlowImpactAnalyzer(const store::MappedFlowStore* store)
    : store_(store) {}

const store::FlowSegment& FlowImpactAnalyzer::segment_of(
    std::size_t router, std::int64_t day) const {
  const store::FlowSegment* seg = store_->segment(router, day);
  if (seg == nullptr) {
    throw std::out_of_range("FlowImpactAnalyzer: no such router-day");
  }
  return *seg;
}

FlowSourceIndex FlowImpactAnalyzer::build_index(std::size_t router,
                                                std::int64_t day) const {
  // Zero-copy: the index consumes the column spans of the cell's row
  // range directly — no FlowRecord, no staging batch. Rows arrive in the
  // (src, dst_port, type) order the FDE1 writer enforces.
  FlowSourceIndex index;
  const store::FlowSegment& seg = segment_of(router, day);
  store_->for_each_span(
      seg.row_begin, seg.row_end,
      [&index](const store::FlowView& view, std::size_t lo, std::size_t hi) {
        index.append_span(view.src.data() + lo, view.dst_port.data() + lo,
                          view.proto.data() + lo, view.packets.data() + lo,
                          hi - lo);
      });
  index.finalize();
  return index;
}

const FlowSourceIndex& FlowImpactAnalyzer::index_of(std::size_t router,
                                                    std::int64_t day) const {
  const RouterDayKey key{router, day};
  const auto cached = index_cache_.find(key);
  if (cached != index_cache_.end()) return cached->second;
  FlowSourceIndex index = build_index(router, day);
  return index_cache_.emplace(key, std::move(index)).first->second;
}

void FlowImpactAnalyzer::prebuild_indexes(std::size_t n_threads) const {
  std::vector<RouterDayKey> pending;
  for (const store::FlowSegment& seg : store_->segments()) {
    const RouterDayKey key{seg.router, seg.day};
    if (index_cache_.find(key) == index_cache_.end()) pending.push_back(key);
  }
  if (pending.empty()) return;
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  n_threads = std::min(n_threads, pending.size());

  // Workers fill disjoint slots of `built` and touch nothing shared;
  // the cache merge below runs on this thread, in cell order, so the
  // final cache state is the same for every n_threads (including the
  // n_threads == 1 fast path).
  std::vector<FlowSourceIndex> built(pending.size());
  if (n_threads <= 1) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      built[i] = build_index(pending[i].router, pending[i].day);
    }
  } else {
    // A build can throw (a bit-rotted block's rows out of order). Each
    // worker stops at its first failure and hands it back here; the
    // ranges are contiguous and in cell order, so the first one found
    // below is the first failing cell — what the serial path throws.
    std::vector<std::exception_ptr> failed(n_threads);
    const std::size_t per = (pending.size() + n_threads - 1) / n_threads;
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      const std::size_t lo = std::min(pending.size(), t * per);
      const std::size_t hi = std::min(pending.size(), lo + per);
      threads.emplace_back([this, &pending, &built, &failed, t, lo, hi] {
        try {
          for (std::size_t i = lo; i < hi; ++i) {
            built[i] = build_index(pending[i].router, pending[i].day);
          }
        } catch (...) {
          failed[t] = std::current_exception();
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::exception_ptr& failure : failed) {
      if (failure) std::rethrow_exception(failure);
    }
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    index_cache_.emplace(pending[i], std::move(built[i]));
  }
}

RouterDayReport FlowImpactAnalyzer::query(std::size_t router, std::int64_t day,
                                          const SourceSet& sources) const {
  return join_flow_index(index_of(router, day), sources,
                         store_->sampling_rate(),
                         segment_of(router, day).total_packets, router, day);
}

RouterDayReport FlowImpactAnalyzer::query(std::size_t router, std::int64_t day,
                                          const detect::IpSet& sources) const {
  return query(router, day, SourceSet(sources));
}

RouterDayReport FlowImpactAnalyzer::query_scalar(
    std::size_t router, std::int64_t day, const detect::IpSet& sources) const {
  return join_flow_index_scalar(index_of(router, day), sources,
                                store_->sampling_rate(),
                                segment_of(router, day).total_packets, router,
                                day);
}

std::vector<RouterDayImpact> FlowImpactAnalyzer::impact_table(
    const detect::IpSet& sources) const {
  const SourceSet set(sources);  // hash once, reuse across every cell
  std::vector<RouterDayImpact> out;
  for (const store::FlowSegment& seg : store_->segments()) {
    out.push_back(query(seg.router, seg.day, set).impact);
  }
  return out;
}

namespace detail {

template <typename Fn>
void for_each_event(const telescope::EventDataset& dataset, Fn&& fn) {
  for (const telescope::DarknetEvent& e : dataset.events()) fn(e);
}

template <typename Fn>
void for_each_event(const store::MappedEventStore& store, Fn&& fn) {
  store.for_each_event(std::forward<Fn>(fn));
}

}  // namespace detail

template <typename Event>
void DailyDarknetMix::fold(const Event& e, const detect::IpSet& sources) {
  if (!sources.contains(e.key.src)) return;
  const auto index = static_cast<std::size_t>(e.day() - first_day_);
  protocols_[index][type_index(e.key.type)] += e.packets;
  ports_[index].add(e.key.dst_port, e.packets);
}

template <typename EventSource>
DailyDarknetMix::DailyDarknetMix(const EventSource& source,
                                 const detect::IpSet& sources)
    : first_day_(source.first_day()), last_day_(source.last_day()) {
  if (last_day_ < first_day_) return;
  const auto days = static_cast<std::size_t>(last_day_ - first_day_ + 1);
  protocols_.assign(days, ProtocolMix{});
  ports_.resize(days);
  detail::for_each_event(source, [&](const auto& e) { fold(e, sources); });
}

template DailyDarknetMix::DailyDarknetMix(const telescope::EventDataset&,
                                          const detect::IpSet&);
template DailyDarknetMix::DailyDarknetMix(const store::MappedEventStore&,
                                          const detect::IpSet&);

const ProtocolMix& DailyDarknetMix::protocols(std::int64_t day) const {
  static const ProtocolMix kEmpty{};
  if (!in_window(day)) return kEmpty;
  return protocols_[static_cast<std::size_t>(day - first_day_)];
}

const stats::TopK<std::uint16_t>& DailyDarknetMix::ports(std::int64_t day) const {
  static const stats::TopK<std::uint16_t> kEmpty;
  if (!in_window(day)) return kEmpty;
  return ports_[static_cast<std::size_t>(day - first_day_)];
}

}  // namespace orion::impact
