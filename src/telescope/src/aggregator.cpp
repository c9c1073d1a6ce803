#include "orion/telescope/aggregator.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "orion/packet/classify.hpp"
#include "orion/telescope/checkpoint.hpp"

namespace orion::telescope {

namespace {

constexpr std::uint64_t kAggregatorTag = checkpoint_tag('A', 'G', 'G', '2');

}  // namespace

EventAggregator::EventAggregator(net::PrefixSet dark_space,
                                 AggregatorConfig config, EventSink sink)
    : dark_space_(std::move(dark_space)),
      config_(config),
      sink_(std::move(sink)) {
  if (config_.timeout.total_nanos() <= 0) {
    throw std::invalid_argument("EventAggregator: non-positive timeout");
  }
  live_.reserve(config_.live_reserve);
  rebuild_wheel();
}

void EventAggregator::observe(const pkt::Packet& packet) {
  single_.clear();
  single_.push_back(packet);
  observe_batch(single_);
}

void EventAggregator::observe_batch(const pkt::PacketBatch& batch,
                                    std::span<const std::uint8_t> member) {
  const std::size_t n = batch.size();
  if (n == 0) return;
  if (!member.empty() && member.size() != n) {
    throw std::invalid_argument(
        "EventAggregator::observe_batch: membership column size mismatch");
  }

  // Whole-batch monotonicity validation before any record is applied.
  {
    std::int64_t prev = saw_packet_
                            ? last_timestamp_.since_epoch().total_nanos()
                            : std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t ts = batch.timestamp_nanos(i);
      if (ts < prev) {
        throw std::invalid_argument(
            "EventAggregator::observe: timestamps must be non-decreasing");
      }
      prev = ts;
    }
  }

  if (!saw_packet_) {
    next_sweep_ = batch.timestamp(0) + config_.sweep_interval;
    saw_packet_ = true;
  }

  // Pass 1: classify every record and precompute key hashes / dark-space
  // offsets into the scratch columns. kind: 0 = outside the dark space,
  // 1 = non-scanning, 2 = scanning. The dark-space membership, traffic
  // classification, and tool attribution columns are filled by the SIMD
  // batch kernels (DESIGN.md §14), whose scalar tier runs the same
  // constexpr cores as Packet::traffic_type() and fingerprint_of(), so the
  // scratch contents are identical at every tier.
  scratch_kind_.resize(n);
  scratch_type_.resize(n);
  scratch_tool_.resize(n);
  scratch_key_.resize(n);
  scratch_hash_.resize(n);
  scratch_offset_.resize(n);
  // Membership: trust the caller's precomputed column when given (the
  // dispatcher ran the same contains_batch kernel once for the whole
  // batch), else compute it here.
  const std::uint8_t* member_col = member.data();
  if (member.empty()) {
    scratch_member_.resize(n);
    dark_space_.contains_batch(batch.dst_col().data(), n, scratch_member_.data());
    member_col = scratch_member_.data();
  }
  pkt::classify_traffic_batch(batch, scratch_type_.data());
  pkt::classify_tool_batch(batch, scratch_tool_.data());
  std::uint64_t out_of_space = 0;
  std::uint64_t non_scanning = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!member_col[i]) {
      scratch_kind_[i] = 0;
      ++out_of_space;
      continue;
    }
    const pkt::TrafficType type =
        static_cast<pkt::TrafficType>(scratch_type_[i]);
    if (type == pkt::TrafficType::Other) {
      scratch_kind_[i] = 1;
      ++non_scanning;
      continue;
    }
    scratch_kind_[i] = 2;
    scratch_key_[i] =
        EventKey{batch.src(i),
                 type == pkt::TrafficType::IcmpEchoReq ? std::uint16_t{0}
                                                       : batch.dst_port(i),
                 type};
    scratch_hash_[i] = EventKeyHash{}(scratch_key_[i]);
    scratch_offset_[i] = dark_space_.offset_of(batch.dst(i));
  }

  // Pass 2: apply the records in order. A sweep fires before applying the
  // first record whose timestamp reaches next_sweep_, so sweeps land on
  // the same records for any chunking; the `maybe_sweep` flag hoists the
  // per-record comparison: timestamps are non-decreasing, so if the last
  // record is still before next_sweep_, no record in the batch can fire.
  constexpr std::size_t kPrefetchAhead = 8;
  const std::int64_t timeout_ns = config_.timeout.total_nanos();
  bool maybe_sweep = batch.timestamp(n - 1) >= next_sweep_;
  for (std::size_t i = 0; i < n; ++i) {
    const net::SimTime ts = batch.timestamp(i);
    if (maybe_sweep && ts >= next_sweep_) {
      sweep_wheel(ts);
      maybe_sweep = batch.timestamp(n - 1) >= next_sweep_;
    }
    if (scratch_kind_[i] != 2) continue;
    if (i + kPrefetchAhead < n && scratch_kind_[i + kPrefetchAhead] == 2) {
      live_.prefetch(scratch_hash_[i + kPrefetchAhead]);
    }
    const EventKey& key = scratch_key_[i];
    const std::size_t hash = scratch_hash_[i];
    const std::int64_t ts_ns = ts.since_epoch().total_nanos();
    LiveEvent* live = live_.find_hashed(key, hash);
    if (live != nullptr &&
        ts_ns - live->last_seen.since_epoch().total_nanos() > timeout_ns) {
      // The previous event for this key already expired (a key can stay
      // idle across a sweep boundary when sweeps are coarse): emit it and
      // start a fresh one. Its wheel stamp goes stale and is dropped at
      // validation time.
      emit(key, *live);
      live_.erase_hashed(key, hash);
      live = nullptr;
    }
    // Slide the wheel window before this record's stamp is laid down;
    // records land at the stream head, so the new bucket is the top one.
    const std::int64_t g = ts_ns / granule_ns_;
    if (g - base_granule_ >= static_cast<std::int64_t>(kBuckets)) {
      rebase_wheel(g);
    }
    const std::size_t new_bucket = static_cast<std::size_t>(g - base_granule_);
    if (live == nullptr) {
      live = live_
                 .try_emplace_hashed(key, hash, LiveEvent(dark_space_.total_addresses()))
                 .first;
      live->start = ts;
      wheel_[new_bucket].emplace_back(key, hash);
    } else {
      const std::size_t old_bucket =
          bucket_of(live->last_seen.since_epoch().total_nanos());
      if (old_bucket != new_bucket) {
        // The event migrated a granule; its old stamp goes stale in place.
        wheel_[new_bucket].emplace_back(key, hash);
      }
    }
    live->last_seen = ts;
    ++live->packets;
    ++live->packets_by_tool[scratch_tool_[i]];
    live->dests.add(scratch_offset_[i]);
  }

  last_timestamp_ = batch.timestamp(n - 1);
  packets_seen_ += n;
  ignored_out_of_space_ += out_of_space;
  ignored_non_scanning_ += non_scanning;
  scanning_packets_ += n - out_of_space - non_scanning;
}

std::size_t EventAggregator::bucket_of(std::int64_t last_seen_ns) const {
  const std::int64_t g = last_seen_ns / granule_ns_ - base_granule_;
  if (g <= 0) return 0;
  return g >= static_cast<std::int64_t>(kBuckets)
             ? kBuckets - 1  // unreachable when rebased before increments
             : static_cast<std::size_t>(g);
}

/// Slides the wheel window so `top_granule` maps to the last bucket,
/// folding every bucket that falls off the bottom into bucket 0 (whose
/// freshness test has no lower bound, so folded stamps stay valid).
/// Only runs when stream time crosses a granule boundary past the window
/// top; vectors are swapped, not copied, so capacities are recycled.
void EventAggregator::rebase_wheel(std::int64_t top_granule) {
  const std::int64_t new_base =
      top_granule - (static_cast<std::int64_t>(kBuckets) - 1);
  const std::int64_t shift = new_base - base_granule_;
  if (shift <= 0) return;
  // Ascending order guarantees every swap target was already vacated.
  for (std::size_t i = 1; i < kBuckets; ++i) {
    if (wheel_[i].empty()) continue;
    const std::int64_t j = static_cast<std::int64_t>(i) - shift;
    if (j <= 0) {
      wheel_[0].insert(wheel_[0].end(), wheel_[i].begin(), wheel_[i].end());
      wheel_[i].clear();
    } else {
      std::swap(wheel_[static_cast<std::size_t>(j)], wheel_[i]);
      wheel_[i].clear();
    }
  }
  base_granule_ = new_base;
}

/// Re-stamps every live event with the window top at the stream clock
/// (construction and restore()).
void EventAggregator::rebuild_wheel() {
  // Granule width: the live window (timeout + one sweep interval) spread
  // over the non-saturating buckets, so steady-state events never land in
  // bucket 0 and the expiry bound has ~granule resolution.
  const std::int64_t window =
      config_.timeout.total_nanos() + config_.sweep_interval.total_nanos();
  granule_ns_ = window / static_cast<std::int64_t>(kBuckets - 2) + 1;
  base_granule_ = last_timestamp_.since_epoch().total_nanos() / granule_ns_ -
                  (static_cast<std::int64_t>(kBuckets) - 1);
  for (auto& bucket : wheel_) bucket.clear();
  live_.for_each([this](const EventKey& key, const LiveEvent& live) {
    wheel_[bucket_of(live.last_seen.since_epoch().total_nanos())].emplace_back(
        key, EventKeyHash{}(key));
  });
}

void EventAggregator::sweep_wheel(net::SimTime now) {
  const std::int64_t now_ns = now.since_epoch().total_nanos();
  const std::int64_t timeout_ns = config_.timeout.total_nanos();
  const std::int64_t cutoff_ns = now_ns - timeout_ns;
  // Phase 1 — gather candidates. An event expires iff last_seen < cutoff.
  // Bucket i >= 1 only holds stamps laid down at last_seen >=
  // (base+i) * granule, and those lower bounds grow with i, so the walk
  // stops at the first bucket that clears the cutoff; bucket 0 has no
  // lower bound and is always inspected. Each stamp is validated against
  // the live table: it is stale (dropped) when its key is gone, or when
  // the event was touched into a different granule since the stamp was
  // laid down (a fresher stamp exists in a later bucket). Fresh stamps of
  // not-yet-expired events are compacted back into their bucket.
  candidates_.clear();
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (i > 0 &&
        (base_granule_ + static_cast<std::int64_t>(i)) * granule_ns_ >= cutoff_ns) {
      break;
    }
    std::vector<Stamp>& bucket = wheel_[i];
    if (bucket.empty()) continue;
    std::size_t kept = 0;
    for (const Stamp& stamp : bucket) {
      const LiveEvent* live = live_.find_hashed(stamp.first, stamp.second);
      if (live == nullptr) continue;  // stale: event ended or was re-keyed
      const std::int64_t ls_ns = live->last_seen.since_epoch().total_nanos();
      const std::int64_t g = ls_ns / granule_ns_;
      const bool fresh = i == 0 ? g <= base_granule_
                                : g == base_granule_ + static_cast<std::int64_t>(i);
      if (!fresh) continue;  // stale: touched since the stamp was laid down
      if (now_ns - ls_ns > timeout_ns) {
        candidates_.push_back(stamp);
      } else {
        bucket[kept++] = stamp;
      }
    }
    bucket.resize(kept);
  }
  // Phase 2 — emit. The pending-event backlog is serialized in emission
  // order (CAP1, PPL2, SSH1), so this order is frozen: repeatedly emit the
  // candidate at the smallest current live-table slot index at or past
  // the previous emission's slot. Slot indices move under erasure
  // (backward-shift deletion), so every survivor is re-queried each
  // round; the emptied slot can be refilled by a shifted candidate, hence
  // ">=" not ">". A candidate shifted below that frontier is not emitted
  // now: it is re-stamped, and the next sweep emits it.
  constexpr std::size_t kNoSlot =
      net::FlatMap<EventKey, LiveEvent, EventKeyHash>::npos;
  std::size_t pos = 0;
  while (!candidates_.empty()) {
    std::size_t best = candidates_.size();
    std::size_t best_slot = kNoSlot;
    for (std::size_t j = 0; j < candidates_.size();) {
      const std::size_t slot =
          live_.slot_index_hashed(candidates_[j].first, candidates_[j].second);
      if (slot == kNoSlot) {
        // Duplicate stamp (rebases can fold two stamps of one key into
        // bucket 0); its event was already emitted this round.
        candidates_[j] = candidates_.back();
        candidates_.pop_back();
        continue;
      }
      if (slot >= pos && slot < best_slot) {
        best = j;
        best_slot = slot;
      }
      ++j;
    }
    if (best == candidates_.size()) {
      for (const Stamp& stamp : candidates_) {
        const LiveEvent* live = live_.find_hashed(stamp.first, stamp.second);
        wheel_[bucket_of(live->last_seen.since_epoch().total_nanos())].push_back(
            stamp);
      }
      break;
    }
    const Stamp stamp = candidates_[best];
    candidates_[best] = candidates_.back();
    candidates_.pop_back();
    emit(stamp.first, *live_.find_hashed(stamp.first, stamp.second));
    live_.erase_hashed(stamp.first, stamp.second);
    pos = best_slot;
  }
  next_sweep_ = now + config_.sweep_interval;
}

void EventAggregator::advance_to(net::SimTime now) {
  if (saw_packet_ && now < last_timestamp_) {
    throw std::invalid_argument("EventAggregator::advance_to: time regression");
  }
  last_timestamp_ = now;
  sweep_wheel(now);
}

void EventAggregator::finish() {
  live_.for_each([this](const EventKey& key, const LiveEvent& live) {
    emit(key, live);
  });
  live_.clear();
  for (auto& bucket : wheel_) bucket.clear();
}

void EventAggregator::emit(const EventKey& key, const LiveEvent& live) {
  DarknetEvent event;
  event.key = key;
  event.start = live.start;
  event.end = live.last_seen;
  event.packets = live.packets;
  event.packets_by_tool = live.packets_by_tool;
  event.unique_dests = live.dests.size();
  ++events_emitted_;
  if (sink_) sink_(event);
}

void EventAggregator::checkpoint(CheckpointWriter& writer) const {
  writer.tag(kAggregatorTag);
  // Configuration echo: resuming under different parameters would
  // silently change event delimitation, so restore() verifies these.
  writer.i64(config_.timeout.total_nanos());
  writer.i64(config_.sweep_interval.total_nanos());
  writer.u64(dark_space_.prefixes().size());
  for (const net::Prefix& p : dark_space_.prefixes()) {
    writer.u64(p.base().value());
    writer.u64(static_cast<std::uint64_t>(p.length()));
  }
  // Stream clock and counters.
  writer.u8(saw_packet_ ? 1 : 0);
  writer.i64(last_timestamp_.since_epoch().total_nanos());
  writer.i64(next_sweep_.since_epoch().total_nanos());
  writer.u64(packets_seen_);
  writer.u64(scanning_packets_);
  writer.u64(ignored_out_of_space_);
  writer.u64(ignored_non_scanning_);
  writer.u64(events_emitted_);
  // Live-event table, in key order so snapshots are byte-deterministic
  // regardless of the table's probe-slot layout.
  writer.u64(live_.size());
  std::vector<std::pair<EventKey, const LiveEvent*>> ordered;
  ordered.reserve(live_.size());
  live_.for_each([&ordered](const EventKey& key, const LiveEvent& live) {
    ordered.emplace_back(key, &live);
  });
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::uint64_t bitmap_words = (dark_space_.total_addresses() + 63) / 64;
  for (const auto& [key, live_ptr] : ordered) {
    const LiveEvent& live = *live_ptr;
    writer.u64(key.src.value());
    writer.u64(key.dst_port);
    writer.u8(static_cast<std::uint8_t>(key.type));
    writer.i64(live.start.since_epoch().total_nanos());
    writer.i64(live.last_seen.since_epoch().total_nanos());
    writer.u64(live.packets);
    for (const std::uint64_t t : live.packets_by_tool) writer.u64(t);
    // The destination set in its smaller form, which its count decides:
    // the ascending offsets while there are fewer of them than bitmap
    // words, else the dark-space bitmap.
    writer.u64(live.dests.size());
    writer.u64s(live.dests.size() < bitmap_words ? live.dests.keys()
                                                 : live.dests.words());
  }
}

void EventAggregator::restore(CheckpointReader& reader) {
  reader.expect_tag(kAggregatorTag, "EventAggregator");
  const bool config_matches =
      net::Duration::nanos(reader.i64("timeout")) == config_.timeout &&
      net::Duration::nanos(reader.i64("sweep interval")) ==
          config_.sweep_interval;
  if (!config_matches) {
    throw ConfigMismatchError("EventAggregator configuration mismatch");
  }
  const std::uint64_t prefix_count = reader.u64("prefix count");
  bool space_matches = prefix_count == dark_space_.prefixes().size();
  for (std::uint64_t i = 0; i < prefix_count; ++i) {
    const std::uint32_t base = reader.narrow<std::uint32_t>("prefix base");
    const int length = reader.narrow<std::uint8_t>("prefix length");
    if (space_matches) {
      const net::Prefix& p = dark_space_.prefixes()[static_cast<std::size_t>(i)];
      space_matches = p.base().value() == base && p.length() == length;
    }
  }
  if (!space_matches) {
    throw ConfigMismatchError("EventAggregator dark-space mismatch");
  }
  saw_packet_ = reader.u8("saw packet") != 0;
  last_timestamp_ = net::SimTime::at(net::Duration::nanos(reader.i64("last timestamp")));
  next_sweep_ = net::SimTime::at(net::Duration::nanos(reader.i64("next sweep")));
  packets_seen_ = reader.u64("packets seen");
  scanning_packets_ = reader.u64("scanning packets");
  ignored_out_of_space_ = reader.u64("ignored out of space");
  ignored_non_scanning_ = reader.u64("ignored non scanning");
  events_emitted_ = reader.u64("events emitted");
  // Six u64 fields (the destination count among them), the type byte
  // and the per-tool packet counts.
  const std::size_t live_event_bytes = 6 * 8 + 1 + sizeof(ToolPackets);
  const std::uint64_t live_count = reader.count("live event count", live_event_bytes);
  const std::uint64_t darknet = dark_space_.total_addresses();
  const std::uint64_t bitmap_words = (darknet + 63) / 64;
  // Bits of the last bitmap word past the darknet's last offset.
  const std::uint64_t padding =
      darknet % 64 == 0 ? 0 : ~std::uint64_t{0} << (darknet % 64);
  live_.clear();
  live_.reserve(static_cast<std::size_t>(live_count));
  for (std::uint64_t i = 0; i < live_count; ++i) {
    EventKey key;
    key.src = net::Ipv4Address(reader.narrow<std::uint32_t>("event src"));
    key.dst_port = reader.narrow<std::uint16_t>("event port");
    const std::uint8_t type = reader.u8("event type");
    if (type > static_cast<std::uint8_t>(pkt::TrafficType::Other)) {
      throw std::runtime_error("checkpoint: bad traffic type");
    }
    key.type = static_cast<pkt::TrafficType>(type);
    LiveEvent live(darknet);
    live.start = net::SimTime::at(net::Duration::nanos(reader.i64("event start")));
    live.last_seen =
        net::SimTime::at(net::Duration::nanos(reader.i64("event last seen")));
    live.packets = reader.u64("event packets");
    for (std::uint64_t& t : live.packets_by_tool) t = reader.u64("tool packets");
    // The count decides the form the writer chose, so both forms must
    // agree with it: a list strictly ascending (a repeat would restore a
    // smaller set than the one checkpointed) and below the darknet size,
    // a bitmap with that many bits set and none past the dark space.
    const std::uint64_t count = reader.u64("destination count");
    if (count > darknet) {
      throw std::runtime_error("checkpoint: destination count above the darknet size");
    }
    if (count < bitmap_words) {
      std::uint64_t last = 0;
      for (std::uint64_t k = 0; k < count; ++k) {
        const std::uint64_t offset = reader.u64("destination offset");
        if (offset >= darknet) {
          throw std::runtime_error("checkpoint: destination offset outside the dark space");
        }
        if (k > 0 && offset <= last) {
          throw std::runtime_error("checkpoint: destination offsets not strictly ascending");
        }
        live.dests.add(offset);
        last = offset;
      }
    } else {
      std::uint64_t set_bits = 0;
      for (std::uint64_t w = 0; w < bitmap_words; ++w) {
        const std::uint64_t word = reader.u64("destination bitmap word");
        if (w + 1 == bitmap_words && (word & padding) != 0) {
          throw std::runtime_error("checkpoint: destination bitmap sets a bit past the dark space");
        }
        set_bits += static_cast<std::uint64_t>(std::popcount(word));
        for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
          live.dests.add(w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits)));
        }
      }
      if (set_bits != count) {
        throw std::runtime_error("checkpoint: destination bitmap popcount differs from its count");
      }
    }
    if (!live_.try_emplace(key, std::move(live)).second) {
      throw std::runtime_error("checkpoint: duplicate live event key");
    }
  }
  rebuild_wheel();
}

}  // namespace orion::telescope
