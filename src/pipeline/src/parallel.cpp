#include "orion/telescope/parallel.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "orion/netbase/shard.hpp"

namespace orion::telescope {

namespace {

// PPL2 appended the supervision/escalation ledger (dropped_shed, stalls,
// worker_restarts) to the pipeline header. PPL1 checkpoints predate it
// and are still readable: that version could never shed, stall, or
// restart a worker, so its ledger is zero by construction.
constexpr std::uint64_t kPipelineTag = checkpoint_tag('P', 'P', 'L', '2');
constexpr std::uint64_t kPipelineTagV1 = checkpoint_tag('P', 'P', 'L', '1');
// Worker-side shard snapshot frames (supervision), distinct from the
// whole-pipeline PPL2 section so one can never be restored as the other.
constexpr std::uint64_t kShardSnapTag = checkpoint_tag('S', 'S', 'H', '1');

/// The shards' closed event lists, each sorted by start_key_less, as one
/// list in that order: a k-way merge that copies each event once. A lone
/// non-empty run is moved, not copied.
std::vector<DarknetEvent> merge_runs(std::vector<std::vector<DarknetEvent>*> runs) {
  std::erase_if(runs, [](const std::vector<DarknetEvent>* run) { return run->empty(); });
  if (runs.empty()) return {};
  if (runs.size() == 1) return std::move(*runs.front());
  std::size_t total = 0;
  std::vector<std::span<const DarknetEvent>> heads;
  for (const std::vector<DarknetEvent>* run : runs) {
    total += run->size();
    heads.emplace_back(*run);
  }
  std::vector<DarknetEvent> merged;
  merged.reserve(total);
  while (!heads.empty()) {
    std::size_t least = 0;
    for (std::size_t i = 1; i < heads.size(); ++i) {
      if (start_key_less(heads[i].front(), heads[least].front())) least = i;
    }
    merged.push_back(heads[least].front());
    heads[least] = heads[least].subspan(1);
    if (heads[least].empty()) heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(least));
  }
  return merged;
}

}  // namespace

ParallelPipeline::ParallelPipeline(net::PrefixSet dark_space,
                                   ParallelConfig config)
    : config_(std::move(config)),
      dark_space_(std::move(dark_space)),
      darknet_size_(dark_space_.total_addresses()) {
  if (config_.shards == 0) {
    throw std::invalid_argument("ParallelPipeline: zero shards");
  }
  if (config_.batch_size == 0) {
    throw std::invalid_argument("ParallelPipeline: zero batch size");
  }
  if (config_.ring_capacity == 0) {
    throw std::invalid_argument("ParallelPipeline: zero ring capacity");
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>(config_.ring_capacity);
    Shard* raw = shard.get();
    raw->index = i;
    raw->slice = std::make_unique<detect::ShardDetectorSlice>(config_.detector,
                                                              darknet_size_);
    raw->aggregator = std::make_unique<EventAggregator>(
        dark_space_, config_.aggregator, [raw](const DarknetEvent& event) {
          raw->events.push_back(event);
          raw->slice->observe(event);
        });
    raw->pending.reserve(config_.batch_size);
    raw->pending_member.reserve(config_.batch_size);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) spawn_worker(*shard, 0);
}

ParallelPipeline::~ParallelPipeline() {
  if (finished_) return;
  // Abort, not orderly drain: after a ShardFailure a shard may have a full
  // ring and no worker, so pushing in-band stop batches could hang. The
  // cooperative stop token lets every live worker drain what it has and
  // exit; dead workers are already joinable.
  abort_workers();
}

void ParallelPipeline::spawn_worker(Shard& shard, std::uint64_t start_batches) {
  Shard* raw = &shard;
  shard.worker =
      std::thread([this, raw, start_batches] { worker_loop(*raw, start_batches); });
}

void ParallelPipeline::worker_loop(Shard& shard, std::uint64_t start_batches) {
  // Drain up to a small span of batches per ring handshake: one acquire /
  // release pair covers all of them (spsc_ring.hpp).
  constexpr std::size_t kPopSpan = 4;
  unsigned spins = 0;
  std::array<Batch, kPopSpan> batches;
  // Ring sequence of the next batch this incarnation will apply. A
  // restarted worker resumes at its snapshot point, so the fault hook sees
  // stable sequence numbers across restarts.
  std::uint64_t seq = start_batches;
  const std::size_t snap_every =
      std::max<std::size_t>(std::size_t{1}, config_.supervisor.snapshot_interval);
  try {
    for (;;) {
      const std::size_t n = shard.ring.try_pop_n(std::span<Batch>(batches));
      if (n == 0) {
        // Cooperative abort: only checked when idle, so every queued
        // batch is still applied before exit.
        if (shard.ring.stop_requested()) return;
        spsc_backoff(spins);
        continue;
      }
      spins = 0;
      bool stop = false;
      for (std::size_t i = 0; i < n; ++i) {
        Batch& batch = batches[i];
        if (batch.records.empty() && !batch.checkpoint && !batch.stop) continue;
        if (config_.supervisor.fault_hook) {
          config_.supervisor.fault_hook(shard.index, seq + i);
        }
        if (batch.checkpoint) {
          // Written afresh: a healed worker replays the request after a
          // death mid-write.
          shard.section = CheckpointWriter();
          write_shard_state(shard, shard.section);
          continue;
        }
        if (batch.stop) {
          // The last batch: close the shard here, in parallel with the
          // other workers. A healed worker closes again from its snapshot.
          close_shard(shard);
          stop = true;
          continue;
        }
        shard.aggregator->observe_batch(batch.records, batch.member);
        shard.delivered += batch.records.size();
        // Hand the drained arenas back for reuse; a full recycle ring
        // just means the dispatcher is ahead, so they are dropped.
        batch.records.clear();
        batch.member.clear();
        shard.recycle.try_push(batch);
        batch = Batch();
      }
      seq += n;
      // Release-publish completion: the dispatcher's acquire read in
      // quiesce() then sees every shard-state write these batches made.
      shard.consumed.fetch_add(n, std::memory_order_release);
      if (stop) return;
      if (supervised() && seq - shard.snapshot_batches >= snap_every) {
        snapshot_shard(shard, seq);
      }
    }
  } catch (const std::exception& err) {
    shard.panic = err.what();
  } catch (...) {
    shard.panic = "unknown worker exception";
  }
  // Panic path: publish death instead of letting the exception escape the
  // thread (which would terminate the process). The release store pairs
  // with the dispatcher's acquire loads; panic itself is read only after
  // join(), which synchronizes everything.
  shard.dead.store(true, std::memory_order_release);
}

void ParallelPipeline::close_shard(Shard& shard) {
  shard.aggregator->finish();
  std::sort(shard.events.begin(), shard.events.end(), start_key_less);
  shard.slice->seal();
}

void ParallelPipeline::write_shard_state(const Shard& shard,
                                         CheckpointWriter& writer) {
  writer.u64(shard.delivered);
  put_events(writer, shard.events);
  shard.aggregator->checkpoint(writer);
  shard.slice->checkpoint(writer);
}

void ParallelPipeline::read_shard_state(Shard& shard, CheckpointReader& reader) {
  shard.delivered = reader.u64("shard delivered");
  shard.events = get_events(reader);
  shard.aggregator->restore(reader);
  shard.slice->restore(reader);
}

void ParallelPipeline::snapshot_shard(Shard& shard, std::uint64_t batches_done) {
  CheckpointWriter w;
  w.tag(kShardSnapTag);
  write_shard_state(shard, w);
  // Build-then-swap: if serialization throws (and becomes a panic) the
  // previous snapshot stays intact for the supervisor to restore from.
  std::vector<std::uint8_t> built;
  w.finish(built);
  shard.snapshot.swap(built);
  shard.snapshot_batches = batches_done;
  shard.snapshot_published.store(batches_done, std::memory_order_release);
}

void ParallelPipeline::rebuild_from_snapshot(Shard& shard) {
  Shard* raw = &shard;
  shard.events.clear();
  shard.delivered = 0;
  shard.slice = std::make_unique<detect::ShardDetectorSlice>(config_.detector,
                                                             darknet_size_);
  shard.aggregator = std::make_unique<EventAggregator>(
      dark_space_, config_.aggregator, [raw](const DarknetEvent& event) {
        raw->events.push_back(event);
        raw->slice->observe(event);
      });
  if (shard.snapshot.empty()) return;  // died before the first snapshot
  CheckpointReader reader(shard.snapshot);
  reader.expect_tag(kShardSnapTag, "shard snapshot");
  read_shard_state(shard, reader);
}

void ParallelPipeline::fail_pipeline(Shard& shard) {
  failed_ = true;
  failed_reason_ = "shard " + std::to_string(shard.index) + " died (" +
                   (shard.panic.empty() ? "no message" : shard.panic) + ") after " +
                   std::to_string(shard.restarts) + " restart(s)";
  throw ShardFailure(failed_reason_);
}

void ParallelPipeline::heal_shard(Shard& shard) {
  while (shard.dead.load(std::memory_order_acquire)) {
    // stop_workers() may already have joined the corpse before calling us.
    if (shard.worker.joinable()) shard.worker.join();
    if (!supervised() || shard.restarts >= config_.supervisor.max_restarts) {
      fail_pipeline(shard);
    }
    ++shard.restarts;
    ++health_.worker_restarts;
    // Exponential backoff before the restart (base << (restart − 1),
    // capped) so a crash-looping shard cannot spin the dispatcher.
    auto delay = config_.supervisor.backoff_base;
    for (std::uint64_t i = 1; i < shard.restarts &&
                              delay < config_.supervisor.backoff_cap;
         ++i) {
      delay *= 2;
    }
    std::this_thread::sleep_for(std::min(delay, config_.supervisor.backoff_cap));

    // The ring's leftovers are stale — everything at or after the snapshot
    // point is replayed from the log below. The worker is dead and joined,
    // so the dispatcher owns both ring ends here.
    Batch scratch;
    while (shard.ring.try_pop(scratch)) scratch = Batch();

    rebuild_from_snapshot(shard);
    const std::uint64_t resume = shard.snapshot_batches;
    shard.consumed.store(resume, std::memory_order_relaxed);
    shard.pushed = resume;
    shard.dead.store(false, std::memory_order_relaxed);
    spawn_worker(shard, resume);

    // Replay the committed suffix. These batches are already in the log,
    // so push raw (no re-logging, no shedding — they are part of the
    // stream the merge proof counts on). If the fresh worker dies during
    // replay, fall back to the outer loop and pay another restart.
    bool died_again = false;
    for (std::size_t i = 0; i < shard.replay_log.size() && !died_again; ++i) {
      const std::uint64_t entry_seq = shard.log_first + i;
      if (entry_seq < resume) continue;
      Batch copy = shard.replay_log[i];
      unsigned spins = 0;
      while (shard.ring.try_push_n(std::span<Batch>(&copy, 1)) == 0) {
        if (shard.dead.load(std::memory_order_acquire)) {
          died_again = true;
          break;
        }
        spsc_backoff(spins);
      }
      if (!died_again) ++shard.pushed;
    }
  }
}

bool ParallelPipeline::push_batch(Shard& shard, Batch&& batch, bool log) {
  // Copy before the push loop moves the batch into the ring. Only taken
  // when supervision needs a replay log.
  Batch logged;
  const bool keep = supervised() && log;
  if (keep) logged = batch;

  unsigned spins = 0;
  std::size_t waits = 0;
  bool stalled = false;
  while (shard.ring.try_push_n(std::span<Batch>(&batch, 1)) == 0) {
    if (shard.dead.load(std::memory_order_acquire)) {
      heal_shard(shard);
      continue;
    }
    // Escalation ladder (opt-in): after escalate_after failed waits, shed
    // the batch with accounting while the budget lasts; after that, the
    // last rung is a hard stall that blocks like the default policy.
    // Stop batches and checkpoint requests are control flow and are
    // never shed.
    if (!stalled && config_.backpressure.escalate_after != 0 && !batch.stop &&
        !batch.checkpoint && ++waits >= config_.backpressure.escalate_after) {
      if (sheds_used_ < config_.backpressure.shed_budget) {
        ++sheds_used_;
        health_.dropped_shed += batch.records.size();
        return false;
      }
      ++health_.stalls;
      stalled = true;
    }
    spsc_backoff(spins);
  }
  ++shard.pushed;
  if (keep) {
    shard.replay_log.push_back(std::move(logged));
    // Prune entries the worker's latest published snapshot already covers.
    const std::uint64_t covered =
        shard.snapshot_published.load(std::memory_order_acquire);
    while (!shard.replay_log.empty() && shard.log_first < covered) {
      shard.replay_log.pop_front();
      ++shard.log_first;
    }
  }
  return true;
}

void ParallelPipeline::dispatch_pending(Shard& shard) {
  Batch batch;
  batch.records = std::move(shard.pending);
  batch.member = std::move(shard.pending_member);
  // Prefer recycled arenas (warm column capacity) for the next batch.
  Batch recycled;
  if (shard.recycle.try_pop(recycled)) {
    shard.pending = std::move(recycled.records);
    shard.pending_member = std::move(recycled.member);
  } else {
    shard.pending = pkt::PacketBatch(config_.batch_size);
    shard.pending_member = {};
    shard.pending_member.reserve(config_.batch_size);
  }
  push_batch(shard, std::move(batch), /*log=*/true);
}

void ParallelPipeline::flush_pending() {
  for (auto& shard : shards_) {
    if (shard->pending.empty()) continue;
    dispatch_pending(*shard);
  }
}

void ParallelPipeline::quiesce() {
  for (auto& shard : shards_) {
    unsigned spins = 0;
    while (shard->consumed.load(std::memory_order_acquire) < shard->pushed) {
      if (shard->dead.load(std::memory_order_acquire)) heal_shard(*shard);
      spsc_backoff(spins);
    }
  }
}

void ParallelPipeline::stop_workers() {
  for (auto& shard : shards_) {
    Batch stop;
    stop.stop = true;
    // Logged: a worker that dies before reaching its stop batch must
    // replay it after healing so the join below still terminates.
    push_batch(*shard, std::move(stop), /*log=*/true);
  }
  for (auto& shard : shards_) {
    for (;;) {
      if (shard->worker.joinable()) shard->worker.join();
      if (!shard->dead.load(std::memory_order_acquire)) break;
      heal_shard(*shard);
    }
  }
}

void ParallelPipeline::abort_workers() {
  for (auto& shard : shards_) shard->ring.request_stop();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ParallelPipeline::observe(const pkt::Packet& packet) {
  if (failed_) throw ShardFailure(failed_reason_);
  if (finished_) {
    throw std::logic_error("ParallelPipeline::observe after finish");
  }
  if (saw_packet_ && packet.timestamp < last_timestamp_) {
    throw std::invalid_argument(
        "ParallelPipeline::observe: timestamps must be non-decreasing");
  }
  saw_packet_ = true;
  last_timestamp_ = packet.timestamp;
  ++health_.ingested;

  Shard& shard =
      *shards_[net::shard_of(packet.tuple.src, config_.shards)];
  shard.pending.push_back(packet);
  // Scalar membership for the one-packet path — identical to the batched
  // kernel on every address (the §14 equivalence gate pins that).
  shard.pending_member.push_back(
      dark_space_.contains(packet.tuple.dst) ? std::uint8_t{1} : std::uint8_t{0});
  if (shard.pending.size() >= config_.batch_size) dispatch_pending(shard);
}

void ParallelPipeline::observe_batch(const pkt::PacketBatch& batch) {
  if (failed_) throw ShardFailure(failed_reason_);
  if (finished_) {
    throw std::logic_error("ParallelPipeline::observe after finish");
  }
  const std::size_t n = batch.size();
  if (n == 0) return;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("ParallelPipeline::observe_batch: batch over 2^32 records");
  }
  // Whole-batch monotonicity validation before any record is dispatched
  // (the same strengthening as EventAggregator::observe_batch).
  std::int64_t prev = saw_packet_
                          ? last_timestamp_.since_epoch().total_nanos()
                          : std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t ts = batch.timestamp_nanos(i);
    if (ts < prev) {
      throw std::invalid_argument(
          "ParallelPipeline::observe: timestamps must be non-decreasing");
    }
    prev = ts;
  }
  saw_packet_ = true;
  last_timestamp_ = batch.timestamp(n - 1);
  health_.ingested += n;

  // One vectorized membership pass over the whole incoming batch before
  // anything fans out: each record's 0/1 result rides to its shard as a
  // side-channel column, so no shard aggregator re-tests the dark space.
  member_scratch_.resize(n);
  dark_space_.contains_batch(batch.dst_col().data(), n, member_scratch_.data());

  // Column-wise scatter: one pass lists each shard's record indices in
  // stream order, then each shard gathers its records (and their
  // membership bytes) a column at a time, cut at the batch_size
  // boundaries the record-by-record scatter had. Each shard therefore
  // sees the same batches; only the push order between shards changes.
  for (auto& shard : shards_) shard->scatter.clear();
  for (std::size_t i = 0; i < n; ++i) {
    shards_[net::shard_of(batch.src(i), config_.shards)]->scatter.push_back(
        static_cast<std::uint32_t>(i));
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::span<const std::uint32_t> indices = shard.scatter;
    while (!indices.empty()) {
      const std::span<const std::uint32_t> take = indices.first(std::min(
          indices.size(), config_.batch_size - shard.pending.size()));
      shard.pending.append_records(batch, take);
      const std::size_t at = shard.pending_member.size();
      shard.pending_member.resize(at + take.size());
      for (std::size_t j = 0; j < take.size(); ++j) {
        shard.pending_member[at + j] = member_scratch_[take[j]];
      }
      indices = indices.subspan(take.size());
      if (shard.pending.size() >= config_.batch_size) dispatch_pending(shard);
    }
  }
}

ParallelResult ParallelPipeline::finish() {
  if (failed_) throw ShardFailure(failed_reason_);
  if (finished_) {
    throw std::logic_error("ParallelPipeline::finish called twice");
  }
  flush_pending();
  // Each worker closes its own shard on its stop batch (close_shard), so
  // once joined only the cross-shard steps are left.
  stop_workers();
  finished_ = true;

  std::vector<std::vector<DarknetEvent>*> runs;
  std::vector<const detect::ShardDetectorSlice*> slices;
  for (const auto& shard : shards_) {
    health_.delivered += shard->delivered;
    runs.push_back(&shard->events);
    slices.push_back(shard->slice.get());
  }
  detect::MergedDetection merged = detect::merge_shard_slices(slices);
  return ParallelResult{EventDataset(merge_runs(std::move(runs)), darknet_size_),
                        std::move(merged.days), std::move(merged.ips),
                        health_};
}

void ParallelPipeline::checkpoint(CheckpointWriter& writer) {
  if (failed_) throw ShardFailure(failed_reason_);
  if (finished_) {
    throw std::logic_error("ParallelPipeline::checkpoint after finish");
  }
  flush_pending();
  quiesce();

  // The header is the ledger at the cut: a worker that dies writing its
  // section below is healed after it, like any later death.
  writer.tag(kPipelineTag);
  // Partition echo: a snapshot's per-shard state is meaningless under a
  // different shard count, so restore() verifies it. The per-shard
  // aggregator/detector sections echo their own configurations.
  writer.u64(config_.shards);
  writer.u64(darknet_size_);
  writer.u8(saw_packet_ ? 1 : 0);
  writer.i64(last_timestamp_.since_epoch().total_nanos());
  writer.u64(health_.ingested);
  // Escalation/supervision ledger — without these a resumed run that had
  // shed packets would fail its own conservation check.
  writer.u64(health_.dropped_shed);
  writer.u64(health_.stalls);
  writer.u64(health_.worker_restarts);
  // The shard sections: every worker writes its own in parallel, in band
  // after the batches the quiesce above drained, and the dispatcher
  // adopts them without copying once the requests are consumed.
  for (auto& shard : shards_) {
    Batch request;
    request.checkpoint = true;
    push_batch(*shard, std::move(request), /*log=*/true);
  }
  quiesce();
  for (auto& shard : shards_) {
    writer.splice(std::move(shard->section));
    // Answered: a replay after a later death must not write it again.
    if (!shard->replay_log.empty()) shard->replay_log.back().checkpoint = false;
  }
}

void ParallelPipeline::restore(CheckpointReader& reader) {
  if (finished_ || saw_packet_) {
    throw std::logic_error(
        "ParallelPipeline::restore on a pipeline already in use");
  }
  const std::uint64_t tag = reader.u64("ParallelPipeline section tag");
  const bool legacy_v1 = tag == kPipelineTagV1;
  if (!legacy_v1 && tag != kPipelineTag) {
    throw std::runtime_error(
        "checkpoint: wrong section tag for ParallelPipeline");
  }
  if (reader.u64("shard count") != config_.shards) {
    throw ConfigMismatchError("ParallelPipeline shard mismatch");
  }
  if (reader.u64("darknet size") != darknet_size_) {
    throw ConfigMismatchError("ParallelPipeline darknet mismatch");
  }
  saw_packet_ = reader.u8("saw packet") != 0;
  last_timestamp_ =
      net::SimTime::at(net::Duration::nanos(reader.i64("last timestamp")));
  health_.ingested = reader.u64("packets ingested");
  if (legacy_v1) {
    health_.dropped_shed = 0;
    health_.stalls = 0;
    health_.worker_restarts = 0;
  } else {
    health_.dropped_shed = reader.u64("packets shed");
    health_.stalls = reader.u64("stall episodes");
    health_.worker_restarts = reader.u64("worker restarts");
  }
  for (auto& shard : shards_) {
    // Workers are parked on empty rings (nothing was ever pushed), so the
    // dispatcher may write shard state; the first pushed batch's release/
    // acquire pair publishes it to the worker.
    read_shard_state(*shard, reader);
    // Seed the supervision snapshot with the restored state at ring
    // sequence 0 (this incarnation's workers start there). Without it a
    // worker dying before its first periodic snapshot would make
    // rebuild_from_snapshot() take the empty-snapshot path and reset the
    // shard to a fresh aggregator — silently dropping everything the
    // checkpoint restored.
    if (supervised()) snapshot_shard(*shard, 0);
  }
}

}  // namespace orion::telescope
