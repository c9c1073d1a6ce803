// Sharded parallel telescope pipeline with a deterministic merge.
//
// Packets are gathered into columnar PacketBatch arenas and dispatched by
// hash of source IP (net::shard_of) over bounded SPSC rings to N worker
// shards. The dispatcher vectorizes dark-space membership on the way in —
// one PrefixSet::contains_batch call (the DESIGN.md §14 SIMD kernel) per
// incoming batch, scattered as a 0/1 side-channel column next to the
// records — so shard aggregators consume membership instead of
// recomputing it per shard batch. Workers drain whole spans of batches
// per ring handshake
// (SpscRing::try_pop_n) and feed them to the shard aggregator's batched
// engine (EventAggregator::observe_batch). Each shard owns a full
// EventAggregator plus a ShardDetectorSlice, so every per-source quantity
// the paper's definitions need lives in exactly one shard by
// construction. Drained batch arenas flow back to the dispatcher on a
// per-shard recycle ring, so the steady-state hot path allocates nothing.
// finish() closes the window on the workers: each one, on its in-band stop
// batch and in parallel with the others, finishes its aggregator, sorts
// its events in the dataset's total (start, key) order and seals its day
// partials. The dispatcher then only merges: one k-way merge of the sorted
// event runs and detect::merge_shard_slices over the sealed partials. The
// output is byte-identical to the single-threaded TelescopeCapture +
// StreamingDetector path for ANY shard count and ANY batch/ring
// interleaving (pinned by tests/parallel_test.cpp and
// tests/hotpath_test.cpp; argument in DESIGN.md §9 and §11).
//
// Backpressure: by default a full ring blocks the dispatcher
// (spin/yield/nap, see spsc_ring.hpp) — packets are never dropped, so the
// pipeline's health ledger stays conservative: ingested == delivered
// after finish(). An opt-in BackpressureConfig escalates instead:
// accept → shed-with-accounting → hard stall (DESIGN.md §13.3).
//
// Supervision (opt-in): shard workers become restartable tasks. A worker
// panic is captured (never escapes the thread), the supervisor joins the
// corpse, restores the shard from its last worker-side snapshot, replays
// the dispatcher's log of batches pushed since that snapshot, and spawns
// a fresh worker — with exponential backoff and a bounded restart budget.
// Because the replayed prefix is byte-identical to what the dead worker
// had applied, the merged output after any number of worker deaths is
// byte-identical to a fault-free run (DESIGN.md §13.2).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "orion/detect/shard_detector.hpp"
#include "orion/netbase/prefix.hpp"
#include "orion/packet/batch.hpp"
#include "orion/telescope/aggregator.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/health.hpp"
#include "orion/telescope/spsc_ring.hpp"

namespace orion::telescope {

/// A shard worker died and could not be healed: supervision is disabled,
/// or the shard's restart budget is exhausted. Carries the worker's
/// panic message. Once thrown, the pipeline is permanently failed —
/// further observe()/finish() calls rethrow.
class ShardFailure : public std::runtime_error {
 public:
  explicit ShardFailure(const std::string& what)
      : std::runtime_error("shard failure: " + what) {}
};

/// Supervisor policy for self-healing shard workers. Off by default: no
/// snapshots, no replay log, no dispatch overhead — a worker panic is
/// then fatal on the dispatcher's next interaction with the shard.
struct SupervisorConfig {
  bool enabled = false;
  /// Restart budget per shard; exhausting it throws ShardFailure.
  std::size_t max_restarts = 3;
  /// Ring batches between worker-side snapshots. Smaller = shorter
  /// replay log (less dispatcher memory) but more serialization work on
  /// the worker's critical path.
  std::size_t snapshot_interval = 64;
  /// Exponential restart backoff: base << (restart − 1), capped.
  std::chrono::microseconds backoff_base{50};
  std::chrono::microseconds backoff_cap{5000};
  /// Test seam: invoked by the worker before applying each data batch,
  /// before writing its section for a checkpoint request, and before
  /// closing its shard on the stop batch, with (shard index, ring
  /// sequence). Throwing from it is exactly a worker panic — this is how
  /// the crash tests kill workers at deterministic points without
  /// corrupting real state.
  std::function<void(std::size_t, std::uint64_t)> fault_hook;
};

/// Backpressure escalation ladder for a full shard ring:
/// accept → shed-with-accounting → hard stall.
struct BackpressureConfig {
  /// Backoff iterations the dispatcher waits on a full ring before
  /// escalating. 0 (the default) disables escalation: the dispatcher
  /// blocks until space frees and no packet is ever dropped — the
  /// deterministic contract the merge proof relies on.
  std::size_t escalate_after = 0;
  /// Batches the dispatcher may shed once escalation triggers (packets
  /// counted in PipelineHealth::dropped_shed). When the budget runs out
  /// the last rung is a hard stall: block like the default policy,
  /// counting the episode in PipelineHealth::stalls.
  std::uint64_t shed_budget = 0;
};

struct ParallelConfig {
  /// Worker shard count. 1 degenerates to the serial path behind one ring.
  std::size_t shards = 4;
  /// Packets per dispatched batch (amortizes ring traffic). Capacity
  /// knob only — results are invariant to it.
  std::size_t batch_size = 256;
  /// Batches each shard's ring holds before the dispatcher blocks.
  /// Capacity knob only — results are invariant to it.
  std::size_t ring_capacity = 64;
  AggregatorConfig aggregator;
  detect::StreamingConfig detector;
  SupervisorConfig supervisor;
  BackpressureConfig backpressure;
};

/// The merged output: exactly what the serial path produces.
struct ParallelResult {
  EventDataset dataset;
  std::vector<detect::StreamingDayResult> days;
  std::array<detect::IpSet, 3> ips;
  PipelineHealth health;
};

class ParallelPipeline {
 public:
  /// Spawns the worker threads immediately; they park on empty rings.
  ParallelPipeline(net::PrefixSet dark_space, ParallelConfig config);

  /// Joins workers (discarding any un-finished state) if finish() was
  /// never called.
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Feeds one packet. Timestamps must be non-decreasing (the same
  /// contract as EventAggregator::observe); a regression throws
  /// std::invalid_argument from the dispatcher before dispatch.
  void observe(const pkt::Packet& packet);

  /// Feeds a whole columnar batch: each shard gathers its records into
  /// its pending batch column by column, without reassembling Packet
  /// structs. Results are identical to calling observe() per record; the
  /// whole batch is validated for monotonicity before any record is
  /// dispatched. A batch of more than 2^32 records throws
  /// std::length_error.
  void observe_batch(const pkt::PacketBatch& batch);

  /// Flushes, then closes every shard on its own worker (in band, at the
  /// stop batch) and joins them, then merges the closed shards into the
  /// serial-identical result. Call at most once.
  ParallelResult finish();

  /// Packets accepted so far — the resume cursor used by live_monitor to
  /// skip already-processed input after restore().
  std::uint64_t packets_ingested() const { return health_.ingested; }
  const ParallelConfig& config() const { return config_; }

  /// Quiesces the shards (flushes pending batches, waits until every
  /// ring drains) and snapshots the whole pipeline: the dispatcher writes
  /// the PPL2 header, then an in-band request has every shard worker
  /// write its own section in parallel, and the dispatcher splices the
  /// sections in shard order. The snapshot records the shard count and
  /// echoes each shard's aggregator/detector configuration; restore()
  /// rejects any mismatch (std::runtime_error), since per-shard state is
  /// meaningless under a different partition.
  void checkpoint(CheckpointWriter& writer);
  void restore(CheckpointReader& reader);

 private:
  struct Batch {
    pkt::PacketBatch records;
    /// Dark-space membership side-channel, one 0/1 byte per record: the
    /// dispatcher runs PrefixSet::contains_batch (the SIMD kernel) once
    /// per incoming batch and scatters the result here, so shard
    /// aggregators skip recomputing membership per record.
    std::vector<std::uint8_t> member;
    /// The last batch: the worker closes the shard (close_shard) and
    /// exits. Logged for replay, never shed.
    bool stop = false;
    /// Checkpoint request: the worker writes the shard's section into
    /// Shard::section. Logged for replay like any batch, never shed.
    bool checkpoint = false;
  };

  struct Shard {
    explicit Shard(std::size_t ring_capacity)
        : ring(ring_capacity), recycle(ring_capacity) {}

    SpscRing<Batch> ring;
    /// Drained batch arenas flowing back worker → dispatcher so pending
    /// batches reuse warmed column capacity (full ring = arena dropped).
    SpscRing<Batch> recycle;
    /// Batches handed to the ring (dispatcher-owned).
    std::uint64_t pushed = 0;
    /// Batches fully processed (worker publishes with release; the
    /// dispatcher's acquire read during quiesce therefore sees all shard
    /// state the worker wrote).
    std::atomic<std::uint64_t> consumed{0};
    /// Packets delivered to the aggregator (worker-owned; read only
    /// while quiesced).
    std::uint64_t delivered = 0;

    /// Shard-local capture state (worker-owned while batches are in
    /// flight; dispatcher may touch it only when quiesced). The events are
    /// in emission order until close_shard() sorts them.
    std::vector<DarknetEvent> events;
    std::unique_ptr<EventAggregator> aggregator;
    std::unique_ptr<detect::ShardDetectorSlice> slice;
    /// The shard's PPL2 section, written by the worker at a checkpoint
    /// request and spliced out by the dispatcher once quiesced.
    CheckpointWriter section;
    pkt::PacketBatch pending;  // dispatcher-side partial batch
    /// Membership bytes parallel to `pending`, moved out with it.
    std::vector<std::uint8_t> pending_member;
    /// observe_batch scratch: this shard's record indices in the incoming
    /// batch, in stream order (dispatcher-owned, reused).
    std::vector<std::uint32_t> scatter;
    std::thread worker;

    /// --- supervision state (all idle when supervision is disabled) ---
    /// Position in the shard partition (for the fault hook).
    std::size_t index = 0;
    /// Worker panic channel: the worker writes panic, then dead with
    /// release; the dispatcher reads dead with acquire in its wait loops
    /// and reads panic only after joining the thread.
    std::atomic<bool> dead{false};
    std::string panic;
    /// Worker-side snapshot: an in-memory OCP1 frame (SSH1 section) of
    /// the shard state after the first snapshot_batches ring batches.
    /// Built into a scratch buffer and swapped in, so a panic mid-build
    /// cannot tear it; the dispatcher reads the bytes only after join().
    std::vector<std::uint8_t> snapshot;
    std::uint64_t snapshot_batches = 0;
    /// Release-published copy of snapshot_batches that the dispatcher may
    /// read while the worker is live, to prune the replay log.
    std::atomic<std::uint64_t> snapshot_published{0};
    /// Dispatcher-side replay log: copies of every batch pushed since the
    /// last published snapshot. Entry i has ring sequence log_first + i.
    std::deque<Batch> replay_log;
    std::uint64_t log_first = 0;
    std::uint64_t restarts = 0;
  };

  bool supervised() const { return config_.supervisor.enabled; }
  /// Pushes one batch, healing a dead worker and applying the
  /// backpressure escalation ladder while it waits. Returns false when
  /// the batch was shed instead of pushed. `log` appends the batch to the
  /// replay log (replayed batches are already logged and pass false).
  bool push_batch(Shard& shard, Batch&& batch, bool log);
  void dispatch_pending(Shard& shard);
  void flush_pending();
  /// Blocks until every pushed batch has been consumed, healing dead
  /// workers along the way.
  void quiesce();
  /// Orderly drain: in-band stop batches, then join — healing any worker
  /// that dies before reaching its stop batch.
  void stop_workers();
  /// Abort teardown: cooperative stop tokens, no pushes — cannot hang on
  /// a full ring even when a shard has no live worker.
  void abort_workers();
  void worker_loop(Shard& shard, std::uint64_t start_batches);
  void spawn_worker(Shard& shard, std::uint64_t start_batches);
  /// Worker-side, on the stop batch: finish the aggregator, sort the
  /// shard's events by start_key_less and seal its day partials.
  static void close_shard(Shard& shard);
  /// A shard's state: the body of its PPL2 section and of its SSH1
  /// frame, written and read by these two functions only.
  static void write_shard_state(const Shard& shard, CheckpointWriter& writer);
  static void read_shard_state(Shard& shard, CheckpointReader& reader);
  /// Worker-side: serialize the shard state covering `batches_done` ring
  /// batches and publish it.
  void snapshot_shard(Shard& shard, std::uint64_t batches_done);
  /// Dispatcher-side: join the corpse, charge the restart budget, rebuild
  /// the shard from its snapshot, respawn, and replay the log. Loops
  /// until the shard has a live worker; throws ShardFailure when it
  /// cannot.
  void heal_shard(Shard& shard);
  void rebuild_from_snapshot(Shard& shard);
  [[noreturn]] void fail_pipeline(Shard& shard);

  ParallelConfig config_;
  net::PrefixSet dark_space_;
  std::uint64_t darknet_size_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Whole-batch membership scratch for observe_batch's vectorized
  /// contains_batch call (reused; no steady-state allocation).
  std::vector<std::uint8_t> member_scratch_;

  PipelineHealth health_;
  net::SimTime last_timestamp_;
  bool saw_packet_ = false;
  bool finished_ = false;
  /// Set when a ShardFailure was thrown; the pipeline is then inert
  /// (observe/finish rethrow, the destructor aborts via stop tokens).
  bool failed_ = false;
  std::string failed_reason_;
  std::uint64_t sheds_used_ = 0;
};

}  // namespace orion::telescope
