// One shard's mutator thread: a ShardRunner owns the shard's Engine and
// drives it with per-tick update batches pulled from a lock-free bounded
// SPSC ring (util/spsc_ring.h), so K shards tick concurrently the way K
// real zone servers would, instead of being multiplexed onto the facade's
// thread.
//
// The facade (ShardedEngine) stays the single producer: it submits one
// ShardTickBatch per fleet tick carrying the tick's updates and the stagger
// scheduler's checkpoint decision. The runner applies batches in order on
// its own thread (the engine's mutator thread in the Engine thread-safety
// contract); the engine's writer thread continues to flush checkpoints
// underneath it, so a K-shard fleet runs 2K threads plus the caller.
//
// The mailbox contract (unchanged from the mutex+cv generation, asserted
// by tests/shard_runner_test.cc):
//   - SubmitTick blocks while the mailbox holds max_queue_ticks batches,
//     so the producer never leads the runner by more than max_queue_ticks
//     queued batches plus the one batch mid-application.
//   - Drain is a barrier: it returns only when every submitted batch has
//     been consumed, and returns the sticky error status.
//   - Stop drains the mailbox before honoring the stop (a barrier, not an
//     abort) and is idempotent.
// All cross-thread state is a handful of atomics: the ring indices, the
// completion counter, the submit signal, the sticky-error flag, and the
// cut-ack slot. Waits (empty mailbox on the consumer; full mailbox and
// Drain on the producer) spin briefly, then park on a std::atomic
// wait/notify word -- the fast path stays lock-free while an idle or
// oversubscribed fleet stays off the CPU (on few cores, a polling
// consumer would otherwise starve the producer it is waiting on).
//
// Failure semantics: the first Engine error is sticky. After it, the
// runner discards later batches (counting them as consumed so Drain/Stop
// never deadlock) and the fleet surfaces the error on its next poll --
// shards never stall mid-tick waiting on a dead sibling.
#ifndef TICKPOINT_ENGINE_SHARD_RUNNER_H_
#define TICKPOINT_ENGINE_SHARD_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/replica_buffer.h"
#include "util/spsc_ring.h"

namespace tickpoint {

/// Everything one shard needs to run one tick.
struct ShardTickBatch {
  /// Sentinel for trim_replicas_through: no trim this tick.
  static constexpr uint64_t kNoReplicaTrim = UINT64_MAX;

  /// One replicated peer partition's delta for this tick (replication on:
  /// the facade fans every partition's delta out to its peer's batch).
  struct ReplicaDelta {
    uint32_t partition = 0;
    std::vector<CellUpdate> updates;
  };

  uint64_t tick = 0;
  std::vector<CellUpdate> updates;
  /// Deltas of the partitions this runner hosts replicas FOR, appended to
  /// the hosted ReplicaBuffers before the shard's own tick runs.
  std::vector<ReplicaDelta> replica_updates;
  /// When != kNoReplicaTrim: a consistent cut committed at this tick --
  /// fold every hosted replica's committed batches through it (the
  /// trim-at-cut rule).
  uint64_t trim_replicas_through = kNoReplicaTrim;
  /// Stagger scheduler's decision: begin a checkpoint at this tick's end.
  bool start_checkpoint = false;
  /// Consistent-cut coordinator's decision: this tick is the fleet cut
  /// tick -- the shard must end it with a durable checkpoint at exactly
  /// this tick (Engine::RequestCutCheckpoint semantics). Implies
  /// start_checkpoint.
  bool cut_checkpoint = false;
};

class ShardRunner {
 public:
  /// Invoked once per completed checkpoint, from the runner's mutator
  /// thread (threaded mode) or the caller's thread (inline mode):
  /// (shard id, the finished record, tick at whose end it finished). Used
  /// to feed measured write times back into the adaptive stagger.
  using CheckpointObserver = std::function<void(
      uint32_t shard, const EngineCheckpointRecord& record,
      uint64_t completion_tick)>;

  /// One shard's durable consistent-cut acknowledgement: published by the
  /// runner the moment its cut checkpoint record lands -- inside the cut
  /// tick's EndTick under the sync IO backend, at a later tick's reap
  /// under the async backend -- folded wait-free by the cut coordinator
  /// (no runner barrier, no shared mutex).
  struct CutAck {
    uint64_t checkpoint_seq = 0;
    uint64_t consistent_ticks = 0;
    /// Mutator block inside the cut tick's EndTick.
    double stall_seconds = 0.0;
  };

  /// Takes ownership of `engine`. threaded=true spawns the mutator thread;
  /// threaded=false applies batches synchronously on the submitting thread
  /// (the PR-1 facade behavior, kept for comparison benches and
  /// deterministic tests). `max_queue_ticks` bounds the mailbox: SubmitTick
  /// blocks while the shard lags that many ticks behind the producer.
  ShardRunner(uint32_t shard_id, std::unique_ptr<Engine> engine,
              bool threaded, uint64_t max_queue_ticks,
              CheckpointObserver observer);

  /// Stops the mutator thread (draining the mailbox first). Does NOT shut
  /// down the engine -- the owner decides between Shutdown and
  /// SimulateCrash.
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  /// Hands the runner one tick's batch. Ticks must be submitted in order.
  /// Threaded: enqueues (blocking on a full mailbox) and returns; inline:
  /// applies before returning.
  void SubmitTick(ShardTickBatch batch);

  /// Blocks until every submitted batch is consumed, then returns the
  /// sticky error status. The barrier behind fleet-consistent operations
  /// (Shutdown, SimulateCrash, stats snapshots).
  Status Drain();

  /// Drains and joins the mutator thread. Idempotent; implied by the
  /// destructor. After Stop, engine() may be used from any thread.
  void Stop();

  /// Cheap poll: has the sticky error fired? (atomic, no lock)
  bool has_error() const {
    return has_error_.load(std::memory_order_acquire);
  }
  /// The sticky first error. (Written once by the runner before the
  /// has_error_ release-store, so reading it after an acquire-load of
  /// has_error_ is race-free.)
  Status status() const;

  uint32_t shard_id() const { return shard_id_; }
  /// Ticks fully applied (not merely submitted).
  uint64_t ticks_completed() const {
    return ticks_completed_.load(std::memory_order_acquire);
  }
  /// Ticks fully applied, with the engine's cumulative dirty-mark count
  /// (Engine::CumulativeDirtyMarks) as of the end of the last of them.
  struct Progress {
    uint64_t ticks = 0;
    uint64_t dirty_marks = 0;
  };
  /// One consistent Progress pair, callable from any thread while the
  /// runner keeps ticking: never the marks of a half-applied tick, never
  /// a count from one tick paired with the marks of another.
  Progress progress() const;
  /// Ticks handed to SubmitTick so far. Producer-thread state: callable
  /// only from the submitting thread, like SubmitTick itself. Paired with
  /// ticks_completed() it is the coordinator's idleness test (completed >=
  /// submitted means the runner is parked on an empty mailbox).
  uint64_t ticks_submitted() const { return ticks_submitted_; }

  /// Sentinel for "no cut armed / pending".
  static constexpr uint64_t kNoCutTick = UINT64_MAX;

  /// Arms the cut-ack slot for the cut at `cut_tick` and resets it. Called
  /// by the coordinator's thread strictly before the cut tick's batch is
  /// submitted (the ring's release/acquire pair orders the arm before any
  /// runner can observe the cut batch). The runner publishes an ack only
  /// while its pending cut matches the armed tick, so the record of a cut
  /// the coordinator already force-reaped can never masquerade as a later
  /// cut's ack.
  void ArmCutAck(uint64_t cut_tick) {
    armed_cut_tick_.store(cut_tick, std::memory_order_relaxed);
    cut_acked_.store(false, std::memory_order_release);
  }
  /// Disarms the slot once the coordinator folded (or synthesized) this
  /// shard's ack. Same calling contract as ArmCutAck: the store is ordered
  /// before any later batch by the ring's release/acquire pair, so a
  /// runner still holding a stale pending cut drops it silently instead of
  /// re-publishing.
  void DisarmCutAck() {
    armed_cut_tick_.store(kNoCutTick, std::memory_order_release);
  }
  /// Has this shard's cut checkpoint landed? (acquire: a true result
  /// makes the cut_ack() fields visible)
  bool cut_acked() const {
    return cut_acked_.load(std::memory_order_acquire);
  }
  /// Valid once cut_acked() returned true.
  const CutAck& cut_ack() const { return cut_ack_; }

  /// The owned engine. Per the Engine thread-safety contract, callers may
  /// touch it only while the runner is quiesced (after Drain/Stop, or
  /// inline mode).
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }

  // ---- Replica hosting (replication on; see replica_buffer.h) ----

  /// Adopts a replica buffer this runner will feed from its batches'
  /// replica_updates. Facade thread, quiesced runner only (construction or
  /// failover): the mailbox's release/acquire pair orders the adoption
  /// before any later batch the mutator thread can consume.
  void HostReplica(std::unique_ptr<ReplicaBuffer> buffer) {
    replicas_.push_back(std::move(buffer));
  }
  /// The hosted replica of `partition`, or nullptr. Same quiesced-access
  /// contract as engine() when called from the facade thread.
  ReplicaBuffer* replica(uint32_t partition) {
    for (auto& buffer : replicas_) {
      if (buffer->partition() == partition) return buffer.get();
    }
    return nullptr;
  }
  /// Every hosted replica (quiesced access only).
  const std::vector<std::unique_ptr<ReplicaBuffer>>& replicas() const {
    return replicas_;
  }

 private:
  void ThreadMain();
  /// BeginTick + updates + checkpoint request + EndTick on the engine;
  /// records the sticky error, publishes the cut ack, and reports
  /// finished checkpoints.
  void ProcessBatch(const ShardTickBatch& batch);
  /// Mutator thread, after ProcessBatch: publishes the engine's mark count
  /// for the tick about to be counted complete (see marks_at_).
  void PublishMarks();

  const uint32_t shard_id_;
  const bool threaded_;
  std::unique_ptr<Engine> engine_;
  CheckpointObserver observer_;
  size_t checkpoints_reported_ = 0;  // mutator thread only
  /// Replicas of peer partitions this shard hosts. The vector is mutated
  /// only while the runner is quiesced (see HostReplica); the mutator
  /// thread touches the buffers only inside ProcessBatch.
  std::vector<std::unique_ptr<ReplicaBuffer>> replicas_;

  SpscRing<ShardTickBatch> mailbox_;
  uint64_t ticks_submitted_ = 0;  // producer thread only
  std::atomic<bool> stop_{false};

  /// Futex words. 32-bit on purpose: libstdc++ waits on a futex-sized
  /// atomic directly, where a 64-bit word goes through the shared
  /// 16-bucket proxy pool -- a measurable cost with 2K+1 threads parking
  /// (wraparound is harmless; the words are only compared by wait).
  ///
  /// The consumer parks on submit_signal_ when the mailbox is empty:
  /// bumped (then notified) after every push and by Stop. The consumer
  /// re-checks the mailbox between reading it and waiting, so a push in
  /// that window cannot be missed.
  std::atomic<uint32_t> submit_signal_{0};
  /// A full-mailbox SubmitTick parks on slots_signal_: bumped (then
  /// notified) right after the pop that frees the slot -- not after the
  /// batch is processed, so backpressure wakes a whole batch earlier.
  std::atomic<uint32_t> slots_signal_{0};
  /// Drain parks on drain_gen_, notified exactly once: the producer
  /// announces its target in drain_target_ before waiting, and the
  /// consumer bumps drain_gen_ only when the completion count reaches it.
  /// The seq_cst store/load pairs around drain_target_/ticks_completed_
  /// (a Dekker handshake) guarantee that either the consumer sees the
  /// target or the producer's re-check sees the completion.
  std::atomic<uint32_t> drain_gen_{0};
  std::atomic<uint64_t> drain_target_{0};

  std::atomic<uint64_t> ticks_completed_{0};
  /// marks_at_[n % 2] = the engine's mark count once n ticks completed,
  /// stored (release) before ticks_completed_ reaches n. The slot is next
  /// rewritten only after the count passes n + 1, so progress() keeps a
  /// (count, slot) pair only when the count did not move while it read.
  std::atomic<uint64_t> marks_at_[2] = {0, 0};
  std::atomic<bool> has_error_{false};
  Status first_error_;  // written once before the has_error_ release

  CutAck cut_ack_;  // written before the cut_acked_ release
  std::atomic<bool> cut_acked_{false};
  /// The cut tick the coordinator armed (kNoCutTick when none). Written by
  /// the coordinator's thread, acquire-read by the runner before it
  /// publishes an ack.
  std::atomic<uint64_t> armed_cut_tick_{kNoCutTick};
  /// The cut this runner still owes an ack for (kNoCutTick when none).
  /// Mutator thread only: set when the cut batch is processed, cleared
  /// when its record is found (async backends finalize the record at a
  /// later tick's EndTick, so the scan repeats each tick until then).
  uint64_t pending_cut_tick_ = kNoCutTick;

  std::thread thread_;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_SHARD_RUNNER_H_
