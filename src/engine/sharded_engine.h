// K independent Engine instances behind one tick facade (paper Section 8
// future work: multiple shards per persistence disk).
//
// Each shard owns a disjoint state partition, its own logical log, and its
// own checkpoint directory under the shared root -- exactly the layout a
// multi-zone MMO server would run on one persistence disk. In threaded
// mode (the default) every shard also owns a ShardRunner mutator thread:
// the facade's BeginTick/ApplyUpdate/EndTick only assemble per-shard
// update batches and mail them to the runners, which tick independently --
// the fleet analogue of K zone servers on independent simulation loops.
// The StaggerScheduler decides, per tick, which shards begin a checkpoint
// (fixed i * period / K offsets, or the adaptive plan fed by measured
// write times), so the synchronized-vs-staggered disk-contention tradeoff
// projected by bench_shard_stagger can be measured on the real write path.
// Each shard's writer thread flushes concurrently with the others, which
// is precisely the contention under study.
//
// Fleet-level barriers exist only where the API demands a consistent view:
// Shutdown, SimulateCrash, and WaitForIdle drain every runner to the
// facade tick before acting.
//
// RequestConsistentCut/CommitConsistentCut layer the two-phase fleet-wide
// cut protocol (consistent_cut.h) on top: every shard checkpoints at one
// coordinator-chosen tick T, and a committed cut manifest lets
// Fleet::RecoverToCut restore the whole fleet to exactly T.
//
// Construction is Fleet-only: ShardedEngine::Open/OpenResumed are private
// entry points reached through Fleet::Create and RecoveredFleet::Resume
// (the disk-described lifecycle); there is no public config-supplying way
// to open a fleet.
#ifndef TICKPOINT_ENGINE_SHARDED_ENGINE_H_
#define TICKPOINT_ENGINE_SHARDED_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/consistent_cut.h"
#include "engine/engine.h"
#include "engine/fleet_manifest.h"
#include "engine/shard_runner.h"
#include "engine/stagger_scheduler.h"

namespace tickpoint {

class Fleet;
class RecoveredFleet;

/// Sharded-engine construction parameters.
struct ShardedEngineConfig {
  /// Per-shard template. `shard.layout` is the layout of ONE partition and
  /// `shard.dir` the shared root directory; shard i lives in
  /// ShardDir(shard.dir, i). Interval fields are ignored: checkpoint
  /// scheduling is owned by the stagger scheduler.
  EngineConfig shard;
  /// K: number of shards sharing the persistence disk.
  uint32_t num_shards = 1;
  /// Ticks between one shard's consecutive checkpoint starts.
  uint64_t checkpoint_period_ticks = 8;
  /// Stagger shard starts by i * period / K (false = synchronized).
  bool staggered = true;
  /// Run each shard on its own mutator thread (see header comment).
  /// false = drive every shard inline from the caller's thread: the PR-1
  /// facade, kept for comparison benches and deterministic unit tests.
  bool threaded = true;
  /// Adaptive stagger: learn measured write times and keep concurrent
  /// flushes at or below `disk_budget` (see StaggerConfig).
  bool adaptive = false;
  uint32_t disk_budget = 1;
  /// Threaded mode: max ticks a shard's mailbox may lag behind the facade
  /// before EndTick blocks (bounds memory under a slow shard).
  uint64_t max_queue_ticks = 64;
  /// How far ahead of the fleet tick RequestConsistentCut places the cut
  /// tick T: enough lead for every shard to reach T in stride instead of
  /// stalling on a barrier.
  uint64_t cut_lead_ticks = 2;
  /// Hot failover: stream every partition's per-tick delta to a peer
  /// shard's in-memory ReplicaBuffer, so FailoverShard can rebuild a
  /// crashed shard from its peer's memory instead of disk. Costs one
  /// extra state-table copy per partition plus a per-tick delta copy.
  bool replicate = false;
  /// Bound on each replica's in-flight tick-delta ring (older batches fold
  /// into its base snapshot; committed cuts trim eagerly).
  uint64_t replica_depth = 32;
  /// replica_peer[p] = partition hosting p's replica. Empty = the default
  /// ring (p + 1) % K. Entries must be in range and never self-peered.
  std::vector<uint32_t> replica_peer;

  StaggerConfig ToStaggerConfig() const {
    StaggerConfig config;
    config.num_shards = num_shards;
    config.period_ticks = checkpoint_period_ticks;
    config.staggered = staggered;
    config.adaptive = adaptive;
    config.disk_budget = disk_budget;
    return config;
  }
};

/// Checkpoint timing aggregated across all shards of a run.
struct ShardedCheckpointStats {
  uint64_t checkpoints = 0;
  double avg_total_seconds = 0.0;  // sync pause + async writer wall
  double max_total_seconds = 0.0;
  double avg_sync_seconds = 0.0;
  double avg_async_seconds = 0.0;
};

/// Outcome of the last committed consistent cut (bench/monitoring).
struct ConsistentCutReport {
  uint64_t cut_tick = 0;
  /// Wall time from RequestConsistentCut to the manifest rename.
  double commit_latency_seconds = 0.0;
  /// Slowest shard's mutator block inside the cut tick's EndTick.
  double max_shard_stall_seconds = 0.0;
};

/// Outcome of the last MigratePartition (bench/monitoring).
struct MigrationReport {
  uint32_t partition = 0;
  uint32_t from_slot = 0;
  uint32_t to_slot = 0;
  /// The fleet epoch the migration committed.
  uint64_t epoch = 0;
  /// First tick the partition runs on its new shard (== the cut tick + 1).
  uint64_t first_tick_on_new_shard = 0;
  /// Wall time of the whole move: source drain + destination bootstrap
  /// write + epoch-manifest commit.
  double move_seconds = 0.0;
};

/// Outcome of the last FailoverShard (bench/monitoring).
struct FailoverReport {
  uint32_t partition = 0;
  /// True when the peer's in-memory replica rebuilt the state; false when
  /// the disk-recovery fallback ran (torn buffer, dead peer, or
  /// replication off).
  bool used_peer_memory = false;
  /// Tick count the rebuilt state is consistent through (== the fleet
  /// tick).
  uint64_t rebuilt_ticks = 0;
  /// Wall time to materialize the state (memory rebuild or disk recovery):
  /// the failover-latency number the ROADMAP's "milliseconds, not a disk
  /// replay" claim is about.
  double rebuild_seconds = 0.0;
  /// Wall time of the shard restart on top of it (Engine::OpenResumed +
  /// runner spawn) -- identical on both paths.
  double resume_seconds = 0.0;
};

/// Captures a fleet's durable properties from its open-time config, with
/// the identity partition assignment and epoch 0.
FleetManifest ManifestFromConfig(const ShardedEngineConfig& config);

/// Reconstructs the config to reopen the fleet described by `manifest`
/// under `root` (the Fleet::Open "disk tells you" direction).
ShardedEngineConfig ConfigFromManifest(const FleetManifest& manifest,
                                       const std::string& root);

/// A fleet of K engines sharing one disk. The facade itself is driven by
/// one caller thread; in threaded mode the shards consume its ticks
/// asynchronously on their own mutator threads.
class ShardedEngine {
 public:
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Starts the next fleet tick.
  void BeginTick();

  /// Records one logical update for `shard`'s partition (applied by the
  /// shard when it consumes this tick).
  void ApplyUpdate(uint32_t shard, uint32_t cell, int32_t value);

  /// Ends the fleet tick: mails every shard its batch plus the stagger
  /// scheduler's checkpoint decision, and polls for shard errors. On a
  /// shard failure EVERY other shard still receives and finishes the tick,
  /// the first error is recorded, the fleet tick stays consistent, and the
  /// fleet hard-fails (failed() becomes true; only Shutdown/SimulateCrash
  /// remain legal). In threaded mode an error can surface one or more
  /// ticks after the EndTick that caused it.
  Status EndTick();

  /// Barrier: blocks until every shard has consumed all submitted ticks,
  /// then returns the fleet's sticky error. After it returns OK, per-shard
  /// engines are quiescent and safe to inspect from this thread.
  Status WaitForIdle();

  // ---- Fleet-wide consistent cut (see consistent_cut.h) ----

  /// Phase 1: arms a consistent cut at tick T = current_tick +
  /// cut_lead_ticks and returns T. From now through tick T the stagger
  /// scheduler stands down; at tick T every shard drains to T and
  /// checkpoints exactly there (the shard acks by completing that
  /// checkpoint before consuming another tick). The caller keeps driving
  /// ticks as usual and, once the fleet tick has passed T, calls
  /// CommitConsistentCut. Only one cut may be in flight.
  StatusOr<uint64_t> RequestConsistentCut();

  /// Phase 2: barriers the fleet (WaitForIdle), verifies every shard
  /// produced its cut checkpoint, and atomically commits the fleet cut
  /// manifest. A crash before this commit -- even with all shards acked --
  /// leaves no manifest, and recovery falls back to per-shard exactness.
  /// FailedPrecondition if no cut is armed or tick T has not run yet. On
  /// any error the cut is abandoned (no manifest).
  Status CommitConsistentCut();

  /// True between RequestConsistentCut and CommitConsistentCut.
  bool cut_in_flight() const { return cut_.armed(); }
  /// The armed cut tick (meaningful while cut_in_flight()).
  uint64_t pending_cut_tick() const { return cut_.cut_tick(); }
  /// Timing of the last committed cut.
  const ConsistentCutReport& last_cut_report() const {
    return last_cut_report_;
  }

  // ---- Zone migration at a committed cut (ROADMAP item) ----

  /// Moves `partition`'s state to the fresh shard slot `to_slot` and
  /// commits the new topology as fleet epoch + 1. Must run IMMEDIATELY
  /// after a consistent cut committed at the previous tick (cut tick T ==
  /// current_tick() - 1, no fleet tick in between): the quiesced live
  /// state then equals the durable cut image, so the hand-off point is a
  /// tick every shard agrees on -- the MMOG zone hand-off primitive.
  ///
  /// Protocol (each step durable before the next, so a crash ANYWHERE
  /// lands in a well-defined topology):
  ///   1. drain the fleet; stop and shut down the partition's engine (its
  ///      old directory stays intact -- still the epoch-E recovery source);
  ///   2. bootstrap the partition's state into shard-<to_slot> via
  ///      Engine::OpenResumed (synchronous checkpoint at the cut);
  ///   3. commit fleet-manifest-<E+1> (tmp + rename + dir fsync);
  ///   4. retire the epoch-E manifest, then the source directory
  ///      (best-effort: the rename in 3 is the commit point, and anything
  ///      this sweep leaves behind is unreferenced garbage recovery
  ///      ignores).
  /// A crash before 3 recovers under epoch E (partition still on its old
  /// shard, exact at the current tick); after 3, under E+1 (partition on
  /// the new shard, its bootstrap exact at the same tick). The committed
  /// cut manifest survives the move: the destination bootstrap IS the
  /// partition's image at the cut, so cut recovery stays available.
  ///
  /// Errors: FailedPrecondition when no cut committed at current_tick()-1
  /// or a cut is still in flight; InvalidArgument for an unknown partition
  /// or an occupied destination slot.
  ///
  /// A non-empty `mount_root` relocates the destination slot's directory
  /// under that path instead of the fleet root (a different disk); the
  /// manifest records the override per partition, so recovery and every
  /// later reopen resolve the same directory.
  Status MigratePartition(uint32_t partition, uint32_t to_slot,
                          const std::string& mount_root = "");

  /// Timing/shape of the last committed migration.
  const MigrationReport& last_migration_report() const {
    return last_migration_report_;
  }

  /// The durable fleet description this incarnation maintains: epoch,
  /// partition -> shard-slot assignment, and every reopen knob.
  const FleetManifest& manifest() const { return manifest_; }
  /// Current fleet epoch (bumps on MigratePartition).
  uint64_t epoch() const { return manifest_.epoch; }
  /// Shard slot hosting partition `p`.
  uint32_t SlotOfPartition(uint32_t p) const { return manifest_.assignment[p]; }

  /// Graceful stop of every shard (drains mailboxes and in-flight
  /// checkpoints).
  Status Shutdown();

  /// Crash injection across the fleet. Barriers first -- every shard
  /// reaches the fleet tick, as if the crash hit between ticks -- then
  /// every shard's in-flight checkpoint is abandoned mid-write. Because of
  /// staggering, shards are typically at different checkpoint generations
  /// when the crash lands.
  Status SimulateCrash();

  // ---- Hot failover via in-memory cross-shard replication ----

  /// Crash injection on ONE shard (the paper's single-server-death model):
  /// barriers the fleet to the current tick, then kills `partition`'s
  /// engine mid-checkpoint and marks every replica buffer HOSTED BY that
  /// shard torn -- a dead server loses the replicas it held for others
  /// along with its own state. The rest of the fleet stays live but
  /// frozen: BeginTick, cuts, and migration are refused until
  /// FailoverShard brings the partition back. InvalidArgument for an
  /// unknown partition; FailedPrecondition while a cut is in flight or the
  /// partition is already crashed.
  Status SimulateShardCrash(uint32_t partition);

  /// Brings a crashed partition back at the CURRENT fleet tick. Fast
  /// path: the peer designated by manifest().replica_peer[partition]
  /// rebuilds the state from its in-memory ReplicaBuffer (base snapshot +
  /// delta ring) -- no disk read of the dead shard at all. Fallback: when
  /// replication is off, the peer is itself crashed, or its buffer is
  /// torn, the state is recovered from the partition's own disk (logical
  /// log replay), which must be exact at the fleet tick. Either way the
  /// shard restarts via Engine::OpenResumed (which continues the dead
  /// shard's chain), the partition's replica topology is re-anchored, and
  /// the fleet may tick again.
  /// The rebuilt state is byte-identical on both paths -- the failover
  /// tests pin peer-memory digests against a disk-recovered oracle.
  /// FailedPrecondition when the partition is not crashed.
  Status FailoverShard(uint32_t partition);

  /// Path taken and timing of the last FailoverShard.
  const FailoverReport& last_failover_report() const {
    return last_failover_report_;
  }

  /// Partition `p`'s hosted replica buffer (on its peer's runner), or
  /// nullptr when replication is off. Test/inspection hook: safe only
  /// while the fleet is quiesced (see shard()).
  ReplicaBuffer* replica_buffer(uint32_t p) {
    return config_.replicate ? runners_[manifest_.replica_peer[p]]->replica(p)
                             : nullptr;
  }

  const ShardedEngineConfig& config() const { return config_; }
  const StaggerScheduler& scheduler() const { return scheduler_; }
  uint32_t num_shards() const { return config_.num_shards; }
  uint64_t current_tick() const { return tick_; }
  /// True once a shard error hard-failed the fleet.
  bool failed() const { return failed_; }

  /// Partition `p`'s applied-tick count and cumulative dirty-mark count
  /// as one consistent pair (ShardRunner::progress): the rebalancer
  /// divides the delta of the marks by the delta of the ticks, so a
  /// runner lagging or leading the facade does not skew its rate. Safe to
  /// poll from the facade thread while the runner keeps ticking; resets
  /// to zero when the partition's runner is replaced (migration,
  /// failover).
  ShardRunner::Progress PartitionProgress(uint32_t p) const {
    return runners_[p]->progress();
  }

  /// Shard `i`'s engine. Safe only while the fleet is quiesced (inline
  /// mode, or after WaitForIdle/Shutdown/SimulateCrash).
  Engine& shard(uint32_t i) { return runners_[i]->engine(); }
  const Engine& shard(uint32_t i) const { return runners_[i]->engine(); }

  /// Aggregates checkpoint records across shards, skipping each shard's
  /// first (cold, all-objects) checkpoint when `skip_first` is set so
  /// steady-state incremental timing is not polluted by the bootstrap.
  /// Requires a quiesced fleet (see shard()).
  ShardedCheckpointStats CheckpointStats(bool skip_first = false) const;

 private:
  // The Fleet facade is the only construction path: Fleet::Create opens
  // fresh fleets and RecoveredFleet::Resume restarts recovered ones.
  friend class Fleet;
  friend class RecoveredFleet;

  /// Fresh open under config.shard.dir: fresh engines at tick 0, identity
  /// assignment, a new epoch-0 manifest (stale manifests and unassigned
  /// shard directories from a previous incarnation are retired first).
  static StatusOr<std::unique_ptr<ShardedEngine>> Open(
      const ShardedEngineConfig& config);

  /// Fleet restart: re-opens every shard of the fleet `manifest`
  /// describes under `root` (the manifest recovery already read) from
  /// recovered state -- one table per partition in partition order -- and
  /// resumes the fleet tick counter at `first_tick` (crash recovery: the
  /// crash fleet's recovered_ticks; cut recovery: cut_tick + 1). Each
  /// shard runs Engine::OpenResumed (the chain continues; a bootstrap only
  /// where the live stores cannot reproduce `first_tick`), so a crash at
  /// ANY later point recovers to at least `first_tick`. The previous
  /// incarnation's cut manifest (if any) is retired only AFTER every
  /// shard resumed, so a death mid-resume never destroys a cut restore
  /// point while it is still reachable.
  ///
  /// `bump_epoch` (a point-in-time resume, RecoveredFleet::Resume after
  /// Fleet::RecoverToTick): once every shard resumed, the manifest is
  /// re-committed as epoch + 1 and older epochs retired -- the new
  /// timeline's commit point. A crash before it leaves the old epoch
  /// intact and the operator simply re-runs the restore.
  static StatusOr<std::unique_ptr<ShardedEngine>> OpenResumed(
      const std::string& root, const FleetManifest& manifest,
      const std::vector<StateTable>& initial, uint64_t first_tick,
      bool bump_epoch = false);

  explicit ShardedEngine(const ShardedEngineConfig& config);

  /// Shared Open/OpenResumed body. `manifest` is the fleet's durable
  /// description (ManifestFromConfig for a fresh fleet). `initial` ==
  /// nullptr opens fresh engines at tick 0 and commits `manifest` as the
  /// epoch-0 superblock; otherwise every shard resumes from its table at
  /// `first_tick` in the directory `manifest` assigns it.
  static StatusOr<std::unique_ptr<ShardedEngine>> OpenImpl(
      const ShardedEngineConfig& config, FleetManifest manifest,
      const std::vector<StateTable>* initial, uint64_t first_tick,
      bool bump_epoch);

  /// The engine config of the shard living in `dir`.
  EngineConfig ShardConfig(const std::string& dir) const;

  /// Builds the ShardRunner for `partition` around `engine`.
  std::unique_ptr<ShardRunner> MakeRunner(uint32_t partition,
                                          std::unique_ptr<Engine> engine);

  /// The shard swap shared by MigratePartition and FailoverShard, on a
  /// quiesced fleet: installs a runner around `engine` (already resumed at
  /// the fleet tick) as `partition`'s, re-anchors the partition's own
  /// replica on its live host at the new engine's state, and re-hosts on
  /// the new runner the replicas the swapped-out runner held, each
  /// anchored from its source -- a source still crashed leaves its buffer
  /// torn until its own FailoverShard re-anchors it.
  void InstallShard(uint32_t partition, std::unique_ptr<Engine> engine);

  /// First sticky error across runners (polled without blocking).
  Status PollShardError();

  ShardedEngineConfig config_;
  /// In-memory twin of the durable superblock (epoch, assignment, knobs).
  FleetManifest manifest_;
  StaggerScheduler scheduler_;
  ConsistentCutCoordinator cut_;
  std::chrono::steady_clock::time_point cut_armed_at_;
  ConsistentCutReport last_cut_report_;
  /// Tick of the last cut committed by THIS incarnation, or UINT64_MAX:
  /// the MigratePartition precondition.
  uint64_t last_committed_cut_tick_ = UINT64_MAX;
  MigrationReport last_migration_report_;
  FailoverReport last_failover_report_;
  std::vector<std::unique_ptr<ShardRunner>> runners_;
  /// Per-shard updates buffered during the open tick.
  std::vector<std::vector<CellUpdate>> pending_;
  /// crashed_[p] = SimulateShardCrash killed partition p and FailoverShard
  /// has not yet revived it (vector<uint8_t>: no bitset proxy games).
  std::vector<uint8_t> crashed_;
  uint32_t crashed_count_ = 0;
  /// Committed-cut tick to broadcast to replica hosts in the NEXT tick's
  /// batches (the trim-at-cut rule), or kNoReplicaTrim when none pending.
  uint64_t pending_replica_trim_ = ShardTickBatch::kNoReplicaTrim;
  uint64_t tick_ = 0;
  bool in_tick_ = false;
  bool failed_ = false;
  Status first_error_;
  bool shut_down_ = false;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_SHARDED_ENGINE_H_
