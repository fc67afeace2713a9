#include "engine/sharded_engine.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "engine/paths.h"
#include "engine/recovery.h"
#include "engine/replica_buffer.h"
#include "util/io.h"
#include "util/sched_fuzz.h"

namespace tickpoint {

FleetManifest ManifestFromConfig(const ShardedEngineConfig& config) {
  FleetManifest manifest;
  manifest.epoch = 0;
  manifest.num_partitions = config.num_shards;
  manifest.assignment.resize(config.num_shards);
  for (uint32_t p = 0; p < config.num_shards; ++p) manifest.assignment[p] = p;
  manifest.layout = config.shard.layout;
  manifest.algorithm = config.shard.algorithm;
  manifest.full_flush_period = config.shard.full_flush_period;
  manifest.logical_sync_every = config.shard.logical_sync_every;
  manifest.fsync = config.shard.fsync;
  manifest.checksum_state = config.shard.checksum_state;
  manifest.checkpoint_period_ticks = config.checkpoint_period_ticks;
  manifest.staggered = config.staggered;
  manifest.adaptive = config.adaptive;
  manifest.disk_budget = config.disk_budget;
  manifest.threaded = config.threaded;
  manifest.max_queue_ticks = config.max_queue_ticks;
  manifest.cut_lead_ticks = config.cut_lead_ticks;
  manifest.replicate = config.replicate;
  manifest.replica_depth = config.replica_depth;
  // The manifest stores the active-replica designation RESOLVED (an empty
  // config vector means the default ring), so a reopened fleet rebuilds
  // the identical replication topology without re-deriving defaults.
  manifest.replica_peer = config.replica_peer;
  if (manifest.replica_peer.empty()) {
    manifest.replica_peer.resize(config.num_shards);
    for (uint32_t p = 0; p < config.num_shards; ++p) {
      manifest.replica_peer[p] = (p + 1) % std::max<uint32_t>(1, config.num_shards);
    }
  }
  manifest.retention = config.shard.retention;
  return manifest;
}

ShardedEngineConfig ConfigFromManifest(const FleetManifest& manifest,
                                       const std::string& root) {
  ShardedEngineConfig config;
  config.shard.layout = manifest.layout;
  config.shard.algorithm = manifest.algorithm;
  config.shard.dir = root;
  config.shard.full_flush_period = manifest.full_flush_period;
  config.shard.logical_sync_every = manifest.logical_sync_every;
  config.shard.fsync = manifest.fsync;
  config.shard.checksum_state = manifest.checksum_state;
  config.num_shards = manifest.num_partitions;
  config.checkpoint_period_ticks = manifest.checkpoint_period_ticks;
  config.staggered = manifest.staggered;
  config.adaptive = manifest.adaptive;
  config.disk_budget = manifest.disk_budget;
  config.threaded = manifest.threaded;
  config.max_queue_ticks = manifest.max_queue_ticks;
  config.cut_lead_ticks = manifest.cut_lead_ticks;
  config.replicate = manifest.replicate;
  config.replica_depth = manifest.replica_depth;
  config.replica_peer = manifest.replica_peer;
  config.shard.retention = manifest.retention;
  return config;
}

namespace {

/// Fresh opens only: a previous incarnation that migrated partitions may
/// have left shard directories at slots the identity assignment no longer
/// references; wipe them so their stale checkpoints can never be confused
/// for live partitions.
Status RemoveUnassignedShardDirs(const std::string& root,
                                 uint32_t num_shards) {
  std::error_code iter_ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(root, iter_ec)) {
    uint32_t slot = 0;
    if (!paths::ParseShardDirName(entry.path().filename().string(), &slot)) {
      continue;
    }
    if (slot < num_shards) continue;
    std::error_code ec;
    std::filesystem::remove_all(entry.path(), ec);
    if (ec) {
      return Status::IOError("remove stale " + entry.path().string() + ": " +
                             ec.message());
    }
  }
  return Status::OK();
}

}  // namespace

ShardedEngine::ShardedEngine(const ShardedEngineConfig& config)
    : config_(config),
      scheduler_(config.ToStaggerConfig()),
      cut_(config.shard.dir, config.num_shards, config.shard.fsync) {}

StatusOr<std::unique_ptr<ShardedEngine>> ShardedEngine::OpenImpl(
    const ShardedEngineConfig& config, FleetManifest manifest,
    const std::vector<StateTable>* initial, uint64_t first_tick,
    bool bump_epoch) {
  if (config.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (config.checkpoint_period_ticks == 0) {
    return Status::InvalidArgument("checkpoint_period_ticks must be positive");
  }
  if (config.shard.dir.empty()) {
    return Status::InvalidArgument("ShardedEngineConfig.shard.dir must be set");
  }
  if (config.max_queue_ticks == 0) {
    return Status::InvalidArgument("max_queue_ticks must be positive");
  }
  if (config.cut_lead_ticks == 0) {
    // Caught here, not in the coordinator: Arm would happily pick T ==
    // current_tick and the cut checkpoint would race the tick being
    // assembled.
    return Status::InvalidArgument("cut_lead_ticks must be positive");
  }
  if (config.disk_budget == 0) {
    // Checked here, before the member initializer constructs the
    // StaggerScheduler, whose TP_CHECK would abort instead of returning.
    return Status::InvalidArgument("disk_budget must be positive");
  }
  if (config.replicate) {
    // Replication-knob validation (mirrors the PR-5 posture: reject at
    // Create/Open with InvalidArgument, never TP_CHECK on user input).
    if (config.num_shards < 2) {
      return Status::InvalidArgument(
          "replication requires at least 2 shards (a replica must live on "
          "a different shard than its partition)");
    }
    if (config.replica_depth == 0) {
      return Status::InvalidArgument("replica_depth must be positive");
    }
    if (!config.replica_peer.empty()) {
      if (config.replica_peer.size() != config.num_shards) {
        return Status::InvalidArgument(
            "replica_peer has " + std::to_string(config.replica_peer.size()) +
            " entries for a " + std::to_string(config.num_shards) +
            "-shard fleet");
      }
      for (uint32_t p = 0; p < config.num_shards; ++p) {
        const uint32_t peer = config.replica_peer[p];
        if (peer >= config.num_shards) {
          return Status::InvalidArgument(
              "replica_peer[" + std::to_string(p) + "] = " +
              std::to_string(peer) + " out of range (fleet has " +
              std::to_string(config.num_shards) + " shards)");
        }
        if (peer == p) {
          // A self-hosted replica dies with its shard: worthless.
          return Status::InvalidArgument(
              "replica_peer[" + std::to_string(p) +
              "] is self-peered (a replica must live on a different shard)");
        }
      }
    }
  }
  if (initial != nullptr && initial->size() != config.num_shards) {
    return Status::InvalidArgument(
        "OpenResumed with " + std::to_string(initial->size()) +
        " shard tables for a " + std::to_string(config.num_shards) +
        "-shard fleet");
  }
  TP_RETURN_NOT_OK(EnsureDirectory(config.shard.dir));
  std::unique_ptr<ShardedEngine> sharded(new ShardedEngine(config));
  sharded->manifest_ = std::move(manifest);
  if (initial == nullptr) {
    // A fresh fleet starts every shard's logical-log chain anew and wipes
    // the stale checkpoints, so a cut manifest a previous incarnation left
    // points at state this run can no longer reproduce: retire it before
    // the first shard opens. The RESUME path must NOT retire it yet -- see
    // the ordering note before the second removal below. Stale fleet
    // manifests and unassigned shard directories (a migrated past
    // incarnation) die with it; this run's own epoch-0 manifest is
    // committed only after every shard opened.
    TP_RETURN_NOT_OK(RemoveFileIfExists(CutManifestPath(config.shard.dir)));
    TP_RETURN_NOT_OK(
        RetireFleetManifestsBefore(config.shard.dir, UINT64_MAX));
    TP_RETURN_NOT_OK(
        RemoveUnassignedShardDirs(config.shard.dir, config.num_shards));
  }
  sharded->tick_ = first_tick;
  sharded->runners_.reserve(config.num_shards);
  sharded->pending_.resize(config.num_shards);
  for (uint32_t i = 0; i < config.num_shards; ++i) {
    // The manifest, not slot arithmetic, resolves each partition's
    // directory: a migrated partition may live on a different slot AND a
    // different mount root.
    const EngineConfig shard_config = sharded->ShardConfig(
        sharded->manifest_.PartitionDir(config.shard.dir, i));
    StatusOr<std::unique_ptr<Engine>> engine_or =
        initial == nullptr
            ? Engine::Open(shard_config)
            : Engine::OpenResumed(shard_config, (*initial)[i], first_tick);
    TP_ASSIGN_OR_RETURN(auto engine, std::move(engine_or));
    sharded->runners_.push_back(sharded->MakeRunner(i, std::move(engine)));
  }
  sharded->crashed_.assign(config.num_shards, 0);
  if (config.replicate) {
    // Seed every partition's replica on its designated peer's runner,
    // anchored at the just-opened state (the runners are idle, so their
    // engines are safe to read from this thread; HostReplica before any
    // SubmitTick is ordered by the mailbox's release/acquire pair).
    for (uint32_t p = 0; p < config.num_shards; ++p) {
      auto buffer = std::make_unique<ReplicaBuffer>(p, config.shard.layout,
                                                    config.replica_depth);
      buffer->Anchor(sharded->runners_[p]->engine().state(), first_tick);
      sharded->runners_[sharded->manifest_.replica_peer[p]]->HostReplica(
          std::move(buffer));
    }
  }
  if (initial != nullptr) {
    // Resume ordering: the pre-crash cut manifest is retired only AFTER
    // every shard resumed, so a death inside the loop above leaves it in
    // place: resumed from the cut itself (first_tick == cut_tick + 1), each
    // resumed shard still reproduces the cut (its chain cut back to it, or
    // a bootstrap at it) and the untouched shards their pre-crash sources.
    // An older cut is never destroyed while reachable either (see
    // RecoverFleetToCut for its fallback).
    TP_RETURN_NOT_OK(RemoveFileIfExists(CutManifestPath(config.shard.dir)));
  }
  if (bump_epoch) {
    // A point-in-time resume rewrote every shard's durable state to an
    // older tick; committing the manifest as a NEW epoch (same topology)
    // is the new timeline's commit point, mirroring MigratePartition's
    // epoch protocol. Everything above is idempotent, so a crash before
    // this rename leaves the restore repeatable under the old epoch.
    sharded->manifest_.epoch += 1;
  }
  if (initial == nullptr || bump_epoch) {
    // For a fresh fleet the manifest commit is the last step of creation:
    // a crash before it leaves shard directories without a superblock,
    // which Fleet::Open reports as NotFound instead of guessing a
    // topology.
    TP_RETURN_NOT_OK(WriteFleetManifest(config.shard.dir, sharded->manifest_,
                                        config.shard.fsync));
    if (bump_epoch) {
      // Best-effort retirement, like MigratePartition: the rename above
      // is the commit point, and a leftover older epoch is recovery
      // fallback fodder, not a correctness hazard (the newest intact
      // epoch wins).
      (void)RetireFleetManifestsBefore(config.shard.dir,
                                       sharded->manifest_.epoch);
    }
  }
  return sharded;
}

EngineConfig ShardedEngine::ShardConfig(const std::string& dir) const {
  EngineConfig shard_config = config_.shard;
  shard_config.dir = dir;
  shard_config.manual_checkpoints = true;
  return shard_config;
}

std::unique_ptr<ShardRunner> ShardedEngine::MakeRunner(
    uint32_t partition, std::unique_ptr<Engine> engine) {
  // Measured checkpoint completions feed the adaptive stagger; in threaded
  // mode the callbacks arrive on runner threads (the scheduler locks).
  auto observer = [this](uint32_t shard,
                         const EngineCheckpointRecord& record,
                         uint64_t completion_tick) {
    scheduler_.ObserveCheckpointEnd(shard, completion_tick,
                                    record.TotalSeconds());
  };
  return std::make_unique<ShardRunner>(partition, std::move(engine),
                                       config_.threaded,
                                       config_.max_queue_ticks, observer);
}

void ShardedEngine::InstallShard(uint32_t partition,
                                 std::unique_ptr<Engine> engine) {
  runners_[partition] = MakeRunner(partition, std::move(engine));
  if (!config_.replicate) return;
  // The partition's own replica on its live peer restarts from the new
  // engine's state -- Anchor also clears fold/torn debris in the ring, so
  // the next failover (a disk-path one, or one right after a rebalance)
  // rebuilds from a clean base.
  const uint32_t host = manifest_.replica_peer[partition];
  if (!crashed_[host]) {
    ReplicaBuffer* buffer = runners_[host]->replica(partition);
    if (buffer != nullptr) {
      buffer->Anchor(runners_[partition]->engine().state(), tick_);
    }
  }
  // The swap destroyed the replicas the old runner hosted: fresh buffers
  // on the new runner, anchored from their (idle) source engines.
  for (uint32_t r = 0; r < config_.num_shards; ++r) {
    if (manifest_.replica_peer[r] != partition) continue;
    auto buffer = std::make_unique<ReplicaBuffer>(r, config_.shard.layout,
                                                  config_.replica_depth);
    if (!crashed_[r]) {
      buffer->Anchor(runners_[r]->engine().state(), tick_);
    }
    runners_[partition]->HostReplica(std::move(buffer));
  }
}

StatusOr<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const ShardedEngineConfig& config) {
  return OpenImpl(config, ManifestFromConfig(config), /*initial=*/nullptr,
                  /*first_tick=*/0, /*bump_epoch=*/false);
}

StatusOr<std::unique_ptr<ShardedEngine>> ShardedEngine::OpenResumed(
    const std::string& root, const FleetManifest& manifest,
    const std::vector<StateTable>& initial, uint64_t first_tick,
    bool bump_epoch) {
  return OpenImpl(ConfigFromManifest(manifest, root), manifest, &initial,
                  first_tick, bump_epoch);
}

ShardedEngine::~ShardedEngine() {
  if (!shut_down_) {
    (void)Shutdown();
  }
}

void ShardedEngine::BeginTick() {
  TP_CHECK(!in_tick_ && !shut_down_ && !failed_);
  // A crashed shard freezes the fleet tick: ticking past it would tear
  // every replica anchored at the crash tick. FailoverShard first.
  TP_CHECK(crashed_count_ == 0);
  in_tick_ = true;
}

void ShardedEngine::ApplyUpdate(uint32_t shard, uint32_t cell,
                                int32_t value) {
  TP_DCHECK(in_tick_);
  TP_DCHECK(shard < runners_.size());
  pending_[shard].push_back(CellUpdate{cell, value});
}

Status ShardedEngine::EndTick() {
  TP_CHECK(in_tick_);
  in_tick_ = false;
  // While a cut is armed the stagger scheduler stands down up to and
  // including the cut tick, so no regular start can collide with (or
  // delay) the cut generation; afterward the fixed schedule resumes its
  // arithmetic and the adaptive plan is realigned below.
  const bool cut_tick_now = cut_.IsCutTick(tick_);
  const bool suppress_schedule = cut_.SuppressesScheduledStart(tick_);
  // Every shard gets its batch even if a sibling already failed: no shard
  // is ever left mid-tick, and the fleet tick advances exactly once. A cut
  // committed last turn broadcasts its trim tick in this tick's batches
  // (the trim-at-cut rule: everything at or below a committed cut is
  // durable fleet-wide, so the replica rings fold eagerly).
  std::vector<ShardTickBatch> batches(runners_.size());
  for (uint32_t i = 0; i < runners_.size(); ++i) {
    batches[i].tick = tick_;
    batches[i].cut_checkpoint = cut_tick_now;
    batches[i].start_checkpoint =
        cut_tick_now ||
        (!suppress_schedule && scheduler_.ShouldCheckpoint(i, tick_));
    batches[i].trim_replicas_through = pending_replica_trim_;
  }
  pending_replica_trim_ = ShardTickBatch::kNoReplicaTrim;
  if (config_.replicate) {
    // Each partition's delta is COPIED into its peer's batch (the host
    // appends it to the replica ring before its own tick) and then MOVED
    // into the owner's batch below, so the replica stream is exactly the
    // update stream the owner applies.
    for (uint32_t p = 0; p < runners_.size(); ++p) {
      ShardTickBatch::ReplicaDelta delta;
      delta.partition = p;
      delta.updates = pending_[p];
      batches[manifest_.replica_peer[p]].replica_updates.push_back(
          std::move(delta));
    }
  }
  for (uint32_t i = 0; i < runners_.size(); ++i) {
    batches[i].updates = std::move(pending_[i]);
    pending_[i].clear();
    runners_[i]->SubmitTick(std::move(batches[i]));
  }
  if (cut_tick_now) scheduler_.RealignAfterCut(tick_);
  ++tick_;
  return PollShardError();
}

StatusOr<uint64_t> ShardedEngine::RequestConsistentCut() {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (failed_) return first_error_;
  if (crashed_count_ > 0) {
    return Status::FailedPrecondition(
        "RequestConsistentCut with a crashed shard pending failover");
  }
  TP_ASSIGN_OR_RETURN(const uint64_t cut_tick,
                      cut_.Arm(tick_, config_.cut_lead_ticks));
  // Arm every shard's ack slot before the cut tick's batches can be
  // submitted: the mailbox's release/acquire pair orders the arm before
  // any runner can publish the new cut's ack.
  for (auto& runner : runners_) runner->ArmCutAck(cut_tick);
  cut_armed_at_ = std::chrono::steady_clock::now();
  return cut_tick;
}

Status ShardedEngine::CommitConsistentCut() {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (!cut_.armed()) {
    return Status::FailedPrecondition("no consistent cut in flight");
  }
  const uint64_t cut_tick = cut_.cut_tick();
  if (tick_ <= cut_tick) {
    return Status::FailedPrecondition(
        "cut tick " + std::to_string(cut_tick) +
        " has not been submitted yet (fleet tick " + std::to_string(tick_) +
        ")");
  }
  // Fold the per-shard ack slots, wait-free on the runners: each slot is
  // release-published by its runner the instant the cut checkpoint record
  // lands, so the commit never quiesces the fleet -- shards keep consuming
  // post-cut ticks while the coordinator waits only for the slowest cut
  // write itself. Under the async IO backend a runner finalizes the cut's
  // record at a later tick's EndTick; when no later tick is coming (the
  // runner went idle), the coordinator reaps the pending checkpoint
  // itself below.
  std::vector<CutShardRecord> acks;
  acks.reserve(runners_.size());
  double max_stall = 0.0;
  for (uint32_t i = 0; i < runners_.size(); ++i) {
    ShardRunner& runner = *runners_[i];
    bool folded = false;
    for (;;) {
      if (runner.cut_acked()) break;
      if (runner.has_error()) {
        cut_.Disarm();
        return PollShardError();
      }
      if (runner.ticks_completed() >= runner.ticks_submitted()) {
        // Every submitted batch -- the cut tick's included (the tick_ >
        // cut_tick precondition above proved it was submitted) -- is fully
        // consumed and the runner is parked on an empty mailbox, yet no
        // ack: under the
        // async backend the cut's write may still be in flight on the
        // shard's writer thread with no later tick coming to reap it.
        // This thread is the runner's producer, so the idle state is
        // stable and the ring's release/acquire pair makes the engine
        // safe to touch: complete the pending checkpoint and synthesize
        // the ack from its record.
        if (runner.cut_acked()) break;  // the ack raced in; fold it
        const Status reap = runner.engine().CompletePendingCheckpoint();
        if (!reap.ok()) {
          cut_.Disarm();
          return reap;
        }
        const auto& records = runner.engine().metrics().checkpoints;
        for (size_t r = records.size(); r-- > 0;) {
          if (records[r].cut && records[r].start_tick == cut_tick) {
            acks.push_back(
                CutShardRecord{records[r].seq, records[r].consistent_ticks});
            max_stall = std::max(max_stall, records[r].cut_stall_seconds);
            folded = true;
            break;
          }
        }
        if (!folded) {
          // Fully reaped, still no cut record: the engine broke the cut
          // contract.
          cut_.Disarm();
          return Status::Internal("shard " + std::to_string(i) +
                                  " produced no cut checkpoint at tick " +
                                  std::to_string(cut_tick));
        }
        break;
      }
      TP_SCHED_FUZZ_POINT();
      std::this_thread::yield();
    }
    if (!folded) {
      const ShardRunner::CutAck& ack = runner.cut_ack();
      acks.push_back(CutShardRecord{ack.checkpoint_seq, ack.consistent_ticks});
      max_stall = std::max(max_stall, ack.stall_seconds);
    }
    // Disarm before any later batch can reach the runner: a stale pending
    // cut it still holds (the force-reap path) must drop silently, never
    // publish into a later cut's slot.
    runner.DisarmCutAck();
  }
  TP_RETURN_NOT_OK(cut_.Commit(acks));
  last_committed_cut_tick_ = cut_tick;
  if (config_.replicate) {
    // Trim-at-cut: the cut is durable fleet-wide, so every replica ring
    // may fold its batches through the cut tick. Broadcast the trim in
    // the NEXT tick's batches (the hosts' mutator threads own the rings).
    pending_replica_trim_ = cut_tick;
  }
  last_cut_report_.cut_tick = cut_tick;
  last_cut_report_.commit_latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cut_armed_at_)
          .count();
  last_cut_report_.max_shard_stall_seconds = max_stall;
  return Status::OK();
}

Status ShardedEngine::MigratePartition(uint32_t partition, uint32_t to_slot,
                                       const std::string& mount_root) {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (failed_) return first_error_;
  if (crashed_count_ > 0) {
    return Status::FailedPrecondition(
        "MigratePartition with a crashed shard pending failover");
  }
  if (cut_.armed()) {
    return Status::FailedPrecondition(
        "MigratePartition with a consistent cut still in flight (tick " +
        std::to_string(cut_.cut_tick()) + ")");
  }
  if (partition >= config_.num_shards) {
    return Status::InvalidArgument(
        "MigratePartition of unknown partition " + std::to_string(partition) +
        " (fleet has " + std::to_string(config_.num_shards) + ")");
  }
  for (uint32_t p = 0; p < config_.num_shards; ++p) {
    if (manifest_.assignment[p] == to_slot) {
      return Status::InvalidArgument(
          "shard slot " + std::to_string(to_slot) +
          " already hosts partition " + std::to_string(p));
    }
  }
  if (last_committed_cut_tick_ == UINT64_MAX ||
      last_committed_cut_tick_ + 1 != tick_) {
    // The quiesced live state must EQUAL the durable cut image, which
    // holds only when the cut tick was the last tick the fleet ran.
    // Migrating several partitions back-to-back at the same cut satisfies
    // this too (no tick runs in between).
    return Status::FailedPrecondition(
        "MigratePartition requires a consistent cut committed at the "
        "previous tick (fleet tick " +
        std::to_string(tick_) + ", last committed cut " +
        (last_committed_cut_tick_ == UINT64_MAX
             ? std::string("none")
             : std::to_string(last_committed_cut_tick_)) +
        ")");
  }
  const auto move_start = std::chrono::steady_clock::now();
  TP_RETURN_NOT_OK(WaitForIdle());
  const uint32_t from_slot = manifest_.assignment[partition];
  // Resolve the SOURCE directory under the old topology, before the
  // manifest below replaces the partition's slot and mount entries.
  const std::string from_dir =
      manifest_.PartitionDir(config_.shard.dir, partition);
  // Fallible work first, destructive work last: until the new epoch's
  // manifest commits, nothing the old topology needs is touched, so any
  // error below (or a crash) leaves the fleet recoverable under epoch E --
  // partition still on its old shard, exact at the current tick.
  //
  // The partition's quiesced state is its cut-tick state (precondition
  // above); bootstrap it into the destination slot. The slot is unassigned,
  // so its directory holds only garbage: clear it, so Engine::OpenResumed
  // finds no image or chain there and writes the bootstrap checkpoint.
  const std::string to_dir =
      paths::SlotDir(config_.shard.dir, mount_root, to_slot);
  std::error_code stale_ec;
  std::filesystem::remove_all(to_dir, stale_ec);
  if (stale_ec) {
    return Status::IOError("clear " + to_dir + ": " + stale_ec.message());
  }
  StateTable moved(config_.shard.layout);
  std::memcpy(moved.mutable_data(),
              runners_[partition]->engine().state().data(),
              moved.buffer_bytes());
  if (!mount_root.empty()) {
    // A cross-disk landing: the mount point itself must exist (and be
    // writable) before the destination engine bootstraps under it.
    TP_RETURN_NOT_OK(EnsureDirectory(mount_root));
  }
  TP_ASSIGN_OR_RETURN(auto dest_engine,
                      Engine::OpenResumed(ShardConfig(to_dir), moved, tick_));
  // Commit the new topology: fleet-manifest-<E+1> via tmp + rename + dir
  // fsync. This rename is the migration's commit point.
  FleetManifest next = manifest_;
  next.epoch = manifest_.epoch + 1;
  next.assignment[partition] = to_slot;
  next.mount_root.resize(next.num_partitions);
  next.mount_root[partition] = mount_root;
  TP_RETURN_NOT_OK(
      WriteFleetManifest(config_.shard.dir, next, config_.shard.fsync));
  // The committed cut manifest stays: the destination bootstrap IS the
  // partition's image at the cut (consistent tick == cut + 1), so cut
  // recovery keeps working across the epoch boundary.
  manifest_ = std::move(next);
  // Swap the live engine. The old engine's directory is now unreferenced
  // garbage; a shutdown error here means its writer died earlier, which
  // hard-fails the fleet like any shard error (the migration itself is
  // already committed on disk).
  runners_[partition]->Stop();
  const Status source_shutdown = runners_[partition]->engine().Shutdown();
  InstallShard(partition, std::move(dest_engine));
  // The scheduler's learned write-time EWMAs describe the OLD slot's disk;
  // zero them (and release any reservation the swallowed in-flight
  // checkpoint held) so the adaptive plan re-learns the new placement
  // instead of planning around stale estimates.
  scheduler_.ResetShard(partition, tick_);
  last_migration_report_.partition = partition;
  last_migration_report_.from_slot = from_slot;
  last_migration_report_.to_slot = to_slot;
  last_migration_report_.epoch = manifest_.epoch;
  last_migration_report_.first_tick_on_new_shard = tick_;
  last_migration_report_.move_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    move_start)
          .count();
  if (!source_shutdown.ok()) {
    failed_ = true;
    if (first_error_.ok()) first_error_ = source_shutdown;
    return source_shutdown;
  }
  // Retire the old epoch's manifest, then the source directory --
  // best-effort: the migration is already committed (the manifest rename
  // above), and anything these sweeps leave behind is unreferenced
  // garbage recovery ignores (it picks the newest epoch) and the next
  // fresh Open or migration retires. Failing the committed migration over
  // a cleanup hiccup would misreport its outcome.
  (void)RetireFleetManifestsBefore(config_.shard.dir, manifest_.epoch);
  std::error_code ec;
  std::filesystem::remove_all(from_dir, ec);
  return Status::OK();
}

Status ShardedEngine::PollShardError() {
  if (!failed_) {
    for (auto& runner : runners_) {
      if (!runner->has_error()) continue;
      const Status status = runner->status();
      if (first_error_.ok() && !status.ok()) first_error_ = status;
      failed_ = true;
    }
  }
  return first_error_;
}

Status ShardedEngine::WaitForIdle() {
  TP_CHECK(!in_tick_);
  for (auto& runner : runners_) {
    const Status status = runner->Drain();
    if (first_error_.ok() && !status.ok()) {
      first_error_ = status;
      failed_ = true;
    }
  }
  return first_error_;
}

Status ShardedEngine::Shutdown() {
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  Status first_error = Status::OK();
  // Barrier: drain mailboxes and park the mutator threads, then stop each
  // engine (which drains its writer thread).
  for (auto& runner : runners_) runner->Stop();
  for (auto& runner : runners_) {
    const Status status = runner->status();
    if (first_error.ok() && !status.ok()) first_error = status;
  }
  for (auto& runner : runners_) {
    const Status status = runner->engine().Shutdown();
    if (first_error.ok() && !status.ok()) first_error = status;
  }
  return first_error;
}

Status ShardedEngine::SimulateCrash() {
  TP_CHECK(!shut_down_);
  shut_down_ = true;
  // Barrier first: every shard reaches the fleet tick, so the crash lands
  // between fleet ticks (the per-shard writer threads are still mid-flush,
  // which is what the crash abandons).
  for (auto& runner : runners_) runner->Stop();
  Status first_error = Status::OK();
  for (auto& runner : runners_) {
    const Status status = runner->engine().SimulateCrash();
    if (first_error.ok() && !status.ok()) first_error = status;
  }
  return first_error;
}

Status ShardedEngine::SimulateShardCrash(uint32_t partition) {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (partition >= config_.num_shards) {
    return Status::InvalidArgument(
        "SimulateShardCrash of unknown partition " + std::to_string(partition) +
        " (fleet has " + std::to_string(config_.num_shards) + ")");
  }
  if (cut_.armed()) {
    return Status::FailedPrecondition(
        "SimulateShardCrash with a consistent cut still in flight (tick " +
        std::to_string(cut_.cut_tick()) + ")");
  }
  if (crashed_[partition]) {
    return Status::FailedPrecondition("partition " + std::to_string(partition) +
                                      " is already crashed");
  }
  // Barrier the WHOLE fleet first: the death lands between fleet ticks,
  // with every replica ring consistent through the same tick as its source
  // (the runner appends hosted deltas before its own tick, so a drained
  // runner has consumed both). The siblings stay alive -- their engines
  // and hosted rings are then safe to read from this thread until the next
  // SubmitTick, which is exactly the window FailoverShard runs in.
  TP_RETURN_NOT_OK(WaitForIdle());
  runners_[partition]->Stop();
  const Status crash = runners_[partition]->engine().SimulateCrash();
  // A dead server loses everything in its memory: its own partition AND
  // the replicas it hosted for others.
  for (const auto& buffer : runners_[partition]->replicas()) {
    buffer->MarkTorn();
  }
  crashed_[partition] = 1;
  ++crashed_count_;
  return crash;
}

Status ShardedEngine::FailoverShard(uint32_t partition) {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (failed_) return first_error_;
  if (partition >= config_.num_shards) {
    return Status::InvalidArgument(
        "FailoverShard of unknown partition " + std::to_string(partition) +
        " (fleet has " + std::to_string(config_.num_shards) + ")");
  }
  if (!crashed_[partition]) {
    return Status::FailedPrecondition("FailoverShard of partition " +
                                      std::to_string(partition) +
                                      " which is not crashed");
  }
  // A fresh attempt invalidates the previous failover's report NOW, not at
  // success: an error return below (wrong-tick disk recovery, open
  // failure) must never leave a stale used_peer_memory=true / timing
  // record visible to callers inspecting the failed attempt.
  last_failover_report_ = FailoverReport{};
  FailoverReport report;
  report.partition = partition;
  report.rebuilt_ticks = tick_;
  // Phase 1: materialize the partition's state at the fleet tick. Fast
  // path -- the peer's in-memory replica; fallback -- the partition's own
  // disk. Both must land EXACTLY at tick_ (the fleet froze there when the
  // crash hit), so the rebuilt state is byte-identical either way.
  StateTable table(config_.shard.layout);
  bool from_peer = false;
  const auto rebuild_start = std::chrono::steady_clock::now();
  if (config_.replicate) {
    const uint32_t host = manifest_.replica_peer[partition];
    if (!crashed_[host] && !runners_[host]->has_error()) {
      ReplicaBuffer* buffer = runners_[host]->replica(partition);
      if (buffer != nullptr) {
        StatusOr<uint64_t> ticks_or = buffer->Rebuild(&table);
        from_peer = ticks_or.ok() && ticks_or.value() == tick_;
      }
    }
  }
  const EngineConfig shard_config =
      ShardConfig(manifest_.PartitionDir(config_.shard.dir, partition));
  if (!from_peer) {
    TP_ASSIGN_OR_RETURN(const RecoveryResult recovered,
                        Recover(shard_config, &table));
    if (recovered.recovered_ticks != tick_) {
      return Status::Corruption(
          "disk recovery of partition " + std::to_string(partition) +
          " reached tick " + std::to_string(recovered.recovered_ticks) +
          ", fleet is at " + std::to_string(tick_));
    }
  }
  report.used_peer_memory = from_peer;
  report.rebuild_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    rebuild_start)
          .count();
  // Phase 2: restart the shard on the rebuilt state. Engine::OpenResumed
  // continues the dead shard's chain when its images and log reach this
  // tick, and writes a synchronous bootstrap checkpoint only when they do
  // not (a lost log tail the peer replica still held), so a second crash
  // at any later point recovers to at least this tick. The old (crashed)
  // runner stays in place until the new engine opened -- an open failure
  // leaves the fleet exactly as FailoverShard found it, retryable.
  const auto resume_start = std::chrono::steady_clock::now();
  TP_ASSIGN_OR_RETURN(auto engine,
                      Engine::OpenResumed(shard_config, table, tick_));
  crashed_[partition] = 0;
  --crashed_count_;
  InstallShard(partition, std::move(engine));
  report.resume_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    resume_start)
          .count();
  last_failover_report_ = report;
  return Status::OK();
}

ShardedCheckpointStats ShardedEngine::CheckpointStats(bool skip_first) const {
  ShardedCheckpointStats stats;
  double total_sum = 0.0;
  double sync_sum = 0.0;
  double async_sum = 0.0;
  for (const auto& runner : runners_) {
    const auto& records = runner->engine().metrics().checkpoints;
    for (size_t r = skip_first ? 1 : 0; r < records.size(); ++r) {
      const EngineCheckpointRecord& record = records[r];
      ++stats.checkpoints;
      const double total = record.TotalSeconds();
      total_sum += total;
      sync_sum += record.sync_seconds;
      async_sum += record.async_seconds;
      if (total > stats.max_total_seconds) stats.max_total_seconds = total;
    }
  }
  if (stats.checkpoints > 0) {
    const double n = static_cast<double>(stats.checkpoints);
    stats.avg_total_seconds = total_sum / n;
    stats.avg_sync_seconds = sync_sum / n;
    stats.avg_async_seconds = async_sum / n;
  }
  return stats;
}

}  // namespace tickpoint
