// Integration tests spanning game -> engine -> crash -> recovery -> resume:
// the full lifecycle of a durable MMO shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "engine/engine.h"
#include "engine/mutator.h"
#include "engine/paths.h"
#include "engine/recovery.h"
#include "game/world.h"
#include "trace/zipf_source.h"

namespace tickpoint {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name = ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_dur_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Mirrors game writes into the engine (the durable_game_server wiring).
class EngineSink : public game::UpdateSink {
 public:
  explicit EngineSink(Engine* engine) : engine_(engine) {}
  void OnUpdate(game::UnitId unit, uint32_t attr, int32_t value) override {
    engine_->ApplyUpdate(unit * game::kNumAttributes + attr, value);
  }

 private:
  Engine* engine_;
};

game::WorldConfig SmallWorld() {
  game::WorldConfig config;
  config.num_units = 4000;
  config.map_size = 1024;
  config.spawn_radius = 420;
  config.seed = 99;
  return config;
}

TEST_F(DurabilityTest, GameStateSurvivesCrash) {
  game::World world(SmallWorld());
  EngineConfig config;
  config.layout = world.TraceLayout();
  config.algorithm = AlgorithmKind::kCopyOnUpdate;
  config.dir = dir_;
  config.fsync = false;
  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();

  // Tick 0: bulk-load the spawned world.
  engine.BeginTick();
  for (game::UnitId u = 0; u < world.num_units(); ++u) {
    for (uint32_t attr = 0; attr < game::kNumAttributes; ++attr) {
      engine.ApplyUpdate(u * game::kNumAttributes + attr,
                         world.units().Get(u, attr));
    }
  }
  ASSERT_TRUE(engine.EndTick().ok());

  // Battle with every write mirrored.
  EngineSink sink(&engine);
  world.set_sink(&sink);
  for (int t = 0; t < 60; ++t) {
    engine.BeginTick();
    world.Tick();
    ASSERT_TRUE(engine.EndTick().ok());
  }
  world.set_sink(nullptr);
  ASSERT_GT(engine.metrics().updates, 0u);

  const uint32_t lost = engine.state().Digest();
  ASSERT_TRUE(engine.SimulateCrash().ok());

  StateTable recovered(config.layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(recovered.Digest(), lost);
  // The recovered state must equal the game's own table, cell by cell.
  for (game::UnitId u = 0; u < world.num_units(); u += 37) {
    for (uint32_t attr = 0; attr < game::kNumAttributes; ++attr) {
      ASSERT_EQ(recovered.ReadCell(u * game::kNumAttributes + attr),
                world.units().Get(u, attr))
          << "unit " << u << " attr " << attr;
    }
  }
}

// The full lifecycle: run, crash, recover, RESUME on a new engine,
// continue the same trace, crash again, recover again. Final state must
// equal the uninterrupted reference execution.
class ResumeCycleTest : public DurabilityTest,
                        public ::testing::WithParamInterface<AlgorithmKind> {};

TEST_P(ResumeCycleTest, CrashRecoverResumeCrashRecover) {
  const AlgorithmKind kind = GetParam();
  const StateLayout layout = StateLayout::Small(2048, 10);
  ZipfTraceConfig trace;
  trace.layout = layout;
  trace.num_ticks = 60;
  trace.updates_per_tick = 250;
  trace.theta = 0.7;
  trace.seed = 5;

  EngineConfig config;
  config.layout = layout;
  config.algorithm = kind;
  config.dir = dir_;
  config.fsync = false;
  config.full_flush_period = 3;

  constexpr uint64_t kFirstCrash = 24;
  constexpr uint64_t kSecondCrash = 51;

  // Phase 1: run from scratch, crash at kFirstCrash.
  {
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok());
    ZipfUpdateSource source(trace);
    MutatorOptions options;
    options.crash_after_tick = kFirstCrash;
    auto report = RunWorkload(engine_or.value().get(), &source, options);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->crashed);
  }

  // Phase 2: recover and resume the SAME trace from the next tick.
  StateTable recovered(layout);
  {
    auto result = Recover(config, &recovered);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->recovered_ticks, kFirstCrash + 1);
  }
  {
    auto engine_or = Engine::OpenResumed(config, recovered, kFirstCrash + 1);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    EXPECT_EQ(engine_or.value()->current_tick(), kFirstCrash + 1);
    ZipfUpdateSource source(trace);
    MutatorOptions options;
    options.skip_ticks = kFirstCrash + 1;
    options.crash_after_tick = kSecondCrash;
    auto report = RunWorkload(engine_or.value().get(), &source, options);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->crashed);
  }

  // Phase 3: recover again; compare against the uninterrupted reference.
  StateTable final_state(layout);
  auto result = Recover(config, &final_state);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->recovered_ticks, kSecondCrash + 1);

  StateTable reference(layout);
  ZipfUpdateSource source(trace);
  ApplyWorkloadToTable(&source, kSecondCrash + 1, &reference);
  EXPECT_TRUE(final_state.ContentEquals(reference))
      << AlgorithmName(kind) << ": resumed run diverged from reference";
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ResumeCycleTest,
                         ::testing::ValuesIn(AllAlgorithms()),
                         [](const auto& info) {
                           std::string name =
                               GetTraits(info.param).short_name;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_F(DurabilityTest, GroupCommitWindowBoundsLoss) {
  // With sync_every = 8 the logical log may lose up to 7 ticks on a crash;
  // recovery must still produce a consistent prefix state.
  const StateLayout layout = StateLayout::Small(2048, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kCopyOnUpdate;
  config.dir = dir_;
  config.fsync = false;
  config.logical_sync_every = 8;

  ZipfTraceConfig trace;
  trace.layout = layout;
  trace.num_ticks = 40;
  trace.updates_per_tick = 200;
  trace.theta = 0.7;

  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  ZipfUpdateSource source(trace);
  MutatorOptions options;
  options.crash_after_tick = 29;
  auto report = RunWorkload(engine_or.value().get(), &source, options);
  ASSERT_TRUE(report.ok());

  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok());
  // SimulateCrash closes (and thereby syncs) the log, so in this harness
  // nothing is lost; the essential property is that the recovered tick
  // count never exceeds the crash point and the state matches the
  // reference at exactly that tick.
  ASSERT_LE(result->recovered_ticks, 30u);
  StateTable reference(layout);
  ZipfUpdateSource ref_source(trace);
  ApplyWorkloadToTable(&ref_source, result->recovered_ticks, &reference);
  EXPECT_TRUE(recovered.ContentEquals(reference));
}

TEST_F(DurabilityTest, RecoveringAMissingLogStoreDirectoryCreatesNothing) {
  // Recovery only reads: a log-organization shard whose directory does not
  // exist recovers to the zeroed state at tick 0 and leaves no directory.
  EngineConfig config;
  config.layout = StateLayout::Small(256, 10);
  config.algorithm = AlgorithmKind::kCopyOnUpdatePartialRedo;
  config.dir = dir_;
  config.fsync = false;
  ASSERT_FALSE(std::filesystem::exists(dir_));
  StateTable recovered(config.layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->restored_from_checkpoint);
  EXPECT_EQ(result->recovered_ticks, 0u);
  EXPECT_TRUE(recovered.ContentEquals(StateTable(config.layout)));
  EXPECT_FALSE(std::filesystem::exists(dir_));
}

/// The disk an OS crash leaves when the open logical-log segment's records
/// from tick `lost` on never reached stable storage (sealed segments were
/// synced when sealed): the segment cut back to its records below `lost`,
/// plus a torn fragment (a header and two bytes) of the first lost record,
/// which recovery must discard.
void LoseLogTicksFrom(const std::string& dir, uint64_t lost) {
  const std::string open = paths::LogicalLogPath(dir);
  auto kept_or = LogicalLog::Replay(open, 0, lost - 1, nullptr);
  ASSERT_TRUE(kept_or.ok());
  std::filesystem::resize_file(
      open, std::min<uint64_t>(std::filesystem::file_size(open),
                               kept_or->bytes + 18));
}

TEST_F(DurabilityTest, HardCrashBetweenGroupCommitsRecoversLastSyncedTick) {
  // logical_sync_every = 8 and a hard crash after 30 ticks: ticks 24..29
  // never reached stable storage, and a torn fragment of tick 24's record
  // is left on disk (built by file operations after the crash). With no
  // checkpoint image (manual mode, never scheduled) the logical log is the
  // only recovery source, so the recovery window is exactly the
  // group-commit window: Recover must land on tick 24 -- the last synced
  // group commit -- and must not apply the torn tail.
  const StateLayout layout = StateLayout::Small(512, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kCopyOnUpdate;
  config.dir = dir_;
  config.fsync = false;
  config.logical_sync_every = 8;
  config.manual_checkpoints = true;  // no image: recovery is log-only

  constexpr uint64_t kTicks = 30;
  constexpr uint64_t kSyncedTicks = 24;  // last group commit before 30
  constexpr uint64_t kUpdates = 120;
  const uint64_t num_cells = layout.num_cells();

  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  StateTable reference(layout);  // state at the last synced tick
  for (uint64_t tick = 0; tick < kTicks; ++tick) {
    engine.BeginTick();
    for (uint64_t i = 0; i < kUpdates; ++i) {
      const uint32_t cell = WorkloadCell(0, tick, i, num_cells);
      const int32_t value = WorkloadValue(tick, cell, i);
      engine.ApplyUpdate(cell, value);
      if (tick < kSyncedTicks) reference.WriteCell(cell, value);
    }
    ASSERT_TRUE(engine.EndTick().ok());
  }
  ASSERT_TRUE(engine.SimulateCrash().ok());
  LoseLogTicksFrom(dir_, kSyncedTicks);

  // Recovery lands exactly on the last group commit.
  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->restored_from_checkpoint);
  EXPECT_EQ(result->recovered_ticks, kSyncedTicks);
  EXPECT_TRUE(recovered.ContentEquals(reference));
}

TEST_F(DurabilityTest, HardCrashWithCheckpointsStaysWithinDurableSources) {
  // Same hard crash, now with back-to-back checkpoints running: the newest
  // complete image may cover ticks past the synced log (the image is its
  // own durable source), so recovery returns max(image, synced log) -- and
  // never a tick that reached neither.
  const StateLayout layout = StateLayout::Small(512, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kCopyOnUpdate;
  config.dir = dir_;
  config.fsync = false;
  config.logical_sync_every = 8;

  constexpr uint64_t kTicks = 30;
  constexpr uint64_t kSyncedTicks = 24;
  constexpr uint64_t kUpdates = 120;
  const uint64_t num_cells = layout.num_cells();

  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  for (uint64_t tick = 0; tick < kTicks; ++tick) {
    engine.BeginTick();
    for (uint64_t i = 0; i < kUpdates; ++i) {
      const uint32_t cell = WorkloadCell(0, tick, i, num_cells);
      engine.ApplyUpdate(cell, WorkloadValue(tick, cell, i));
    }
    ASSERT_TRUE(engine.EndTick().ok());
  }
  ASSERT_TRUE(engine.SimulateCrash().ok());
  LoseLogTicksFrom(dir_, kSyncedTicks);

  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->recovered_ticks, kSyncedTicks);
  EXPECT_LE(result->recovered_ticks, kTicks);

  // Whatever tick recovery landed on, the state is that tick's exact
  // prefix of the deterministic workload.
  StateTable reference(layout);
  for (uint64_t tick = 0; tick < result->recovered_ticks; ++tick) {
    for (uint64_t i = 0; i < kUpdates; ++i) {
      const uint32_t cell = WorkloadCell(0, tick, i, num_cells);
      reference.WriteCell(cell, WorkloadValue(tick, cell, i));
    }
  }
  EXPECT_TRUE(recovered.ContentEquals(reference));
}

TEST_F(DurabilityTest, FallsBackWhenNewestBackupCorrupted) {
  const StateLayout layout = StateLayout::Small(2048, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kNaiveSnapshot;
  config.dir = dir_;
  config.fsync = false;

  ZipfTraceConfig trace;
  trace.layout = layout;
  trace.num_ticks = 40;
  trace.updates_per_tick = 200;
  trace.theta = 0.7;

  uint32_t lost = 0;
  uint64_t newest_seq = 0;
  {
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok());
    ZipfUpdateSource source(trace);
    ASSERT_TRUE(RunWorkload(engine_or.value().get(), &source,
                            MutatorOptions{})
                    .ok());
    ASSERT_TRUE(engine_or.value()->Shutdown().ok());
    lost = engine_or.value()->state().Digest();
    newest_seq = engine_or.value()->metrics().checkpoints.back().seq;
  }

  // Smash the header of whichever backup holds the newest image.
  {
    auto store_or = BackupStore::Open(dir_, layout, false);
    ASSERT_TRUE(store_or.ok());
    int newest = -1;
    for (int i = 0; i < 2; ++i) {
      auto info = store_or.value()->Inspect(i);
      ASSERT_TRUE(info.ok());
      if (info->valid && info->seq == newest_seq) newest = i;
    }
    ASSERT_GE(newest, 0);
    FileWriter vandal;
    ASSERT_TRUE(
        vandal.OpenForUpdate(store_or.value()->path(newest)).ok());
    const uint64_t garbage = 0xDEADBEEFDEADBEEFULL;
    ASSERT_TRUE(vandal.WriteAt(8, &garbage, sizeof(garbage)).ok());
    ASSERT_TRUE(vandal.Close().ok());
  }

  // Recovery falls back to the older image and replays further -- ending
  // at the same final state.
  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->image_seq, newest_seq);
  EXPECT_EQ(recovered.Digest(), lost);
}

TEST_F(DurabilityTest, TornInPlaceWriteFallsBackToSibling) {
  // A crash mid-way through an in-place checkpoint: the newest image's
  // header is invalidated and half its objects carry bytes of a checkpoint
  // that never finished. No repair is needed -- the invalid header keeps
  // the torn image out of recovery, which lands on the sibling and replays
  // the logical log to the lost state.
  const StateLayout layout = StateLayout::Small(2048, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kCopyOnUpdate;
  config.dir = dir_;
  config.fsync = false;

  ZipfTraceConfig trace;
  trace.layout = layout;
  trace.num_ticks = 40;
  trace.updates_per_tick = 200;
  trace.theta = 0.7;

  uint32_t lost = 0;
  uint64_t newest_seq = 0;
  {
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok());
    ZipfUpdateSource source(trace);
    ASSERT_TRUE(RunWorkload(engine_or.value().get(), &source,
                            MutatorOptions{})
                    .ok());
    ASSERT_TRUE(engine_or.value()->Shutdown().ok());
    lost = engine_or.value()->state().Digest();
    newest_seq = engine_or.value()->metrics().checkpoints.back().seq;
  }

  {
    auto store_or = BackupStore::Open(dir_, layout, false);
    ASSERT_TRUE(store_or.ok());
    BackupStore& store = *store_or.value();
    int newest = -1;
    for (int i = 0; i < 2; ++i) {
      auto info = store.Inspect(i);
      ASSERT_TRUE(info.ok());
      if (info->valid && info->seq == newest_seq) newest = i;
    }
    ASSERT_GE(newest, 0);
    const uint64_t half = layout.num_objects() / 2;
    const std::vector<uint8_t> other(half * layout.object_size, 0xA5);
    ASSERT_TRUE(store.BeginCheckpoint(newest).ok());
    ASSERT_TRUE(store.WriteRange(newest, 0, other.data(), half).ok());
  }

  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->restored_from_checkpoint);
  EXPECT_LT(result->image_seq, newest_seq);
  EXPECT_EQ(recovered.Digest(), lost);
}

// ---- The resume bootstrap handoff (the dribble resume-cycle flake) ----
//
// OpenResumed truncates the logical log BEFORE writing its bootstrap
// checkpoint, so from that moment every checkpoint of the previous
// incarnation is poison: restoring one would skip the ticks between its
// consistent tick and the resume tick. These tests pin the required
// handoff ordering -- bootstrap durable first, stale state demoted second,
// and the bootstrap numbered ABOVE everything stale -- by crashing
// immediately after the resume, when the bootstrap is the only correct
// recovery source. Pre-fix, dribble's bootstrap restarted generation
// numbering at 0 under the stale pre-crash generations, and recovery's
// newest-generation scan silently rewound the shard (the ~2/30
// ResumeCycleTest dribble divergence: whether the stale generation
// outnumbered the resumed run's depended on writer-thread timing).

namespace {

/// Drives `engine` with the deterministic workload until it has finalized
/// `target` checkpoints (manual mode: each checkpoint is scheduled here and
/// completes while later ticks run). Returns the tick reached.
uint64_t RunUntilCheckpoints(Engine* engine, uint64_t target,
                             uint64_t updates_per_tick) {
  const uint64_t num_cells = engine->config().layout.num_cells();
  uint64_t scheduled = 0;
  for (int guard = 0; guard < 4096; ++guard) {
    if (engine->metrics().checkpoints.size() >= target) break;
    if (scheduled == engine->metrics().checkpoints.size() &&
        !engine->checkpoint_in_flight()) {
      engine->ScheduleCheckpoint();
      ++scheduled;
    }
    const uint64_t tick = engine->current_tick();
    engine->BeginTick();
    for (uint64_t i = 0; i < updates_per_tick; ++i) {
      const uint32_t cell = WorkloadCell(0, tick, i, num_cells);
      engine->ApplyUpdate(cell, WorkloadValue(tick, cell, i));
    }
    EXPECT_TRUE(engine->EndTick().ok());
  }
  EXPECT_GE(engine->metrics().checkpoints.size(), target);
  return engine->current_tick();
}

}  // namespace

TEST_F(DurabilityTest, ResumeBootstrapOutranksStaleLogGenerations) {
  const StateLayout layout = StateLayout::Small(1024, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kDribble;  // every checkpoint = new gen
  config.dir = dir_;
  config.fsync = false;
  config.manual_checkpoints = true;  // pin the checkpoint count exactly

  uint64_t crash_tick = 0;
  {
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok());
    // Exactly 3 completed checkpoints = dribble generations 0, 1, 2 on
    // disk: a bootstrap restarting at generation 0 is guaranteed to be
    // shadowed by a stale higher generation.
    crash_tick = RunUntilCheckpoints(engine_or.value().get(), 3, 150);
    ASSERT_TRUE(engine_or.value()->SimulateCrash().ok());
  }
  {
    auto store_or = LogStore::Open(dir_, layout, false);
    ASSERT_TRUE(store_or.ok());
    ASSERT_GE(store_or.value()->NextFreshGeneration(), 2u);
  }

  StateTable recovered(layout);
  {
    auto result = Recover(config, &recovered);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->recovered_ticks, crash_tick);
  }
  // Resume and crash before a single tick runs: the bootstrap image is now
  // the ONLY durable source that reaches the resume tick.
  {
    auto engine_or = Engine::OpenResumed(config, recovered, crash_tick);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    ASSERT_TRUE(engine_or.value()->SimulateCrash().ok());
  }
  StateTable after(layout);
  auto result = Recover(config, &after);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->recovered_ticks, crash_tick)
      << "recovery preferred a stale pre-resume generation";
  EXPECT_TRUE(after.ContentEquals(recovered));
}

TEST_F(DurabilityTest, ResumeBootstrapOutranksStaleBackupImages) {
  // The double-backup twin: the bootstrap must claim a seq above both
  // stale images and invalidate the sibling slot, or a crash in the window
  // before the first resumed checkpoint overwrites it would recover the
  // higher-seq pre-crash image instead of the bootstrap.
  const StateLayout layout = StateLayout::Small(1024, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kCopyOnUpdate;
  config.dir = dir_;
  config.fsync = false;
  config.manual_checkpoints = true;

  uint64_t crash_tick = 0;
  {
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok());
    // Exactly 3 completed checkpoints: seqs 0, 2 in slot 0 and seq 1 in
    // slot 1, so the newest STALE image sits in the slot the bootstrap
    // overwrites and the surviving sibling (seq 1) outnumbers a bootstrap
    // that naively restarts at seq 0.
    crash_tick = RunUntilCheckpoints(engine_or.value().get(), 3, 150);
    ASSERT_TRUE(engine_or.value()->SimulateCrash().ok());
  }
  {
    auto store_or = BackupStore::Open(dir_, layout, false);
    ASSERT_TRUE(store_or.ok());
    uint64_t max_seq = 0;
    for (int index = 0; index < 2; ++index) {
      auto info = store_or.value()->Inspect(index);
      ASSERT_TRUE(info.ok());
      if (info->valid) max_seq = std::max(max_seq, info->seq);
    }
    ASSERT_GE(max_seq, 1u);
  }

  StateTable recovered(layout);
  {
    auto result = Recover(config, &recovered);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->recovered_ticks, crash_tick);
  }
  {
    auto engine_or = Engine::OpenResumed(config, recovered, crash_tick);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    ASSERT_TRUE(engine_or.value()->SimulateCrash().ok());
  }
  StateTable after(layout);
  auto result = Recover(config, &after);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->recovered_ticks, crash_tick)
      << "recovery preferred a stale pre-resume backup image";
  EXPECT_TRUE(after.ContentEquals(recovered));
}

TEST_F(DurabilityTest, DeathInsideOpenResumedAfterBootstrapStaysRecoverable) {
  // The crash window INSIDE OpenResumed: the bootstrap must be made
  // durable BEFORE the previous incarnation's logical log is truncated.
  // This test forges the state a death between those two steps leaves
  // behind -- bootstrap committed, OLD logical log still on disk -- by
  // restoring a pre-resume copy of logical.log over the truncated one, and
  // proves recovery still lands exactly on the resume tick (the bootstrap
  // outranks everything; the old log's ticks all precede it and replay to
  // nothing). Under the pre-fix ordering (log truncated first, bootstrap
  // second) this window instead recovered a stale pre-resume image with
  // the intervening ticks silently missing.
  const StateLayout layout = StateLayout::Small(1024, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kDribble;
  config.dir = dir_;
  config.fsync = false;
  config.manual_checkpoints = true;

  uint64_t crash_tick = 0;
  {
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok());
    crash_tick = RunUntilCheckpoints(engine_or.value().get(), 3, 150);
    ASSERT_TRUE(engine_or.value()->SimulateCrash().ok());
  }
  const std::string log_path = paths::LogicalLogPath(dir_);
  const std::string saved_log = dir_ + "/logical.log.pre-resume";
  std::error_code ec;
  std::filesystem::copy_file(log_path, saved_log, ec);
  ASSERT_FALSE(ec);

  StateTable recovered(layout);
  {
    auto result = Recover(config, &recovered);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->recovered_ticks, crash_tick);
  }
  {
    auto engine_or = Engine::OpenResumed(config, recovered, crash_tick);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    ASSERT_TRUE(engine_or.value()->SimulateCrash().ok());
  }
  // Forge the mid-OpenResumed state: bootstrap durable, old log present.
  std::filesystem::copy_file(saved_log, log_path,
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  ASSERT_FALSE(ec);

  StateTable after(layout);
  auto result = Recover(config, &after);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->restored_from_checkpoint);
  EXPECT_EQ(result->recovered_ticks, crash_tick);
  EXPECT_TRUE(after.ContentEquals(recovered));
}

TEST_P(ResumeCycleTest, FreshOpenOverDirtyDirDiscardsStaleCheckpoints) {
  // The fresh-open sibling of the resume handoff: Engine::Open over a
  // directory a previous incarnation crashed in truncates the logical log,
  // so the stale checkpoints must be wiped -- otherwise an early crash of
  // the NEW run recovers a pre-crash image whose ticks the new log no
  // longer covers.
  const AlgorithmKind kind = GetParam();
  const StateLayout layout = StateLayout::Small(1024, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = kind;
  config.dir = dir_;
  config.fsync = false;
  config.manual_checkpoints = true;

  {
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok());
    RunUntilCheckpoints(engine_or.value().get(), 3, 150);
    ASSERT_TRUE(engine_or.value()->SimulateCrash().ok());
  }
  // New incarnation from tick 0 over the dirty directory: run ONE tick
  // with no checkpoint, crash. The only durable source reaching tick 1 is
  // the new logical log.
  StateTable reference(layout);
  {
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    Engine& engine = *engine_or.value();
    const uint64_t num_cells = layout.num_cells();
    engine.BeginTick();
    for (uint64_t i = 0; i < 150; ++i) {
      const uint32_t cell = WorkloadCell(0, 0, i, num_cells);
      engine.ApplyUpdate(cell, WorkloadValue(0, cell, i));
      reference.WriteCell(cell, WorkloadValue(0, cell, i));
    }
    ASSERT_TRUE(engine.EndTick().ok());
    ASSERT_TRUE(engine.SimulateCrash().ok());
  }
  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->restored_from_checkpoint)
      << "recovery restored a stale pre-incarnation checkpoint";
  EXPECT_EQ(result->recovered_ticks, 1u);
  EXPECT_TRUE(recovered.ContentEquals(reference));
}

TEST_F(DurabilityTest, RepeatedCrashesAtEveryEarlyTick) {
  // Exhaustive sweep over crash points in the critical early window (first
  // checkpoints in flight).
  const StateLayout layout = StateLayout::Small(1024, 10);
  ZipfTraceConfig trace;
  trace.layout = layout;
  trace.num_ticks = 12;
  trace.updates_per_tick = 150;
  trace.theta = 0.7;

  for (uint64_t crash = 0; crash < 12; ++crash) {
    const std::string dir = dir_ + "_t" + std::to_string(crash);
    std::filesystem::remove_all(dir);
    EngineConfig config;
    config.layout = layout;
    config.algorithm = AlgorithmKind::kCopyOnUpdate;
    config.dir = dir;
    config.fsync = false;
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok());
    ZipfUpdateSource source(trace);
    MutatorOptions options;
    options.crash_after_tick = crash;
    ASSERT_TRUE(RunWorkload(engine_or.value().get(), &source, options).ok());

    StateTable recovered(layout);
    auto result = Recover(config, &recovered);
    ASSERT_TRUE(result.ok()) << "crash@" << crash;
    EXPECT_EQ(result->recovered_ticks, crash + 1) << "crash@" << crash;
    EXPECT_TRUE(recovered.ContentEquals(engine_or.value()->state()))
        << "crash@" << crash;
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace tickpoint
