// Fleet-level resume: Fleet::Recover / Fleet::RecoverToCut read the whole
// K-shard fleet back from its root directory and RecoveredFleet::Resume
// restarts it in one call -- the workflow tests previously had to
// hand-roll per engine. The lifecycle under test: run -> crash -> recover
// -> fleet resume -> more ticks -> crash again -> recover again, with the
// final state byte-compared against an uninterrupted reference execution.
#include "engine/fleet.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "engine/mutator.h"
#include "engine/paths.h"
#include "engine/recovery.h"
#include "engine/sharded_engine.h"
#include "fleet_test_util.h"
#include "game/shard_adapter.h"

namespace tickpoint {
namespace {

StateLayout ShardLayout() { return StateLayout::Small(512, 10); }  // 40 objects

constexpr uint64_t kUpdatesPerTick = 150;

class FleetResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_resume_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ShardedEngineConfig Config(AlgorithmKind kind, uint32_t num_shards,
                             bool threaded = true) {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = kind;
    config.shard.dir = dir_;
    config.shard.fsync = false;  // simulated crashes: page cache is durable
    config.shard.full_flush_period = 3;
    config.num_shards = num_shards;
    config.checkpoint_period_ticks = 5;
    config.threaded = threaded;
    return config;
  }

  /// Drives `ticks` fleet ticks of the deterministic workload from the
  /// engine's CURRENT tick (so the same helper serves the original and the
  /// resumed incarnation), mirroring every update into `reference`.
  void RunTicks(ShardedEngine* engine, uint64_t ticks,
                std::vector<StateTable>* reference) {
    const uint64_t num_cells = ShardLayout().num_cells();
    if (reference->empty()) {
      for (uint32_t i = 0; i < engine->num_shards(); ++i) {
        reference->emplace_back(ShardLayout());
      }
    }
    for (uint64_t t = 0; t < ticks; ++t) {
      const uint64_t tick = engine->current_tick();
      engine->BeginTick();
      for (uint32_t shard = 0; shard < engine->num_shards(); ++shard) {
        for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
          const uint32_t cell = WorkloadCell(shard, tick, i, num_cells);
          const int32_t value = WorkloadValue(tick, cell, i);
          engine->ApplyUpdate(shard, cell, value);
          (*reference)[shard].WriteCell(cell, value);
        }
      }
      ASSERT_TRUE(engine->EndTick().ok());
    }
  }

  std::string dir_;
};

struct ResumeCase {
  AlgorithmKind kind;
  bool threaded;
};

class FleetResumeRoundTripTest
    : public FleetResumeTest,
      public ::testing::WithParamInterface<ResumeCase> {};

TEST_P(FleetResumeRoundTripTest, CrashResumeCrashRecover) {
  const ResumeCase param = GetParam();
  const auto config = Config(param.kind, 3, param.threaded);
  constexpr uint64_t kFirstCrash = 13;
  constexpr uint64_t kSecondCrash = 27;

  // Phase 1: run from scratch, crash after kFirstCrash + 1 fleet ticks.
  std::vector<StateTable> reference;
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    RunTicks(&fleet_or.value()->engine(), kFirstCrash + 1, &reference);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }

  // Phase 2: whole-fleet recovery from the root alone, then the one-call
  // fleet resume.
  {
    auto recovered_or = Fleet::Recover(config.shard.dir);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    ASSERT_EQ(recovered_or->result().fleet.min_recovered_ticks,
              kFirstCrash + 1);
    ASSERT_EQ(recovered_or->result().fleet.max_recovered_ticks,
              kFirstCrash + 1);
    ASSERT_EQ(recovered_or->resume_tick(), kFirstCrash + 1);
    auto fleet_or = recovered_or->Resume();
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ShardedEngine& engine = fleet_or.value()->engine();
    EXPECT_EQ(engine.current_tick(), kFirstCrash + 1);
    ASSERT_TRUE(engine.WaitForIdle().ok());
    for (uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(engine.shard(i).current_tick(), kFirstCrash + 1)
          << "shard " << i;
      EXPECT_TRUE(engine.shard(i).state().ContentEquals(reference[i]))
          << "shard " << i;
    }
    // Phase 3: continue the same deterministic workload, crash again.
    RunTicks(&engine, kSecondCrash - kFirstCrash, &reference);
    ASSERT_TRUE(engine.SimulateCrash().ok());
  }

  // Phase 4: recover again; the fleet must equal the uninterrupted
  // reference execution through kSecondCrash + 1 ticks.
  auto final_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(final_or.ok()) << final_or.status().ToString();
  const ShardedRecoveryResult& result = final_or->result().fleet;
  std::vector<StateTable>& final_state = final_or->tables();
  EXPECT_EQ(result.min_recovered_ticks, kSecondCrash + 1);
  EXPECT_EQ(result.max_recovered_ticks, kSecondCrash + 1);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(final_state[i].ContentEquals(reference[i]))
        << AlgorithmName(param.kind) << " shard " << i
        << " diverged after the resume";
  }
}

std::string ResumeCaseName(const ::testing::TestParamInfo<ResumeCase>& info) {
  std::string name = std::string(GetTraits(info.param.kind).short_name) +
                     (info.param.threaded ? "" : "_inline");
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOrganizations, FleetResumeRoundTripTest,
    ::testing::ValuesIn(std::vector<ResumeCase>{
        {AlgorithmKind::kCopyOnUpdate, true},
        {AlgorithmKind::kCopyOnUpdate, false},
        {AlgorithmKind::kCopyOnUpdatePartialRedo, true},
        {AlgorithmKind::kDribble, true},
        {AlgorithmKind::kNaiveSnapshot, true},
    }),
    ResumeCaseName);

TEST_F(FleetResumeTest, CrashImmediatelyAfterResumeRecoversTheBootstrap) {
  // The fleet twin of ResumeBootstrapOutranksStale*: crash before the
  // resumed fleet runs a single tick. Each shard's bootstrap checkpoint is
  // then the ONLY durable source reaching the resume tick -- a shard that
  // restarted its seq/generation numbering under the stale pre-crash files
  // would silently rewind.
  const auto config = Config(AlgorithmKind::kDribble, 2);
  std::vector<StateTable> reference;
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    RunTicks(&fleet_or.value()->engine(), 12, &reference);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  {
    auto recovered_or = Fleet::Recover(config.shard.dir);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    auto fleet_or = recovered_or->Resume();
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  auto after_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(after_or.ok()) << after_or.status().ToString();
  EXPECT_EQ(after_or->result().fleet.min_recovered_ticks, 12u);
  EXPECT_EQ(after_or->result().fleet.max_recovered_ticks, 12u);
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(after_or->tables()[i].ContentEquals(reference[i]))
        << "shard " << i;
  }
}

TEST_F(FleetResumeTest, ResumesFromAConsistentCut) {
  // Cut recovery + fleet resume: restore the whole fleet to the committed
  // cut tick T (discarding everything after it), resume at T + 1, and
  // re-run the discarded ticks. Because the workload is deterministic, the
  // re-run must land exactly on the uninterrupted reference.
  const auto config = Config(AlgorithmKind::kCopyOnUpdate, 3);
  std::vector<StateTable> reference;
  uint64_t cut_tick = 0;
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ShardedEngine& engine = fleet_or.value()->engine();
    RunTicks(&engine, 2, &reference);
    auto cut_or = engine.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
    cut_tick = cut_or.value();
    RunTicks(&engine, cut_tick + 1 - engine.current_tick(), &reference);
    ASSERT_TRUE(engine.CommitConsistentCut().ok());
    RunTicks(&engine, 5, &reference);  // ticks the cut restore discards
    ASSERT_TRUE(engine.SimulateCrash().ok());
  }
  const uint64_t crash_ticks = cut_tick + 1 + 5;

  auto at_cut_or = Fleet::RecoverToCut(config.shard.dir);
  ASSERT_TRUE(at_cut_or.ok()) << at_cut_or.status().ToString();
  ASSERT_TRUE(at_cut_or->at_cut());
  ASSERT_EQ(at_cut_or->result().cut_tick, cut_tick);
  ASSERT_EQ(at_cut_or->result().fleet.min_recovered_ticks, cut_tick + 1);
  ASSERT_EQ(at_cut_or->resume_tick(), cut_tick + 1);
  // Resume at T + 1 and replay the deterministic ticks the restore
  // discarded, then a few more.
  std::vector<StateTable> resumed_reference =
      SnapshotTables(at_cut_or->tables());
  {
    auto fleet_or = at_cut_or->Resume();
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ShardedEngine& engine = fleet_or.value()->engine();
    EXPECT_EQ(engine.current_tick(), cut_tick + 1);
    RunTicks(&engine, crash_ticks - (cut_tick + 1) + 3, &resumed_reference);
    ASSERT_TRUE(engine.SimulateCrash().ok());
  }
  auto final_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(final_or.ok()) << final_or.status().ToString();
  std::vector<StateTable>& final_state = final_or->tables();
  EXPECT_EQ(final_or->result().fleet.min_recovered_ticks, crash_ticks + 3);
  EXPECT_EQ(final_or->result().fleet.max_recovered_ticks, crash_ticks + 3);
  for (uint32_t i = 0; i < 3; ++i) {
    // The resumed run's own mirror and recovery agree...
    EXPECT_TRUE(final_state[i].ContentEquals(resumed_reference[i]))
        << "shard " << i;
  }
  // ...and the re-run of the discarded ticks reproduced the original
  // timeline exactly (reference holds the uninterrupted execution through
  // crash_ticks; the resumed run replayed those same ticks).
  // Rebuild the uninterrupted reference at crash_ticks + 3 by extending
  // the mirror deterministically.
  std::vector<StateTable> original_at_crash = SnapshotTables(reference);
  for (uint64_t tick = crash_ticks; tick < crash_ticks + 3; ++tick) {
    MirrorWorkloadTick(tick, kUpdatesPerTick, &original_at_crash);
  }
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(final_state[i].ContentEquals(original_at_crash[i]))
        << "shard " << i << " diverged from the uninterrupted timeline";
  }
}

TEST_F(FleetResumeTest, ResumedFleetCanCutAgain) {
  // A resumed fleet is a full citizen: it can arm and commit a NEW
  // consistent cut, and cut recovery then lands on the new cut, not any
  // pre-crash state.
  const auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
  std::vector<StateTable> reference;
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    RunTicks(&fleet_or.value()->engine(), 8, &reference);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }

  uint64_t cut_tick = 0;
  std::vector<StateTable> reference_at_cut;
  {
    auto recovered_or = Fleet::Recover(config.shard.dir);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    auto fleet_or = recovered_or->Resume();
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ShardedEngine& engine = fleet_or.value()->engine();
    auto cut_or = engine.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
    cut_tick = cut_or.value();
    EXPECT_GE(cut_tick, 8u);
    RunTicks(&engine, cut_tick + 1 - engine.current_tick(), &reference);
    reference_at_cut = SnapshotTables(reference);
    ASSERT_TRUE(engine.CommitConsistentCut().ok());
    RunTicks(&engine, 4, &reference);
    ASSERT_TRUE(engine.SimulateCrash().ok());
  }
  auto at_cut_or = Fleet::RecoverToCut(config.shard.dir);
  ASSERT_TRUE(at_cut_or.ok()) << at_cut_or.status().ToString();
  EXPECT_TRUE(at_cut_or->at_cut());
  EXPECT_EQ(at_cut_or->result().cut_tick, cut_tick);
  EXPECT_EQ(at_cut_or->result().fleet.min_recovered_ticks, cut_tick + 1);
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(at_cut_or->tables()[i].ContentEquals(reference_at_cut[i]))
        << "shard " << i;
  }
}

TEST_F(FleetResumeTest, ResumeValidatesTheShardCount) {
  // The shard-count validation lives behind RecoveredFleet::Resume: a
  // recovered fleet whose table vector was truncated (a caller mutating
  // tables() before resuming) must be refused, not half-resumed.
  const auto config = Config(AlgorithmKind::kCopyOnUpdate, 3);
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    std::vector<StateTable> reference;
    RunTicks(&fleet_or.value()->engine(), 3, &reference);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  auto recovered_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  recovered_or->tables().pop_back();
  auto fleet_or = recovered_or->Resume();
  EXPECT_EQ(fleet_or.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FleetResumeTest, CrashMidResumePreservesTheCutRestorePoint) {
  // The mid-resume death window: a fleet resume retires the cut manifest
  // only after EVERY shard's bootstrap is durable. Forge a death between
  // shard 0's bootstrap and shard 1's (doctor shard 1's recovered table so
  // its Engine::OpenResumed fails after shard 0's bootstrap landed):
  // because the fleet was being resumed from the cut itself, shard 0's
  // bootstrap IS a valid image at the cut, and Fleet::RecoverToCut must
  // still reproduce the fleet-consistent state at the cut exactly.
  // Pre-fix, the manifest was removed before any bootstrap, so this window
  // silently downgraded the fleet to inconsistent per-shard recovery.
  const auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
  std::vector<StateTable> reference;
  uint64_t cut_tick = 0;
  std::vector<StateTable> reference_at_cut;
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ShardedEngine& engine = fleet_or.value()->engine();
    RunTicks(&engine, 1, &reference);
    auto cut_or = engine.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok());
    cut_tick = cut_or.value();
    RunTicks(&engine, cut_tick + 1 - engine.current_tick(), &reference);
    reference_at_cut = SnapshotTables(reference);
    ASSERT_TRUE(engine.CommitConsistentCut().ok());
    RunTicks(&engine, 4, &reference);
    ASSERT_TRUE(engine.SimulateCrash().ok());
  }
  {
    // Drive the REAL resume into a mid-loop abort: shard 0's table is
    // correct (its bootstrap gets written), shard 1's has the wrong layout
    // (its Engine::OpenResumed fails), so the resume dies between the two
    // bootstraps -- the same on-disk state a process death there leaves.
    auto at_cut_or = Fleet::RecoverToCut(config.shard.dir);
    ASSERT_TRUE(at_cut_or.ok()) << at_cut_or.status().ToString();
    ASSERT_TRUE(at_cut_or->at_cut());
    at_cut_or->tables()[1] = StateTable(StateLayout::Small(256, 10));
    auto fleet_or = at_cut_or->Resume();
    ASSERT_FALSE(fleet_or.ok());
    EXPECT_EQ(fleet_or.status().code(), StatusCode::kInvalidArgument);
  }
  auto recovered_or = Fleet::RecoverToCut(config.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_TRUE(recovered_or->at_cut())
      << "the cut restore point was destroyed mid-resume";
  EXPECT_EQ(recovered_or->result().cut_tick, cut_tick);
  EXPECT_EQ(recovered_or->result().fleet.min_recovered_ticks, cut_tick + 1);
  EXPECT_EQ(recovered_or->result().fleet.max_recovered_ticks, cut_tick + 1);
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(recovered_or->tables()[i].ContentEquals(reference_at_cut[i]))
        << "shard " << i;
  }
}

TEST_F(FleetResumeTest, MidResumeCrashWithOlderCutStillLandsOnTheCut) {
  // The other mid-resume window: the fleet is resumed from a PLAIN crash
  // recovery (first_tick past the committed cut) and dies after shard 0
  // resumed. The resume continued shard 0's chain instead of truncating
  // it, and no second checkpoint retired the cut image on either shard, so
  // the still-present manifest lands the whole fleet on the cut exactly --
  // not half-applied, and not Corruption.
  const auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
  std::vector<StateTable> reference;
  std::vector<StateTable> reference_at_cut;
  uint64_t cut_tick = 0;
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ShardedEngine& engine = fleet_or.value()->engine();
    RunTicks(&engine, 1, &reference);
    auto cut_or = engine.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok());
    cut_tick = cut_or.value();
    RunTicks(&engine, cut_tick + 1 - engine.current_tick(), &reference);
    reference_at_cut = SnapshotTables(reference);
    ASSERT_TRUE(engine.CommitConsistentCut().ok());
    RunTicks(&engine, 5, &reference);  // one checkpoint period past the cut
    ASSERT_TRUE(engine.SimulateCrash().ok());
  }
  auto crash_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(crash_or.ok()) << crash_or.status().ToString();
  const uint64_t resume_tick = crash_or->resume_tick();
  {
    // Shard 0 resumes at the crash tick (not the cut), then death before
    // shard 1 starts.
    EngineConfig shard0 = config.shard;
    shard0.dir = paths::ShardDir(config.shard.dir, 0);
    shard0.manual_checkpoints = true;
    auto engine_or =
        Engine::OpenResumed(shard0, crash_or->tables()[0], resume_tick);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    ASSERT_TRUE(engine_or.value()->SimulateCrash().ok());
  }
  ASSERT_TRUE(LiveImagesReach(config.shard.dir, cut_tick));
  auto after_or = Fleet::RecoverToCut(config.shard.dir);
  ASSERT_TRUE(after_or.ok()) << after_or.status().ToString();
  EXPECT_TRUE(after_or->at_cut());
  EXPECT_EQ(after_or->result().fleet.min_recovered_ticks, cut_tick + 1);
  EXPECT_EQ(after_or->result().fleet.max_recovered_ticks, cut_tick + 1);
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(after_or->tables()[i].ContentEquals(reference_at_cut[i]))
        << "shard " << i;
  }
  // And latest recovery still reaches the crash tick on both shards.
  auto latest_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(latest_or.ok()) << latest_or.status().ToString();
  EXPECT_EQ(latest_or->result().fleet.min_recovered_ticks, resume_tick);
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(latest_or->tables()[i].ContentEquals(reference[i]))
        << "shard " << i;
  }
}

TEST_F(FleetResumeTest, ResumeRetiresThePreCrashCutManifest) {
  // A cut committed BEFORE the crash must not survive the resume: the
  // resumed incarnation truncates the logical logs that cut depended on,
  // so Fleet::RecoverToCut after a post-resume crash must fall back to
  // per-shard exactness instead of half-applying the stale manifest.
  const auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
  std::vector<StateTable> reference;
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ShardedEngine& engine = fleet_or.value()->engine();
    RunTicks(&engine, 1, &reference);
    auto cut_or = engine.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok());
    RunTicks(&engine, cut_or.value() + 1 - engine.current_tick(), &reference);
    ASSERT_TRUE(engine.CommitConsistentCut().ok());
    RunTicks(&engine, 3, &reference);
    ASSERT_TRUE(engine.SimulateCrash().ok());
  }
  auto crash_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(crash_or.ok()) << crash_or.status().ToString();
  const uint64_t resume_tick = crash_or->resume_tick();
  {
    auto fleet_or = crash_or->Resume();
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    RunTicks(&fleet_or.value()->engine(), 2, &reference);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  auto after_or = Fleet::RecoverToCut(config.shard.dir);
  ASSERT_TRUE(after_or.ok()) << after_or.status().ToString();
  EXPECT_FALSE(after_or->at_cut())
      << "recovery honored a cut manifest from before the resume";
  EXPECT_EQ(after_or->result().fleet.min_recovered_ticks, resume_tick + 2);
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(after_or->tables()[i].ContentEquals(reference[i]))
        << "shard " << i;
  }
}

// ---- Game-level resume: the same battle, bit for bit ----

TEST_F(FleetResumeTest, ResumedBattleContinuesBitIdentically) {
  // The regression this pins: resuming a zone used to rebuild the unit
  // table but RESEED the world's RNG and resample its active set, so the
  // resumed battle silently diverged from the uncrashed one on the first
  // post-resume rotation. The World now serializes its RNG, active-set,
  // and tick bookkeeping through the partition's system rows, so a
  // crash + Fleet::Recover + GameShardAdapter::OpenResumed continues the
  // SAME battle: after M more ticks, every zone digest must equal the
  // golden (never-crashed) run at the same world tick -- including the
  // cross-zone morale pipeline, whose kill tally also rides the system
  // rows.
  game::GameShardAdapterConfig config;
  config.zone_world.num_units = 64;
  config.zone_world.map_size = 256;
  config.zone_world.bucket_shift = 5;
  config.zone_world.spawn_radius = 100;
  config.zone_world.seed = 4321;
  config.engine = Config(AlgorithmKind::kCopyOnUpdate, 2);
  constexpr uint64_t kCrashTicks = 9;  // engine ticks before the crash
  constexpr uint64_t kMoreTicks = 7;   // engine ticks after the resume
  const auto golden = game::GameShardAdapter::GoldenZoneDigests(
      config, kCrashTicks - 1 + kMoreTicks);

  {
    auto adapter_or = game::GameShardAdapter::Open(config);
    ASSERT_TRUE(adapter_or.ok()) << adapter_or.status().ToString();
    ASSERT_TRUE(adapter_or.value()->RunTicks(kCrashTicks).ok());
    for (uint32_t z = 0; z < 2; ++z) {
      ASSERT_EQ(adapter_or.value()->ZoneDigest(z), golden[kCrashTicks - 1][z])
          << "pre-crash zone " << z << " already off the golden timeline";
    }
    ASSERT_TRUE(adapter_or.value()->fleet()->SimulateCrash().ok());
  }

  auto recovered_or = Fleet::Recover(config.engine.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  ASSERT_EQ(recovered_or->resume_tick(), kCrashTicks);
  auto resumed_or = game::GameShardAdapter::OpenResumed(
      config, std::move(recovered_or).value());
  ASSERT_TRUE(resumed_or.ok()) << resumed_or.status().ToString();
  game::GameShardAdapter& resumed = *resumed_or.value();
  EXPECT_EQ(resumed.engine_ticks(), kCrashTicks);
  EXPECT_EQ(resumed.world_ticks(), kCrashTicks - 1);
  for (uint32_t z = 0; z < 2; ++z) {
    EXPECT_EQ(resumed.ZoneDigest(z), golden[kCrashTicks - 1][z])
        << "resumed zone " << z << " does not match the crash point";
  }
  ASSERT_TRUE(resumed.RunTicks(kMoreTicks).ok());
  for (uint32_t z = 0; z < 2; ++z) {
    EXPECT_EQ(resumed.ZoneDigest(z), golden[kCrashTicks - 1 + kMoreTicks][z])
        << "zone " << z << " diverged after the resume: the battle did not "
           "continue bit-identically";
  }
  // The resumed fleet's durability is intact too: crash again and the
  // recovered tables digest-match the live (golden) worlds.
  ASSERT_TRUE(resumed.fleet()->SimulateCrash().ok());
  auto again_or = Fleet::Recover(config.engine.shard.dir);
  ASSERT_TRUE(again_or.ok()) << again_or.status().ToString();
  ASSERT_EQ(again_or->resume_tick(), kCrashTicks + kMoreTicks);
  for (uint32_t z = 0; z < 2; ++z) {
    EXPECT_EQ(game::TableStateDigest(again_or->tables()[z],
                                     config.zone_world.num_units),
              golden[kCrashTicks - 1 + kMoreTicks][z])
        << "zone " << z;
  }
}

TEST_F(FleetResumeTest, GameResumeValidatesShapeAndSystemRows) {
  game::GameShardAdapterConfig config;
  config.zone_world.num_units = 64;
  config.zone_world.map_size = 256;
  config.zone_world.bucket_shift = 5;
  config.zone_world.spawn_radius = 100;
  config.zone_world.seed = 99;
  config.engine = Config(AlgorithmKind::kCopyOnUpdate, 2);
  {
    auto adapter_or = game::GameShardAdapter::Open(config);
    ASSERT_TRUE(adapter_or.ok()) << adapter_or.status().ToString();
    ASSERT_TRUE(adapter_or.value()->RunTicks(5).ok());
    ASSERT_TRUE(adapter_or.value()->fleet()->SimulateCrash().ok());
  }
  {
    // A different zone shape must be refused, not silently misread.
    auto recovered_or = Fleet::Recover(config.engine.shard.dir);
    ASSERT_TRUE(recovered_or.ok());
    game::GameShardAdapterConfig wrong = config;
    wrong.zone_world.num_units = 128;
    auto resumed_or = game::GameShardAdapter::OpenResumed(
        wrong, std::move(recovered_or).value());
    EXPECT_EQ(resumed_or.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Clobbered system rows surface as Corruption (here: the recovered
    // world-tick cell disagrees with the recovery tick).
    auto recovered_or = Fleet::Recover(config.engine.shard.dir);
    ASSERT_TRUE(recovered_or.ok());
    const uint32_t base = config.zone_world.num_units * game::kNumAttributes;
    recovered_or->tables()[0].WriteCell(base + 8, 1000);  // world-tick cell
    auto resumed_or = game::GameShardAdapter::OpenResumed(
        config, std::move(recovered_or).value());
    EXPECT_EQ(resumed_or.status().code(), StatusCode::kCorruption);
  }
}

}  // namespace
}  // namespace tickpoint
