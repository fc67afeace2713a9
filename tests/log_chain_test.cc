// The segmented logical log end to end (engine/logical_log.h). Three
// layers under test:
//
//   1. BoundedLogTest -- a K=2 fleet runs 4500 ticks (ten times the steady
//      benchmark's 450 paced ticks; TP_LOG_SOAK_TICKS stretches it) under
//      both disk organizations, retention on and off. After every
//      completed checkpoint the shard's live chain stays within two
//      checkpoint periods of records (double backup) or the current log
//      generation's span (log store), and history within the policy's
//      bound; the run still recovers exactly.
//   2. ChainCrashStateTest -- the disk states a crash can leave between two
//      steps of a rotation, a retirement, an in-place truncation and a
//      resume, each built with file operations on a copy of a crashed
//      fleet. Every state recovers (latest, cut, point in time) to the
//      golden per-tick states, advertises no tick it cannot restore, and
//      resumes cleanly.
//   3. BootstrapTest -- a resume writes a bootstrap image only where the
//      live stores cannot reproduce its tick: crash restart and failover
//      (peer memory or disk) continue the chain; migration to a new
//      directory and a point-in-time landing below a live image bootstrap.
#include "engine/logical_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "engine/checkpoint_store.h"
#include "engine/fleet.h"
#include "engine/history.h"
#include "engine/paths.h"
#include "fleet_test_util.h"
#include "util/io.h"

namespace tickpoint {
namespace {

StateLayout ShardLayout() { return StateLayout::Small(256, 10); }

constexpr uint64_t kUpdatesPerTick = 40;
constexpr uint64_t kPeriod = 8;
constexpr uint64_t kFullFlushPeriod = 3;
/// Bytes of one tick's logical record: header, updates, CRC.
constexpr uint64_t kRecordBytes = 16 + 8 * kUpdatesPerTick + 4;

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uint64_t bytes = std::filesystem::file_size(path, ec);
  return ec ? 0 : bytes;
}

/// Bytes of a directory's live chain: sealed segments plus the open one.
uint64_t LiveChainBytes(const std::string& dir) {
  auto chain_or = LogicalLog::LiveChain(dir);
  TP_CHECK_OK(chain_or.status());
  uint64_t bytes = FileBytes(paths::LogicalLogPath(dir));
  for (const LogSegment& segment : chain_or.value()) {
    if (segment.path != paths::LogicalLogPath(dir)) {
      bytes += FileBytes(segment.path);
    }
  }
  return bytes;
}

void CopyTree(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

class LogChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_chain_" + name))
               .string();
    std::filesystem::remove_all(dir_);
    for (uint32_t i = 0; i < 2; ++i) reference_.emplace_back(ShardLayout());
  }
  void TearDown() override {
    for (const char* suffix : {"", "-a", "-state"}) {
      std::filesystem::remove_all(dir_ + suffix);
    }
  }

  ShardedEngineConfig Config(AlgorithmKind kind, bool retention) {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = kind;
    config.shard.fsync = false;  // simulated crashes: page cache is durable
    config.shard.full_flush_period = kFullFlushPeriod;
    config.shard.retention.enabled = retention;
    config.shard.retention.max_generations = 3;
    config.num_shards = 2;
    config.checkpoint_period_ticks = kPeriod;
    config.threaded = true;
    return config;
  }

  /// One fleet tick of the deterministic workload, in-flight checkpoints
  /// reaped first (so starts land on schedule), mirrored into reference_
  /// and per_tick_[tick].
  void Tick(Fleet* fleet) {
    ASSERT_TRUE(ReapCheckpoints(&fleet->engine()).ok());
    const uint64_t tick = fleet->current_tick();
    const uint64_t num_cells = ShardLayout().num_cells();
    fleet->BeginTick();
    for (uint32_t p = 0; p < 2; ++p) {
      for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
        const uint32_t cell = WorkloadCell(p, tick, i, num_cells);
        fleet->ApplyUpdate(p, cell, WorkloadValue(tick, cell, i));
      }
    }
    ASSERT_TRUE(fleet->EndTick().ok());
    MirrorWorkloadTick(tick, kUpdatesPerTick, &reference_);
    if (per_tick_.size() <= tick) per_tick_.resize(tick + 1);
    per_tick_[tick] = SnapshotTables(reference_);
  }

  /// Ticks (reaping as it goes) until partition `p` completed one more
  /// checkpoint; leaves every checkpoint reaped.
  void TickUntilNextCheckpoint(Fleet* fleet, uint32_t p) {
    const size_t done = fleet->engine().shard(p).metrics().checkpoints.size();
    for (int guard = 0; guard < 64; ++guard) {
      Tick(fleet);
      ASSERT_TRUE(ReapCheckpoints(&fleet->engine()).ok());
      if (fleet->engine().shard(p).metrics().checkpoints.size() > done) {
        return;
      }
    }
    FAIL() << "partition " << p << " completed no checkpoint";
  }

  void ExpectTables(const std::vector<StateTable>& tables, uint64_t tick) {
    ASSERT_LT(tick, per_tick_.size());
    ASSERT_EQ(tables.size(), per_tick_[tick].size());
    for (uint32_t p = 0; p < tables.size(); ++p) {
      EXPECT_EQ(tables[p].Digest(), per_tick_[tick][p].Digest())
          << "partition " << p << " at tick " << tick;
    }
  }

  std::string dir_;
  std::vector<StateTable> reference_;
  std::vector<std::vector<StateTable>> per_tick_;
  uint64_t cut_tick_ = 0;
};

// ---- 1. The live chain and history stay bounded ----

struct BoundCase {
  AlgorithmKind kind;
  bool retention;
};

class BoundedLogTest : public LogChainTest,
                       public ::testing::WithParamInterface<BoundCase> {};

TEST_P(BoundedLogTest, LiveChainAndHistoryStayBounded) {
  uint64_t ticks = 4500;
  if (const char* soak = std::getenv("TP_LOG_SOAK_TICKS")) {
    ticks = std::max<uint64_t>(std::strtoull(soak, nullptr, 10), 100);
  }
  const auto config = Config(GetParam().kind, GetParam().retention);
  const bool backup =
      GetTraits(config.shard.algorithm).disk == DiskOrganization::kDoubleBackup;
  const uint64_t max_generations = config.shard.retention.max_generations;
  const uint64_t image_bytes = 48 + StateTable(ShardLayout()).buffer_bytes();
  // Generation images, plus whole segments from the one straddling the
  // window base up to the live floor.
  const uint64_t history_bound = max_generations * image_bytes +
                                 (max_generations + 1) * kPeriod * kRecordBytes;

  auto fleet_or = Fleet::Create(dir_, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  std::vector<size_t> seen(2, 0);
  uint64_t checks = 0;
  for (uint64_t t = 0; t < ticks; ++t) {
    Tick(&fleet);
    ASSERT_TRUE(ReapCheckpoints(&fleet.engine()).ok());
    const uint64_t now = fleet.current_tick();  // ticks [0, now) ran
    for (uint32_t p = 0; p < 2; ++p) {
      const size_t done = fleet.engine().shard(p).metrics().checkpoints.size();
      if (done == seen[p]) continue;
      seen[p] = done;
      ++checks;
      const std::string dir = paths::ShardDir(dir_, p);
      const uint64_t live = LiveChainBytes(dir);
      if (backup) {
        EXPECT_LE(live, (2 * kPeriod + 1) * kRecordBytes)
            << "partition " << p << " after " << now << " ticks";
      } else {
        auto store_or =
            LogStore::Open(dir, ShardLayout(), false, /*writable=*/false);
        ASSERT_TRUE(store_or.ok());
        auto segments_or = store_or.value()->RestorableSegments();
        ASSERT_TRUE(segments_or.ok());
        ASSERT_FALSE(segments_or->empty());
        const uint64_t base = segments_or->front().consistent_tick;
        EXPECT_LE(live, (now - base + 1) * kRecordBytes)
            << "partition " << p << " after " << now << " ticks";
        EXPECT_LE(live, ((kFullFlushPeriod + 1) * kPeriod + 1) * kRecordBytes)
            << "partition " << p << " after " << now << " ticks";
      }
      if (config.shard.retention.enabled) {
        auto index_or = ShardHistory::ReadIndex(dir);
        ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
        EXPECT_LE(index_or->TotalBytes(), history_bound)
            << "partition " << p << " after " << now << " ticks";
        EXPECT_LE(index_or->generations.size(), max_generations);
      } else {
        EXPECT_FALSE(std::filesystem::exists(paths::HistoryDir(dir)));
      }
      if (HasFailure()) return;
    }
  }
  EXPECT_GE(checks, 2 * (ticks / kPeriod - 1));
  // The bounded chain still recovers the crash tick exactly.
  ASSERT_TRUE(fleet.SimulateCrash().ok());
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(recovered_or->result().fleet.min_recovered_ticks, ticks);
  ExpectTables(recovered_or->tables(), ticks - 1);
}

INSTANTIATE_TEST_SUITE_P(
    BothOrganizations, BoundedLogTest,
    ::testing::Values(BoundCase{AlgorithmKind::kCopyOnUpdate, false},
                      BoundCase{AlgorithmKind::kCopyOnUpdate, true},
                      BoundCase{AlgorithmKind::kCopyOnUpdatePartialRedo, false},
                      BoundCase{AlgorithmKind::kCopyOnUpdatePartialRedo, true}),
    [](const auto& info) {
      return std::string(info.param.kind == AlgorithmKind::kCopyOnUpdate
                             ? "backup"
                             : "log") +
             (info.param.retention ? "_retention" : "_no_retention");
    });

// ---- 2. Intermediate crash states ----

class ChainCrashStateTest : public LogChainTest {
 protected:
  /// Every crash state's bar: latest recovery lands exactly on
  /// `latest_ticks`; cut recovery lands on the committed cut or falls back
  /// to latest; every tick the window advertises restores exactly; the
  /// tick below it restores exactly or falls back. Returns whether the cut
  /// was reached.
  bool ExpectGolden(const std::string& root, uint64_t latest_ticks) {
    auto latest_or = Fleet::Recover(root);
    EXPECT_TRUE(latest_or.ok()) << latest_or.status().ToString();
    if (!latest_or.ok()) return false;
    EXPECT_EQ(latest_or->result().fleet.min_recovered_ticks, latest_ticks);
    EXPECT_EQ(latest_or->result().fleet.max_recovered_ticks, latest_ticks);
    ExpectTables(latest_or->tables(), latest_ticks - 1);

    auto cut_or = Fleet::RecoverToCut(root);
    EXPECT_TRUE(cut_or.ok()) << cut_or.status().ToString();
    if (!cut_or.ok()) return false;
    const bool at_cut = cut_or->at_cut();
    if (at_cut) {
      EXPECT_EQ(cut_or->result().cut_tick, cut_tick_);
      ExpectTables(cut_or->tables(), cut_tick_);
    } else {
      ExpectTables(cut_or->tables(), latest_ticks - 1);
    }

    auto window_or = Fleet::RestorableWindow(root);
    EXPECT_TRUE(window_or.ok()) << window_or.status().ToString();
    if (!window_or.ok() || !window_or->any) return at_cut;
    EXPECT_EQ(window_or->high_tick, latest_ticks - 1);
    for (uint64_t t = window_or->low_tick; t <= window_or->high_tick; ++t) {
      SCOPED_TRACE("advertised tick " + std::to_string(t));
      auto at_or = Fleet::RecoverToTick(root, t);
      EXPECT_TRUE(at_or.ok()) << at_or.status().ToString();
      if (!at_or.ok()) continue;
      EXPECT_TRUE(at_or->at_requested_tick());
      ExpectTables(at_or->tables(), t);
    }
    if (window_or->low_tick > 0) {
      const uint64_t below = window_or->low_tick - 1;
      auto below_or = Fleet::RecoverToTick(root, below);
      EXPECT_TRUE(below_or.ok()) << below_or.status().ToString();
      if (below_or.ok()) {
        ExpectTables(below_or->tables(), below_or->at_requested_tick()
                                             ? below
                                             : latest_ticks - 1);
      }
    }
    return at_cut;
  }

  /// A crash state must also resume cleanly: Fleet::Open, more ticks, a
  /// crash, and latest recovery equal to the workload continued from the
  /// resume tick.
  void ExpectResumes(const std::string& root, uint64_t latest_ticks) {
    std::vector<StateTable> expected =
        SnapshotTables(per_tick_[latest_ticks - 1]);
    {
      auto fleet_or = Fleet::Open(root);
      ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
      Fleet& fleet = *fleet_or.value();
      ASSERT_EQ(fleet.current_tick(), latest_ticks);
      const uint64_t num_cells = ShardLayout().num_cells();
      for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(ReapCheckpoints(&fleet.engine()).ok());
        const uint64_t tick = fleet.current_tick();
        fleet.BeginTick();
        for (uint32_t p = 0; p < 2; ++p) {
          for (uint64_t u = 0; u < kUpdatesPerTick; ++u) {
            const uint32_t cell = WorkloadCell(p, tick, u, num_cells);
            fleet.ApplyUpdate(p, cell, WorkloadValue(tick, cell, u));
          }
        }
        ASSERT_TRUE(fleet.EndTick().ok());
        MirrorWorkloadTick(tick, kUpdatesPerTick, &expected);
      }
      ASSERT_TRUE(fleet.SimulateCrash().ok());
    }
    auto recovered_or = Fleet::Recover(root);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    EXPECT_EQ(recovered_or->result().fleet.min_recovered_ticks,
              latest_ticks + 12);
    for (uint32_t p = 0; p < 2; ++p) {
      EXPECT_EQ(recovered_or->tables()[p].Digest(), expected[p].Digest())
          << "partition " << p << " after the resumed run";
    }
  }

  /// Cuts the live chain of `dir` back to the records below `tick` the way
  /// a resume retires a future, by hand: later sealed segments deleted, the
  /// segment holding `tick` truncated at its record boundary, the open
  /// segment sealed under its first tick's name.
  static void CutLiveChain(const std::string& dir, uint64_t tick) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      uint64_t first = 0;
      const bool sealed = paths::ParseSealedLogFileName(name, &first);
      if (!sealed && name != paths::LogicalLogFileName()) continue;
      const std::string path = entry.path().string();
      auto kept_or = LogicalLog::Replay(path, 0, tick - 1, nullptr);
      ASSERT_TRUE(kept_or.ok());
      if (kept_or->records_applied == 0) {
        std::filesystem::remove(path);
        continue;
      }
      std::filesystem::resize_file(path, kept_or->bytes);
      if (!sealed) {
        std::filesystem::rename(
            path, dir + "/" + paths::SealedLogFileName(kept_or->first_tick));
      }
    }
  }
};

TEST_F(ChainCrashStateTest, EveryIntermediateStateRecoversToTheGoldenTicks) {
  auto config = Config(AlgorithmKind::kCopyOnUpdate, /*retention=*/true);
  config.shard.retention.max_generations = 8;  // keeps the cut in history
  const std::string shard0 = paths::ShardDir(dir_, 0);
  const std::string snapshot_a = dir_ + "-a";
  uint64_t crash_ticks = 0;
  uint64_t newest_image = 0;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    for (int i = 0; i < 12; ++i) Tick(&fleet);
    auto cut_or = fleet.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
    cut_tick_ = cut_or.value();
    while (fleet.current_tick() <= cut_tick_) Tick(&fleet);
    ASSERT_TRUE(fleet.CommitConsistentCut().ok());
    for (int i = 0; i < 10; ++i) Tick(&fleet);
    // Snapshot A: partition 0 right after one checkpoint completed; then
    // exactly one more completes (retiring a segment) before the crash.
    TickUntilNextCheckpoint(&fleet, 0);
    ASSERT_TRUE(fleet.WaitForIdle().ok());
    CopyTree(shard0, snapshot_a);
    TickUntilNextCheckpoint(&fleet, 0);
    for (int i = 0; i < 3; ++i) Tick(&fleet);
    ASSERT_TRUE(ReapCheckpoints(&fleet.engine()).ok());
    for (uint32_t p = 0; p < 2; ++p) {
      const auto& records = fleet.engine().shard(p).metrics().checkpoints;
      newest_image =
          std::max(newest_image, records.back().consistent_ticks);
    }
    crash_ticks = fleet.current_tick();
    ASSERT_TRUE(fleet.SimulateCrash().ok());
  }
  ASSERT_LT(newest_image, crash_ticks);

  // The segments partition 0's last retirement took over: in B's index,
  // not in A's.
  auto index_a_or = ShardHistory::ReadIndex(snapshot_a);
  auto index_b_or = ShardHistory::ReadIndex(shard0);
  ASSERT_TRUE(index_a_or.ok() && index_b_or.ok());
  std::vector<HistoryIndex::Segment> adopted;
  for (const auto& seg : index_b_or->segments) {
    if (std::none_of(index_a_or->segments.begin(),
                     index_a_or->segments.end(),
                     [&](const auto& s) { return s.id == seg.id; })) {
      adopted.push_back(seg);
    }
  }
  ASSERT_FALSE(adopted.empty()) << "the last checkpoint retired no segment";
  const std::string history_a = paths::HistoryDir(snapshot_a);
  const std::string history_b = paths::HistoryDir(shard0);
  auto restore_live_copies = [&](const std::string& shard) {
    for (const auto& seg : adopted) {
      std::filesystem::copy_file(
          history_b + "/" + paths::HistorySegmentFileName(seg.id),
          shard + "/" + paths::SealedLogFileName(seg.first_tick));
    }
  };
  // History files the last commit deleted (compaction drops), restored as
  // the orphans a crash before the deletes leaves.
  auto restore_deleted_history = [&](const std::string& shard) {
    for (const auto& entry : std::filesystem::directory_iterator(history_a)) {
      const std::string name = entry.path().filename().string();
      const std::string target = paths::HistoryDir(shard) + "/" + name;
      if (name != "index.bin" && !std::filesystem::exists(target)) {
        std::filesystem::copy_file(entry.path(), target);
      }
    }
  };

  const std::string state = dir_ + "-state";
  {
    SCOPED_TRACE("intact crash");
    EXPECT_TRUE(ExpectGolden(dir_, crash_ticks));
  }
  {
    SCOPED_TRACE("segment sealed and renamed, no new logical.log yet");
    CopyTree(dir_, state);
    for (uint32_t p = 0; p < 2; ++p) {
      const std::string dir = paths::ShardDir(state, p);
      auto open_or = LogicalLog::Replay(paths::LogicalLogPath(dir), 0,
                                        UINT64_MAX, nullptr);
      ASSERT_TRUE(open_or.ok());
      ASSERT_GT(open_or->records_applied, 0u);
      std::filesystem::rename(
          paths::LogicalLogPath(dir),
          dir + "/" + paths::SealedLogFileName(open_or->first_tick));
    }
    EXPECT_TRUE(ExpectGolden(state, crash_ticks));
    ExpectResumes(state, crash_ticks);
  }
  {
    SCOPED_TRACE("retirement stopped before its index commit");
    CopyTree(dir_, state);
    const std::string shard = paths::ShardDir(state, 0);
    restore_live_copies(shard);
    restore_deleted_history(shard);
    std::filesystem::copy_file(
        history_a + "/index.bin", paths::HistoryIndexPath(shard),
        std::filesystem::copy_options::overwrite_existing);
    EXPECT_TRUE(ExpectGolden(state, crash_ticks));
    ExpectResumes(state, crash_ticks);
  }
  {
    SCOPED_TRACE("retirement stopped after its index commit, before unlink");
    CopyTree(dir_, state);
    const std::string shard = paths::ShardDir(state, 0);
    restore_live_copies(shard);
    restore_deleted_history(shard);
    EXPECT_TRUE(ExpectGolden(state, crash_ticks));
    ExpectResumes(state, crash_ticks);
    // The resume's first retirement unlinked the duplicate live copies.
    for (const auto& seg : adopted) {
      EXPECT_FALSE(FileExists(shard + "/" +
                              paths::SealedLogFileName(seg.first_tick)));
    }
  }
  {
    SCOPED_TRACE("in-place truncation: index shrunk, file not cut");
    CopyTree(dir_, state);
    const std::string shard = paths::ShardDir(state, 0);
    const HistoryIndex::Segment seg = adopted.back();
    ASSERT_LT(seg.first_tick, seg.last_tick);
    const std::string seg_path =
        paths::HistoryDir(shard) + "/" + paths::HistorySegmentFileName(seg.id);
    std::string whole;
    ASSERT_TRUE(ReadFileToString(seg_path, &whole).ok());
    {
      auto history_or = ShardHistory::Open(shard, ShardLayout(),
                                           config.shard.retention, false);
      ASSERT_TRUE(history_or.ok());
      ASSERT_TRUE(history_or.value()->TruncateAbove(seg.first_tick + 1).ok());
    }
    ASSERT_TRUE(WriteStringToFile(seg_path, whole).ok());
    ExpectGolden(state, crash_ticks);
    ExpectResumes(state, crash_ticks);
  }
  {
    SCOPED_TRACE("resume retired the future, no append yet");
    CopyTree(dir_, state);
    const uint64_t resume = newest_image + 1;
    for (uint32_t p = 0; p < 2; ++p) {
      CutLiveChain(paths::ShardDir(state, p), resume);
    }
    ExpectGolden(state, resume);
    ExpectResumes(state, resume);
  }
}

/// The header of both backup images of `dir`.
std::vector<ImageInfo> Images(const std::string& dir) {
  auto store_or = BackupStore::Open(dir, ShardLayout(), false, nullptr,
                                    /*writable=*/false);
  TP_CHECK_OK(store_or.status());
  std::vector<ImageInfo> images;
  for (int index = 0; index < 2; ++index) {
    auto info_or = store_or.value()->Inspect(index);
    TP_CHECK_OK(info_or.status());
    images.push_back(info_or.value());
  }
  return images;
}

TEST_F(ChainCrashStateTest, ResumeLandingBelowALiveImageKeepsTheCut) {
  // A cut resume where one slot holds the cut image (consistent exactly at
  // the resume tick) and the other a periodic image past it. The resume
  // must bootstrap over the future image, never the cut one, and cut the
  // chain back only after that: each step of it leaves every shard on the
  // old timeline or the new one, and the cut reachable.
  const auto config = Config(AlgorithmKind::kCopyOnUpdate, false);
  uint64_t crash_ticks = 0;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    for (int i = 0; i < 12; ++i) Tick(&fleet);
    auto cut_or = fleet.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
    cut_tick_ = cut_or.value();
    while (fleet.current_tick() <= cut_tick_) Tick(&fleet);
    ASSERT_TRUE(fleet.CommitConsistentCut().ok());
    ASSERT_TRUE(ReapCheckpoints(&fleet.engine()).ok());
    // Exactly one periodic checkpoint past the cut on each partition.
    for (uint32_t p = 0; p < 2; ++p) {
      while (Images(paths::ShardDir(dir_, p))[0].consistent_tick <=
                 cut_tick_ + 1 &&
             Images(paths::ShardDir(dir_, p))[1].consistent_tick <=
                 cut_tick_ + 1) {
        TickUntilNextCheckpoint(&fleet, p);
      }
    }
    for (int i = 0; i < 3; ++i) Tick(&fleet);
    ASSERT_TRUE(ReapCheckpoints(&fleet.engine()).ok());
    crash_ticks = fleet.current_tick();
    ASSERT_TRUE(fleet.SimulateCrash().ok());
  }
  const std::string shard0 = paths::ShardDir(dir_, 0);
  const std::vector<ImageInfo> before = Images(shard0);
  ASSERT_TRUE(before[0].valid && before[1].valid);
  const int cut_slot = before[0].consistent_tick == cut_tick_ + 1 ? 0 : 1;
  const int future_slot = cut_slot ^ 1;
  ASSERT_EQ(before[cut_slot].consistent_tick, cut_tick_ + 1);
  ASSERT_GT(before[future_slot].consistent_tick, cut_tick_ + 1);
  ASSERT_LT(before[future_slot].consistent_tick, crash_ticks);

  // The finished resume, run on a copy: the bootstrap took the future
  // slot and the cut image is untouched.
  const std::string resumed = dir_ + "-a";
  CopyTree(dir_, resumed);
  {
    auto at_cut_or = Fleet::RecoverToCut(resumed);
    ASSERT_TRUE(at_cut_or.ok()) << at_cut_or.status().ToString();
    ASSERT_TRUE(at_cut_or->at_cut());
    auto fleet_or = at_cut_or->Resume();
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  const std::string resumed0 = paths::ShardDir(resumed, 0);
  const std::vector<ImageInfo> after = Images(resumed0);
  EXPECT_TRUE(after[cut_slot].valid);
  EXPECT_EQ(after[cut_slot].seq, before[cut_slot].seq);
  EXPECT_EQ(after[cut_slot].consistent_tick, cut_tick_ + 1);
  EXPECT_TRUE(after[future_slot].valid);
  EXPECT_GT(after[future_slot].seq, before[future_slot].seq);
  EXPECT_EQ(after[future_slot].consistent_tick, cut_tick_ + 1);

  // Partition 0 dies at each step of its resume; partition 1 had not begun.
  const std::string state = dir_ + "-state";
  const std::string future_image =
      BackupStore::ImageFileName(future_slot);
  {
    SCOPED_TRACE("bootstrap slot invalidated, chain intact");
    CopyTree(dir_, state);
    auto store_or = BackupStore::Open(paths::ShardDir(state, 0),
                                      ShardLayout(), false, nullptr);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    ASSERT_TRUE(store_or.value()->BeginCheckpoint(future_slot).ok());
    store_or.value().reset();
    EXPECT_TRUE(ExpectGolden(state, crash_ticks));
  }
  {
    SCOPED_TRACE("bootstrap durable, chain intact");
    CopyTree(dir_, state);
    std::filesystem::copy_file(
        resumed0 + "/" + future_image,
        paths::ShardDir(state, 0) + "/" + future_image,
        std::filesystem::copy_options::overwrite_existing);
    EXPECT_TRUE(ExpectGolden(state, crash_ticks));
  }
  {
    SCOPED_TRACE("bootstrap durable, chain cut back partway");
    // The future spans two segments; the first is gone, the second not.
    CopyTree(dir_, state);
    const std::string dir = paths::ShardDir(state, 0);
    std::filesystem::copy_file(
        resumed0 + "/" + future_image, dir + "/" + future_image,
        std::filesystem::copy_options::overwrite_existing);
    const std::string first_future =
        dir + "/" + paths::SealedLogFileName(cut_tick_ + 1);
    ASSERT_TRUE(FileExists(first_future));
    std::filesystem::remove(first_future);
    // The gap above the bootstrap fails latest recovery loudly; it never
    // lands between the timelines.
    auto latest_or = Fleet::Recover(state);
    EXPECT_EQ(latest_or.status().code(), StatusCode::kCorruption);
    auto cut_or = Fleet::RecoverToCut(state);
    ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
    EXPECT_TRUE(cut_or->at_cut());
    ExpectTables(cut_or->tables(), cut_tick_);
  }
  {
    SCOPED_TRACE("bootstrap durable, chain cut back");
    CopyTree(dir_, state);
    CopyTree(resumed0, paths::ShardDir(state, 0));
    // Partition 0 is on the new timeline, partition 1 on the old one.
    auto latest_or = Fleet::Recover(state);
    ASSERT_TRUE(latest_or.ok()) << latest_or.status().ToString();
    EXPECT_EQ(latest_or->result().fleet.shards[0].recovered_ticks,
              cut_tick_ + 1);
    EXPECT_EQ(latest_or->result().fleet.shards[1].recovered_ticks,
              crash_ticks);
    EXPECT_EQ(latest_or->tables()[0].Digest(),
              per_tick_[cut_tick_][0].Digest());
    EXPECT_EQ(latest_or->tables()[1].Digest(),
              per_tick_[crash_ticks - 1][1].Digest());
    auto cut_or = Fleet::RecoverToCut(state);
    ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
    EXPECT_TRUE(cut_or->at_cut());
    ExpectTables(cut_or->tables(), cut_tick_);
  }
}

// ---- 3. Which resumes write a bootstrap image ----

/// A resume wrote no bootstrap: both image headers are as before.
void ExpectSameImages(const std::vector<ImageInfo>& before,
                      const std::vector<ImageInfo>& after) {
  for (int index = 0; index < 2; ++index) {
    EXPECT_EQ(before[index].valid, after[index].valid) << "slot " << index;
    EXPECT_EQ(before[index].seq, after[index].seq) << "slot " << index;
    EXPECT_EQ(before[index].consistent_tick, after[index].consistent_tick)
        << "slot " << index;
  }
}

/// A resume at `first_tick` wrote a bootstrap: a valid image consistent at
/// it, numbered above every image before.
void ExpectBootstrap(const std::vector<ImageInfo>& before,
                     const std::vector<ImageInfo>& after,
                     uint64_t first_tick) {
  uint64_t max_seq = 0;
  for (const ImageInfo& info : before) {
    if (info.valid) max_seq = std::max(max_seq, info.seq);
  }
  bool found = false;
  for (const ImageInfo& info : after) {
    found |= info.valid && info.consistent_tick == first_tick &&
             (info.seq > max_seq || before.empty());
  }
  EXPECT_TRUE(found) << "no bootstrap image at tick " << first_tick;
}

using BootstrapTest = LogChainTest;

TEST_F(BootstrapTest, OnlyWhereTheLiveStoresCannotReproduceTheTick) {
  auto config = Config(AlgorithmKind::kCopyOnUpdate, /*retention=*/true);
  config.replicate = true;
  auto partition_dir = [&](uint32_t p) {
    auto manifest_or = ReadNewestFleetManifest(dir_);
    TP_CHECK_OK(manifest_or.status());
    return manifest_or->PartitionDir(dir_, p);
  };
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    for (int i = 0; i < 20; ++i) Tick(fleet_or.value().get());
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  std::vector<std::vector<ImageInfo>> before = {Images(partition_dir(0)),
                                                Images(partition_dir(1))};
  auto fleet_or = Fleet::Open(dir_);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  {
    SCOPED_TRACE("crash restart continues the chain");
    for (uint32_t p = 0; p < 2; ++p) {
      ExpectSameImages(before[p], Images(partition_dir(p)));
    }
  }
  for (int i = 0; i < 10; ++i) Tick(&fleet);
  {
    SCOPED_TRACE("failover from peer memory continues the chain");
    ASSERT_TRUE(ReapCheckpoints(&fleet.engine()).ok());
    ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
    const std::vector<ImageInfo> dead = Images(partition_dir(0));
    ASSERT_TRUE(fleet.FailoverShard(0).ok());
    EXPECT_TRUE(fleet.last_failover_report().used_peer_memory);
    ExpectSameImages(dead, Images(partition_dir(0)));
  }
  for (int i = 0; i < 6; ++i) Tick(&fleet);
  {
    SCOPED_TRACE("migration to a new directory bootstraps");
    auto cut_or = fleet.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
    cut_tick_ = cut_or.value();
    while (fleet.current_tick() <= cut_tick_) Tick(&fleet);
    ASSERT_TRUE(fleet.CommitConsistentCut().ok());
    ASSERT_TRUE(fleet.MigratePartition(1, /*to_slot=*/2).ok());
    ExpectBootstrap({}, Images(partition_dir(1)), fleet.current_tick());
  }
  for (int i = 0; i < 30; ++i) Tick(&fleet);
  ASSERT_TRUE(fleet.SimulateCrash().ok());
  {
    SCOPED_TRACE("a point-in-time landing below a live image bootstraps");
    auto window_or = Fleet::RestorableWindow(dir_);
    ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
    ASSERT_TRUE(window_or->any);
    const uint64_t target = window_or->low_tick;
    ASSERT_FALSE(LiveImagesReach(dir_, target));
    before = {Images(partition_dir(0)), Images(partition_dir(1))};
    auto landed_or = Fleet::RecoverToTick(dir_, target);
    ASSERT_TRUE(landed_or.ok()) << landed_or.status().ToString();
    ASSERT_TRUE(landed_or->at_requested_tick());
    ExpectTables(landed_or->tables(), target);
    auto resumed_or = landed_or->Resume();
    ASSERT_TRUE(resumed_or.ok()) << resumed_or.status().ToString();
    for (uint32_t p = 0; p < 2; ++p) {
      ExpectBootstrap(before[p], Images(partition_dir(p)), target + 1);
    }
    // The new timeline replays the same deterministic workload.
    reference_ = SnapshotTables(per_tick_[target]);
    for (int i = 0; i < 10; ++i) Tick(resumed_or.value().get());
    ASSERT_TRUE(resumed_or.value()->SimulateCrash().ok());
  }
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  ExpectTables(recovered_or->tables(),
               recovered_or->result().fleet.min_recovered_ticks - 1);
}

TEST_F(BootstrapTest, DiskFailoverAndLogStoreRestartContinueTheChain) {
  {
    SCOPED_TRACE("failover from the dead shard's own disk");
    const auto config = Config(AlgorithmKind::kCopyOnUpdate, false);
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    for (int i = 0; i < 14; ++i) Tick(&fleet);
    ASSERT_TRUE(ReapCheckpoints(&fleet.engine()).ok());
    ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
    const std::vector<ImageInfo> dead = Images(paths::ShardDir(dir_, 0));
    ASSERT_TRUE(fleet.FailoverShard(0).ok());
    EXPECT_FALSE(fleet.last_failover_report().used_peer_memory);
    ExpectSameImages(dead, Images(paths::ShardDir(dir_, 0)));
    for (int i = 0; i < 6; ++i) Tick(&fleet);
    ASSERT_TRUE(fleet.SimulateCrash().ok());
    auto recovered_or = Fleet::Recover(dir_);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    ExpectTables(recovered_or->tables(), 19);
  }
  {
    SCOPED_TRACE("crash restart of a log-store fleet adds no generation");
    std::filesystem::remove_all(dir_);
    per_tick_.clear();
    reference_.clear();
    for (uint32_t i = 0; i < 2; ++i) reference_.emplace_back(ShardLayout());
    const auto config =
        Config(AlgorithmKind::kCopyOnUpdatePartialRedo, false);
    {
      auto fleet_or = Fleet::Create(dir_, config);
      ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
      for (int i = 0; i < 20; ++i) Tick(fleet_or.value().get());
      ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
    }
    auto generations = [&](uint32_t p) {
      std::vector<std::pair<std::string, uint64_t>> files;
      for (const auto& entry :
           std::filesystem::directory_iterator(paths::ShardDir(dir_, p))) {
        uint64_t gen = 0;
        const std::string name = entry.path().filename().string();
        if (LogStore::ParseGenerationFileName(name, &gen)) {
          files.emplace_back(name, FileBytes(entry.path().string()));
        }
      }
      std::sort(files.begin(), files.end());
      return files;
    };
    const auto before0 = generations(0), before1 = generations(1);
    auto fleet_or = Fleet::Open(dir_);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    EXPECT_EQ(generations(0), before0);
    EXPECT_EQ(generations(1), before1);
    for (int i = 0; i < 12; ++i) Tick(fleet_or.value().get());
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
    auto recovered_or = Fleet::Recover(dir_);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    ExpectTables(recovered_or->tables(), 31);
  }
}

}  // namespace
}  // namespace tickpoint
