// Tests for the on-disk checkpoint organizations and the logical log.
#include "engine/checkpoint_store.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "engine/logical_log.h"
#include "engine/paths.h"
#include "util/io_backend.h"

namespace tickpoint {
namespace {

/// Offset of object 0 in a backup image (one sector-aligned header block).
constexpr uint64_t kBackupDataOffset = 512;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_store_" + name))
               .string();
    std::filesystem::remove_all(dir_);
    layout_ = StateLayout::Small(256, 10);  // 20 objects
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Fills a table with a recognizable pattern keyed by `salt`.
  StateTable MakeState(int32_t salt) {
    StateTable table(layout_);
    for (CellId c = 0; c < layout_.num_cells(); ++c) {
      table.WriteCell(c, static_cast<int32_t>(c) * 31 + salt);
    }
    return table;
  }

  // Writes `state` as a full valid checkpoint of image `index`.
  void WriteFullImage(BackupStore& store, int index, StateTable& state,
                      uint64_t seq, uint64_t tick) {
    ASSERT_TRUE(store.BeginCheckpoint(index).ok());
    ASSERT_TRUE(
        store.WriteRange(index, 0, state.data(), layout_.num_objects()).ok());
    ASSERT_TRUE(store.FinishCheckpoint(index, seq, tick, 0).ok());
  }

  // Raw bytes of backup image `index`'s data region (past the header).
  std::string ImageDataBytes(int index) {
    std::string bytes;
    EXPECT_TRUE(
        ReadFileToString(dir_ + "/" + BackupStore::ImageFileName(index),
                         &bytes)
            .ok());
    EXPECT_GE(bytes.size(), kBackupDataOffset);
    return bytes.substr(kBackupDataOffset);
  }

  std::string dir_;
  StateLayout layout_;
};

TEST_F(StoreTest, BackupFullImageRoundTrip) {
  auto store_or = BackupStore::Open(dir_, layout_, /*fsync=*/false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(1);

  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(store.WriteRange(0, 0, state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 7, 42, state.Digest()).ok());

  auto info = store.Inspect(0);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->valid);
  EXPECT_EQ(info->seq, 7u);
  EXPECT_EQ(info->consistent_tick, 42u);

  StateTable restored(layout_);
  ASSERT_TRUE(store.ReadAll(0, &restored).ok());
  EXPECT_TRUE(restored.ContentEquals(state));
}

TEST_F(StoreTest, BackupBeginWithoutFinishIsInvalid) {
  auto store_or = BackupStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(2);
  ASSERT_TRUE(store.BeginCheckpoint(1).ok());
  ASSERT_TRUE(store.WriteRange(1, 0, state.data(), 5).ok());
  // No FinishCheckpoint: a crash here must leave the image unusable.
  auto info = store.Inspect(1);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->valid);
  StateTable restored(layout_);
  EXPECT_FALSE(store.ReadAll(1, &restored).ok());
}

TEST_F(StoreTest, BackupSiblingSurvivesRewrite) {
  auto store_or = BackupStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable old_state = MakeState(3);
  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(
      store.WriteRange(0, 0, old_state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 1, 10, 0).ok());

  // Start (and tear) a write to backup 1: backup 0 stays recoverable.
  ASSERT_TRUE(store.BeginCheckpoint(1).ok());
  ASSERT_TRUE(store.WriteRange(1, 0, old_state.data(), 3).ok());
  StateTable restored(layout_);
  ASSERT_TRUE(store.ReadAll(0, &restored).ok());
  EXPECT_TRUE(restored.ContentEquals(old_state));
}

TEST_F(StoreTest, BackupIncrementalUpdateInPlace) {
  auto store_or = BackupStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(4);
  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(store.WriteRange(0, 0, state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 1, 5, 0).ok());

  // Change two objects and write only those at their offsets.
  for (CellId c = 128; c < 256; ++c) state.WriteCell(c, -1);
  for (CellId c = 640; c < 768; ++c) state.WriteCell(c, -2);
  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(store.WriteRange(0, 1, state.ObjectData(1), 1).ok());
  ASSERT_TRUE(store.WriteRange(0, 5, state.ObjectData(5), 1).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 2, 9, state.Digest()).ok());

  StateTable restored(layout_);
  ASSERT_TRUE(store.ReadAll(0, &restored).ok());
  EXPECT_TRUE(restored.ContentEquals(state));
}

TEST_F(StoreTest, BackupStateCrcDetectsBitRot) {
  auto store_or = BackupStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(5);
  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(store.WriteRange(0, 0, state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 1, 1, state.Digest()).ok());

  // Flip one data byte on disk behind the store's back.
  {
    FileWriter vandal;
    ASSERT_TRUE(vandal.OpenForUpdate(store.path(0)).ok());
    const char evil = 0x66;
    ASSERT_TRUE(vandal.WriteAt(512 + 1000, &evil, 1).ok());
    ASSERT_TRUE(vandal.Close().ok());
  }
  StateTable restored(layout_);
  const Status status = store.ReadAll(0, &restored);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

class BackupWriteRangeTest
    : public StoreTest,
      public ::testing::WithParamInterface<IoBackendKind> {};

TEST_P(BackupWriteRangeTest, RoundTripNeverTouchesSibling) {
  StateTable state = MakeState(11);
  StateTable old1 = MakeState(13);
  StateTable next = MakeState(14);
  const uint64_t half = layout_.num_objects() / 2;
  std::string sibling_before;
  {
    auto backend = IoBackend::Create(GetParam());
    auto store_or = BackupStore::Open(dir_, layout_, false, backend.get());
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or.value();
    // Runs submitted through the backend land in place; only the header
    // FinishCheckpoint writes after them makes the image valid.
    ASSERT_TRUE(store.BeginCheckpoint(0).ok());
    ASSERT_TRUE(store.WriteRange(0, 0, state.ObjectData(0), half).ok());
    ASSERT_TRUE(store.WriteRange(0, half, state.ObjectData(half),
                                 layout_.num_objects() - half)
                    .ok());
    ASSERT_TRUE(store.FinishCheckpoint(0, 5, 50, state.Digest()).ok());
    auto info = store.Inspect(0);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info->valid);
    EXPECT_EQ(info->seq, 5u);
    StateTable restored(layout_);
    ASSERT_TRUE(store.ReadAll(0, &restored).ok());
    EXPECT_TRUE(restored.ContentEquals(state));

    WriteFullImage(store, 1, old1, 6, 60);
    sibling_before = ImageDataBytes(1);
    // Crash mid-checkpoint of image 0: half its objects landed, no finish.
    ASSERT_TRUE(store.BeginCheckpoint(0).ok());
    ASSERT_TRUE(store.WriteRange(0, 0, next.ObjectData(0), half).ok());
    ASSERT_TRUE(backend->Drain().ok());
  }

  auto reopened_or = BackupStore::Open(dir_, layout_, false);
  ASSERT_TRUE(reopened_or.ok());
  auto& reopened = *reopened_or.value();
  // The target was invalidated before any data write, so the torn image
  // is never eligible; the sibling is byte-identical and restores.
  auto info0 = reopened.Inspect(0);
  ASSERT_TRUE(info0.ok());
  EXPECT_FALSE(info0->valid);
  EXPECT_EQ(ImageDataBytes(1), sibling_before);
  StateTable restored(layout_);
  ASSERT_TRUE(reopened.ReadAll(1, &restored).ok());
  EXPECT_TRUE(restored.ContentEquals(old1));
}

INSTANTIATE_TEST_SUITE_P(
    BothIoBackends, BackupWriteRangeTest,
    ::testing::Values(IoBackendKind::kSync, IoBackendKind::kAsync),
    [](const ::testing::TestParamInfo<IoBackendKind>& info) {
      return std::string(IoBackendKindName(info.param));
    });

TEST_F(StoreTest, BackupReadOnlyOpenChangesNothing) {
  const std::string leftover = dir_ + "/" + paths::DoublewriteFileName();
  {
    // A missing directory reads as two invalid images and is not created.
    auto store_or = BackupStore::Open(dir_, layout_, false, nullptr,
                                      /*writable=*/false);
    ASSERT_TRUE(store_or.ok());
    for (int i = 0; i < 2; ++i) {
      auto info = store_or.value()->Inspect(i);
      ASSERT_TRUE(info.ok());
      EXPECT_FALSE(info->valid);
    }
    EXPECT_FALSE(std::filesystem::exists(dir_));
  }
  StateTable state = MakeState(12);
  {
    auto store_or = BackupStore::Open(dir_, layout_, false);
    ASSERT_TRUE(store_or.ok());
    WriteFullImage(*store_or.value(), 0, state, 1, 10);
  }
  // A doublewrite region an older build left behind.
  ASSERT_TRUE(WriteStringToFile(leftover, std::string(4096, 'x')).ok());
  {
    auto store_or = BackupStore::Open(dir_, layout_, false, nullptr,
                                      /*writable=*/false);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or.value();
    EXPECT_EQ(store.BeginCheckpoint(0).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(store.WriteRange(0, 0, state.data(), 1).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(store.FinishCheckpoint(0, 2, 20, 0).code(),
              StatusCode::kFailedPrecondition);
    StateTable restored(layout_);
    ASSERT_TRUE(store.ReadAll(0, &restored).ok());
    EXPECT_TRUE(restored.ContentEquals(state));
  }
  EXPECT_TRUE(FileExists(leftover));
  ASSERT_TRUE(BackupStore::Open(dir_, layout_, false).ok());
  EXPECT_FALSE(FileExists(leftover));

  // The log store's read-only open keeps the same contract: a missing
  // directory holds nothing and is not created, and every write is
  // refused without touching the generation on disk.
  std::filesystem::remove_all(dir_);
  const uint64_t n = layout_.num_objects();
  auto expect_refused = [&](LogStore& store) {
    EXPECT_EQ(store.BeginGeneration(1).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(store.BeginSegment(1, 30, true, n).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(store.DropGenerationsBefore(1).code(),
              StatusCode::kFailedPrecondition);
  };
  {
    auto store_or = LogStore::Open(dir_, layout_, false, /*writable=*/false);
    ASSERT_TRUE(store_or.ok());
    StateTable restored(layout_);
    EXPECT_EQ(store_or.value()->Restore(&restored).status().code(),
              StatusCode::kNotFound);
    expect_refused(*store_or.value());
    EXPECT_FALSE(std::filesystem::exists(dir_));
  }
  {
    auto store_or = LogStore::Open(dir_, layout_, false);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or.value();
    ASSERT_TRUE(store.BeginGeneration(0).ok());
    ASSERT_TRUE(store.BeginSegment(0, 10, true, n).ok());
    ASSERT_TRUE(store.AppendRun(0, state.data(), n).ok());
    ASSERT_TRUE(store.CommitSegment().ok());
  }
  std::string before;
  ASSERT_TRUE(ReadFileToString(dir_ + "/log-0.img", &before).ok());
  {
    auto store_or = LogStore::Open(dir_, layout_, false, /*writable=*/false);
    ASSERT_TRUE(store_or.ok());
    expect_refused(*store_or.value());
    StateTable restored(layout_);
    auto info = store_or.value()->Restore(&restored);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->consistent_tick, 10u);
    EXPECT_TRUE(restored.ContentEquals(state));
  }
  std::string after;
  ASSERT_TRUE(ReadFileToString(dir_ + "/log-0.img", &after).ok());
  EXPECT_EQ(before, after);
  EXPECT_FALSE(FileExists(dir_ + "/log-1.img"));
}

TEST_F(StoreTest, LogFullFlushAndIncrementsRestore) {
  auto store_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(6);

  // Generation 0: full flush of the pristine state.
  ASSERT_TRUE(store.BeginGeneration(0).ok());
  ASSERT_TRUE(store.BeginSegment(0, 1, true, layout_.num_objects()).ok());
  ASSERT_TRUE(store.AppendRun(0, state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.CommitSegment().ok());

  // Two incremental segments with object changes.
  for (CellId c = 0; c < 128; ++c) state.WriteCell(c, 111);
  ASSERT_TRUE(store.BeginSegment(1, 2, false, 1).ok());
  ASSERT_TRUE(store.AppendRun(0, state.ObjectData(0), 1).ok());
  ASSERT_TRUE(store.CommitSegment().ok());

  for (CellId c = 1280; c < 1408; ++c) state.WriteCell(c, 222);
  ASSERT_TRUE(store.BeginSegment(2, 3, false, 1).ok());
  ASSERT_TRUE(store.AppendRun(10, state.ObjectData(10), 1).ok());
  ASSERT_TRUE(store.CommitSegment().ok());

  StateTable restored(layout_);
  auto image = store.Restore(&restored);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->seq, 2u);
  EXPECT_EQ(image->consistent_tick, 3u);
  EXPECT_TRUE(restored.ContentEquals(state));
}

TEST_F(StoreTest, LogTornTailIgnored) {
  auto store_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(7);
  ASSERT_TRUE(store.BeginGeneration(0).ok());
  ASSERT_TRUE(store.BeginSegment(0, 1, true, layout_.num_objects()).ok());
  ASSERT_TRUE(store.AppendRun(0, state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.CommitSegment().ok());
  const StateTable committed = MakeState(7);

  // Torn segment: declared 3 objects, only 1 appended, never committed.
  state.WriteCell(0, -99);
  ASSERT_TRUE(store.BeginSegment(1, 2, false, 3).ok());
  ASSERT_TRUE(store.AppendRun(0, state.ObjectData(0), 1).ok());
  store.AbortSegment();

  StateTable restored(layout_);
  auto image = store.Restore(&restored);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->seq, 0u);
  EXPECT_TRUE(restored.ContentEquals(committed));
}

TEST_F(StoreTest, LogFallsBackToOlderGeneration) {
  auto store_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable gen0_state = MakeState(8);
  ASSERT_TRUE(store.BeginGeneration(0).ok());
  ASSERT_TRUE(store.BeginSegment(0, 1, true, layout_.num_objects()).ok());
  ASSERT_TRUE(
      store.AppendRun(0, gen0_state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.CommitSegment().ok());

  // Generation 1's full flush tears mid-way (crash before commit).
  ASSERT_TRUE(store.BeginGeneration(1).ok());
  ASSERT_TRUE(store.BeginSegment(1, 9, true, layout_.num_objects()).ok());
  ASSERT_TRUE(store.AppendRun(0, gen0_state.ObjectData(0), 1).ok());
  store.AbortSegment();

  StateTable restored(layout_);
  auto image = store.Restore(&restored);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->consistent_tick, 1u);
  EXPECT_TRUE(restored.ContentEquals(gen0_state));
}

TEST_F(StoreTest, LogReopenDiscoversGenerations) {
  {
    auto store_or = LogStore::Open(dir_, layout_, false);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or.value();
    StateTable state = MakeState(9);
    ASSERT_TRUE(store.BeginGeneration(3).ok());
    ASSERT_TRUE(store.BeginSegment(12, 30, true, layout_.num_objects()).ok());
    ASSERT_TRUE(store.AppendRun(0, state.data(), layout_.num_objects()).ok());
    ASSERT_TRUE(store.CommitSegment().ok());
  }
  // A cold open (as recovery does) must find generation 3.
  auto reopened_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(reopened_or.ok());
  EXPECT_EQ(reopened_or.value()->current_generation(), 3u);
  StateTable restored(layout_);
  auto image = reopened_or.value()->Restore(&restored);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->seq, 12u);
  EXPECT_TRUE(restored.ContentEquals(MakeState(9)));
}

TEST_F(StoreTest, LogDropGenerations) {
  auto store_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(10);
  for (uint64_t gen : {0, 1, 2, 20}) {
    ASSERT_TRUE(store.BeginGeneration(gen).ok());
    ASSERT_TRUE(
        store.BeginSegment(gen, gen + 1, true, layout_.num_objects()).ok());
    ASSERT_TRUE(store.AppendRun(0, state.data(), layout_.num_objects()).ok());
    ASSERT_TRUE(store.CommitSegment().ok());
  }
  ASSERT_TRUE(store.DropGenerationsBefore(2).ok());
  EXPECT_FALSE(FileExists(dir_ + "/log-0.img"));
  EXPECT_FALSE(FileExists(dir_ + "/log-1.img"));
  EXPECT_TRUE(FileExists(dir_ + "/log-2.img"));
  // Every older generation goes, however far behind it lies.
  ASSERT_TRUE(store.DropGenerationsBefore(20).ok());
  EXPECT_FALSE(FileExists(dir_ + "/log-2.img"));
  EXPECT_TRUE(FileExists(dir_ + "/log-20.img"));
}

TEST_F(StoreTest, LogicalLogRoundTrip) {
  const std::string path = paths::LogicalLogPath(dir_);
  ASSERT_TRUE(EnsureDirectory(dir_).ok());
  {
    auto log_or = LogicalLog::Open(dir_, 0, 1, /*fsync=*/false);
    ASSERT_TRUE(log_or.ok());
    auto& log = *log_or.value();
    std::vector<CellUpdate> t0 = {{0, 10}, {5, 50}};
    std::vector<CellUpdate> t1 = {};  // empty tick is legal
    std::vector<CellUpdate> t2 = {{0, 11}, {9, 90}};
    ASSERT_TRUE(log.AppendTick(0, t0).ok());
    ASSERT_TRUE(log.AppendTick(1, t1).ok());
    ASSERT_TRUE(log.AppendTick(2, t2).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  auto range = LogicalLog::Replay(path, 0, UINT64_MAX, nullptr);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->records_applied, 3u);

  StateTable table(layout_);
  auto stats = LogicalLog::Replay(path, 0, UINT64_MAX, &table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 3u);
  EXPECT_EQ(stats->last_tick, 2u);
  EXPECT_EQ(table.ReadCell(0), 11);  // overwritten by tick 2
  EXPECT_EQ(table.ReadCell(5), 50);
  EXPECT_EQ(table.ReadCell(9), 90);
}

TEST_F(StoreTest, LogicalLogRangeFilter) {
  const std::string path = paths::LogicalLogPath(dir_);
  ASSERT_TRUE(EnsureDirectory(dir_).ok());
  {
    auto log_or = LogicalLog::Open(dir_, 0, 1, /*fsync=*/false);
    ASSERT_TRUE(log_or.ok());
    for (uint64_t t = 0; t < 5; ++t) {
      std::vector<CellUpdate> updates = {
          {static_cast<uint32_t>(t), static_cast<int32_t>(t + 100)}};
      ASSERT_TRUE(log_or.value()->AppendTick(t, updates).ok());
    }
    ASSERT_TRUE(log_or.value()->Close().ok());
  }
  StateTable table(layout_);
  auto stats = LogicalLog::Replay(path, 2, 3, &table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 2u);
  EXPECT_EQ(table.ReadCell(0), 0);    // tick 0 excluded
  EXPECT_EQ(table.ReadCell(2), 102);  // tick 2 included
  EXPECT_EQ(table.ReadCell(3), 103);  // tick 3 included
  EXPECT_EQ(table.ReadCell(4), 0);    // tick 4 excluded
}

TEST_F(StoreTest, LogicalLogTornTailStopsReplay) {
  const std::string path = paths::LogicalLogPath(dir_);
  ASSERT_TRUE(EnsureDirectory(dir_).ok());
  {
    auto log_or = LogicalLog::Open(dir_, 0, 1, /*fsync=*/false);
    ASSERT_TRUE(log_or.ok());
    std::vector<CellUpdate> updates = {{1, 5}};
    ASSERT_TRUE(log_or.value()->AppendTick(0, updates).ok());
    ASSERT_TRUE(log_or.value()->AppendTick(1, updates).ok());
    ASSERT_TRUE(log_or.value()->Close().ok());
  }
  // Truncate mid-way through the second record (simulated torn write).
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  bytes.resize(bytes.size() - 5);
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());

  StateTable table(layout_);
  auto stats = LogicalLog::Replay(path, 0, UINT64_MAX, &table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 1u);
  EXPECT_EQ(stats->last_tick, 0u);
}

TEST_F(StoreTest, LogicalLogGroupCommitWindow) {
  const std::string path = paths::LogicalLogPath(dir_);
  ASSERT_TRUE(EnsureDirectory(dir_).ok());
  auto log_or = LogicalLog::Open(dir_, 0, /*sync_every=*/4, /*fsync=*/false);
  ASSERT_TRUE(log_or.ok());
  std::vector<CellUpdate> updates = {{1, 5}};
  for (uint64_t t = 0; t < 10; ++t) {
    ASSERT_TRUE(log_or.value()->AppendTick(t, updates).ok());
  }
  // Records are buffered; before Close/Sync only whole group commits are
  // guaranteed durable. After Close, all 10 are.
  ASSERT_TRUE(log_or.value()->Close().ok());
  auto range = LogicalLog::Replay(path, 0, UINT64_MAX, nullptr);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->records_applied, 10u);
}

}  // namespace
}  // namespace tickpoint
