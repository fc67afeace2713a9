// Helpers shared by the fleet test suites (sharded_engine_test,
// fleet_resume_test, rebalancer_test): deep-copying reference fleets,
// mirroring the deterministic WorkloadCell/WorkloadValue workload without
// an engine, and reaping in-flight checkpoints.
#ifndef TICKPOINT_TESTS_FLEET_TEST_UTIL_H_
#define TICKPOINT_TESTS_FLEET_TEST_UTIL_H_

#include <cstring>
#include <string>
#include <vector>

#include "engine/checkpoint_store.h"
#include "engine/fleet_manifest.h"
#include "engine/mutator.h"
#include "engine/paths.h"
#include "engine/sharded_engine.h"
#include "engine/state_table.h"

namespace tickpoint {

/// Deep-copies a fleet of reference tables (StateTable is move-only).
inline std::vector<StateTable> SnapshotTables(
    const std::vector<StateTable>& from) {
  std::vector<StateTable> snapshot;
  snapshot.reserve(from.size());
  for (const StateTable& table : from) {
    snapshot.emplace_back(table.layout());
    std::memcpy(snapshot.back().mutable_data(), table.data(),
                table.buffer_bytes());
  }
  return snapshot;
}

/// Applies fleet tick `tick` of the deterministic workload directly to the
/// per-shard reference tables (no engine): the same cells and values
/// RunTicks-style drivers feed through ApplyUpdate.
inline void MirrorWorkloadTick(uint64_t tick, uint64_t updates_per_tick,
                               std::vector<StateTable>* tables) {
  for (uint32_t shard = 0; shard < tables->size(); ++shard) {
    StateTable& table = (*tables)[shard];
    const uint64_t num_cells = table.layout().num_cells();
    for (uint64_t i = 0; i < updates_per_tick; ++i) {
      const uint32_t cell = WorkloadCell(shard, tick, i, num_cells);
      table.WriteCell(cell, WorkloadValue(tick, cell, i));
    }
  }
}

/// Quiesces the fleet and completes every shard's in-flight checkpoint
/// (what CommitConsistentCut does for an idle shard). Called before a
/// periodic start, it makes the start happen at exactly its scheduled tick
/// instead of waiting behind a flush the writer thread has not finished --
/// so a test's checkpoint count no longer depends on writer speed.
inline Status ReapCheckpoints(ShardedEngine* engine) {
  TP_RETURN_NOT_OK(engine->WaitForIdle());
  for (uint32_t i = 0; i < engine->num_shards(); ++i) {
    TP_RETURN_NOT_OK(engine->shard(i).CompletePendingCheckpoint());
  }
  return Status::OK();
}

/// True when every partition of the fleet under `root` (directories from
/// its newest manifest) still holds a valid live image consistent at or
/// before the end of `tick`, read from the image headers alone. The live
/// chain is kept from the oldest such image on, so this is exactly when
/// the live stores can still land on `tick` without retained history.
inline bool LiveImagesReach(const std::string& root, uint64_t tick) {
  auto manifest_or = ReadNewestFleetManifest(root);
  TP_CHECK_OK(manifest_or.status());
  const FleetManifest& manifest = manifest_or.value();
  for (uint32_t p = 0; p < manifest.num_partitions; ++p) {
    const std::string dir = manifest.PartitionDir(root, p);
    bool reach = false;
    if (GetTraits(manifest.algorithm).disk ==
        DiskOrganization::kDoubleBackup) {
      auto store_or = BackupStore::Open(dir, manifest.layout, false, nullptr,
                                        /*writable=*/false);
      TP_CHECK_OK(store_or.status());
      for (int index = 0; index < 2; ++index) {
        auto info_or = store_or.value()->Inspect(index);
        TP_CHECK_OK(info_or.status());
        reach |= info_or->valid && info_or->consistent_tick <= tick + 1;
      }
    } else {
      auto store_or =
          LogStore::Open(dir, manifest.layout, false, /*writable=*/false);
      TP_CHECK_OK(store_or.status());
      auto segments_or = store_or.value()->RestorableSegments();
      TP_CHECK_OK(segments_or.status());
      for (const SegmentInfo& segment : segments_or.value()) {
        reach |= segment.consistent_tick <= tick + 1;
      }
    }
    if (!reach) return false;
  }
  return true;
}

}  // namespace tickpoint

#endif  // TICKPOINT_TESTS_FLEET_TEST_UTIL_H_
