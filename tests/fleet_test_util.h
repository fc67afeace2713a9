// Helpers shared by the fleet test suites (sharded_engine_test,
// fleet_resume_test, rebalancer_test): deep-copying reference fleets,
// mirroring the deterministic WorkloadCell/WorkloadValue workload without
// an engine, and reaping in-flight checkpoints.
#ifndef TICKPOINT_TESTS_FLEET_TEST_UTIL_H_
#define TICKPOINT_TESTS_FLEET_TEST_UTIL_H_

#include <cstring>
#include <vector>

#include "engine/mutator.h"
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

}  // namespace tickpoint

#endif  // TICKPOINT_TESTS_FLEET_TEST_UTIL_H_
