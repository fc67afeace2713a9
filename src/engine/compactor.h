// Bounded history compaction: decides which retained generations and
// history-owned logical-log segments a RetentionPolicy lets a shard drop,
// so disk stays bounded while the advertised restorable window stays
// exactly intact.
//
// The split of responsibilities: this file owns the *policy* (a pure plan
// over the HistoryIndex, unit-testable without touching disk);
// ShardHistory owns the *mechanics* (executing a plan under the
// index-first crash-atomic protocol documented in history.h).
//
// Invariants every plan preserves:
//   - the newest generation always survives;
//   - the window base B is the oldest surviving generation's consistent
//     tick: segments wholly below B are dropped, and a segment straddling
//     B is kept whole -- segments are never rewritten, so a segment costs
//     at most one checkpoint period of records past the window;
//   - segments reaching B are never touched, so every tick in the
//     post-compaction window [B - 1, high] remains restorable.
#ifndef TICKPOINT_ENGINE_COMPACTOR_H_
#define TICKPOINT_ENGINE_COMPACTOR_H_

#include <cstdint>
#include <vector>

#include "engine/history.h"

namespace tickpoint {

/// What one compaction pass will do. Empty vectors = nothing to do.
struct CompactionPlan {
  /// Oldest surviving generation's consistent tick: the tick below which
  /// no logical record is needed anymore.
  uint64_t window_base = 0;
  std::vector<uint64_t> drop_generations;   // generation seqs to delete
  std::vector<uint64_t> drop_segments;      // segment ids to delete

  bool NoOp() const {
    return drop_generations.empty() && drop_segments.empty();
  }
};

/// Plans a compaction of `index` under `policy`: keeps the newest
/// `policy.max_generations` generations, additionally drops generations
/// whose consistent tick trails the newest by more than
/// `policy.max_retained_ticks` (when non-zero), and drops the segments
/// wholly below the surviving window base. Pure -- no I/O.
CompactionPlan PlanCompaction(const HistoryIndex& index,
                              const RetentionPolicy& policy);

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_COMPACTOR_H_
