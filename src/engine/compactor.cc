#include "engine/compactor.h"

namespace tickpoint {

CompactionPlan PlanCompaction(const HistoryIndex& index,
                              const RetentionPolicy& policy) {
  CompactionPlan plan;
  if (!policy.enabled || index.generations.empty()) return plan;

  // Generations are kept in ascending seq (= ascending consistent tick)
  // order; find the first survivor. Count bound first, then the tick
  // bound, never dropping the newest.
  const auto& gens = index.generations;
  size_t first_kept = 0;
  if (gens.size() > policy.max_generations) {
    first_kept = gens.size() - policy.max_generations;
  }
  if (policy.max_retained_ticks > 0) {
    const uint64_t newest_tick = gens.back().consistent_tick;
    const uint64_t floor_tick = newest_tick > policy.max_retained_ticks
                                    ? newest_tick - policy.max_retained_ticks
                                    : 0;
    while (first_kept + 1 < gens.size() &&
           gens[first_kept].consistent_tick < floor_tick) {
      ++first_kept;
    }
  }
  for (size_t i = 0; i < first_kept; ++i) {
    plan.drop_generations.push_back(gens[i].seq);
  }
  plan.window_base = gens[first_kept].consistent_tick;

  // Segment records with tick < window_base serve no surviving generation:
  // whole segments below the base are dropped, one straddling it is kept.
  for (const auto& seg : index.segments) {
    if (seg.last_tick < plan.window_base) {
      plan.drop_segments.push_back(seg.id);
    }
  }
  return plan;
}

}  // namespace tickpoint
