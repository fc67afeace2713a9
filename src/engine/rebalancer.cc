#include "engine/rebalancer.h"

#include <algorithm>

#include "engine/sharded_engine.h"

namespace tickpoint {

Rebalancer::Rebalancer(const RebalancePolicy& policy) : policy_(policy) {
  TP_CHECK(policy_.Valid());
}

double Rebalancer::RatePerTick(uint32_t p) const {
  TP_DCHECK(p < rate_.size());
  return rate_[p];
}

uint32_t Rebalancer::HotStreak(uint32_t p) const {
  TP_DCHECK(p < hot_streak_.size());
  return hot_streak_[p];
}

bool Rebalancer::SampleRates(const ShardedEngine& engine) {
  const uint32_t k = engine.num_shards();
  if (prev_.size() != k) {
    prev_.assign(k, ShardRunner::Progress{});
    rate_.assign(k, 0.0);
    hot_streak_.assign(k, 0);
    migrated_.assign(k, 0);
    sampled_at_.assign(k, 0);
  }
  std::vector<ShardRunner::Progress> now(k);
  std::vector<ShardRunner::Progress> delta(k);
  uint64_t total = 0;
  for (uint32_t p = 0; p < k; ++p) {
    now[p] = engine.PartitionProgress(p);
    // The counters live in the partition's RUNNER, so a runner swap
    // (migration, failover) restarts them at 0; a tick count below the
    // previous one means exactly that, and the post-swap counts ARE the
    // window's deltas.
    const bool swapped = now[p].ticks < prev_[p].ticks;
    delta[p].ticks = swapped ? now[p].ticks : now[p].ticks - prev_[p].ticks;
    delta[p].dirty_marks = swapped
                               ? now[p].dirty_marks
                               : now[p].dirty_marks - prev_[p].dirty_marks;
    total += delta[p].dirty_marks;
  }
  // All-zero window: either the fleet is idle or (threaded mode) the
  // runner threads have not applied any batch since the last boundary.
  // Folding zeros in would decay a real hot signal and reset its streak,
  // so the boundary carries no detector signal at all.
  if (total == 0) return false;
  ++boundaries_seen_;
  for (uint32_t p = 0; p < k; ++p) {
    // The rate is marks per tick the partition APPLIED, not per facade
    // boundary: threaded runners apply ticks unevenly, and a runner that
    // caught up two ticks in one window is not twice as hot. A partition
    // that applied nothing keeps its rate, its streak and its baseline.
    if (delta[p].ticks == 0) continue;
    sampled_at_[p] = boundaries_seen_;
    prev_[p] = now[p];
    const double observed = static_cast<double>(delta[p].dirty_marks) /
                            static_cast<double>(delta[p].ticks);
    rate_[p] = rate_[p] == 0.0
                   ? observed
                   : policy_.ewma_alpha * observed +
                         (1.0 - policy_.ewma_alpha) * rate_[p];
  }
  return true;
}

int Rebalancer::PickHotPartition(const ShardedEngine& engine) {
  const uint32_t k = engine.num_shards();
  if (k < 2) return -1;
  double total = 0.0;
  for (uint32_t p = 0; p < k; ++p) {
    // A partition whose runner has not applied a tick yet has no rate,
    // so the mean the others are compared against is unknown.
    if (sampled_at_[p] == 0) return -1;
    total += rate_[p];
  }
  int best = -1;
  for (uint32_t p = 0; p < k; ++p) {
    if (sampled_at_[p] != boundaries_seen_) continue;
    const double mean_others =
        (total - rate_[p]) / static_cast<double>(k - 1);
    const bool hot = !migrated_[p] &&
                     rate_[p] >= policy_.min_marks_per_tick &&
                     rate_[p] > policy_.imbalance_ratio * mean_others;
    hot_streak_[p] = hot ? hot_streak_[p] + 1 : 0;
    if (hot_streak_[p] >= policy_.hysteresis_ticks &&
        (best < 0 || rate_[p] > rate_[best])) {
      best = static_cast<int>(p);
    }
  }
  return best;
}

Status Rebalancer::OnTickBoundary(ShardedEngine* engine) {
  if (engine->failed()) return Status::OK();

  // Sample EVERY boundary, whatever the phase: a skipped boundary would
  // make the next delta span several ticks and spike the smoothed rate.
  // An UNINFORMATIVE boundary (no partition shows new marks -- idle
  // fleet, or runners lagging the facade in threaded mode) updates
  // nothing and earns no warmup credit, but an armed cut still commits
  // below: the cut tick passing is a property of the fleet clock, not of
  // observed write traffic.
  const bool informative = SampleRates(*engine);

  if (phase_ == Phase::kCutRequested) {
    if (!engine->cut_in_flight()) {
      // Someone else committed (or disarmed) our cut out from under us --
      // a caller driving the cut API directly. Drop the decision and
      // re-detect; the streaks are still warm.
      phase_ = Phase::kIdle;
    } else if (engine->current_tick() > pending_cut_tick_) {
      // The cut tick has run on every shard; commit it and move the hot
      // partition while the quiesced live state still equals the cut
      // image (the MigratePartition precondition: no tick in between).
      TP_RETURN_NOT_OK(engine->CommitConsistentCut());
      TP_RETURN_NOT_OK(engine->MigratePartition(
          pending_partition_, pending_to_slot_, policy_.spawn_mount_root));
      migrated_[pending_partition_] = 1;
      hot_streak_[pending_partition_] = 0;
      // The fresh runner's counters restart at 0 and its first window is
      // not comparable; restart the partition's rate from scratch too.
      prev_[pending_partition_] = ShardRunner::Progress{};
      rate_[pending_partition_] = 0.0;
      sampled_at_[pending_partition_] = 0;
      ++migrations_;
      last_migration_tick_ = engine->current_tick();
      last_event_.partition = pending_partition_;
      last_event_.to_slot = pending_to_slot_;
      last_event_.hot_ratio = pending_ratio_;
      last_event_.decided_tick = pending_decided_tick_;
      last_event_.cut_tick = pending_cut_tick_;
      phase_ = Phase::kIdle;
      return Status::OK();
    }
    // Cut armed but its tick not yet past: keep ticking.
    return Status::OK();
  }

  if (!informative) return Status::OK();
  if (boundaries_seen_ <= policy_.warmup_ticks) return Status::OK();
  if (engine->cut_in_flight()) return Status::OK();  // user cut: stand down
  if (policy_.max_migrations > 0 && migrations_ >= policy_.max_migrations) {
    return Status::OK();
  }
  if (last_migration_tick_ != UINT64_MAX &&
      engine->current_tick() - last_migration_tick_ < policy_.cooldown_ticks) {
    return Status::OK();
  }

  const int hot = PickHotPartition(*engine);
  if (hot < 0) return Status::OK();
  const uint32_t p = static_cast<uint32_t>(hot);

  // Spawn a FRESH slot past every occupied one: the destination is always
  // empty, so the slot space (and with a mount root, the disk fan-out)
  // grows with each migration while the partition count stays fixed.
  uint32_t to_slot = 0;
  for (const uint32_t slot : engine->manifest().assignment) {
    to_slot = std::max(to_slot, slot + 1);
  }

  double total = 0.0;
  for (const double r : rate_) total += r;
  const double mean_others =
      (total - rate_[p]) / static_cast<double>(engine->num_shards() - 1);

  TP_ASSIGN_OR_RETURN(const uint64_t cut_tick,
                      engine->RequestConsistentCut());
  pending_partition_ = p;
  pending_to_slot_ = to_slot;
  pending_cut_tick_ = cut_tick;
  pending_decided_tick_ = engine->current_tick();
  pending_ratio_ = mean_others > 0.0 ? rate_[p] / mean_others : 0.0;
  phase_ = Phase::kCutRequested;
  return Status::OK();
}

}  // namespace tickpoint
