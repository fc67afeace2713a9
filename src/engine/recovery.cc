#include "engine/recovery.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "engine/checkpoint_store.h"
#include "engine/consistent_cut.h"
#include "engine/history.h"
#include "engine/logical_log.h"

namespace tickpoint {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shared two-phase recovery body: restores the newest image consistent at
/// or before `up_to_tick` + 1 (live, or `history`'s generations when
/// given), then replays the chain (live, or history's whole chain) through
/// `up_to_tick`. UINT64_MAX = unbounded (plain crash recovery); a finite
/// bound must be reached exactly (the chain replay already refuses a gap
/// after the restored image), or the result is Corruption.
StatusOr<RecoveryResult> RecoverImpl(const EngineConfig& config,
                                     uint64_t up_to_tick,
                                     const HistoryIndex* history,
                                     StateTable* out) {
  TP_CHECK(out->layout().num_objects() == config.layout.num_objects());
  const AlgorithmTraits& traits = GetTraits(config.algorithm);
  const uint64_t max_image_tick =
      up_to_tick == UINT64_MAX ? UINT64_MAX : up_to_tick + 1;
  RecoveryResult result;
  out->Clear();

  // Phase 1: restore the newest complete image within the bound. The
  // stores are opened read-only: recovery only reads, and an image torn
  // mid-checkpoint still carries the invalidated header BeginCheckpoint
  // made durable, so it is never picked over its sibling.
  const auto restore_start = Clock::now();
  if (history != nullptr) {
    const HistoryIndex::Generation* base = nullptr;
    for (const auto& g : history->generations) {
      if (g.consistent_tick <= max_image_tick) base = &g;
    }
    if (base == nullptr) {
      return Status::Corruption("no retained generation in " + config.dir +
                                " is consistent at or before tick " +
                                std::to_string(up_to_tick));
    }
    TP_ASSIGN_OR_RETURN(
        result.image_consistent_ticks,
        ShardHistory::ReadGenerationImage(config.dir, base->seq, out));
    result.restored_from_checkpoint = true;
    result.image_seq = base->seq;
  } else if (traits.disk == DiskOrganization::kDoubleBackup) {
    TP_ASSIGN_OR_RETURN(
        auto store, BackupStore::Open(config.dir, config.layout, config.fsync,
                                      /*backend=*/nullptr,
                                      /*writable=*/false));
    int best = -1;
    ImageInfo best_info;
    for (int index = 0; index < 2; ++index) {
      TP_ASSIGN_OR_RETURN(const ImageInfo info, store->Inspect(index));
      if (info.valid && info.consistent_tick <= max_image_tick &&
          (best < 0 || info.seq > best_info.seq)) {
        best = index;
        best_info = info;
      }
    }
    if (best >= 0) {
      TP_RETURN_NOT_OK(store->ReadAll(best, out));
      result.restored_from_checkpoint = true;
      result.image_seq = best_info.seq;
      result.image_consistent_ticks = best_info.consistent_tick;
    }
  } else {
    TP_ASSIGN_OR_RETURN(
        auto store, LogStore::Open(config.dir, config.layout, config.fsync,
                                   /*writable=*/false));
    auto image_or = store->Restore(out, max_image_tick);
    if (image_or.ok()) {
      result.restored_from_checkpoint = true;
      result.image_seq = image_or.value().seq;
      result.image_consistent_ticks = image_or.value().consistent_tick;
    } else if (image_or.status().code() != StatusCode::kNotFound) {
      return image_or.status();
    }
  }
  result.restore_seconds = SecondsSince(restore_start);

  // Phase 2: replay the chain from the image boundary to the bound (or
  // the durable end).
  const auto replay_start = Clock::now();
  TP_ASSIGN_OR_RETURN(const std::vector<LogSegment> chain,
                      history != nullptr
                          ? ShardHistory::Chain(config.dir, *history)
                          : LogicalLog::LiveChain(config.dir));
  TP_ASSIGN_OR_RETURN(
      const LogicalLog::ReplayStats stats,
      LogicalLog::ReplayChain(chain, result.image_consistent_ticks,
                              up_to_tick, out));
  result.replay_seconds = SecondsSince(replay_start);
  result.ticks_replayed = stats.records_applied;
  result.recovered_ticks = stats.records_applied > 0
                               ? stats.last_tick + 1
                               : result.image_consistent_ticks;
  if (up_to_tick != UINT64_MAX && result.recovered_ticks != up_to_tick + 1) {
    return Status::Corruption(
        "durable state in " + config.dir + " reaches tick " +
        std::to_string(result.recovered_ticks) + ", not tick " +
        std::to_string(up_to_tick + 1));
  }
  return result;
}

}  // namespace

StatusOr<RecoveryResult> Recover(const EngineConfig& config,
                                 StateTable* out) {
  return RecoverImpl(config, UINT64_MAX, nullptr, out);
}

StatusOr<RecoveryResult> RecoverToTick(const EngineConfig& config,
                                       uint64_t cut_tick, StateTable* out) {
  return RecoverImpl(config, cut_tick, nullptr, out);
}

StatusOr<RecoveryResult> RecoverToHistoricTick(const EngineConfig& config,
                                               uint64_t tick,
                                               StateTable* out) {
  // The live stores reproduce any tick from the older live image's
  // consistent tick to the crash tick; history exists for everything
  // older. Try live first -- it is exact when it works, and its Corruption
  // is precisely "this tick predates what the live sources cover".
  auto live_or = RecoverToTick(config, tick, out);
  if (live_or.ok()) return live_or;
  if (live_or.status().code() != StatusCode::kCorruption) return live_or;
  auto index_or = ShardHistory::ReadIndex(config.dir);
  if (!index_or.ok()) return live_or;  // no/torn history: live's verdict
  return RecoverImpl(config, tick, &index_or.value(), out);
}

namespace {

/// Folds one shard's outcome into the fleet aggregate.
void AccumulateShard(const RecoveryResult& shard_result, uint32_t shard,
                     ShardedRecoveryResult* result) {
  result->restore_seconds += shard_result.restore_seconds;
  result->replay_seconds += shard_result.replay_seconds;
  const uint64_t recovered = shard_result.recovered_ticks;
  if (shard == 0) {
    result->min_recovered_ticks = recovered;
    result->max_recovered_ticks = recovered;
  } else {
    result->min_recovered_ticks =
        std::min(result->min_recovered_ticks, recovered);
    result->max_recovered_ticks =
        std::max(result->max_recovered_ticks, recovered);
  }
  result->shards.push_back(shard_result);
}

/// Shared front half of every fleet recovery: reads the newest intact
/// manifest under `root`, verifies the directory layout it describes
/// actually exists, and returns each partition's engine config (the
/// manifest's knobs, the assignment- and mount-resolved directory).
StatusOr<std::vector<EngineConfig>> ReadFleetForRecovery(
    const std::string& root, FleetManifest* manifest) {
  TP_ASSIGN_OR_RETURN(*manifest, ReadNewestFleetManifest(root));
  const EngineConfig shard = ConfigFromManifest(*manifest, root).shard;
  std::vector<EngineConfig> shards(manifest->num_partitions, shard);
  for (uint32_t p = 0; p < manifest->num_partitions; ++p) {
    shards[p].dir = manifest->PartitionDir(root, p);
    std::error_code ec;
    if (!std::filesystem::is_directory(shards[p].dir, ec)) {
      // The superblock and the directory tree disagree: surface it as
      // corruption instead of "recovering" partition p to zeroed state
      // from a directory that is not there.
      return Status::Corruption(
          "fleet manifest (epoch " + std::to_string(manifest->epoch) +
          ") assigns partition " + std::to_string(p) + " to " +
          shards[p].dir + ", which does not exist");
    }
  }
  return shards;
}

/// Latest recovery: every partition to its own crash tick.
StatusOr<ShardedRecoveryResult> RecoverPartitionsToLatest(
    const std::vector<EngineConfig>& shards, std::vector<StateTable>* out) {
  ShardedRecoveryResult result;
  result.shards.reserve(shards.size());
  out->clear();
  out->reserve(shards.size());
  for (uint32_t i = 0; i < shards.size(); ++i) {
    out->emplace_back(shards[i].layout);
    TP_ASSIGN_OR_RETURN(const RecoveryResult shard_result,
                        Recover(shards[i], &out->back()));
    AccumulateShard(shard_result, i, &result);
  }
  return result;
}

/// The one all-or-nothing loop behind cut and point-in-time recovery:
/// every partition lands at exactly the end of `tick` through
/// RecoverToHistoricTick (live stores first, retained history second).
/// When some shard cannot reproduce the tick (Corruption), the whole
/// fleet falls back to latest recovery -- used_manifest false, `out`
/// cleared and refilled -- rather than mixing timelines across shards.
/// Other errors propagate.
StatusOr<ShardedCutRecoveryResult> RecoverPartitionsToTick(
    const std::vector<EngineConfig>& shards, uint64_t tick,
    std::vector<StateTable>* out) {
  ShardedCutRecoveryResult result;
  result.used_manifest = true;
  result.cut_tick = tick;
  result.fleet.shards.reserve(shards.size());
  out->clear();
  out->reserve(shards.size());
  for (uint32_t i = 0; i < shards.size(); ++i) {
    out->emplace_back(shards[i].layout);
    auto shard_or = RecoverToHistoricTick(shards[i], tick, &out->back());
    if (!shard_or.ok()) {
      if (shard_or.status().code() != StatusCode::kCorruption) {
        return shard_or.status();
      }
      result = ShardedCutRecoveryResult{};
      TP_ASSIGN_OR_RETURN(result.fleet,
                          RecoverPartitionsToLatest(shards, out));
      return result;
    }
    AccumulateShard(shard_or.value(), i, &result.fleet);
  }
  return result;
}

}  // namespace

StatusOr<FleetRecoveryOutcome> RecoverFleet(const std::string& root,
                                            std::vector<StateTable>* out) {
  FleetRecoveryOutcome outcome;
  TP_ASSIGN_OR_RETURN(const std::vector<EngineConfig> shards,
                      ReadFleetForRecovery(root, &outcome.manifest));
  TP_ASSIGN_OR_RETURN(outcome.result.fleet,
                      RecoverPartitionsToLatest(shards, out));
  return outcome;
}

StatusOr<FleetRecoveryOutcome> RecoverFleetToCut(
    const std::string& root, std::vector<StateTable>* out) {
  FleetRecoveryOutcome outcome;
  TP_ASSIGN_OR_RETURN(const std::vector<EngineConfig> shards,
                      ReadFleetForRecovery(root, &outcome.manifest));
  auto cut_or = ReadCutManifest(root);
  if (!cut_or.ok()) {
    const StatusCode code = cut_or.status().code();
    // NotFound: the coordinator never committed (including a crash between
    // the last shard ack and the commit rename). Corruption: the manifest
    // is torn. Both mean "no committed cut" -- fall back to latest
    // recovery. Anything else is a real I/O failure.
    if (code != StatusCode::kNotFound && code != StatusCode::kCorruption) {
      return cut_or.status();
    }
    TP_ASSIGN_OR_RETURN(outcome.result.fleet,
                        RecoverPartitionsToLatest(shards, out));
    return outcome;
  }
  if (cut_or.value().shards.size() != shards.size()) {
    // A committed cut that disagrees with the fleet geometry is a
    // misconfiguration, not a missing cut: surface it instead of silently
    // recovering a partial fleet.
    return Status::InvalidArgument(
        "cut manifest in " + root + " records " +
        std::to_string(cut_or.value().shards.size()) +
        " shards, the fleet manifest " + std::to_string(shards.size()) +
        " partitions");
  }
  TP_ASSIGN_OR_RETURN(
      outcome.result,
      RecoverPartitionsToTick(shards, cut_or.value().cut_tick, out));
  return outcome;
}

StatusOr<FleetRecoveryOutcome> RecoverFleetToTick(
    const std::string& root, uint64_t tick, std::vector<StateTable>* out) {
  FleetRecoveryOutcome outcome;
  TP_ASSIGN_OR_RETURN(const std::vector<EngineConfig> shards,
                      ReadFleetForRecovery(root, &outcome.manifest));
  TP_ASSIGN_OR_RETURN(outcome.result,
                      RecoverPartitionsToTick(shards, tick, out));
  return outcome;
}

StatusOr<HistoryWindow> RestorableFleetWindow(const std::string& root) {
  FleetManifest manifest;
  TP_ASSIGN_OR_RETURN(const std::vector<EngineConfig> shards,
                      ReadFleetForRecovery(root, &manifest));
  HistoryWindow window;
  for (const EngineConfig& shard_config : shards) {
    const std::string& dir = shard_config.dir;
    auto index_or = ShardHistory::ReadIndex(dir);
    if (!index_or.ok()) {
      const StatusCode code = index_or.status().code();
      // No/torn history on any shard: the fleet advertises no window.
      if (code == StatusCode::kNotFound || code == StatusCode::kCorruption) {
        return HistoryWindow{};
      }
      return index_or.status();
    }
    TP_ASSIGN_OR_RETURN(
        const HistoryWindow shard,
        ShardHistory::ComputeWindow(dir, index_or.value()));
    if (!shard.any) return HistoryWindow{};
    if (!window.any) {
      window = shard;
    } else {
      window.low_tick = std::max(window.low_tick, shard.low_tick);
      window.high_tick = std::min(window.high_tick, shard.high_tick);
      if (window.low_tick > window.high_tick) return HistoryWindow{};
    }
  }
  return window;
}

}  // namespace tickpoint
