#include "engine/fleet.h"

#include <filesystem>
#include <utility>

#include "engine/paths.h"

namespace tickpoint {
namespace {

/// True when `root` holds shard directories from a pre-manifest fleet
/// (created before fleets wrote a superblock): data Create must refuse
/// to clobber even though no manifest announces it.
bool HasShardDirs(const std::string& root) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    uint32_t slot = 0;
    if (paths::ParseShardDirName(entry.path().filename().string(), &slot)) {
      return true;
    }
  }
  return false;
}

}  // namespace

StatusOr<RecoveredFleet> RecoveredFleet::Build(
    const std::string& root,
    const std::function<StatusOr<FleetRecoveryOutcome>(
        std::vector<StateTable>*)>& recover,
    std::optional<uint64_t> target_tick) {
  RecoveredFleet recovered;
  recovered.root_ = root;
  TP_ASSIGN_OR_RETURN(FleetRecoveryOutcome outcome,
                      recover(&recovered.tables_));
  recovered.manifest_ = std::move(outcome.manifest);
  recovered.result_ = std::move(outcome.result);
  recovered.target_tick_ = target_tick;
  return recovered;
}

StatusOr<std::unique_ptr<Fleet>> RecoveredFleet::Resume() {
  // A point-in-time landing resumes as a NEW fleet epoch (committed after
  // every shard resumed): the old timeline's future is retired inside each
  // Engine::OpenResumed, and the epoch bump is the fleet-wide commit point
  // of the new timeline.
  TP_ASSIGN_OR_RETURN(
      auto engine,
      ShardedEngine::OpenResumed(root_, manifest_, tables_, resume_tick(),
                                 /*bump_epoch=*/at_requested_tick()));
  return std::unique_ptr<Fleet>(new Fleet(root_, std::move(engine)));
}

StatusOr<std::unique_ptr<Fleet>> Fleet::Create(
    const std::string& root, const ShardedEngineConfig& config) {
  if (!config.shard.dir.empty() && config.shard.dir != root) {
    return Status::InvalidArgument(
        "Fleet::Create: config.shard.dir (" + config.shard.dir +
        ") disagrees with root (" + root + "); leave it empty");
  }
  if (!ListFleetManifestEpochs(root).empty()) {
    return Status::FailedPrecondition(
        root + " already holds a fleet manifest; Fleet::Create never "
               "clobbers an existing fleet (use Fleet::Open)");
  }
  if (HasShardDirs(root)) {
    // Shard dirs with NO manifest: a pre-manifest fleet (whose durable
    // state a "creation" must not truncate) or a Create interrupted
    // before its manifest commit. Either way refuse -- data safety wins
    // -- and name the remedies, since Fleet::Open cannot serve this root
    // (NotFound: no superblock).
    return Status::FailedPrecondition(
        root + " holds shard directories but no fleet manifest (a "
               "pre-manifest fleet, or an interrupted Fleet::Create); "
               "Fleet::Create never clobbers existing shard data. Remove "
               "the shard-* directories to discard them and re-run "
               "Create");
  }
  ShardedEngineConfig create_config = config;
  create_config.shard.dir = root;
  TP_ASSIGN_OR_RETURN(auto engine, ShardedEngine::Open(create_config));
  return std::unique_ptr<Fleet>(new Fleet(root, std::move(engine)));
}

StatusOr<std::unique_ptr<Fleet>> Fleet::Open(const std::string& root) {
  TP_ASSIGN_OR_RETURN(RecoveredFleet recovered, Recover(root));
  return recovered.Resume();
}

StatusOr<RecoveredFleet> Fleet::Recover(const std::string& root) {
  return RecoveredFleet::Build(root, [&](std::vector<StateTable>* out) {
    return RecoverFleet(root, out);
  });
}

StatusOr<RecoveredFleet> Fleet::RecoverToCut(const std::string& root) {
  return RecoveredFleet::Build(root, [&](std::vector<StateTable>* out) {
    return RecoverFleetToCut(root, out);
  });
}

StatusOr<RecoveredFleet> Fleet::RecoverToTick(const std::string& root,
                                              uint64_t tick) {
  return RecoveredFleet::Build(
      root,
      [&](std::vector<StateTable>* out) {
        return RecoverFleetToTick(root, tick, out);
      },
      tick);
}

Status Fleet::EndTick() {
  TP_RETURN_NOT_OK(engine_->EndTick());
  if (rebalancer_ != nullptr) {
    return rebalancer_->OnTickBoundary(engine_.get());
  }
  return Status::OK();
}

Status Fleet::EnableAutoRebalance(const RebalancePolicy& policy) {
  if (!policy.Valid()) {
    return Status::InvalidArgument(
        "invalid RebalancePolicy (imbalance_ratio must exceed 1, "
        "hysteresis_ticks must be positive, ewma_alpha in (0, 1])");
  }
  rebalancer_ = std::make_unique<Rebalancer>(policy);
  return Status::OK();
}

StatusOr<HistoryWindow> Fleet::RestorableWindow(const std::string& root) {
  return RestorableFleetWindow(root);
}

}  // namespace tickpoint
