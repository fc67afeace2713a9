#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "engine/checkpoint_session.h"
#include "engine/paths.h"
#include "util/crc32.h"

namespace tickpoint {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// A fresh Open starts a NEW incarnation with a new logical-log chain, so a
// previous process's images, chain and history -- whatever organization
// wrote them -- would splice into it. Wipe them before the stores open.
// (The resume path must NOT wipe: OpenResumed continues the chain.)
Status RemoveStaleCheckpointFiles(const std::string& dir) {
  std::error_code exists_ec;
  if (!std::filesystem::exists(dir, exists_ec)) return Status::OK();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t gen = 0;
    const bool backup_image = name == BackupStore::ImageFileName(0) ||
                              name == BackupStore::ImageFileName(1) ||
                              name == paths::DoublewriteFileName();
    if (backup_image || LogStore::ParseGenerationFileName(name, &gen)) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(entry.path().string()));
    }
  }
  if (ec) {
    return Status::IOError("list " + dir + ": " + ec.message());
  }
  TP_RETURN_NOT_OK(LogicalLog::TruncateChain(dir, 0, /*fsync=*/false));
  // A previous incarnation's history describes a timeline this fresh
  // incarnation abandons wholesale.
  std::error_code history_ec;
  std::filesystem::remove_all(paths::HistoryDir(dir), history_ec);
  if (history_ec) {
    return Status::IOError("remove " + paths::HistoryDir(dir) + ": " +
                           history_ec.message());
  }
  return Status::OK();
}

}  // namespace

Engine::Engine(const EngineConfig& config)
    : config_(config),
      traits_(GetTraits(config.algorithm)),
      state_(config.layout),
      dirty_{AtomicBitMap(config.layout.num_objects()),
             AtomicBitMap(config.layout.num_objects())},
      write_set_(config.layout.num_objects()),
      copied_(config.layout.num_objects()),
      locks_(config.layout.num_objects()),
      aux_(state_.buffer_bytes()) {}

StatusOr<std::unique_ptr<Engine>> Engine::Open(const EngineConfig& config) {
  if (!config.layout.Valid()) {
    return Status::InvalidArgument("invalid state layout");
  }
  if (config.dir.empty()) {
    return Status::InvalidArgument("EngineConfig.dir must be set");
  }
  TP_RETURN_NOT_OK(RemoveStaleCheckpointFiles(config.dir));
  std::unique_ptr<Engine> engine(new Engine(config));
  TP_RETURN_NOT_OK(engine->OpenStores());
  if (engine->history_ != nullptr) {
    // Archive the zeroed birth state as generation 0 (consistent tick 0):
    // the restorable window is well-defined from the first tick, and a
    // RecoverToTick aimed before the first checkpoint has a base image.
    TP_RETURN_NOT_OK(engine->history_->RecordGeneration(engine->state_, 0));
  }
  TP_RETURN_NOT_OK(engine->StartLogicalLogAndWriter());
  return engine;
}

StatusOr<std::unique_ptr<Engine>> Engine::OpenResumed(
    const EngineConfig& config, const StateTable& initial,
    uint64_t first_tick) {
  if (initial.layout().num_objects() != config.layout.num_objects()) {
    return Status::InvalidArgument("initial state layout mismatch");
  }
  std::unique_ptr<Engine> engine(new Engine(config));
  std::memcpy(engine->state_.mutable_data(), initial.data(),
              initial.buffer_bytes());
  engine->tick_ = first_tick;
  TP_RETURN_NOT_OK(engine->OpenStores());
  // `initial` is the old timeline at first_tick, so a bootstrap agrees
  // with the old chain: a death before the chain is cut back recovers the
  // old timeline, one after it the new. History's future goes first (that
  // only shrinks the advertised window).
  if (engine->history_ != nullptr) {
    TP_RETURN_NOT_OK(engine->history_->TruncateAbove(first_tick));
  }
  TP_ASSIGN_OR_RETURN(const bool continues, engine->ContinueChain());
  if (!continues) TP_RETURN_NOT_OK(engine->WriteBootstrapCheckpoint());
  TP_RETURN_NOT_OK(
      LogicalLog::TruncateChain(config.dir, first_tick, config.fsync));
  // Retired after the cut: before it, the bootstrap's old timeline may
  // still replay a segment straddling first_tick.
  if (!continues) {
    TP_RETURN_NOT_OK(engine->RetireLog(first_tick, &engine->state_));
  }
  TP_RETURN_NOT_OK(engine->StartLogicalLogAndWriter());
  return engine;
}

StatusOr<bool> Engine::ContinueChain() {
  // Number the coming checkpoints above every image on disk and find the
  // newest one. The dirty bits know nothing of the images, so the first
  // write to each backup (or log generation) covers all objects, beside
  // the image recovery restores, never over it.
  bool any = false;
  uint64_t newest = 0;
  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    ImageInfo info[2];
    for (int index = 0; index < 2; ++index) {
      TP_ASSIGN_OR_RETURN(info[index], backup_->Inspect(index));
      if (!info[index].valid) continue;
      any = true;
      newest = std::max(newest, info[index].consistent_tick);
      checkpoint_seq_ = std::max(checkpoint_seq_, info[index].seq + 1);
    }
    next_backup_ =
        info[0].valid && (!info[1].valid || info[0].seq > info[1].seq);
  } else {
    TP_ASSIGN_OR_RETURN(const std::vector<SegmentInfo> segments,
                        log_->RestorableSegments());
    next_log_gen_ = log_->NextFreshGeneration();
    any = !segments.empty();
    if (any) newest = segments.back().consistent_tick;
  }
  // No image, or one of a rolled-back future: the stores cannot reproduce
  // this tick. Otherwise the chain (its future still in place) must reach
  // it from the newest image.
  if (!any || newest > tick_) return false;
  if (newest == tick_) return true;
  TP_ASSIGN_OR_RETURN(const std::vector<LogSegment> chain,
                      LogicalLog::LiveChain(config_.dir));
  auto reach_or = LogicalLog::ReplayChain(chain, newest, tick_ - 1, nullptr);
  if (!reach_or.ok() && reach_or.status().code() != StatusCode::kCorruption) {
    return reach_or.status();
  }
  return reach_or.ok() && reach_or->records_applied > 0 &&
         reach_or->last_tick + 1 == tick_;
}

Status Engine::WriteBootstrapCheckpoint() {
  // Synchronously persist the resumed state (consistent through tick_ - 1)
  // under the seq/generation ContinueChain numbered above every image on
  // disk, so recovery prefers it; a new log generation's commit drops the
  // older ones.
  Job job;
  job.seq = checkpoint_seq_;
  job.consistent_ticks = tick_;
  job.all_objects = true;
  job.object_count = config_.layout.num_objects();
  job.log_gen = next_log_gen_;
  job.new_generation = traits_.disk == DiskOrganization::kLog;
  checkpoint_seq_ = job.seq + 1;
  if (traits_.disk == DiskOrganization::kLog) {
    next_log_gen_ = job.log_gen + 1;
    log_started_ = true;
    return WriteCheckpoint(job, state_.data());
  }
  // An empty slot, else the older image -- but never over an image that
  // may reach tick_, which with its chain must survive a death mid-write.
  // A sibling past tick_ is rolled-back future, retired once this is
  // durable; one at or below it agrees with both timelines.
  job.backup_index = next_backup_;
  TP_ASSIGN_OR_RETURN(const ImageInfo target, backup_->Inspect(next_backup_));
  if (target.valid && target.consistent_tick <= tick_) job.backup_index ^= 1;
  const int sibling = job.backup_index ^ 1;
  TP_ASSIGN_OR_RETURN(const ImageInfo other, backup_->Inspect(sibling));
  TP_RETURN_NOT_OK(WriteCheckpoint(job, state_.data()));
  if (other.valid && other.consistent_tick > tick_) {
    TP_RETURN_NOT_OK(backup_->BeginCheckpoint(sibling));
  }
  backup_written_[job.backup_index] = true;
  next_backup_ = sibling;
  return Status::OK();
}

Status Engine::OpenStores() {
  TP_RETURN_NOT_OK(EnsureDirectory(config_.dir));
  // One backend per engine: only the writer thread submits checkpoint
  // writes, so a single bounded queue is the whole pipeline.
  io_backend_ = IoBackend::Create(config_.io_backend);
  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    TP_ASSIGN_OR_RETURN(
        backup_, BackupStore::Open(config_.dir, config_.layout, config_.fsync,
                                   io_backend_.get()));
  } else {
    TP_ASSIGN_OR_RETURN(
        log_, LogStore::Open(config_.dir, config_.layout, config_.fsync));
  }
  if (config_.retention.enabled) {
    TP_ASSIGN_OR_RETURN(history_,
                        ShardHistory::Open(config_.dir, config_.layout,
                                           config_.retention, config_.fsync));
  }
  return Status::OK();
}

Status Engine::StartLogicalLogAndWriter() {
  TP_ASSIGN_OR_RETURN(
      logical_, LogicalLog::Open(config_.dir, tick_, config_.logical_sync_every,
                                 config_.fsync));
  writer_ = std::thread([this] { WriterMain(); });
  return Status::OK();
}

Engine::~Engine() {
  if (!shut_down_) {
    // Best effort; errors are reported through Shutdown in normal use.
    (void)Shutdown();
  }
}

void Engine::BeginTick() {
  TP_CHECK(!in_tick_ && !shut_down_);
  in_tick_ = true;
}

void Engine::ApplyUpdate(uint32_t cell, int32_t value) {
  TP_DCHECK(in_tick_);
  TP_DCHECK(cell < config_.layout.num_cells());
  HandleUpdate(config_.layout.ObjectOfCell(cell));
  state_.WriteCell(cell, value);
  tick_updates_.push_back(CellUpdate{cell, value});
  ++metrics_.updates;
}

void Engine::HandleUpdate(ObjectId object) {
  // Naive-Snapshot: no per-update work at all (Table 2: No-op).
  if (traits_.kind == AlgorithmKind::kNaiveSnapshot) return;

  if (traits_.dirty_only) {
    if (traits_.disk == DiskOrganization::kDoubleBackup) {
      dirty_[0].Set(object);
      dirty_[1].Set(object);
    } else {
      dirty_[0].Set(object);
    }
  }

  if (!active_job_ || !active_job_->cou_mode) return;
  const bool member =
      active_job_->all_objects || write_set_.Test(object);
  if (!member || copied_.Test(object)) return;

  // First touch of an unflushed member: save the pre-image before the
  // update lands. The bit may flip while we wait for the lock (the writer
  // reached the object first); re-check under the lock.
  const auto t0 = Clock::now();
  {
    ObjectLockGuard guard(&locks_, object);
    if (!copied_.Test(object)) {
      state_.CopyObjectTo(object,
                          aux_.data() + object * config_.layout.object_size);
      copied_.Set(object);
      ++metrics_.cou_copies;
    }
  }
  tick_cou_seconds_ += SecondsSince(t0);
}

Status Engine::EndTick() {
  TP_CHECK(in_tick_);
  in_tick_ = false;

  if (!injected_end_tick_error_.ok()) {
    // Fail before the logical append and the tick advance: this tick's
    // updates are lost and the engine freezes at the current tick (a later
    // Shutdown/SimulateCrash still works).
    Status injected = std::move(injected_end_tick_error_);
    injected_end_tick_error_ = Status::OK();
    tick_updates_.clear();
    tick_cou_seconds_ = 0.0;
    return injected;
  }

  // Group-commit the tick's logical updates.
  TP_RETURN_NOT_OK(logical_->AppendTick(tick_, tick_updates_));
  tick_updates_.clear();

  double pause = 0.0;
  if (!crashed_.load(std::memory_order_acquire)) {
    if (active_job_ && job_done_.load(std::memory_order_acquire)) {
      TP_RETURN_NOT_OK(writer_status_);
      FinalizeJob();
    }
    const bool cut_now = cut_checkpoint_requested_.exchange(
        false, std::memory_order_acq_rel);
    if (cut_now) {
      // Consistent-cut checkpoint: unlike the deferrable manual request,
      // the cut MUST cover exactly this tick. Drain whatever flush is
      // still in flight, then start the cut checkpoint at this tick.
      const auto stall_start = Clock::now();
      if (active_job_) {
        WaitForJobDone();
        TP_RETURN_NOT_OK(writer_status_);
        FinalizeJob();
      }
      TP_ASSIGN_OR_RETURN(pause, StartCheckpoint(stall_start));
      last_start_tick_ = tick_;
      if (config_.io_backend == IoBackendKind::kSync) {
        // Sync backend: block until the cut image is durable; the whole
        // block is the mutator stall the fleet bench reports (the writer
        // is idle again, so the job may be rewritten here).
        WaitForJobDone();
        TP_RETURN_NOT_OK(writer_status_);
        active_job_->cut_stall_seconds = SecondsSince(stall_start);
        // The stall subsumes any eager-copy pause: report the whole block
        // as this tick's overhead.
        pause = active_job_->cut_stall_seconds;
        FinalizeJob();
      } else {
        // Async pipeline: StartCheckpoint took the tick-T snapshot (the
        // COW rule -- eager copy or cleared copy-bits), so the image's
        // content is already decided; the write itself completes on the
        // writer thread and is reaped at a later tick boundary (or by
        // CompletePendingCheckpoint). The mutator-visible stall is the
        // drain + snapshot only -- never the disk -- and StartCheckpoint
        // recorded it before publishing the job to the writer thread.
        pause = active_job_->cut_stall_seconds;
      }
    }
    const bool interval_elapsed =
        checkpoint_seq_ == 0 ||
        tick_ >= last_start_tick_ + config_.checkpoint_interval_ticks;
    if (!cut_now && !active_job_) {
      // Consume the manual request atomically only when a checkpoint can
      // actually start: a request racing in from another thread is either
      // claimed by this exchange or stays pending for the next EndTick,
      // never silently dropped.
      const bool want_start =
          config_.manual_checkpoints
              ? checkpoint_requested_.exchange(false,
                                               std::memory_order_acq_rel)
              : interval_elapsed;
      if (want_start) {
        TP_ASSIGN_OR_RETURN(pause, StartCheckpoint());
        last_start_tick_ = tick_;
      }
    }
  }

  metrics_.tick_overhead.Add(tick_cou_seconds_ + pause);
  tick_cou_seconds_ = 0.0;
  ++tick_;
  return Status::OK();
}

StatusOr<double> Engine::StartCheckpoint(
    std::optional<Clock::time_point> cut_stall_start) {
  TP_CHECK(!active_job_.has_value());
  // This tick's record is the last of the open segment: the checkpoint's
  // consistent tick opens the next one, so every segment boundary is a
  // point some image may restore to.
  TP_RETURN_NOT_OK(logical_->Rotate());
  Job job;
  job.seq = checkpoint_seq_++;
  job.start_tick = tick_;
  job.consistent_ticks = tick_ + 1;  // effects of ticks [0, tick_] included
  job.cut = cut_stall_start.has_value();
  job.full_flush =
      traits_.partial_redo && (job.seq % config_.full_flush_period == 0);

  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    job.backup_index = next_backup_;
    next_backup_ ^= 1;
  }
  const bool first_image = traits_.disk == DiskOrganization::kDoubleBackup
                               ? !backup_written_[job.backup_index]
                               : !log_started_;
  job.all_objects = !traits_.dirty_only || job.full_flush || first_image;
  job.cou_mode = !traits_.eager_copy || job.full_flush;

  const uint64_t n = config_.layout.num_objects();
  if (job.all_objects) {
    job.object_count = n;
    if (traits_.dirty_only) {
      // The full write covers every pending dirty object of this target.
      if (traits_.disk == DiskOrganization::kDoubleBackup) {
        dirty_[job.backup_index].ClearAll();
      } else {
        dirty_[0].ClearAll();
      }
    }
  } else {
    AtomicBitMap& source = traits_.disk == DiskOrganization::kDoubleBackup
                               ? dirty_[job.backup_index]
                               : dirty_[0];
    source.ExchangeInto(&write_set_);
    job.object_count = write_set_.CountSet();
  }

  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    backup_written_[job.backup_index] = true;
  } else {
    if (job.all_objects) {
      job.log_gen = next_log_gen_++;
      job.new_generation = true;
    } else {
      TP_CHECK(next_log_gen_ > 0);
      job.log_gen = next_log_gen_ - 1;
    }
    log_started_ = true;
  }

  // Copy-To-Memory: the synchronous pause of eager algorithms.
  double pause = 0.0;
  if (!job.cou_mode) {
    const auto t0 = Clock::now();
    if (job.all_objects) {
      std::memcpy(aux_.data(), state_.data(), state_.buffer_bytes());
    } else {
      const uint64_t object_size = config_.layout.object_size;
      for (uint64_t o = 0; o < n; ++o) {
        if (!write_set_.Test(o)) continue;
        // Coalesce contiguous dirty runs into single memcpys.
        uint64_t end = o + 1;
        while (end < n && write_set_.Test(end)) ++end;
        std::memcpy(aux_.data() + o * object_size,
                    state_.ObjectData(o), (end - o) * object_size);
        o = end - 1;
      }
    }
    pause = SecondsSince(t0);
  } else {
    copied_.ClearAll();
  }
  job.sync_seconds = pause;
  if (job.cut) job.cut_stall_seconds = SecondsSince(*cut_stall_start);

  active_job_ = job;
  job_done_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_pending_ = true;
  }
  cv_.notify_one();
  return pause;
}

void Engine::FinalizeJob() {
  TP_CHECK(active_job_.has_value());
  EngineCheckpointRecord record;
  record.seq = active_job_->seq;
  record.start_tick = active_job_->start_tick;
  record.consistent_ticks = active_job_->consistent_ticks;
  record.all_objects = active_job_->all_objects;
  record.full_flush = active_job_->full_flush;
  record.cut = active_job_->cut;
  record.cut_stall_seconds = active_job_->cut_stall_seconds;
  record.objects_written = active_job_->object_count;
  record.bytes_written =
      active_job_->object_count * config_.layout.object_size;
  record.sync_seconds = active_job_->sync_seconds;
  record.async_seconds = job_async_seconds_;
  metrics_.checkpoints.push_back(record);
  active_job_.reset();
  job_done_.store(false, std::memory_order_release);
}

void Engine::WriterMain() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return job_pending_ || writer_exit_; });
      if (!job_pending_) return;  // exit requested, nothing in flight
      job = *active_job_;
      job_pending_ = false;
    }
    const auto t0 = Clock::now();
    const Status status = ExecuteJob(job);
    job_async_seconds_ = SecondsSince(t0);
    if (writer_status_.ok() && !status.ok() &&
        !crashed_.load(std::memory_order_acquire)) {
      writer_status_ = status;
    }
    {
      // Publish under mu_ so a mutator blocked in WaitForJobDone (the
      // synchronous cut path) re-checks its predicate under the same lock
      // and can never miss this notify.
      std::lock_guard<std::mutex> lock(mu_);
      job_done_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }
}

void Engine::WaitForJobDone() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [this] { return job_done_.load(std::memory_order_acquire); });
}

const uint8_t* Engine::CouSource(ObjectId object, uint8_t* staging) {
  const uint64_t object_size = config_.layout.object_size;
  if (copied_.Test(object)) {
    // Pre-image saved by the mutator; stable once the bit is visible.
    return aux_.data() + object * object_size;
  }
  ObjectLockGuard guard(&locks_, object);
  if (copied_.Test(object)) {
    return aux_.data() + object * object_size;
  }
  // Copy the live object under the lock, *then* publish the bit: a mutator
  // seeing the bit set may write cells freely without tearing this image.
  state_.CopyObjectTo(object, staging);
  copied_.Set(object);
  return staging;
}

Status Engine::ExecuteJob(const Job& job) {
  // Eager jobs write the snapshot in aux_; copy-on-update jobs fetch the
  // live objects (Write-Copies vs Write-Objects).
  TP_RETURN_NOT_OK(WriteCheckpoint(job, job.cou_mode ? nullptr : aux_.data()));
  if (history_ == nullptr) return RetireLog(job.consistent_ticks, nullptr);
  // Retention: the generation mirrors the committed image, read back from
  // the store (the mutator may already be ticks ahead of it).
  if (history_scratch_ == nullptr) {
    history_scratch_ = std::make_unique<StateTable>(config_.layout);
  }
  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    TP_RETURN_NOT_OK(backup_->ReadAll(job.backup_index,
                                      history_scratch_.get()));
  } else {
    TP_RETURN_NOT_OK(log_->Restore(history_scratch_.get(),
                                   job.consistent_ticks).status());
  }
  return RetireLog(job.consistent_ticks, history_scratch_.get());
}

Status Engine::RetireLog(uint64_t consistent_tick,
                         const StateTable* generation) {
  // The oldest consistent tick the live stores can still restore: the
  // older valid backup image, or the full flush of the current generation.
  uint64_t floor = generation_base_tick_;
  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    floor = UINT64_MAX;
    for (int index = 0; index < 2; ++index) {
      TP_ASSIGN_OR_RETURN(const ImageInfo info, backup_->Inspect(index));
      if (info.valid) floor = std::min(floor, info.consistent_tick);
    }
  }
  TP_ASSIGN_OR_RETURN(std::vector<LogSegment> chain,
                      LogicalLog::LiveChain(config_.dir));
  std::vector<LogSegment> retired;
  for (LogSegment& segment : chain) {
    // The open segment starts at this image's tick (no rotation runs while
    // a checkpoint is in flight), so every sealed record lies below it.
    segment.last_tick = std::min(segment.last_tick, consistent_tick - 1);
    if (segment.first_tick < consistent_tick && segment.last_tick < floor) {
      retired.push_back(segment);
    }
  }
  if (history_ != nullptr) {
    return history_->RecordGeneration(*generation, consistent_tick, retired);
  }
  for (const LogSegment& segment : retired) {
    TP_RETURN_NOT_OK(RemoveFileIfExists(segment.path));
  }
  return Status::OK();
}

Status Engine::WriteCheckpoint(const Job& job, const uint8_t* snapshot) {
  const uint64_t n = config_.layout.num_objects();
  const uint64_t object_size = config_.layout.object_size;
  const bool backup = traits_.disk == DiskOrganization::kDoubleBackup;
  auto crashed = [this] {
    return crashed_.load(std::memory_order_relaxed);
  };

  if (backup) {
    TP_RETURN_NOT_OK(backup_->BeginCheckpoint(job.backup_index));
  } else {
    if (job.new_generation) {
      TP_RETURN_NOT_OK(log_->BeginGeneration(job.log_gen));
    }
    TP_RETURN_NOT_OK(log_->BeginSegment(job.seq, job.consistent_ticks,
                                        job.all_objects, job.object_count));
  }
  // Objects are gathered into the session's aligned group buffers (the COW
  // point -- after Add returns, the mutator may overwrite the source), and
  // each run goes to the store as it is emitted: submitted in place through
  // the backend, or appended as one record run. In-place writes read
  // straight out of the session's buffers, so the session outlives
  // FinishCheckpoint, and its destructor drains the backend on every error
  // path.
  std::vector<uint8_t> staging(object_size);
  CheckpointWriteSession session(
      object_size, backup ? io_backend_.get() : nullptr,
      [&](ObjectId first, const uint8_t* data, uint64_t count) {
        return backup ? backup_->WriteRange(job.backup_index, first, data,
                                            count)
                      : log_->AppendRun(first, data, count);
      });
  Status status = Status::OK();
  for (uint64_t o = 0; o < n && status.ok(); ++o) {
    if (!job.all_objects && !write_set_.Test(o)) continue;
    if (crashed()) {
      status = Status::Internal("crash injected");
      break;
    }
    const uint8_t* src = snapshot != nullptr ? snapshot + o * object_size
                                             : CouSource(o, staging.data());
    status = session.Add(o, src);
  }
  if (status.ok()) status = session.Finish();
  if (status.ok() && crashed()) status = Status::Internal("crash injected");
  if (!status.ok()) {
    if (!backup) log_->AbortSegment();
    return status;
  }
  if (backup) {
    const uint32_t state_crc =
        config_.checksum_state && snapshot != nullptr && job.all_objects
            ? Crc32(snapshot, state_.buffer_bytes())
            : 0;
    return backup_->FinishCheckpoint(job.backup_index, job.seq,
                                     job.consistent_ticks, state_crc);
  }
  TP_RETURN_NOT_OK(log_->CommitSegment());
  if (!job.new_generation) return Status::OK();
  generation_base_tick_ = job.consistent_ticks;
  return log_->DropGenerationsBefore(job.log_gen);
}

Status Engine::CompletePendingCheckpoint() {
  // The reap half of the async cut: wait for the writer to finish the
  // in-flight job and fold its record into metrics. Callable only between
  // ticks, from the thread that drives EndTick (same ownership rules as
  // StartCheckpoint); a no-op when nothing is in flight.
  TP_CHECK(!in_tick_);
  if (crashed_.load(std::memory_order_acquire)) return writer_status_;
  if (!active_job_) return writer_status_;
  WaitForJobDone();
  TP_RETURN_NOT_OK(writer_status_);
  FinalizeJob();
  return Status::OK();
}

Status Engine::Shutdown() {
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  // Drain the in-flight checkpoint (unless crashed).
  while (active_job_ && !crashed_.load(std::memory_order_acquire) &&
         !job_done_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_exit_ = true;
  }
  cv_.notify_one();
  if (writer_.joinable()) writer_.join();
  if (active_job_ && job_done_.load(std::memory_order_acquire) &&
      writer_status_.ok() && !crashed_.load(std::memory_order_acquire)) {
    FinalizeJob();
  }
  // logical_ is null when construction failed before the log was created
  // (the destructor still runs Shutdown).
  if (logical_ != nullptr) {
    TP_RETURN_NOT_OK(logical_->Close());
  }
  return writer_status_;
}

Status Engine::SimulateCrash() {
  TP_CHECK(!shut_down_);
  crashed_.store(true, std::memory_order_release);
  shut_down_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_exit_ = true;
  }
  cv_.notify_one();
  if (writer_.joinable()) writer_.join();
  // The logical log survives to the last EndTick (Close syncs the tail);
  // tests model a lost group-commit window with file operations.
  return logical_->Close();
}

}  // namespace tickpoint
