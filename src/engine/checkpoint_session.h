// CheckpointWriteSession: the snapshot half of the checkpoint pipeline.
//
// A session gathers a checkpoint's objects into large 4096-aligned group
// buffers and emits them as contiguous runs, so the store layer sees a few
// big writes (one in-place write per run for BackupStore, one appended
// record run for LogStore) instead of thousands of small ones. Writer jobs
// and the resume bootstrap both write through a session.
//
// Lifetime contract: emitted runs point INTO the session's buffers, and
// BackupStore may still have async in-place writes in flight against them
// until FinishCheckpoint. The session therefore retains every buffer until
// it is destroyed, and its destructor drains the IoBackend -- so even an
// error/crash-injection path that abandons a checkpoint mid-flight cannot
// free memory under a pending write.
#ifndef TICKPOINT_ENGINE_CHECKPOINT_SESSION_H_
#define TICKPOINT_ENGINE_CHECKPOINT_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "model/layout.h"
#include "util/io_backend.h"
#include "util/status.h"

namespace tickpoint {

class CheckpointWriteSession {
 public:
  /// Receives one coalesced run: `count` objects starting at id `first`,
  /// packed contiguously at `data` (count * object_size bytes, stable
  /// until the session dies).
  using EmitRun = std::function<Status(ObjectId first, const uint8_t* data,
                                       uint64_t count)>;

  /// Group buffers default to 256 KiB -- large enough that a full image
  /// flush is a few hundred submissions, small enough that a fragmented
  /// dirty set wastes little slack.
  static constexpr uint64_t kDefaultGroupBufferBytes = 256 * 1024;

  /// `backend` may be null when the emit path does no async IO (LogStore
  /// appends); otherwise the destructor drains it.
  CheckpointWriteSession(uint64_t object_size, IoBackend* backend,
                         EmitRun emit,
                         uint64_t group_buffer_bytes = kDefaultGroupBufferBytes);
  ~CheckpointWriteSession();

  CheckpointWriteSession(const CheckpointWriteSession&) = delete;
  CheckpointWriteSession& operator=(const CheckpointWriteSession&) = delete;

  /// Snapshots one object into the current group buffer. Consecutive ids
  /// extend the open run; a gap (or a full buffer) flushes it. This is the
  /// copy-on-write point: after Add returns, the mutator may overwrite the
  /// source freely.
  Status Add(ObjectId object, const void* data);

  /// Flushes the open run. Emitted buffers stay valid until destruction.
  Status Finish();

  uint64_t runs_emitted() const { return runs_emitted_; }
  uint64_t objects_added() const { return objects_added_; }

 private:
  Status FlushRun();
  /// Points cursor_ at a buffer with room for at least one object.
  void EnsureBufferSpace();

  struct FreeDeleter {
    void operator()(uint8_t* p) const;
  };
  using AlignedBuffer = std::unique_ptr<uint8_t[], FreeDeleter>;

  const uint64_t object_size_;
  const uint64_t buffer_bytes_;
  IoBackend* backend_;
  EmitRun emit_;

  /// All buffers ever allocated, retained for the session lifetime.
  std::vector<AlignedBuffer> buffers_;
  uint8_t* cursor_ = nullptr;     // next free byte in the current buffer
  uint64_t cursor_left_ = 0;      // bytes left in the current buffer
  const uint8_t* run_data_ = nullptr;
  ObjectId run_first_ = 0;
  uint64_t run_count_ = 0;

  uint64_t runs_emitted_ = 0;
  uint64_t objects_added_ = 0;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_CHECKPOINT_SESSION_H_
