// On-disk checkpoint organizations (paper Section 3.2, "Data organization
// on disk").
//
// BackupStore -- the double-backup organization of Salem & Garcia-Molina:
// two in-place images; checkpoints alternate between them so one complete,
// consistent image exists at all times. Each image file is
// [header][object 0][object 1]...; objects are written at their fixed
// offsets in increasing order (the sorted-I/O pattern). A checkpoint is
// BeginCheckpoint -> WriteRange* -> FinishCheckpoint: the header is
// invalidated (fsync) before any data write, the group-buffer runs are
// submitted in place through the store's IoBackend, and the header is
// revalidated (fsync) only after every run landed and the data is durable.
// A torn checkpoint is therefore never eligible for recovery, and the
// sibling image stays untouched.
//
// LogStore -- the log organization of the partial-redo family: checkpoints
// are appended as self-validating segments. A full flush starts a new log
// generation; once it commits, older generations are deleted (this bounds
// the log read-back at recovery to C incremental segments plus one full
// flush, the paper's (k*C + n) model). Appends are torn-safe by the
// trailing segment CRC; records are appended one group-buffer run at a
// time (AppendRun).
#ifndef TICKPOINT_ENGINE_CHECKPOINT_STORE_H_
#define TICKPOINT_ENGINE_CHECKPOINT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/state_table.h"
#include "model/layout.h"
#include "util/io.h"
#include "util/io_backend.h"
#include "util/status.h"

namespace tickpoint {

/// Metadata describing one complete on-disk image.
struct ImageInfo {
  bool valid = false;
  uint64_t seq = 0;              // checkpoint sequence number
  uint64_t consistent_tick = 0;  // state is consistent as of this tick's end
  uint32_t state_crc = 0;        // 0 = not recorded
};

/// The double-backup store: files backup0.img and backup1.img under `dir`.
class BackupStore {
 public:
  /// Opens both backup files sized for `layout`. `backend` routes the
  /// in-place data writes (null: the store owns a private synchronous
  /// backend). A `writable` open creates missing files and deletes the
  /// doublewrite region (paths::DoublewriteFileName) an older build may
  /// have left behind. `writable` false is inspection: nothing is created
  /// or modified, a missing image reads as invalid, and every write
  /// returns FailedPrecondition.
  static StatusOr<std::unique_ptr<BackupStore>> Open(
      const std::string& dir, const StateLayout& layout, bool fsync_enabled,
      IoBackend* backend = nullptr, bool writable = true);

  /// Bare filename of backup image `index` ("backup0.img"/"backup1.img") --
  /// the single owner of the naming rule.
  static std::string ImageFileName(int index);

  /// Durably invalidates backup `index`'s header; must precede data writes.
  Status BeginCheckpoint(int index);

  /// Submits `count` consecutive objects starting at `first` from `data`
  /// to their in-place offsets. `data` must stay valid until
  /// FinishCheckpoint returns or the backend is drained.
  Status WriteRange(int index, ObjectId first, const void* data,
                    uint64_t count);

  /// Makes the image durable and valid: waits for the submitted writes,
  /// fsyncs the data, then writes + fsyncs the header. `state_crc` may be
  /// 0 (unchecked).
  Status FinishCheckpoint(int index, uint64_t seq, uint64_t consistent_tick,
                          uint32_t state_crc);

  /// Reads and validates backup `index`'s header.
  StatusOr<ImageInfo> Inspect(int index);

  /// Sequentially reads the whole image into `out`. If the header recorded
  /// a state CRC, verifies it.
  Status ReadAll(int index, StateTable* out);

  const std::string& path(int index) const;

 private:
  BackupStore(const StateLayout& layout, bool fsync_enabled);
  /// FailedPrecondition unless the store was opened writable.
  Status CheckWritable() const;
  /// Flush semantics of the old FileWriter path are free with fds (no
  /// userspace buffer); durability still honors fsync_enabled_.
  Status MakeDurable(int index);

  StateLayout layout_;
  bool fsync_enabled_;
  std::string paths_[2];
  /// Open only in a writable store.
  IoFile files_[2];

  /// Write routing. backend_ points at the engine-owned backend, or at
  /// owned_backend_ when the caller supplied none; null when read-only.
  IoBackend* backend_ = nullptr;
  std::unique_ptr<IoBackend> owned_backend_;
  /// Ticket of the newest WriteRange submission (0: none pending).
  IoTicket last_write_ = 0;
};

/// One segment inside a log generation (for inspection/tests).
struct SegmentInfo {
  uint64_t seq = 0;
  uint64_t consistent_tick = 0;
  uint64_t object_count = 0;
  bool full_flush = false;
};

/// The append-only checkpoint log, organized in generations.
class LogStore {
 public:
  /// Opens the generations under `dir`. A `writable` open creates a
  /// missing directory. `writable` false is inspection: nothing is created
  /// or modified, a missing directory holds no generation, and every write
  /// returns FailedPrecondition.
  static StatusOr<std::unique_ptr<LogStore>> Open(const std::string& dir,
                                                  const StateLayout& layout,
                                                  bool fsync_enabled,
                                                  bool writable = true);

  /// True if the bare filename `name` is a generation file ("log-N.img"),
  /// storing N in *gen -- the single owner of the naming rule, shared by
  /// the open-time scan, the stale sweeps, and Engine's fresh-open wipe.
  static bool ParseGenerationFileName(const std::string& name, uint64_t* gen);

  /// Starts generation `gen` (creates/truncates log-<gen>.img). Must be
  /// followed by a full-flush segment.
  Status BeginGeneration(uint64_t gen);

  /// Starts appending a segment of exactly `object_count` objects to the
  /// current generation.
  Status BeginSegment(uint64_t seq, uint64_t consistent_tick, bool full_flush,
                      uint64_t object_count);
  /// Appends `count` records for consecutive ids starting at `first`, with
  /// payloads packed contiguously at `data` -- one buffered write per
  /// group-buffer run.
  Status AppendRun(ObjectId first, const void* data, uint64_t count);
  /// Seals the segment (trailing CRC) and makes it durable. All declared
  /// objects must have been appended.
  Status CommitSegment();
  /// Abandons an open segment (crash injection); the torn bytes remain.
  void AbortSegment();

  /// Deletes every generation file with gen < `gen` (a full directory
  /// scan): a committed full flush retires all older generations, whatever
  /// numbers a previous incarnation left behind.
  Status DropGenerationsBefore(uint64_t gen);

  /// First generation number strictly above every generation file found on
  /// disk when the store was opened: what a resumed engine claims so its
  /// writes outrank stale state.
  uint64_t NextFreshGeneration() const { return current_gen_ + 1; }

  /// Restores the newest recoverable image: picks the highest generation
  /// whose full flush is intact and consistent no later than
  /// `max_consistent_tick`, applies its valid segments with consistent
  /// tick <= the bound in order, and reports the consistent tick reached.
  /// `out` must be zero/any state; it is fully overwritten by the full
  /// flush. The bound (default: none) is how cut recovery rewinds past
  /// checkpoints newer than the cut.
  StatusOr<ImageInfo> Restore(StateTable* out,
                              uint64_t max_consistent_tick = UINT64_MAX);

  /// The valid segments, with consistent tick <= the bound, of the
  /// generation Restore would pick (stored in *gen when non-null), oldest
  /// first: the images it can reach. Empty when nothing is restorable.
  StatusOr<std::vector<SegmentInfo>> RestorableSegments(
      uint64_t max_consistent_tick = UINT64_MAX, uint64_t* gen = nullptr);

  /// Lists the valid segments of generation `gen` (tests/inspection).
  StatusOr<std::vector<SegmentInfo>> ListSegments(uint64_t gen);

  uint64_t current_generation() const { return current_gen_; }

 private:
  LogStore(std::string dir, const StateLayout& layout, bool fsync_enabled,
           bool writable);
  /// FailedPrecondition unless the store was opened writable.
  Status CheckWritable() const;
  Status MakeDurable(FileWriter* writer);

  std::string GenPath(uint64_t gen) const;
  /// Scans a generation file; applies records of segments with consistent
  /// tick <= `max_consistent_tick` to `out` if non-null (later segments
  /// are still listed).
  StatusOr<std::vector<SegmentInfo>> ScanGeneration(
      uint64_t gen, StateTable* out,
      uint64_t max_consistent_tick = UINT64_MAX);

  std::string dir_;
  StateLayout layout_;
  bool fsync_enabled_;
  bool writable_;
  uint64_t current_gen_ = 0;
  bool gen_open_ = false;
  FileWriter writer_;
  uint64_t append_offset_ = 0;
  // Open-segment accounting.
  bool segment_open_ = false;
  uint32_t segment_crc_ = 0;
  uint64_t segment_objects_declared_ = 0;
  uint64_t segment_objects_written_ = 0;
  /// Reused serialization buffer for AppendRun records.
  std::vector<uint8_t> run_buf_;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_CHECKPOINT_STORE_H_
