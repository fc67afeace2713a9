// Point-in-time recovery history (ROADMAP item 4, WiredTiger's staged
// checkpoint + history store shape): under a RetentionPolicy, checkpoints
// become *generations* instead of being retired. Each shard keeps, inside
// `<shard>/history/`:
//
//   gen-<seq>.img  a self-describing full-state image (own CRC'd header
//                  recording seq / consistent tick / geometry, plus a CRC
//                  over the payload), written right after the checkpoint it
//                  mirrors became durable;
//   seg-<id>.log   a sealed live logical-log segment (engine/logical_log.h)
//                  history took over by hard link -- never copied or
//                  rewritten; it, the live sealed segments and logical.log
//                  form one chain (LogicalLog::ReplayChain);
//   index.bin      the CRC'd HistoryIndex mapping tick ranges to
//                  generations and segments.
//
// The index is the source of truth. Every mutation follows the same
// crash-atomic protocol: new payload files (a generation image, segment
// links) are made durable FIRST, then the index is rewritten via tmp +
// rename + directory fsync, and only then are retired files unlinked or
// cut back. A crash at any step leaves an intact index (old or new);
// unreferenced files are orphans, swept on the next writable open and
// ignored by read-only opens; a segment file longer than its entry (a cut
// that did not happen) is read only up to the entry's last tick; a live
// segment that outlived its adoption is harmless duplicate coverage. A
// CRC-torn index can therefore only mean real partial-write corruption --
// readers surface Corruption and point-in-time recovery falls back to
// latest recovery.
//
// Tick convention (identical to the checkpoint stores): a generation's
// `consistent_tick` C means the image contains the effects of ticks
// [0, C). "Recover to end of tick T" = load a generation with C <= T + 1,
// replay logical records for ticks [C, T], resume at T + 1.
#ifndef TICKPOINT_ENGINE_HISTORY_H_
#define TICKPOINT_ENGINE_HISTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/logical_log.h"
#include "engine/state_table.h"
#include "model/layout.h"
#include "util/status.h"

namespace tickpoint {

/// How much history a shard retains. Persisted in the fleet manifest so
/// the writer and every post-crash reader agree on the window.
struct RetentionPolicy {
  /// Off (the default): checkpoints retire as before, no history dir.
  bool enabled = false;
  /// Keep at most this many generations (the newest always survives).
  uint64_t max_generations = 4;
  /// Additionally drop generations whose consistent tick trails the newest
  /// by more than this many ticks. 0 = bounded by max_generations only.
  uint64_t max_retained_ticks = 0;

  bool Valid() const { return !enabled || max_generations >= 1; }
  bool operator==(const RetentionPolicy&) const = default;
};

/// In-memory form of index.bin.
struct HistoryIndex {
  struct Generation {
    uint64_t seq = 0;
    uint64_t consistent_tick = 0;  // effects of ticks [0, C) included
    uint64_t bytes = 0;            // on-disk size of gen-<seq>.img
    bool operator==(const Generation&) const = default;
  };
  struct Segment {
    uint64_t id = 0;
    uint64_t first_tick = 0;  // ticks covered: [first_tick, last_tick]
    uint64_t last_tick = 0;
    uint64_t bytes = 0;  // on-disk size of seg-<id>.log
    bool operator==(const Segment&) const = default;
  };

  uint64_t next_generation_seq = 0;
  uint64_t next_segment_id = 0;
  uint64_t compactions_run = 0;
  std::vector<Generation> generations;  // ascending seq (and tick)
  std::vector<Segment> segments;        // ascending first_tick

  /// Total referenced payload bytes (generations + segments).
  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const auto& g : generations) total += g.bytes;
    for (const auto& s : segments) total += s.bytes;
    return total;
  }
};

/// The restorable tick window advertised by one shard's history: every
/// tick T in [low_tick, high_tick] satisfies RecoverShardToHistoricTick.
struct HistoryWindow {
  bool any = false;
  uint64_t low_tick = 0;
  uint64_t high_tick = 0;
};

/// Crash-injection points for the archival/compaction protocol sweeps.
/// Each fires once, after the named step completed (the disk holds exactly
/// what a crash there would leave), as Internal("crash injected").
enum class HistoryCrashPoint {
  kNone = 0,
  /// Archival: generation image durable, index not yet rewritten.
  kAfterGenerationFile,
  /// Index rewrite: tmp file durable, rename not done.
  kAfterIndexTmp,
  /// Index rewrite: rename done, directory fsync + file deletes not done.
  kAfterIndexRename,
  /// Any index rewrite: committed, retired files not yet deleted or cut.
  kBeforeCompactionDeletes,
};

/// Writer-side handle on one shard's history directory. Owned by the
/// Engine when retention is enabled; all methods run on one thread at a
/// time (the engine calls them from the writer thread after checkpoint
/// completion, and from the open path before the writer starts).
class ShardHistory {
 public:
  /// Opens (creating if needed) `<shard_dir>/history`, loads the index
  /// (empty when none exists yet), and sweeps orphaned payload files left
  /// by an interrupted archival or compaction. A torn index is reset to
  /// empty.
  static StatusOr<std::unique_ptr<ShardHistory>> Open(
      const std::string& shard_dir, const StateLayout& layout,
      const RetentionPolicy& policy, bool fsync);

  // ---- Read-only side (recovery, tickpoint_inspect): never mutates. ----

  /// Reads and validates index.bin. NotFound when the shard has no history
  /// directory or index; Corruption when the index is torn.
  static StatusOr<HistoryIndex> ReadIndex(const std::string& shard_dir);

  /// Loads generation `seq`'s image into `out` (layout-checked,
  /// payload-CRC-verified) and returns its consistent tick.
  static StatusOr<uint64_t> ReadGenerationImage(const std::string& shard_dir,
                                                uint64_t seq,
                                                StateTable* out);

  /// The shard's whole chain: `index`'s segments, then the live chain.
  static StatusOr<std::vector<LogSegment>> Chain(const std::string& shard_dir,
                                                 const HistoryIndex& index);

  /// The shard's restorable window over `index`'s generations and the
  /// chain: every tick inside it really is restorable.
  static StatusOr<HistoryWindow> ComputeWindow(const std::string& shard_dir,
                                               const HistoryIndex& index);

  // ---- Writer side. ----

  /// Archives `state` as a generation with consistent tick C (skipped when
  /// the index already reaches C), takes the `retired` live segments over
  /// by hard link, and compacts -- one index write -- then unlinks the
  /// retired live names. One call per completed checkpoint keeps disk
  /// self-bounded.
  Status RecordGeneration(const StateTable& state, uint64_t consistent_tick,
                          const std::vector<LogSegment>& retired = {});

  /// Retires the divergent future at a resume so it can never shadow the
  /// new timeline: drops generations with consistent tick > first_tick and
  /// segments starting at or after it, and cuts the one straddling it in
  /// place at a record boundary, after the shrunken index committed.
  Status TruncateAbove(uint64_t first_tick);

  /// Applies the retention policy: drops expired generations and the
  /// whole segments no surviving generation needs.
  Status Compact();

  const HistoryIndex& index() const { return index_; }

  /// Arms a one-shot crash at `point` (tests only).
  void SetCrashPointForTest(HistoryCrashPoint point) {
    crash_point_ = point;
  }

 private:
  ShardHistory(std::string shard_dir, const StateLayout& layout,
               const RetentionPolicy& policy, bool fsync)
      : shard_dir_(std::move(shard_dir)),
        layout_(layout),
        policy_(policy),
        fsync_(fsync) {}

  /// Commits `index_` durably: tmp write (+fsync), rename, dir fsync.
  Status WriteIndex();
  /// Applies the policy's plan to `next`, queueing the dropped files on
  /// `doomed`; false when the plan is a no-op.
  bool CompactInto(HistoryIndex* next, std::vector<std::string>* doomed) const;
  /// Makes `next` the index, then deletes `doomed`.
  Status Commit(HistoryIndex next, const std::vector<std::string>& doomed);
  /// Deletes payload files the index no longer references.
  Status SweepOrphans();
  /// True (once) when the armed crash point is `point`.
  bool TakeCrashPoint(HistoryCrashPoint point) {
    if (crash_point_ != point) return false;
    crash_point_ = HistoryCrashPoint::kNone;
    return true;
  }

  std::string shard_dir_;
  StateLayout layout_;
  RetentionPolicy policy_;
  bool fsync_ = true;
  HistoryIndex index_;
  HistoryCrashPoint crash_point_ = HistoryCrashPoint::kNone;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_HISTORY_H_
