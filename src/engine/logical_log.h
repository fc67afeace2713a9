// The logical log (paper Section 3.1): "we log all user actions at each
// tick and replay the ticks to recover. This allows us to recover to the
// precise tick at which a failure occurred."
//
// Each tick appends one self-validating record carrying the cell updates of
// that tick. Group commit is per tick (configurable): the record of every
// `sync_every`-th tick is fsynced, trading a bounded window of lost ticks
// for fewer syncs. Replay applies records after a checkpoint's consistent tick
// to roll the restored state forward to the crash tick.
//
// The log is a chain of segment files. Appends go to the open segment,
// `logical.log`; a checkpoint starting at tick T seals it after T's record
// (renamed `logical-<first tick>.log`) and opens the next at T + 1, its
// consistent tick. Completed checkpoints retire the sealed segments below
// the oldest restorable live image (deleted, or hard-linked into history),
// so the chain spans about two checkpoints and a resume continues it. A
// single-file directory is a one-segment chain. Files may overlap (replay
// skips applied ticks); a gap is Corruption.
#ifndef TICKPOINT_ENGINE_LOGICAL_LOG_H_
#define TICKPOINT_ENGINE_LOGICAL_LOG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/state_table.h"
#include "util/io.h"
#include "util/status.h"

namespace tickpoint {

/// One logical update: a cell and its new value. (A production MMO would
/// log the user *command*; the trace-driven workloads of the paper's
/// validation are already expressed as cell updates.)
struct CellUpdate {
  uint32_t cell = 0;
  int32_t value = 0;

  bool operator==(const CellUpdate&) const = default;
};

/// One file of a logical-log chain: ticks [first_tick, last_tick] at most
/// (UINT64_MAX: to the file's end). A history segment's bound is its index
/// entry, which readers must not pass; a sealed live segment ends where
/// its successor starts.
struct LogSegment {
  std::string path;
  uint64_t first_tick = 0;
  uint64_t last_tick = UINT64_MAX;
};

/// Append-side handle on a directory's open segment.
class LogicalLog {
 public:
  /// Creates `dir`'s open segment (replacing any file of that name); the
  /// first record appended will be `first_tick`. `sync_every` = N > 0:
  /// fsync after tick T's record when N divides T + 1. `fsync` governs
  /// the seal's file sync and the directory sync after each new segment.
  static StatusOr<std::unique_ptr<LogicalLog>> Open(const std::string& dir,
                                                    uint64_t first_tick,
                                                    uint64_t sync_every,
                                                    bool fsync);

  /// Appends the updates of `tick`. Ticks must be appended in order.
  Status AppendTick(uint64_t tick, std::span<const CellUpdate> updates);

  /// Seals the open segment and opens the next one (a no-op while it holds
  /// no record).
  Status Rotate();

  /// Syncs and closes the open segment.
  Status Close();

 private:
  LogicalLog(std::string dir, uint64_t sync_every, bool fsync)
      : dir_(std::move(dir)), sync_every_(sync_every), fsync_(fsync) {}

  /// Starts a fresh open segment whose first record will be `first_tick`.
  Status StartSegment(uint64_t first_tick);

  std::string dir_;
  FileWriter writer_;
  uint64_t open_first_tick_ = 0;
  uint64_t open_records_ = 0;
  uint64_t sync_every_;
  bool fsync_;

 public:
  // ---- Recovery side (static: operates on closed files) ----

  /// Outcome of a replay pass.
  struct ReplayStats {
    uint64_t records_applied = 0;
    uint64_t first_tick = 0;  // valid only when records_applied > 0
    uint64_t last_tick = 0;   // valid only when records_applied > 0
    /// End offset of the intact records at or below the top of the range:
    /// where a cut that keeps them goes.
    uint64_t bytes = 0;
  };

  /// Replays the records of one file with tick in [from_tick, up_to_tick]
  /// onto `table` (null: counts them only). Pass UINT64_MAX as
  /// `up_to_tick` to replay to the durable end. A torn tail (crash
  /// mid-record) terminates replay cleanly.
  static StatusOr<ReplayStats> Replay(const std::string& path,
                                      uint64_t from_tick, uint64_t up_to_tick,
                                      StateTable* table);

  /// Replays `chain` (ascending first tick) from `from_tick` through
  /// `up_to_tick` onto `table` (null: checks coverage only): the one replay
  /// loop of recovery, point-in-time recovery and the history window. It
  /// opens only the segments that reach `from_tick`, skips applied ticks,
  /// and returns Corruption on a gap.
  static StatusOr<ReplayStats> ReplayChain(const std::vector<LogSegment>& chain,
                                           uint64_t from_tick,
                                           uint64_t up_to_tick,
                                           StateTable* table);

  /// The live chain of `dir`: its sealed segments by first tick, then the
  /// open segment when it holds a record. Empty for a missing directory.
  static StatusOr<std::vector<LogSegment>> LiveChain(const std::string& dir);

  /// Cuts `dir`'s live chain back to the records below `first_tick` (a
  /// rolled-back future, a torn tail): later segments are deleted, the one
  /// holding the tick is truncated at a record boundary, and the open
  /// segment is sealed, leaving no logical.log until the next Open.
  static Status TruncateChain(const std::string& dir, uint64_t first_tick,
                              bool fsync);
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_LOGICAL_LOG_H_
