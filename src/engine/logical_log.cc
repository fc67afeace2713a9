#include "engine/logical_log.h"

#include <algorithm>
#include <filesystem>

#include "engine/paths.h"
#include "util/crc32.h"

namespace tickpoint {
namespace {

constexpr uint32_t kRecordMagic = 0x54504C4Cu;  // "TPLL"

struct RecordHeader {
  uint32_t magic = 0;
  uint32_t count = 0;
  uint64_t tick = 0;
};
static_assert(sizeof(RecordHeader) == 16);

}  // namespace

StatusOr<std::unique_ptr<LogicalLog>> LogicalLog::Open(
    const std::string& dir, uint64_t first_tick, uint64_t sync_every,
    bool fsync) {
  TP_CHECK(sync_every >= 1);
  std::unique_ptr<LogicalLog> log(new LogicalLog(dir, sync_every, fsync));
  TP_RETURN_NOT_OK(log->StartSegment(first_tick));
  return log;
}

Status LogicalLog::StartSegment(uint64_t first_tick) {
  open_first_tick_ = first_tick;
  open_records_ = 0;
  TP_RETURN_NOT_OK(writer_.Open(paths::LogicalLogPath(dir_)));
  // One directory sync makes the new name durable -- and a seal's rename
  // before it -- ahead of any record acknowledged in it.
  return fsync_ ? SyncDirectory(dir_) : Status::OK();
}

Status LogicalLog::AppendTick(uint64_t tick,
                              std::span<const CellUpdate> updates) {
  TP_DCHECK(tick == open_first_tick_ + open_records_);
  RecordHeader header;
  header.magic = kRecordMagic;
  header.count = static_cast<uint32_t>(updates.size());
  header.tick = tick;
  TP_RETURN_NOT_OK(writer_.Append(&header, sizeof(header)));
  uint32_t crc = Crc32(&header, sizeof(header));
  if (!updates.empty()) {
    TP_RETURN_NOT_OK(
        writer_.Append(updates.data(), updates.size() * sizeof(CellUpdate)));
    crc = Crc32(updates.data(), updates.size() * sizeof(CellUpdate), crc);
  }
  TP_RETURN_NOT_OK(writer_.Append(&crc, sizeof(crc)));
  ++open_records_;
  return (tick + 1) % sync_every_ == 0 ? writer_.Sync() : writer_.Flush();
}

Status LogicalLog::Rotate() {
  if (open_records_ == 0) return Status::OK();
  if (fsync_) TP_RETURN_NOT_OK(writer_.Sync());
  TP_RETURN_NOT_OK(writer_.Close());
  TP_RETURN_NOT_OK(
      RenameFile(paths::LogicalLogPath(dir_),
                 dir_ + "/" + paths::SealedLogFileName(open_first_tick_)));
  return StartSegment(open_first_tick_ + open_records_);
}

Status LogicalLog::Close() {
  if (!writer_.is_open()) return Status::OK();
  TP_RETURN_NOT_OK(writer_.Sync());
  return writer_.Close();
}

namespace {

// Shared scan loop: visits each intact record in order until the visitor
// declines one; returns the end offset of the last record it accepted.
template <typename Visitor>
StatusOr<uint64_t> ScanLog(const std::string& path, Visitor visit) {
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(path));
  TP_ASSIGN_OR_RETURN(const uint64_t size, reader.Size());
  uint64_t offset = 0;
  std::vector<CellUpdate> updates;
  while (offset + sizeof(RecordHeader) + sizeof(uint32_t) <= size) {
    RecordHeader header;
    TP_RETURN_NOT_OK(reader.ReadAt(offset, &header, sizeof(header)));
    if (header.magic != kRecordMagic) break;
    const uint64_t record_bytes = sizeof(RecordHeader) +
                                  header.count * sizeof(CellUpdate) +
                                  sizeof(uint32_t);
    if (offset + record_bytes > size) break;  // torn tail
    updates.resize(header.count);
    if (header.count > 0) {
      TP_RETURN_NOT_OK(reader.ReadExact(updates.data(),
                                        header.count * sizeof(CellUpdate)));
    }
    uint32_t stored;
    TP_RETURN_NOT_OK(reader.ReadExact(&stored, sizeof(stored)));
    uint32_t crc = Crc32(&header, sizeof(header));
    if (header.count > 0) {
      crc = Crc32(updates.data(), header.count * sizeof(CellUpdate), crc);
    }
    if (stored != crc) break;  // torn/corrupt tail
    if (!visit(header.tick, updates)) break;
    offset += record_bytes;
  }
  return offset;
}

}  // namespace

StatusOr<LogicalLog::ReplayStats> LogicalLog::Replay(const std::string& path,
                                                     uint64_t from_tick,
                                                     uint64_t up_to_tick,
                                                     StateTable* table) {
  ReplayStats stats;
  Status visit_error;
  TP_ASSIGN_OR_RETURN(
      stats.bytes,
      ScanLog(path, [&](uint64_t tick, const std::vector<CellUpdate>& updates) {
        if (tick > up_to_tick) return false;
        if (tick < from_tick) return true;
        for (const CellUpdate& update : updates) {
          if (table == nullptr) break;
          if (update.cell >= table->layout().num_cells()) {
            visit_error =
                Status::Corruption("cell id out of range in logical log");
            return false;
          }
          table->WriteCell(update.cell, update.value);
        }
        if (stats.records_applied++ == 0) stats.first_tick = tick;
        stats.last_tick = tick;
        return true;
      }));
  TP_RETURN_NOT_OK(visit_error);
  return stats;
}

StatusOr<LogicalLog::ReplayStats> LogicalLog::ReplayChain(
    const std::vector<LogSegment>& chain, uint64_t from_tick,
    uint64_t up_to_tick, StateTable* table) {
  ReplayStats stats;
  uint64_t next = from_tick;  // the next tick owed
  for (const LogSegment& segment : chain) {
    if (next > up_to_tick) break;
    if (segment.last_tick < next) continue;  // already applied
    ReplayStats part;
    part.first_tick = segment.first_tick;
    if (segment.first_tick <= next) {
      TP_ASSIGN_OR_RETURN(
          part, Replay(segment.path, next,
                       std::min(up_to_tick, segment.last_tick), table));
      if (part.records_applied == 0) continue;
    }
    if (part.first_tick != next) {
      return Status::Corruption("logical-log chain has a gap: " +
                                segment.path + " resumes at tick " +
                                std::to_string(part.first_tick) + ", tick " +
                                std::to_string(next) + " is missing");
    }
    if (stats.records_applied == 0) stats.first_tick = part.first_tick;
    stats.records_applied += part.records_applied;
    stats.last_tick = part.last_tick;
    next = part.last_tick + 1;
  }
  return stats;
}

StatusOr<std::vector<LogSegment>> LogicalLog::LiveChain(
    const std::string& dir) {
  std::vector<LogSegment> chain;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return chain;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t first = 0;
    if (paths::ParseSealedLogFileName(entry.path().filename().string(),
                                      &first)) {
      chain.push_back({entry.path().string(), first});
    }
  }
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  std::sort(chain.begin(), chain.end(), [](const auto& a, const auto& b) {
    return a.first_tick < b.first_tick;
  });
  // The open segment joins when it holds an intact record.
  LogSegment open{paths::LogicalLogPath(dir), UINT64_MAX};
  if (FileExists(open.path)) {
    TP_RETURN_NOT_OK(ScanLog(open.path, [&](uint64_t tick, const auto&) {
                       open.first_tick = tick;
                       return false;
                     }).status());
  }
  if (open.first_tick != UINT64_MAX) chain.push_back(open);
  // A sealed segment ends where its successor starts.
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    if (chain[i + 1].first_tick > chain[i].first_tick) {
      chain[i].last_tick = chain[i + 1].first_tick - 1;
    }
  }
  return chain;
}

Status LogicalLog::TruncateChain(const std::string& dir, uint64_t first_tick,
                                 bool fsync) {
  TP_ASSIGN_OR_RETURN(const std::vector<LogSegment> chain, LiveChain(dir));
  const std::string open = paths::LogicalLogPath(dir);
  for (const LogSegment& segment : chain) {
    if (segment.path != open && segment.last_tick < first_tick) continue;
    ReplayStats kept;
    if (segment.first_tick < first_tick) {
      TP_ASSIGN_OR_RETURN(kept,
                          Replay(segment.path, 0, first_tick - 1, nullptr));
    }
    if (kept.records_applied == 0) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(segment.path));
      continue;
    }
    // Durable before any record of the new timeline can follow it.
    TP_RETURN_NOT_OK(TruncateFile(segment.path, kept.bytes, fsync));
    if (segment.path == open) {
      TP_RETURN_NOT_OK(RenameFile(
          open, dir + "/" + paths::SealedLogFileName(kept.first_tick)));
    }
  }
  // An open segment without an intact record is not part of the chain.
  TP_RETURN_NOT_OK(RemoveFileIfExists(open));
  return fsync ? SyncDirectory(dir) : Status::OK();
}

}  // namespace tickpoint
