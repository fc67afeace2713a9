#include "engine/history.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "engine/compactor.h"
#include "engine/logical_log.h"
#include "engine/paths.h"
#include "util/crc32.h"
#include "util/io.h"

namespace tickpoint {
namespace {

constexpr uint64_t kIndexMagic = 0x5849545349485054ULL;  // "TPHISTIX"
constexpr uint32_t kIndexVersion = 1;
constexpr uint64_t kGenerationMagic = 0x3147545349485054ULL;  // "TPHISTG1"

// index.bin layout: header, generation records, segment records, chained
// CRC32 over everything before it. All structs are padding-free.
struct IndexHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t num_generations = 0;
  uint32_t num_segments = 0;
  uint32_t reserved = 0;
  uint64_t next_generation_seq = 0;
  uint64_t next_segment_id = 0;
  uint64_t compactions_run = 0;
};
static_assert(sizeof(IndexHeader) == 48);

struct GenerationRecord {
  uint64_t seq = 0;
  uint64_t consistent_tick = 0;
  uint64_t bytes = 0;
};
static_assert(sizeof(GenerationRecord) == 24);

struct SegmentRecord {
  uint64_t id = 0;
  uint64_t first_tick = 0;
  uint64_t last_tick = 0;
  uint64_t bytes = 0;
};
static_assert(sizeof(SegmentRecord) == 32);

// gen-<seq>.img layout: this header (its own CRC over the preceding
// fields), then the raw state buffer (num_objects * object_size bytes,
// covered by state_crc).
struct GenerationHeader {
  uint64_t magic = 0;
  uint64_t seq = 0;
  uint64_t consistent_tick = 0;
  uint64_t num_objects = 0;
  uint64_t object_size = 0;
  uint32_t state_crc = 0;
  uint32_t header_crc = 0;
};
static_assert(sizeof(GenerationHeader) == 48);

std::string GenerationPath(const std::string& shard_dir, uint64_t seq) {
  return paths::HistoryDir(shard_dir) + "/" +
         paths::HistoryGenerationFileName(seq);
}

std::string SegmentPath(const std::string& shard_dir, uint64_t id) {
  return paths::HistoryDir(shard_dir) + "/" +
         paths::HistorySegmentFileName(id);
}

Status InjectedCrash() { return Status::Internal("crash injected"); }

}  // namespace

StatusOr<HistoryIndex> ShardHistory::ReadIndex(const std::string& shard_dir) {
  const std::string path = paths::HistoryIndexPath(shard_dir);
  if (!FileExists(path)) {
    return Status::NotFound("no history index under " + shard_dir);
  }
  std::string raw;
  TP_RETURN_NOT_OK(ReadFileToString(path, &raw));
  IndexHeader header;
  if (raw.size() < sizeof(header) + sizeof(uint32_t)) {
    return Status::Corruption("history index " + path + " is truncated");
  }
  std::memcpy(&header, raw.data(), sizeof(header));
  if (header.magic != kIndexMagic) {
    return Status::Corruption("history index " + path + " has a bad magic");
  }
  if (header.version != kIndexVersion) {
    return Status::Corruption("history index " + path +
                              " has unsupported version " +
                              std::to_string(header.version));
  }
  const uint64_t expected =
      sizeof(header) + header.num_generations * sizeof(GenerationRecord) +
      header.num_segments * sizeof(SegmentRecord) + sizeof(uint32_t);
  if (raw.size() != expected) {
    return Status::Corruption("history index " + path + " has " +
                              std::to_string(raw.size()) + " bytes, expected " +
                              std::to_string(expected));
  }
  uint32_t stored;
  std::memcpy(&stored, raw.data() + raw.size() - sizeof(stored),
              sizeof(stored));
  if (stored != Crc32(raw.data(), raw.size() - sizeof(stored))) {
    return Status::Corruption("history index " + path + " fails its CRC");
  }
  HistoryIndex index;
  index.next_generation_seq = header.next_generation_seq;
  index.next_segment_id = header.next_segment_id;
  index.compactions_run = header.compactions_run;
  const char* cursor = raw.data() + sizeof(header);
  index.generations.reserve(header.num_generations);
  for (uint32_t i = 0; i < header.num_generations; ++i) {
    GenerationRecord record;
    std::memcpy(&record, cursor, sizeof(record));
    cursor += sizeof(record);
    index.generations.push_back(
        {record.seq, record.consistent_tick, record.bytes});
  }
  index.segments.reserve(header.num_segments);
  for (uint32_t i = 0; i < header.num_segments; ++i) {
    SegmentRecord record;
    std::memcpy(&record, cursor, sizeof(record));
    cursor += sizeof(record);
    index.segments.push_back(
        {record.id, record.first_tick, record.last_tick, record.bytes});
  }
  return index;
}

Status ShardHistory::WriteIndex() {
  std::string raw;
  IndexHeader header;
  header.magic = kIndexMagic;
  header.version = kIndexVersion;
  header.num_generations = static_cast<uint32_t>(index_.generations.size());
  header.num_segments = static_cast<uint32_t>(index_.segments.size());
  header.next_generation_seq = index_.next_generation_seq;
  header.next_segment_id = index_.next_segment_id;
  header.compactions_run = index_.compactions_run;
  raw.append(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const auto& g : index_.generations) {
    GenerationRecord record{g.seq, g.consistent_tick, g.bytes};
    raw.append(reinterpret_cast<const char*>(&record), sizeof(record));
  }
  for (const auto& s : index_.segments) {
    SegmentRecord record{s.id, s.first_tick, s.last_tick, s.bytes};
    raw.append(reinterpret_cast<const char*>(&record), sizeof(record));
  }
  const uint32_t crc = Crc32(raw.data(), raw.size());
  raw.append(reinterpret_cast<const char*>(&crc), sizeof(crc));

  const std::string path = paths::HistoryIndexPath(shard_dir_);
  const std::string tmp = path + ".tmp";
  FileWriter writer;
  TP_RETURN_NOT_OK(writer.Open(tmp));
  TP_RETURN_NOT_OK(writer.Append(raw.data(), raw.size()));
  if (fsync_) TP_RETURN_NOT_OK(writer.Sync());
  TP_RETURN_NOT_OK(writer.Close());
  if (TakeCrashPoint(HistoryCrashPoint::kAfterIndexTmp)) {
    return InjectedCrash();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("rename " + tmp + ": " + ec.message());
  }
  if (TakeCrashPoint(HistoryCrashPoint::kAfterIndexRename)) {
    return InjectedCrash();
  }
  if (fsync_) {
    TP_RETURN_NOT_OK(SyncDirectory(paths::HistoryDir(shard_dir_)));
  }
  return Status::OK();
}

Status ShardHistory::SweepOrphans() {
  const std::string dir = paths::HistoryDir(shard_dir_);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t id = 0;
    bool doomed = false;
    if (paths::ParseHistoryGenerationFileName(name, &id)) {
      doomed = std::none_of(index_.generations.begin(),
                            index_.generations.end(),
                            [id](const auto& g) { return g.seq == id; });
    } else if (paths::ParseHistorySegmentFileName(name, &id)) {
      doomed = std::none_of(index_.segments.begin(), index_.segments.end(),
                            [id](const auto& s) { return s.id == id; });
    } else if (name == "index.bin.tmp") {
      doomed = true;
    }
    if (doomed) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(entry.path().string()));
    }
  }
  if (ec) {
    return Status::IOError("list " + dir + ": " + ec.message());
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardHistory>> ShardHistory::Open(
    const std::string& shard_dir, const StateLayout& layout,
    const RetentionPolicy& policy, bool fsync) {
  if (!policy.Valid()) {
    return Status::InvalidArgument(
        "invalid RetentionPolicy (max_generations must be >= 1)");
  }
  std::unique_ptr<ShardHistory> history(
      new ShardHistory(shard_dir, layout, policy, fsync));
  TP_RETURN_NOT_OK(EnsureDirectory(paths::HistoryDir(shard_dir)));
  auto index_or = ReadIndex(shard_dir);
  if (index_or.ok()) {
    history->index_ = std::move(index_or).value();
  } else if (index_or.status().code() == StatusCode::kCorruption) {
    // A torn index means the history is unusable as a whole (the protocol
    // never leaves one behind; this is real partial-write damage). The
    // live stores stay authoritative, so the writer resets the history
    // rather than refusing to open the shard: wipe and restart empty.
    TP_RETURN_NOT_OK(
        RemoveFileIfExists(paths::HistoryIndexPath(shard_dir)));
  } else if (index_or.status().code() != StatusCode::kNotFound) {
    return index_or.status();
  }
  TP_RETURN_NOT_OK(history->SweepOrphans());
  return history;
}

StatusOr<uint64_t> ShardHistory::ReadGenerationImage(
    const std::string& shard_dir, uint64_t seq, StateTable* out) {
  const std::string path = GenerationPath(shard_dir, seq);
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(path));
  GenerationHeader header;
  TP_RETURN_NOT_OK(reader.ReadExact(&header, sizeof(header)));
  if (header.magic != kGenerationMagic ||
      header.header_crc !=
          Crc32(&header, sizeof(header) - sizeof(header.header_crc))) {
    return Status::Corruption("history generation " + path +
                              " has a torn header");
  }
  if (header.seq != seq) {
    return Status::Corruption("history generation " + path + " records seq " +
                              std::to_string(header.seq));
  }
  if (header.num_objects != out->layout().num_objects() ||
      header.object_size != out->layout().object_size) {
    return Status::Corruption("history generation " + path +
                              " has a mismatched geometry");
  }
  const uint64_t payload = header.num_objects * header.object_size;
  TP_CHECK(payload == out->buffer_bytes());
  TP_RETURN_NOT_OK(reader.ReadExact(out->mutable_data(), payload));
  if (Crc32(out->data(), payload) != header.state_crc) {
    return Status::Corruption("history generation " + path +
                              " fails its state CRC");
  }
  return header.consistent_tick;
}

StatusOr<std::vector<LogSegment>> ShardHistory::Chain(
    const std::string& shard_dir, const HistoryIndex& index) {
  std::vector<LogSegment> chain;
  for (const auto& seg : index.segments) {
    chain.push_back({SegmentPath(shard_dir, seg.id), seg.first_tick,
                     seg.last_tick});
  }
  TP_ASSIGN_OR_RETURN(const std::vector<LogSegment> live,
                      LogicalLog::LiveChain(shard_dir));
  chain.insert(chain.end(), live.begin(), live.end());
  std::stable_sort(chain.begin(), chain.end(),
                   [](const LogSegment& a, const LogSegment& b) {
                     return a.first_tick < b.first_tick;
                   });
  return chain;
}

StatusOr<HistoryWindow> ShardHistory::ComputeWindow(
    const std::string& shard_dir, const HistoryIndex& index) {
  HistoryWindow window;
  if (index.generations.empty()) return window;
  TP_ASSIGN_OR_RETURN(const std::vector<LogSegment> chain,
                      Chain(shard_dir, index));

  const auto& gens = index.generations;
  const uint64_t newest_tick = gens.back().consistent_tick;
  // The oldest generation from which the chain is contiguous through the
  // newest one (or the newest itself): every advertised tick restores.
  for (size_t base = 0; base < gens.size(); ++base) {
    const uint64_t consistent = gens[base].consistent_tick;
    auto reach_or =
        LogicalLog::ReplayChain(chain, consistent, UINT64_MAX, nullptr);
    if (!reach_or.ok()) {
      if (reach_or.status().code() != StatusCode::kCorruption) {
        return reach_or.status();
      }
      continue;  // a gap: a younger generation may bridge it
    }
    // Records cover ticks [consistent, expected).
    const uint64_t expected = reach_or->records_applied > 0
                                  ? reach_or->last_tick + 1
                                  : consistent;
    if (expected < newest_tick && base + 1 < gens.size()) continue;
    const uint64_t high = std::max(expected, newest_tick);
    if (high == 0) break;  // a tick-0 generation with no records: nothing
    window.any = true;
    window.low_tick = consistent == 0 ? 0 : consistent - 1;
    window.high_tick = high - 1;
    break;
  }
  return window;
}

Status ShardHistory::RecordGeneration(const StateTable& state,
                                      uint64_t consistent_tick,
                                      const std::vector<LogSegment>& retired) {
  TP_CHECK(state.layout().num_objects() == layout_.num_objects());
  HistoryIndex next = index_;
  // Re-recording an already-archived point (a crash-retried resume) writes
  // no image; ticks only move forward inside the index.
  if (next.generations.empty() ||
      consistent_tick > next.generations.back().consistent_tick) {
    const uint64_t seq = next.next_generation_seq;
    const std::string path = GenerationPath(shard_dir_, seq);
    GenerationHeader header;
    header.magic = kGenerationMagic;
    header.seq = seq;
    header.consistent_tick = consistent_tick;
    header.num_objects = layout_.num_objects();
    header.object_size = layout_.object_size;
    header.state_crc = Crc32(state.data(), state.buffer_bytes());
    header.header_crc =
        Crc32(&header, sizeof(header) - sizeof(header.header_crc));
    FileWriter writer;
    TP_RETURN_NOT_OK(writer.Open(path));
    TP_RETURN_NOT_OK(writer.Append(&header, sizeof(header)));
    TP_RETURN_NOT_OK(writer.Append(state.data(), state.buffer_bytes()));
    if (fsync_) TP_RETURN_NOT_OK(writer.Sync());
    const uint64_t bytes = writer.bytes_written();
    TP_RETURN_NOT_OK(writer.Close());
    if (TakeCrashPoint(HistoryCrashPoint::kAfterGenerationFile)) {
      return InjectedCrash();
    }
    next.generations.push_back({seq, consistent_tick, bytes});
    next.next_generation_seq = seq + 1;
  }

  // Take over the retired live segments the index does not hold yet (one
  // that survived an interrupted retirement is already indexed).
  std::vector<std::string> doomed;
  std::vector<std::pair<std::string, uint64_t>> adopted;  // live path, id
  for (const LogSegment& segment : retired) {
    doomed.push_back(segment.path);
    if (std::any_of(next.segments.begin(), next.segments.end(),
                    [&](const auto& s) {
                      return s.first_tick == segment.first_tick;
                    })) {
      continue;
    }
    std::error_code ec;
    const uint64_t bytes = std::filesystem::file_size(segment.path, ec);
    if (ec) {
      return Status::IOError("stat " + segment.path + ": " + ec.message());
    }
    const uint64_t id = next.next_segment_id++;
    next.segments.push_back(
        {id, segment.first_tick, segment.last_tick, bytes});
    adopted.emplace_back(segment.path, id);
  }
  CompactInto(&next, &doomed);

  // Link the adopted segments durably before the index names them (one
  // the compaction already dropped goes with the other retired files).
  for (const auto& [path, id] : adopted) {
    TP_RETURN_NOT_OK(RemoveFileIfExists(SegmentPath(shard_dir_, id)));
    std::error_code ec;
    std::filesystem::create_hard_link(path, SegmentPath(shard_dir_, id), ec);
    if (ec) return Status::IOError("link " + path + ": " + ec.message());
  }
  if (!adopted.empty() && fsync_) {
    TP_RETURN_NOT_OK(SyncDirectory(paths::HistoryDir(shard_dir_)));
  }
  return Commit(std::move(next), doomed);
}

Status ShardHistory::TruncateAbove(uint64_t first_tick) {
  HistoryIndex next = index_;
  std::vector<std::string> doomed;
  std::vector<std::pair<std::string, uint64_t>> cuts;

  // Generations whose consistent tick exceeds the resume point contain
  // effects of the retired timeline.
  std::erase_if(next.generations, [&](const auto& g) {
    if (g.consistent_tick <= first_tick) return false;
    doomed.push_back(GenerationPath(shard_dir_, g.seq));
    return true;
  });
  // Segment records for ticks >= first_tick are the retired future: whole
  // segments past it go, the one straddling it shrinks in the index now
  // and on disk after the commit.
  std::vector<HistoryIndex::Segment> kept;
  for (auto seg : next.segments) {
    if (seg.last_tick < first_tick) {
      kept.push_back(seg);
      continue;
    }
    const std::string path = SegmentPath(shard_dir_, seg.id);
    LogicalLog::ReplayStats prefix;
    if (seg.first_tick < first_tick) {
      TP_ASSIGN_OR_RETURN(
          prefix, LogicalLog::Replay(path, 0, first_tick - 1, nullptr));
    }
    if (prefix.records_applied == 0) {
      doomed.push_back(path);
      continue;
    }
    seg.last_tick = prefix.last_tick;
    seg.bytes = prefix.bytes;
    cuts.emplace_back(path, prefix.bytes);
    kept.push_back(seg);
  }
  if (doomed.empty() && cuts.empty()) return Status::OK();
  next.segments = std::move(kept);
  TP_RETURN_NOT_OK(Commit(std::move(next), doomed));
  for (const auto& [path, bytes] : cuts) {
    TP_RETURN_NOT_OK(TruncateFile(path, bytes, fsync_));
  }
  return Status::OK();
}

bool ShardHistory::CompactInto(HistoryIndex* next,
                               std::vector<std::string>* doomed) const {
  const CompactionPlan plan = PlanCompaction(*next, policy_);
  if (plan.NoOp()) return false;
  for (uint64_t seq : plan.drop_generations) {
    doomed->push_back(GenerationPath(shard_dir_, seq));
    std::erase_if(next->generations,
                  [seq](const auto& g) { return g.seq == seq; });
  }
  for (uint64_t id : plan.drop_segments) {
    doomed->push_back(SegmentPath(shard_dir_, id));
    std::erase_if(next->segments, [id](const auto& s) { return s.id == id; });
  }
  ++next->compactions_run;
  return true;
}

Status ShardHistory::Commit(HistoryIndex next,
                            const std::vector<std::string>& doomed) {
  // Index first, file changes second: a crash in between leaves orphans
  // (swept on the next writable open) or over-long segments (read only up
  // to their entry), never dangling references.
  index_ = std::move(next);
  TP_RETURN_NOT_OK(WriteIndex());
  if (TakeCrashPoint(HistoryCrashPoint::kBeforeCompactionDeletes)) {
    return InjectedCrash();
  }
  for (const std::string& path : doomed) {
    TP_RETURN_NOT_OK(RemoveFileIfExists(path));
  }
  return Status::OK();
}

Status ShardHistory::Compact() {
  HistoryIndex next = index_;
  std::vector<std::string> doomed;
  if (!CompactInto(&next, &doomed)) return Status::OK();
  return Commit(std::move(next), doomed);
}

}  // namespace tickpoint
