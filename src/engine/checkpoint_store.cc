#include "engine/checkpoint_store.h"

#include <cstring>
#include <filesystem>
#include <utility>

#include "engine/paths.h"
#include "util/crc32.h"

namespace tickpoint {
namespace {

constexpr uint64_t kBackupMagic = 0x544B505442414B31ULL;   // "TKPTBAK1"
constexpr uint64_t kSegmentMagic = 0x544B505453454731ULL;  // "TKPTSEG1"

struct BackupHeader {
  uint64_t magic = 0;
  uint32_t version = 1;
  uint32_t pad = 0;
  uint64_t seq = 0;
  uint64_t consistent_tick = 0;
  uint64_t num_objects = 0;
  uint64_t object_size = 0;
  uint32_t state_crc = 0;
  uint32_t header_crc = 0;  // CRC of all preceding fields

  uint32_t ComputeCrc() const {
    return Crc32(this, offsetof(BackupHeader, header_crc));
  }
};
static_assert(sizeof(BackupHeader) == 56);

struct SegmentHeader {
  uint64_t magic = 0;
  uint64_t seq = 0;
  uint64_t consistent_tick = 0;
  uint64_t object_count = 0;
  uint32_t full_flush = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(SegmentHeader) == 40);

constexpr uint64_t kBackupDataOffset = 512;  // header block, sector aligned

}  // namespace

// ---------------------------------------------------------------- Backup --

Status BackupStore::MakeDurable(int index) {
  // fds have no userspace buffer, so the fsync-disabled mode (tests) needs
  // no flush for readers to see the bytes.
  return fsync_enabled_ ? files_[index].Sync() : Status::OK();
}

BackupStore::BackupStore(const StateLayout& layout, bool fsync_enabled)
    : layout_(layout), fsync_enabled_(fsync_enabled) {}

std::string BackupStore::ImageFileName(int index) {
  TP_CHECK(index == 0 || index == 1);
  return paths::BackupImageFileName(index);
}

StatusOr<std::unique_ptr<BackupStore>> BackupStore::Open(
    const std::string& dir, const StateLayout& layout, bool fsync_enabled,
    IoBackend* backend, bool writable) {
  std::unique_ptr<BackupStore> store(new BackupStore(layout, fsync_enabled));
  for (int i = 0; i < 2; ++i) {
    store->paths_[i] = dir + "/" + ImageFileName(i);
  }
  if (!writable) return store;
  TP_RETURN_NOT_OK(EnsureDirectory(dir));
  // An older build staged every checkpoint through a doublewrite region
  // first. Its batch only ever targeted an image whose header was already
  // invalidated, so the images alone decide recovery and the file is
  // dead weight.
  TP_RETURN_NOT_OK(
      RemoveFileIfExists(dir + "/" + paths::DoublewriteFileName()));
  for (int i = 0; i < 2; ++i) {
    TP_RETURN_NOT_OK(store->files_[i].OpenForUpdate(store->paths_[i]));
  }
  if (backend != nullptr) {
    store->backend_ = backend;
  } else {
    store->owned_backend_ = IoBackend::Create(IoBackendKind::kSync);
    store->backend_ = store->owned_backend_.get();
  }
  return store;
}

const std::string& BackupStore::path(int index) const {
  TP_CHECK(index == 0 || index == 1);
  return paths_[index];
}

Status BackupStore::CheckWritable() const {
  if (backend_ != nullptr) return Status::OK();
  return Status::FailedPrecondition("backup store opened read-only");
}

Status BackupStore::BeginCheckpoint(int index) {
  TP_CHECK(index == 0 || index == 1);
  TP_RETURN_NOT_OK(CheckWritable());
  BackupHeader zero;
  zero.magic = 0;  // invalid
  TP_RETURN_NOT_OK(files_[index].WriteAt(0, &zero, sizeof(zero)));
  TP_RETURN_NOT_OK(MakeDurable(index));
  return Status::OK();
}

Status BackupStore::WriteRange(int index, ObjectId first, const void* data,
                               uint64_t count) {
  TP_CHECK(index == 0 || index == 1);
  TP_DCHECK(first + count <= layout_.num_objects());
  TP_RETURN_NOT_OK(CheckWritable());
  const uint64_t offset = kBackupDataOffset + first * layout_.object_size;
  last_write_ = backend_->SubmitWrite(&files_[index], offset, data,
                                      count * layout_.object_size);
  return Status::OK();
}

Status BackupStore::FinishCheckpoint(int index, uint64_t seq,
                                     uint64_t consistent_tick,
                                     uint32_t state_crc) {
  TP_CHECK(index == 0 || index == 1);
  TP_RETURN_NOT_OK(CheckWritable());
  const IoTicket last = std::exchange(last_write_, 0);
  if (last != 0) TP_RETURN_NOT_OK(backend_->WaitFor(last));
  TP_RETURN_NOT_OK(MakeDurable(index));  // data durable first
  BackupHeader header;
  header.magic = kBackupMagic;
  header.seq = seq;
  header.consistent_tick = consistent_tick;
  header.num_objects = layout_.num_objects();
  header.object_size = layout_.object_size;
  header.state_crc = state_crc;
  header.header_crc = header.ComputeCrc();
  TP_RETURN_NOT_OK(files_[index].WriteAt(0, &header, sizeof(header)));
  TP_RETURN_NOT_OK(MakeDurable(index));
  return Status::OK();
}

StatusOr<ImageInfo> BackupStore::Inspect(int index) {
  TP_CHECK(index == 0 || index == 1);
  ImageInfo info;
  if (!FileExists(paths_[index])) return info;  // read-only open: no image
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(paths_[index]));
  TP_ASSIGN_OR_RETURN(const uint64_t size, reader.Size());
  if (size < sizeof(BackupHeader)) return info;  // empty/new file: invalid
  BackupHeader header;
  TP_RETURN_NOT_OK(reader.ReadExact(&header, sizeof(header)));
  if (header.magic != kBackupMagic) return info;
  if (header.header_crc != header.ComputeCrc()) return info;
  if (header.num_objects != layout_.num_objects() ||
      header.object_size != layout_.object_size) {
    return Status::Corruption("backup layout mismatch in " + paths_[index]);
  }
  if (size < kBackupDataOffset + layout_.num_objects() * layout_.object_size) {
    return info;  // truncated data region
  }
  info.valid = true;
  info.seq = header.seq;
  info.consistent_tick = header.consistent_tick;
  info.state_crc = header.state_crc;
  return info;
}

Status BackupStore::ReadAll(int index, StateTable* out) {
  TP_CHECK(out->layout().num_objects() == layout_.num_objects());
  TP_ASSIGN_OR_RETURN(const ImageInfo info, Inspect(index));
  if (!info.valid) {
    return Status::FailedPrecondition("backup " + paths_[index] +
                                      " holds no valid image");
  }
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(paths_[index]));
  TP_RETURN_NOT_OK(reader.ReadAt(kBackupDataOffset, out->mutable_data(),
                                 out->buffer_bytes()));
  if (info.state_crc != 0 && out->Digest() != info.state_crc) {
    return Status::Corruption("state CRC mismatch restoring " + paths_[index]);
  }
  return Status::OK();
}

// ------------------------------------------------------------------- Log --

Status LogStore::MakeDurable(FileWriter* writer) {
  return fsync_enabled_ ? writer->Sync() : writer->Flush();
}

LogStore::LogStore(std::string dir, const StateLayout& layout,
                   bool fsync_enabled, bool writable)
    : dir_(std::move(dir)),
      layout_(layout),
      fsync_enabled_(fsync_enabled),
      writable_(writable) {}

Status LogStore::CheckWritable() const {
  if (writable_) return Status::OK();
  return Status::FailedPrecondition("log store opened read-only");
}

bool LogStore::ParseGenerationFileName(const std::string& name,
                                       uint64_t* gen) {
  return paths::ParseLogGenerationFileName(name, gen);
}

StatusOr<std::unique_ptr<LogStore>> LogStore::Open(const std::string& dir,
                                                   const StateLayout& layout,
                                                   bool fsync_enabled,
                                                   bool writable) {
  if (writable) TP_RETURN_NOT_OK(EnsureDirectory(dir));
  std::unique_ptr<LogStore> store(
      new LogStore(dir, layout, fsync_enabled, writable));
  // Discover generations left by a previous process (recovery reopens the
  // store cold). A missing directory holds none.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t gen = 0;
    if (!ParseGenerationFileName(entry.path().filename().string(), &gen)) {
      continue;
    }
    store->current_gen_ = std::max(store->current_gen_, gen);
  }
  return store;
}

std::string LogStore::GenPath(uint64_t gen) const {
  return dir_ + "/" + paths::LogGenerationFileName(gen);
}

Status LogStore::BeginGeneration(uint64_t gen) {
  TP_RETURN_NOT_OK(CheckWritable());
  TP_CHECK(!segment_open_);
  if (writer_.is_open()) {
    TP_RETURN_NOT_OK(writer_.Close());
  }
  FileWriter truncate;  // a fresh generation starts empty
  TP_RETURN_NOT_OK(truncate.Open(GenPath(gen)));
  TP_RETURN_NOT_OK(truncate.Close());
  TP_RETURN_NOT_OK(writer_.OpenForUpdate(GenPath(gen)));
  current_gen_ = gen;
  gen_open_ = true;
  append_offset_ = 0;
  return Status::OK();
}

Status LogStore::BeginSegment(uint64_t seq, uint64_t consistent_tick,
                              bool full_flush, uint64_t object_count) {
  TP_RETURN_NOT_OK(CheckWritable());
  TP_CHECK(gen_open_ && !segment_open_);
  SegmentHeader header;
  header.magic = kSegmentMagic;
  header.seq = seq;
  header.consistent_tick = consistent_tick;
  header.object_count = object_count;
  header.full_flush = full_flush ? 1 : 0;
  TP_RETURN_NOT_OK(writer_.WriteAt(append_offset_, &header, sizeof(header)));
  segment_crc_ = Crc32(&header, sizeof(header));
  segment_open_ = true;
  segment_objects_declared_ = object_count;
  segment_objects_written_ = 0;
  return Status::OK();
}

Status LogStore::AppendRun(ObjectId first, const void* data, uint64_t count) {
  TP_CHECK(segment_open_);
  TP_CHECK(segment_objects_written_ + count <= segment_objects_declared_);
  const uint64_t record_bytes = sizeof(uint64_t) + layout_.object_size;
  run_buf_.resize(count * record_bytes);
  const uint8_t* src = static_cast<const uint8_t*>(data);
  uint8_t* dst = run_buf_.data();
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t id = first + i;
    std::memcpy(dst, &id, sizeof(id));
    std::memcpy(dst + sizeof(id), src, layout_.object_size);
    dst += record_bytes;
    src += layout_.object_size;
  }
  TP_RETURN_NOT_OK(writer_.Append(run_buf_.data(), run_buf_.size()));
  segment_crc_ = Crc32(run_buf_.data(), run_buf_.size(), segment_crc_);
  segment_objects_written_ += count;
  return Status::OK();
}

Status LogStore::CommitSegment() {
  TP_CHECK(segment_open_);
  TP_CHECK(segment_objects_written_ == segment_objects_declared_);
  TP_RETURN_NOT_OK(writer_.Append(&segment_crc_, sizeof(segment_crc_)));
  TP_RETURN_NOT_OK(MakeDurable(&writer_));
  append_offset_ += sizeof(SegmentHeader) +
                    segment_objects_written_ *
                        (sizeof(uint64_t) + layout_.object_size) +
                    sizeof(uint32_t);
  segment_open_ = false;
  return Status::OK();
}

void LogStore::AbortSegment() { segment_open_ = false; }

Status LogStore::DropGenerationsBefore(uint64_t gen) {
  TP_RETURN_NOT_OK(CheckWritable());
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    uint64_t g = 0;
    if (!ParseGenerationFileName(entry.path().filename().string(), &g)) {
      continue;
    }
    if (g < gen) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(entry.path().string()));
    }
  }
  if (ec) {
    return Status::IOError("list " + dir_ + ": " + ec.message());
  }
  return Status::OK();
}

StatusOr<std::vector<SegmentInfo>> LogStore::ListSegments(uint64_t gen) {
  return ScanGeneration(gen, nullptr);
}

StatusOr<std::vector<SegmentInfo>> LogStore::RestorableSegments(
    uint64_t max_consistent_tick, uint64_t* gen_out) {
  // The newest generation with an intact full flush no newer than the
  // bound; a torn or incomplete full flush, or one entirely past the
  // bound, falls back to an older generation.
  for (uint64_t gen = current_gen_ + 1; gen-- > 0;) {
    if (!FileExists(GenPath(gen))) continue;
    auto segments_or = ScanGeneration(gen, nullptr);
    if (!segments_or.ok()) continue;
    std::vector<SegmentInfo> segments = std::move(segments_or).value();
    if (segments.empty() || !segments.front().full_flush ||
        segments.front().object_count != layout_.num_objects() ||
        segments.front().consistent_tick > max_consistent_tick) {
      continue;
    }
    std::erase_if(segments, [&](const SegmentInfo& segment) {
      return segment.consistent_tick > max_consistent_tick;
    });
    if (gen_out != nullptr) *gen_out = gen;
    return segments;
  }
  return std::vector<SegmentInfo>{};
}

StatusOr<ImageInfo> LogStore::Restore(StateTable* out,
                                      uint64_t max_consistent_tick) {
  TP_CHECK(out->layout().num_objects() == layout_.num_objects());
  uint64_t gen = 0;
  TP_ASSIGN_OR_RETURN(const std::vector<SegmentInfo> segments,
                      RestorableSegments(max_consistent_tick, &gen));
  if (segments.empty()) {
    return Status::NotFound("no recoverable log generation in " + dir_);
  }
  TP_RETURN_NOT_OK(ScanGeneration(gen, out, max_consistent_tick).status());
  // Report the newest segment applied (within the bound).
  ImageInfo info;
  info.valid = true;
  info.seq = segments.back().seq;
  info.consistent_tick = segments.back().consistent_tick;
  return info;
}

StatusOr<std::vector<SegmentInfo>> LogStore::ScanGeneration(
    uint64_t gen, StateTable* out, uint64_t max_consistent_tick) {
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(GenPath(gen)));
  TP_ASSIGN_OR_RETURN(const uint64_t file_size, reader.Size());
  std::vector<SegmentInfo> segments;
  uint64_t offset = 0;
  std::vector<uint8_t> object_buf(layout_.object_size);
  while (offset + sizeof(SegmentHeader) + sizeof(uint32_t) <= file_size) {
    SegmentHeader header;
    TP_RETURN_NOT_OK(reader.ReadAt(offset, &header, sizeof(header)));
    if (header.magic != kSegmentMagic) break;
    const uint64_t record_bytes = sizeof(uint64_t) + layout_.object_size;
    const uint64_t segment_bytes = sizeof(SegmentHeader) +
                                   header.object_count * record_bytes +
                                   sizeof(uint32_t);
    if (offset + segment_bytes > file_size) break;  // torn tail
    // Validate the whole segment before applying anything from it.
    uint32_t crc = Crc32(&header, sizeof(header));
    for (uint64_t i = 0; i < header.object_count; ++i) {
      uint64_t id;
      TP_RETURN_NOT_OK(reader.ReadExact(&id, sizeof(id)));
      TP_RETURN_NOT_OK(reader.ReadExact(object_buf.data(), object_buf.size()));
      if (id >= layout_.num_objects()) {
        return Status::Corruption("object id out of range in " + GenPath(gen));
      }
      crc = Crc32(&id, sizeof(id), crc);
      crc = Crc32(object_buf.data(), object_buf.size(), crc);
    }
    uint32_t stored;
    TP_RETURN_NOT_OK(reader.ReadExact(&stored, sizeof(stored)));
    if (stored != crc) break;  // uncommitted/corrupt: stop at this segment
    if (out != nullptr && header.consistent_tick <= max_consistent_tick) {
      TP_RETURN_NOT_OK(reader.Seek(offset + sizeof(SegmentHeader)));
      for (uint64_t i = 0; i < header.object_count; ++i) {
        uint64_t id;
        TP_RETURN_NOT_OK(reader.ReadExact(&id, sizeof(id)));
        TP_RETURN_NOT_OK(
            reader.ReadExact(object_buf.data(), object_buf.size()));
        out->LoadObject(id, object_buf.data());
      }
    }
    SegmentInfo info;
    info.seq = header.seq;
    info.consistent_tick = header.consistent_tick;
    info.object_count = header.object_count;
    info.full_flush = header.full_flush != 0;
    segments.push_back(info);
    offset += segment_bytes;
  }
  return segments;
}

}  // namespace tickpoint
