// Status-returning file I/O wrappers used by the real engine's checkpoint
// store, logical log, and trace file format.
#ifndef TICKPOINT_UTIL_IO_H_
#define TICKPOINT_UTIL_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.h"

namespace tickpoint {

/// Buffered sequential writer over a stdio FILE with explicit flush/sync.
class FileWriter {
 public:
  FileWriter() = default;
  ~FileWriter();

  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  /// Opens (creates/truncates) `path` for writing.
  Status Open(const std::string& path);
  /// Opens `path` for read/write without truncation, creating it if needed
  /// (used by the double-backup store which writes at absolute offsets).
  Status OpenForUpdate(const std::string& path);

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  Status Append(const void* data, size_t length);
  Status WriteAt(uint64_t offset, const void* data, size_t length);
  /// Flushes stdio buffers to the OS (visible to other readers) without
  /// forcing them to stable storage.
  Status Flush();
  /// Flushes stdio buffers and fsyncs to stable storage.
  Status Sync();
  Status Close();

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t bytes_written_ = 0;
};

/// Sequential/positional reader.
class FileReader {
 public:
  FileReader() = default;
  ~FileReader();

  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  Status Open(const std::string& path);
  bool is_open() const { return file_ != nullptr; }

  /// Reads exactly `length` bytes or returns IOError (short read => error).
  Status ReadExact(void* out, size_t length);
  Status ReadAt(uint64_t offset, void* out, size_t length);
  Status Seek(uint64_t offset);
  /// Current read position.
  StatusOr<uint64_t> Tell();
  StatusOr<uint64_t> Size();
  Status Close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Reads a whole file into `out`.
Status ReadFileToString(const std::string& path, std::string* out);
/// Writes `data` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path, const std::string& data);
/// True if the path exists and is a regular file.
bool FileExists(const std::string& path);
/// Removes a file if it exists (missing file is not an error).
Status RemoveFileIfExists(const std::string& path);
/// Renames `from` to `to`, replacing any file at `to`.
Status RenameFile(const std::string& from, const std::string& to);
/// Cuts the file at `path` back to `size` bytes, fsyncing it when `sync`.
Status TruncateFile(const std::string& path, uint64_t size, bool sync);
/// Creates a directory (and parents) if missing.
Status EnsureDirectory(const std::string& path);
/// fsyncs a directory so renames/creates/unlinks inside it are durable
/// (the other half of the tmp-file + rename commit idiom).
Status SyncDirectory(const std::string& path);

}  // namespace tickpoint

#endif  // TICKPOINT_UTIL_IO_H_
