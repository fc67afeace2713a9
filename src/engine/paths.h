// Single owner of every on-disk name the fleet writes or scans: shard
// directories, checkpoint images, log generations, the logical-log chain, and
// the cut/fleet manifests. Engine, the checkpoint stores, recovery, and
// the manifests all delegate here, so the writer of a file and the scanner
// that must find it again after a crash can never drift apart.
#ifndef TICKPOINT_ENGINE_PATHS_H_
#define TICKPOINT_ENGINE_PATHS_H_

#include <cstdint>
#include <cstdlib>
#include <string>

namespace tickpoint {
namespace paths {

/// True if the bare name `name` is `prefix` + decimal digits + `suffix`,
/// storing the number in *n: the one parser behind every numbered name.
inline bool ParseNumberedName(const std::string& name, const char* prefix,
                              const char* suffix, uint64_t* n) {
  const std::string head(prefix);
  if (name.rfind(head, 0) != 0) return false;
  const char* digits = name.c_str() + head.size();
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(digits, &end, 10);
  if (end == digits || std::string(end) != suffix) return false;
  *n = parsed;
  return true;
}

/// Checkpoint/log directory of shard slot `slot` under the fleet root.
inline std::string ShardDir(const std::string& root, uint32_t slot) {
  return root + "/shard-" + std::to_string(slot);
}

/// Checkpoint/log directory of shard slot `slot`, honouring an optional
/// mount-point override: an empty `mount` keeps the slot under the fleet
/// root, a non-empty one relocates the whole shard directory to that path
/// (a different disk). The manifest records the override per partition, so
/// the writer and every post-crash scanner resolve the same directory.
inline std::string SlotDir(const std::string& root, const std::string& mount,
                           uint32_t slot) {
  return ShardDir(mount.empty() ? root : mount, slot);
}

/// True if the bare directory name `name` is a shard slot ("shard-N"),
/// storing N in *slot.
inline bool ParseShardDirName(const std::string& name, uint32_t* slot) {
  uint64_t n = 0;
  if (!ParseNumberedName(name, "shard-", "", &n)) return false;
  *slot = static_cast<uint32_t>(n);
  return true;
}

/// The open segment of one engine directory's logical (redo) log chain:
/// the file ticks are appended to. A directory written as a single
/// logical.log reads as a one-segment chain.
inline std::string LogicalLogFileName() { return "logical.log"; }
inline std::string LogicalLogPath(const std::string& dir) {
  return dir + "/" + LogicalLogFileName();
}

/// Bare filename of a sealed logical-log segment whose first record is
/// tick `first_tick` ("logical-N.log").
inline std::string SealedLogFileName(uint64_t first_tick) {
  return "logical-" + std::to_string(first_tick) + ".log";
}

/// True if the bare filename `name` is a sealed logical-log segment,
/// storing its first tick in *first_tick.
inline bool ParseSealedLogFileName(const std::string& name,
                                   uint64_t* first_tick) {
  return ParseNumberedName(name, "logical-", ".log", first_tick);
}

/// Bare filename of double-backup image `index` ("backup0.img").
inline std::string BackupImageFileName(int index) {
  return "backup" + std::to_string(index) + ".img";
}

/// Bare filename of the doublewrite region older builds staged ahead of
/// in-place image writes; a writable BackupStore open deletes it.
inline std::string DoublewriteFileName() { return "doublewrite.img"; }

/// Bare filename of checkpoint-log generation `gen` ("log-N.img").
inline std::string LogGenerationFileName(uint64_t gen) {
  return "log-" + std::to_string(gen) + ".img";
}

/// True if the bare filename `name` is a generation file, storing N in
/// *gen.
inline bool ParseLogGenerationFileName(const std::string& name,
                                       uint64_t* gen) {
  return ParseNumberedName(name, "log-", ".img", gen);
}

/// Bare name of the per-shard history directory (checkpoint generations,
/// archived logical-log segments, and the CRC'd history index).
inline std::string HistoryDirName() { return "history"; }

/// The history directory of one engine directory.
inline std::string HistoryDir(const std::string& dir) {
  return dir + "/" + HistoryDirName();
}

/// The CRC'd history index inside a shard's history directory. The index
/// is the source of truth: files it does not reference are orphans from an
/// interrupted archival and are swept on the next writable open.
inline std::string HistoryIndexPath(const std::string& dir) {
  return HistoryDir(dir) + "/index.bin";
}

/// Bare filename of retained checkpoint generation `seq` ("gen-N.img").
inline std::string HistoryGenerationFileName(uint64_t seq) {
  return "gen-" + std::to_string(seq) + ".img";
}

/// True if the bare filename `name` is a history generation image, storing
/// its sequence number in *seq.
inline bool ParseHistoryGenerationFileName(const std::string& name,
                                           uint64_t* seq) {
  return ParseNumberedName(name, "gen-", ".img", seq);
}

/// Bare filename of history-owned logical-log segment `id` ("seg-N.log"):
/// a sealed live segment history took over by hard link, so its records
/// are byte-identical to the live chain's.
inline std::string HistorySegmentFileName(uint64_t id) {
  return "seg-" + std::to_string(id) + ".log";
}

/// True if the bare filename `name` is a history-owned log segment,
/// storing its id in *id.
inline bool ParseHistorySegmentFileName(const std::string& name,
                                        uint64_t* id) {
  return ParseNumberedName(name, "seg-", ".log", id);
}

/// The committed consistent-cut manifest under the fleet root.
inline std::string CutManifestPath(const std::string& root) {
  return root + "/cut-manifest.bin";
}

/// Bare filename of the fleet manifest for `epoch`
/// ("fleet-manifest-N.bin").
inline std::string FleetManifestFileName(uint64_t epoch) {
  return "fleet-manifest-" + std::to_string(epoch) + ".bin";
}

/// The fleet manifest (superblock) for `epoch` under the fleet root.
inline std::string FleetManifestPath(const std::string& root,
                                     uint64_t epoch) {
  return root + "/" + FleetManifestFileName(epoch);
}

/// True if the bare filename `name` is a fleet manifest, storing its epoch
/// in *epoch.
inline bool ParseFleetManifestFileName(const std::string& name,
                                       uint64_t* epoch) {
  return ParseNumberedName(name, "fleet-manifest-", ".bin", epoch);
}

}  // namespace paths
}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_PATHS_H_
