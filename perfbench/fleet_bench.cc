// Fleet benchmark: runs one workload on a K=2 tickpoint fleet and
// prints its end-to-end metrics (or, with --trace 1, its per-layer
// metrics) as one JSON object on the last line of standard output.
//
// A run is four phases, all on the calling thread:
//   setup   Fleet::Create (game: GameShardAdapter::Open) + a bulk load of
//           every cell + the first committed consistent cut, repeated in
//           fresh roots (kSetupWarmups unmeasured, then kSetupReps
//           measured); the last fleet is kept.
//   paced   an open loop at kTickHz for --seconds: each tick is timed from
//           the moment it was due until EndTick + WaitForIdle return, and
//           a consistent cut is committed every kCutEvery ticks, the last
//           one on the final tick. The schedule restarts after each
//           commit, which blocks the loop and is timed on its own.
//   ops     single-shard crashes + FailoverShard, cut + MigratePartition,
//           whole-fleet crash + restart, and rollback to an earlier tick,
//           each repeated and each separated by paced ticks.
//   verify  the game workload's observed digests against the golden
//           replay (the synthetic workloads verify inline).
// Every operation's outcome is checked against an oracle the benchmark
// keeps itself: a plain per-partition array it applies the generated
// updates to, or GameShardAdapter::GoldenZoneDigests, which replays the
// battle with no engine and no disk.
#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/checkpoint_store.h"
#include "engine/compactor.h"
#include "engine/fleet.h"
#include "engine/fleet_manifest.h"
#include "engine/history.h"
#include "engine/logical_log.h"
#include "engine/paths.h"
#include "engine/stagger_scheduler.h"
#include "game/shard_adapter.h"
#include "game/world.h"
#include "model/cost_model.h"
#include "model/hardware.h"
#include "util/crc32.h"

namespace tp = tickpoint;
using Clock = std::chrono::steady_clock;

#define PB_CONCAT_(a, b) a##b
#define PB_CONCAT(a, b) PB_CONCAT_(a, b)
#define PB_ASSIGN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                    \
  if (!tmp.ok()) return tmp.status();   \
  lhs = std::move(tmp).value();
#define PB_ASSIGN_OR_RETURN(lhs, expr) \
  PB_ASSIGN_IMPL_(PB_CONCAT(pb_so_, __LINE__), lhs, expr)

namespace {

// ---- Fixed shape of every run (the README documents each choice) ----

constexpr uint32_t kShards = 2;
constexpr double kTickHz = 30.0;
constexpr uint64_t kCutEvery = 32;
// The first set-ups of a process run up to 2x slower than the rest (the
// machine warming up to the load); they run unmeasured.
constexpr int kSetupWarmups = 6;
constexpr int kSetupReps = 9;
constexpr int kFailovers = 6;
constexpr int kMigrations = 6;
constexpr int kRestarts = 9;
constexpr int kRollbacks = 7;
constexpr uint64_t kOpGapTicks = 8;
// Rollback without retention crashes this many ticks after its cut, well
// inside one checkpoint period, so the double-backup store still holds
// the cut image.
constexpr uint64_t kTicksAfterCut = 3;
// Synthetic partitions: rows x 10 columns of 4-byte cells.
constexpr uint64_t kCols = 10;
constexpr uint32_t kPoolTicks = 64;  // distinct cell batches
constexpr double kZipfTheta = 0.8;   // paper Table 4 skew
// Game zones: 3.4 MB of state each, with a 5% active set so both zones
// still step well inside one tick. Smaller zones made failover, restart
// and migration take 5-30 ms, short enough that host steal moved their
// medians by up to 1.8x between runs.
constexpr uint32_t kGameUnits = 65536;
constexpr double kGameActiveFraction = 0.05;
constexpr double kZoneSkew = 0.8;
constexpr uint64_t kRetainedGenerations = 4;
// Probe repetitions for the traced run's layer micro-timings.
constexpr int kProbeReps = 9;

/// CPU time of every thread of the process, user + system.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// CPU time of the calling thread.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// Receives the probes' results so the timed calls cannot be optimized
/// away.
volatile uint64_t g_probe_sink = 0;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The lower quartile, interpolated at rank (n - 1) / 4. Host steal and
/// the first uses of fresh heap only ever lengthen an operation, so the
/// quick side of its samples is what repeats between runs.
double LowerQuartile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = static_cast<double>(v.size() - 1) / 4.0;
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The largest sample with at least `beyond` samples above it.
double TailWithBeyond(std::vector<double> v, size_t beyond) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > beyond ? v[v.size() - 1 - beyond] : v.front();
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// ---- Process counters ----

struct ProcIo {
  uint64_t wchar = 0;
  uint64_t syscw = 0;
};

ProcIo ReadProcIo() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") io.wchar = value;
    if (key == "syscw:") io.syscw = value;
  }
  return io;
}

/// CPU time the hypervisor gave to others while this machine's CPUs
/// wanted to run (the steal column of /proc/stat), in seconds.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  in >> cpu;
  for (uint64_t& f : fields) in >> f;
  return static_cast<double>(fields[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Logical bytes of every regular file under `dir` (0 when absent).
uint64_t TreeBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  if (!std::filesystem::exists(dir, ec)) return 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Removes a directory tree on every exit path of its scope.
class ScopedRemoveAll {
 public:
  explicit ScopedRemoveAll(std::string dir) : dir_(std::move(dir)) {}
  ~ScopedRemoveAll() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ScopedRemoveAll(const ScopedRemoveAll&) = delete;
  ScopedRemoveAll& operator=(const ScopedRemoveAll&) = delete;

 private:
  std::string dir_;
};

// ---- Span recording (traced runs only) ----

/// In-memory spans around every call the benchmark makes into a layer.
/// The span name's prefix before the first '.' is its layer.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int Begin(const char* name) {
    if (!enabled_) return -1;
    Record r;
    r.name = name;
    r.start_us = NowUs();
    r.parent = open_.empty() ? -1 : open_.back();
    records_.push_back(std::move(r));
    open_.push_back(static_cast<int>(records_.size() - 1));
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    records_[id].end_us = NowUs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  tp::Status WriteChromeTrace(const std::string& path) const;
  /// Per-layer span count, total and self time (duration minus the part
  /// covered by child spans), printed to `out`.
  void PrintLayerSelfTimes(FILE* out) const;

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

tp::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return tp::Status::IOError("cannot write " + path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", r.name.c_str(), r.start_us,
                  r.end_us - r.start_us, i, r.parent);
    out << buf;
  }
  out << "]}\n";
  return out.good() ? tp::Status::OK()
                    : tp::Status::IOError("short write to " + path);
}

void Tracer::PrintLayerSelfTimes(FILE* out) const {
  std::vector<double> child_us(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_us[r.parent] += r.end_us - r.start_us;
  }
  struct Layer {
    std::string name;
    uint64_t spans = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::vector<Layer> layers;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string layer = r.name.substr(0, r.name.find('.'));
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const Layer& l) { return l.name == layer; });
    if (it == layers.end()) {
      layers.push_back(Layer{layer});
      it = layers.end() - 1;
    }
    const double dur = r.end_us - r.start_us;
    ++it->spans;
    it->total_us += dur;
    it->self_us += dur - child_us[i];
  }
  std::sort(layers.begin(), layers.end(), [](const Layer& a, const Layer& b) {
    return a.self_us > b.self_us;
  });
  std::fprintf(out, "%-18s %8s %12s %12s\n", "layer", "spans", "total_ms",
               "self_ms");
  for (const Layer& l : layers) {
    std::fprintf(out, "%-18s %8" PRIu64 " %12.3f %12.3f\n", l.name.c_str(),
                 l.spans, l.total_us / 1e3, l.self_us / 1e3);
  }
}

class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~Span() { tracer_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---- Workloads ----

enum class Kind { kSynthetic, kGame };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  tp::AlgorithmKind algorithm;
  tp::IoBackendKind backend;
  bool replicate;
  bool retention;
  double theta;  // synthetic row/column Zipf skew; 0 = uniform
  uint64_t period_ticks;
  uint64_t rows;              // synthetic rows per partition
  uint32_t updates_per_tick;  // synthetic updates per partition per tick
};

// uniform-redo-pit runs 4 MB partitions with a 32-tick period: with
// retention on, each CoU-Partial-Redo checkpoint reads its image back for
// the history archive, 0.06-0.33 s per 4 MB partition on a 4-core VM, and
// shorter periods (or 8 MB partitions) left the writers behind their
// schedule, so the checkpoint count stopped repeating between runs.
const WorkloadSpec kWorkloads[] = {
    {"zipf-cou", Kind::kSynthetic, tp::AlgorithmKind::kCopyOnUpdate,
     tp::IoBackendKind::kSync, true, false, kZipfTheta, 8, 204800, 4000},
    {"uniform-redo-pit", Kind::kSynthetic,
     tp::AlgorithmKind::kCopyOnUpdatePartialRedo, tp::IoBackendKind::kAsync,
     false, true, 0.0, 32, 102400, 4000},
    {"game-ops", Kind::kGame, tp::AlgorithmKind::kCopyOnUpdate,
     tp::IoBackendKind::kSync, true, false, 0.0, 8, 0, 0},
};

tp::ShardedEngineConfig FleetConfig(const WorkloadSpec& spec,
                                    const tp::StateLayout& layout) {
  tp::ShardedEngineConfig config;
  config.num_shards = kShards;
  config.checkpoint_period_ticks = spec.period_ticks;
  config.staggered = true;
  config.adaptive = false;
  config.threaded = true;
  config.replicate = spec.replicate;
  config.shard.layout = layout;
  config.shard.algorithm = spec.algorithm;
  config.shard.io_backend = spec.backend;
  // The root lives inside the benchmark's checkout, usually on a shared
  // virtual disk whose fsync latency swings by 20x between runs; with
  // fsync off every write syscall still runs, which is the cost profile
  // of a RAM-backed root. Crashes are simulated in process, so recovery
  // is checked exactly either way.
  config.shard.fsync = false;
  config.shard.retention.enabled = spec.retention;
  config.shard.retention.max_generations = kRetainedGenerations;
  return config;
}

struct TickSample {
  Clock::time_point due;
  double submit_s = 0.0;
  double drain_s = 0.0;
  Clock::time_point end;
};

/// What the runner drives: one fleet plus the oracle that judges it.
class Subject {
 public:
  explicit Subject(Tracer& tracer) : tracer_(tracer) {}
  virtual ~Subject() = default;
  /// Creates the fleet under `root` and runs the bulk-load tick (tick 0).
  virtual tp::Status Create(const std::string& root) = 0;
  /// One fleet tick, EndTick + WaitForIdle included.
  virtual tp::Status Tick(TickSample* sample) = 0;
  virtual tp::Fleet* fleet() = 0;
  /// Updates mailed to the fleet so far (bulk load excluded).
  virtual uint64_t updates() const = 0;
  /// Bytes of state across all partitions.
  virtual uint64_t state_bytes() const = 0;
  /// Checks the live partitions against the oracle (fleet quiesced).
  virtual tp::Status CheckLive(const char* what) = 0;
  /// Checks recovered tables holding the effects of ticks [0, ticks);
  /// the oracle follows the recovered timeline from here on.
  virtual tp::Status CheckRecovered(tp::RecoveredFleet& recovered,
                                    uint64_t ticks, const char* what) = 0;
  /// Restarts the fleet from `recovered` (timed by the caller).
  virtual tp::Status Resume(tp::RecoveredFleet recovered) = 0;
  /// Releases a crashed fleet.
  virtual void DropFleet() = 0;
  /// Deferred oracle comparisons (the game's golden replay).
  virtual tp::Status Verify() = 0;
  /// Upper bound on logical-log bytes one tick appends per partition.
  virtual uint64_t TickRecordBytesBound() const = 0;

 protected:
  Tracer& tracer_;
};

tp::Status Mismatch(const char* what, uint32_t partition,
                    const std::string& detail) {
  return tp::Status::Corruption(std::string("oracle mismatch after ") + what +
                                ", partition " + std::to_string(partition) +
                                ": " + detail);
}

/// Synthetic updates on a rows x 10 cell table per partition.
class SyntheticSubject : public Subject {
 public:
  SyntheticSubject(const WorkloadSpec& spec, uint64_t seed, Tracer& tracer)
      : Subject(tracer),
        seed_(seed),
        rows_(spec.rows),
        updates_per_tick_(spec.updates_per_tick),
        layout_(tp::StateLayout::Small(spec.rows, kCols)),
        config_(FleetConfig(spec, layout_)) {
    GeneratePool(spec.theta);
  }

  tp::Status Create(const std::string& root) override {
    fleet_.reset();
    PB_ASSIGN_OR_RETURN(fleet_, tp::Fleet::Create(root, config_));
    oracle_.assign(kShards, std::vector<int32_t>(layout_.num_cells()));
    fleet_->BeginTick();
    for (uint32_t p = 0; p < kShards; ++p) {
      for (uint32_t cell = 0; cell < layout_.num_cells(); ++cell) {
        const int32_t value = InitialValue(p, cell);
        fleet_->ApplyUpdate(p, cell, value);
        oracle_[p][cell] = value;
      }
    }
    TP_RETURN_NOT_OK(fleet_->EndTick());
    oracle_ticks_ = 1;
    updates_ = 0;
    return fleet_->WaitForIdle();
  }

  tp::Status Tick(TickSample* sample) override {
    const uint64_t tick = fleet_->current_tick();
    const auto start = Clock::now();
    {
      Span span(tracer_, "fleet.submit");
      fleet_->BeginTick();
      for (uint32_t p = 0; p < kShards; ++p) {
        const std::vector<uint32_t>& cells = CellsOf(p, tick);
        for (uint32_t j = 0; j < cells.size(); ++j) {
          fleet_->ApplyUpdate(p, cells[j], TickValue(tick, p, j));
        }
      }
      TP_RETURN_NOT_OK(fleet_->EndTick());
    }
    const auto submitted = Clock::now();
    {
      Span span(tracer_, "fleet.drain");
      TP_RETURN_NOT_OK(fleet_->WaitForIdle());
    }
    sample->end = Clock::now();
    sample->submit_s = SecondsBetween(start, submitted);
    sample->drain_s = SecondsBetween(submitted, sample->end);
    // The oracle follows outside the timed window.
    ApplyTickToOracle(tick, &oracle_);
    oracle_ticks_ = tick + 1;
    updates_ += static_cast<uint64_t>(kShards) * updates_per_tick_;
    return tp::Status::OK();
  }

  tp::Fleet* fleet() override { return fleet_.get(); }
  uint64_t updates() const override { return updates_; }
  uint64_t state_bytes() const override {
    return kShards * layout_.state_bytes();
  }

  tp::Status CheckLive(const char* what) override {
    TP_RETURN_NOT_OK(fleet_->WaitForIdle());
    if (fleet_->current_tick() != oracle_ticks_) {
      return tp::Status::Internal("fleet tick drifted from the oracle");
    }
    for (uint32_t p = 0; p < kShards; ++p) {
      TP_RETURN_NOT_OK(
          Compare(fleet_->engine().shard(p).state(), oracle_[p], p, what));
    }
    return tp::Status::OK();
  }

  tp::Status CheckRecovered(tp::RecoveredFleet& recovered, uint64_t ticks,
                            const char* what) override {
    if (ticks != oracle_ticks_) {
      // A rollback: rebuild the oracle at the earlier tick from the
      // inputs, which are a pure function of (seed, tick).
      RebuildOracle(ticks);
    }
    for (uint32_t p = 0; p < kShards; ++p) {
      TP_RETURN_NOT_OK(Compare(recovered.tables()[p], oracle_[p], p, what));
    }
    return tp::Status::OK();
  }

  tp::Status Resume(tp::RecoveredFleet recovered) override {
    PB_ASSIGN_OR_RETURN(fleet_, recovered.Resume());
    return tp::Status::OK();
  }

  void DropFleet() override { fleet_.reset(); }
  tp::Status Verify() override { return tp::Status::OK(); }
  uint64_t TickRecordBytesBound() const override {
    return static_cast<uint64_t>(updates_per_tick_) * sizeof(tp::CellUpdate) +
           64;
  }

 private:
  void GeneratePool(double theta) {
    pool_.assign(kShards, {});
    const uint64_t num_cells = layout_.num_cells();
    std::vector<double> row_cdf, col_cdf;
    auto build_cdf = [&](uint64_t n, std::vector<double>* cdf) {
      cdf->resize(n);
      double sum = 0.0;
      for (uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        (*cdf)[i] = sum;
      }
    };
    if (theta > 0.0) {
      build_cdf(rows_, &row_cdf);
      build_cdf(kCols, &col_cdf);
    }
    auto sample = [](const std::vector<double>& cdf, double u) {
      const auto it =
          std::upper_bound(cdf.begin(), cdf.end(), u * cdf.back());
      return static_cast<uint64_t>(
          std::min<size_t>(it - cdf.begin(), cdf.size() - 1));
    };
    // Rank r is row r, as in ZipfUpdateSource: the hot rows share the
    // table's first objects.
    for (uint32_t p = 0; p < kShards; ++p) {
      std::mt19937_64 rng(SplitMix(seed_ * 1000003ULL + p));
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      pool_[p].resize(kPoolTicks);
      for (auto& cells : pool_[p]) {
        cells.resize(updates_per_tick_);
        for (auto& cell : cells) {
          if (theta > 0.0) {
            const uint64_t row = sample(row_cdf, unit(rng));
            const uint64_t col = sample(col_cdf, unit(rng));
            cell = static_cast<uint32_t>(row * kCols + col);
          } else {
            cell = static_cast<uint32_t>(rng() % num_cells);
          }
        }
      }
    }
  }

  const std::vector<uint32_t>& CellsOf(uint32_t p, uint64_t tick) const {
    return pool_[p][(tick - 1) % kPoolTicks];
  }
  int32_t InitialValue(uint32_t p, uint32_t cell) const {
    return static_cast<int32_t>(
        SplitMix(seed_ ^ (static_cast<uint64_t>(p) << 40) ^ cell));
  }
  int32_t TickValue(uint64_t tick, uint32_t p, uint32_t j) const {
    return static_cast<int32_t>(SplitMix(
        (seed_ << 1) ^ (tick << 24) ^ (static_cast<uint64_t>(p) << 20) ^ j));
  }

  void ApplyTickToOracle(uint64_t tick,
                         std::vector<std::vector<int32_t>>* oracle) const {
    for (uint32_t p = 0; p < kShards; ++p) {
      const std::vector<uint32_t>& cells = CellsOf(p, tick);
      for (uint32_t j = 0; j < cells.size(); ++j) {
        (*oracle)[p][cells[j]] = TickValue(tick, p, j);
      }
    }
  }

  void RebuildOracle(uint64_t ticks) {
    for (uint32_t p = 0; p < kShards; ++p) {
      for (uint32_t cell = 0; cell < layout_.num_cells(); ++cell) {
        oracle_[p][cell] = InitialValue(p, cell);
      }
    }
    for (uint64_t t = 1; t < ticks; ++t) ApplyTickToOracle(t, &oracle_);
    oracle_ticks_ = ticks;
  }

  tp::Status Compare(const tp::StateTable& table,
                     const std::vector<int32_t>& expected, uint32_t p,
                     const char* what) const {
    if (std::memcmp(table.data(), expected.data(),
                    expected.size() * sizeof(int32_t)) != 0) {
      for (uint32_t cell = 0; cell < expected.size(); ++cell) {
        if (table.ReadCell(cell) != expected[cell]) {
          return Mismatch(what, p,
                          "cell " + std::to_string(cell) + " holds " +
                              std::to_string(table.ReadCell(cell)) +
                              ", oracle " + std::to_string(expected[cell]));
        }
      }
    }
    return tp::Status::OK();
  }

  uint64_t seed_;
  uint64_t rows_;
  uint32_t updates_per_tick_;
  tp::StateLayout layout_;
  tp::ShardedEngineConfig config_;
  std::vector<std::vector<std::vector<uint32_t>>> pool_;  // [p][slot][j]
  std::vector<std::vector<int32_t>> oracle_;              // [p][cell]
  uint64_t oracle_ticks_ = 0;  // the oracle holds ticks [0, oracle_ticks_)
  uint64_t updates_ = 0;
  std::unique_ptr<tp::Fleet> fleet_;
};

tp::game::GameShardAdapterConfig GameConfig(const WorkloadSpec& spec,
                                            uint64_t seed) {
  tp::game::GameShardAdapterConfig config;
  config.zone_world.num_units = kGameUnits;
  config.zone_world.active_fraction = kGameActiveFraction;
  config.zone_world.seed = seed;
  config.engine = FleetConfig(spec, tp::StateLayout{});
  config.parallel_step = false;
  config.zone_activity =
      tp::game::GameShardAdapter::ZipfZoneActivity(kShards, kZoneSkew);
  return config;
}

/// The Knights-and-Archers battle through GameShardAdapter. Digests are
/// recorded as the run goes and compared against the golden replay at the
/// end (Verify).
class GameSubject : public Subject {
 public:
  GameSubject(const WorkloadSpec& spec, uint64_t seed, Tracer& tracer)
      : Subject(tracer), config_(GameConfig(spec, seed)) {}

  tp::Status Create(const std::string& root) override {
    adapter_.reset();
    config_.engine.shard.dir = root;
    PB_ASSIGN_OR_RETURN(adapter_, tp::game::GameShardAdapter::Open(config_));
    TP_RETURN_NOT_OK(adapter_->Tick());  // engine tick 0: the bulk load
    updates_base_ = 0;
    return adapter_->fleet()->WaitForIdle();
  }

  tp::Status Tick(TickSample* sample) override {
    const auto start = Clock::now();
    {
      Span span(tracer_, "game.tick");
      TP_RETURN_NOT_OK(adapter_->Tick());
    }
    const auto submitted = Clock::now();
    {
      Span span(tracer_, "fleet.drain");
      TP_RETURN_NOT_OK(adapter_->fleet()->WaitForIdle());
    }
    sample->end = Clock::now();
    sample->submit_s = SecondsBetween(start, submitted);
    sample->drain_s = SecondsBetween(submitted, sample->end);
    max_world_ticks_ = std::max(max_world_ticks_, adapter_->world_ticks());
    return tp::Status::OK();
  }

  tp::Fleet* fleet() override {
    return adapter_ ? adapter_->fleet() : nullptr;
  }
  uint64_t updates() const override {
    return updates_base_ + (adapter_ ? adapter_->game_updates() : 0);
  }
  uint64_t state_bytes() const override {
    return kShards *
           tp::game::GameShardAdapter::ZoneLayout(config_.zone_world)
               .state_bytes();
  }

  tp::Status CheckLive(const char* what) override {
    TP_RETURN_NOT_OK(adapter_->fleet()->WaitForIdle());
    const uint64_t world_tick = adapter_->world_ticks();
    for (uint32_t z = 0; z < kShards; ++z) {
      Observe(what, world_tick, z,
              tp::game::TableStateDigest(
                  adapter_->engine()->shard(z).state(),
                  config_.zone_world.num_units));
      Observe(what, world_tick, z, adapter_->ZoneDigest(z));
    }
    return tp::Status::OK();
  }

  tp::Status CheckRecovered(tp::RecoveredFleet& recovered, uint64_t ticks,
                            const char* what) override {
    if (ticks == 0) return Mismatch(what, 0, "recovered before the bulk load");
    for (uint32_t z = 0; z < kShards; ++z) {
      Observe(what, ticks - 1, z,
              tp::game::TableStateDigest(recovered.tables()[z],
                                         config_.zone_world.num_units));
    }
    return tp::Status::OK();
  }

  tp::Status Resume(tp::RecoveredFleet recovered) override {
    PB_ASSIGN_OR_RETURN(adapter_, tp::game::GameShardAdapter::OpenResumed(
                                      config_, std::move(recovered)));
    return tp::Status::OK();
  }

  void DropFleet() override {
    // game_updates() restarts with each adapter; keep the running total.
    updates_base_ += adapter_->game_updates();
    adapter_.reset();
  }

  tp::Status Verify() override {
    const auto golden = tp::game::GameShardAdapter::GoldenZoneDigests(
        config_, max_world_ticks_);
    for (const Observation& o : observations_) {
      if (o.world_tick >= golden.size() ||
          golden[o.world_tick][o.zone] != o.digest) {
        return Mismatch(o.what, o.zone,
                        "digest at world tick " +
                            std::to_string(o.world_tick) +
                            " differs from the golden replay");
      }
    }
    return tp::Status::OK();
  }

  uint64_t TickRecordBytesBound() const override {
    // Every unit attribute plus the system rows, once per tick.
    return tp::game::GameShardAdapter::ZoneLayout(config_.zone_world)
                   .num_cells() *
               sizeof(tp::CellUpdate) +
           64;
  }

  const tp::game::GameShardAdapterConfig& config() const { return config_; }
  size_t observations() const { return observations_.size(); }

 private:
  struct Observation {
    const char* what;
    uint64_t world_tick;
    uint32_t zone;
    uint64_t digest;
  };

  void Observe(const char* what, uint64_t world_tick, uint32_t zone,
               uint64_t digest) {
    observations_.push_back(Observation{what, world_tick, zone, digest});
  }

  tp::game::GameShardAdapterConfig config_;
  std::unique_ptr<tp::game::GameShardAdapter> adapter_;
  uint64_t updates_base_ = 0;
  uint64_t max_world_ticks_ = 0;
  std::vector<Observation> observations_;
};

// ---- The run ----

struct OpCount {
  const char* name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, uint64_t seed, int seconds, bool trace,
         std::string root)
      : spec_(spec),
        seed_(seed),
        paced_ticks_(static_cast<uint64_t>(seconds * kTickHz)),
        tracer_(trace),
        root_(std::move(root)) {
    if (spec.kind == Kind::kGame) {
      subject_ = std::make_unique<GameSubject>(spec, seed, tracer_);
    } else {
      subject_ = std::make_unique<SyntheticSubject>(spec, seed, tracer_);
    }
  }

  tp::Status Run();
  void PrintResult(bool correct) const;
  /// p50, p75, p90 and p95 of the gameplay tick latencies.
  std::vector<double> TickQuantiles() const;
  const Tracer& tracer() const { return tracer_; }

 private:
  enum Op { kTick, kCut, kFailover, kMigration, kRestart, kRollback };

  tp::Fleet& fleet() { return *subject_->fleet(); }

  /// Counts one attempt of `op`, and a failure when `status` is not OK.
  tp::Status Count(Op op, tp::Status status) {
    ++ops_[op].attempted;
    if (!status.ok()) ++ops_[op].failed;
    return status;
  }

  tp::Status Setup();
  tp::Status PacedPhase();
  tp::Status OpsPhase();
  /// Restarts the pacing schedule: the next tick is due now.
  void Anchor() {
    anchor_ = Clock::now();
    next_index_ = 0;
  }
  /// Sleeps until the next tick is due and runs it.
  tp::Status PacedTick(TickSample* sample);
  tp::Status PacedTicks(uint64_t n);
  /// Arms a cut, ticks through it and commits it.
  tp::Status CutAndCommit(uint64_t* cut_tick);
  tp::Status Failover(int round);
  tp::Status Migrate(int round);
  tp::Status Restart(int round);
  tp::Status Rollback();
  tp::Status CheckHistoryBound();
  /// Traced runs: timing probes of single layers on the live fleet.
  tp::Status LayerProbes();
  tp::Status ProbeCrashedStores();

  const WorkloadSpec& spec_;
  uint64_t seed_;
  uint64_t paced_ticks_;
  Tracer tracer_;
  std::string root_;
  std::string fleet_root_;
  std::unique_ptr<Subject> subject_;
  Clock::time_point anchor_;
  uint64_t next_index_ = 0;
  OpCount ops_[6] = {{"tick"},     {"cut"},     {"failover"},
                     {"migration"}, {"restart"}, {"rollback"}};

  // End-to-end samples.
  std::vector<double> setup_s_;
  std::vector<double> tick_s_;
  std::vector<double> cut_checkpoint_s_;
  std::vector<double> restart_s_;
  std::vector<double> rollback_s_;
  std::vector<double> failover_s_;
  std::vector<double> migrate_s_;
  double write_bytes_per_update_ = 0.0;
  double disk_bytes_per_state_byte_ = 0.0;
  double max_late_s_ = 0.0;
  uint64_t late_ticks_ = 0;
  /// CPU the pacing spin burned, which tick_cpu_ms leaves out.
  double spin_cpu_s_ = 0.0;
  double tick_cpu_s_ = 0.0;
  bool fell_behind_ = false;
  double steal_start_s_ = StealSeconds();

  // Per-layer samples and counts.
  std::vector<double> submit_s_, drain_s_, cut_commit_s_, cut_tick_s_;
  std::vector<double> pause_s_, writer_s_, cut_stall_s_;
  double objects_per_checkpoint_ = 0.0;
  double cou_copies_per_update_ = 0.0;
  uint64_t periodic_checkpoints_ = 0;
  uint64_t expected_checkpoints_ = 0;
  uint64_t deferrals_ = 0;
  double log_bytes_per_update_ = 0.0;
  double io_calls_per_checkpoint_ = 0.0;
  double io_bytes_per_checkpoint_ = 0.0;
  double store_bytes_ratio_ = 0.0;
  double doublewrite_bytes_ratio_ = 0.0;
  double history_bytes_ratio_ = 0.0;
  double history_generations_ = 0.0;
  double history_window_ticks_ = 0.0;
  std::vector<double> replica_rebuild_s_, failover_bootstrap_s_;
  std::vector<double> recovery_restore_s_, recovery_replay_s_,
      recovery_resume_s_, replay_ticks_;
  std::vector<double> store_read_s_, log_replay_s_;
  std::vector<double> history_read_index_s_, history_read_gen_s_,
      compactor_plan_s_;
  std::vector<double> manifest_write_s_, manifest_read_s_;
  std::vector<double> game_step_s_, crc_gbps_;
};

tp::Status Runner::PacedTick(TickSample* sample) {
  sample->due = anchor_ + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(next_index_) / kTickHz));
  ++next_index_;
  // Sleep to just before the due time and spin the rest, so the tick
  // starts on time instead of whenever the scheduler wakes this thread.
  std::this_thread::sleep_until(sample->due - std::chrono::milliseconds(2));
  const double spin_start = ThreadCpuSeconds();
  while (Clock::now() < sample->due) {
  }
  spin_cpu_s_ += ThreadCpuSeconds() - spin_start;
  const double late = SecondsBetween(sample->due, Clock::now());
  if (late > 0.002) ++late_ticks_;
  max_late_s_ = std::max(max_late_s_, late);
  Span span(tracer_, "bench.tick");
  return Count(kTick, subject_->Tick(sample));
}

tp::Status Runner::PacedTicks(uint64_t n) {
  Anchor();
  for (uint64_t i = 0; i < n; ++i) {
    TickSample sample;
    TP_RETURN_NOT_OK(PacedTick(&sample));
  }
  return tp::Status::OK();
}

tp::Status Runner::CutAndCommit(uint64_t* cut_tick) {
  tp::StatusOr<uint64_t> armed = fleet().RequestConsistentCut();
  if (!armed.ok()) return Count(kCut, armed.status());
  *cut_tick = armed.value();
  TP_RETURN_NOT_OK(PacedTicks(*cut_tick + 1 - fleet().current_tick()));
  Span span(tracer_, "cut.commit");
  return Count(kCut, fleet().CommitConsistentCut());
}

tp::Status Runner::Setup() {
  Span phase(tracer_, "bench.setup");
  for (int rep = 0; rep < kSetupWarmups + kSetupReps; ++rep) {
    const std::string root = root_ + "/fleet-" + std::to_string(rep);
    const auto start = Clock::now();
    {
      Span span(tracer_, "fleet.create_and_load");
      TP_RETURN_NOT_OK(subject_->Create(root));
    }
    tp::StatusOr<uint64_t> armed = fleet().RequestConsistentCut();
    if (!armed.ok()) return Count(kCut, armed.status());
    while (fleet().current_tick() <= armed.value()) {
      TickSample sample;
      TP_RETURN_NOT_OK(Count(kTick, subject_->Tick(&sample)));
    }
    {
      Span span(tracer_, "cut.commit");
      TP_RETURN_NOT_OK(Count(kCut, fleet().CommitConsistentCut()));
    }
    if (rep >= kSetupWarmups) {
      setup_s_.push_back(SecondsBetween(start, Clock::now()));
    }
    TP_RETURN_NOT_OK(subject_->CheckLive("setup"));
    if (rep + 1 < kSetupWarmups + kSetupReps) {
      TP_RETURN_NOT_OK(fleet().Shutdown());
      subject_->DropFleet();
      std::error_code ec;
      std::filesystem::remove_all(root, ec);
    } else {
      fleet_root_ = root;
    }
  }
  return tp::Status::OK();
}

tp::Status Runner::PacedPhase() {
  Span phase(tracer_, "bench.paced");
  tp::ShardedEngine& engine = fleet().engine();
  // Every cut tick falls one tick before a shard's periodic start, the
  // farthest point from the flush in flight (period / K - 1 ticks old), so
  // whether the cut tick must first drain that flush is not left to
  // timing. Unmeasured ticks align the phase; kCutEvery is a multiple of
  // period / K for every workload.
  const uint64_t stride = spec_.period_ticks / kShards;
  const uint64_t end = fleet().current_tick() + paced_ticks_;
  TP_RETURN_NOT_OK(PacedTicks((stride - end % stride) % stride));
  const uint64_t first = fleet().current_tick();
  const uint64_t last = first + paced_ticks_ - 1;
  const uint64_t lead = engine.config().cut_lead_ticks;
  // Cut ticks land every kCutEvery ticks, the last one on the final paced
  // tick, so the phase ends on a committed cut: every periodic checkpoint
  // it started has then completed and is counted.
  std::vector<uint64_t> cut_ticks;
  for (uint64_t k = 0; k * kCutEvery + first + lead <= last; ++k) {
    cut_ticks.insert(cut_ticks.begin(), last - k * kCutEvery);
  }
  std::vector<uint64_t> cou0(kShards), upd0(kShards), log0(kShards);
  for (uint32_t p = 0; p < kShards; ++p) {
    cou0[p] = engine.shard(p).metrics().cou_copies;
    upd0[p] = engine.shard(p).metrics().updates;
    log0[p] = FileBytes(tp::paths::LogicalLogPath(
        fleet().manifest().PartitionDir(fleet_root_, p)));
  }
  const uint64_t updates0 = subject_->updates();
  const ProcIo io0 = ReadProcIo();
  const double cpu0 = ProcessCpuSeconds();
  const double spin0 = spin_cpu_s_;
  const uint64_t deferrals0 = engine.scheduler().deferrals();

  size_t next_cut = 0;
  bool cut_armed = false;
  Anchor();
  for (uint64_t i = 0; i < paced_ticks_; ++i) {
    const uint64_t tick = fleet().current_tick();
    if (next_cut < cut_ticks.size() && tick + lead == cut_ticks[next_cut]) {
      Span span(tracer_, "cut.request");
      tp::StatusOr<uint64_t> armed = fleet().RequestConsistentCut();
      if (!armed.ok()) return Count(kCut, armed.status());
      if (armed.value() != cut_ticks[next_cut]) {
        return tp::Status::Internal("cut armed at an unexpected tick");
      }
      cut_armed = true;
    }
    TickSample sample;
    TP_RETURN_NOT_OK(PacedTick(&sample));
    const double latency = SecondsBetween(sample.due, sample.end);
    if (!cut_armed || tick != cut_ticks[next_cut]) {
      // Cut ticks are charged to cut_checkpoint_s instead: a tail order
      // statistic straddling the few slow cut ticks and the gameplay
      // ticks would swing between identical runs.
      tick_s_.push_back(latency);
      submit_s_.push_back(sample.submit_s);
      drain_s_.push_back(sample.drain_s);
    } else {
      cut_tick_s_.push_back(latency);
      const auto commit_start = Clock::now();
      {
        Span span(tracer_, "cut.commit");
        TP_RETURN_NOT_OK(Count(kCut, fleet().CommitConsistentCut()));
      }
      const auto commit_end = Clock::now();
      cut_commit_s_.push_back(SecondsBetween(commit_start, commit_end));
      cut_checkpoint_s_.push_back(SecondsBetween(sample.due, commit_end));
      cut_armed = false;
      ++next_cut;
      // The commit blocks the tick loop and is reported as
      // cut_checkpoint_s; the schedule restarts after it, so the ticks
      // that follow are not charged for its length a second time.
      Anchor();
    }
  }
  const ProcIo io1 = ReadProcIo();
  // Steal is not charged as CPU time, so unlike the latencies this cost
  // holds still on a contended host.
  tick_cpu_s_ = (ProcessCpuSeconds() - cpu0 - (spin_cpu_s_ - spin0)) /
                static_cast<double>(paced_ticks_);
  const uint64_t updates = subject_->updates() - updates0;

  // Engine-level results of the phase (the fleet is quiesced after the
  // final cut commit).
  tp::StaggerScheduler schedule(engine.config().ToStaggerConfig());
  double objects = 0.0;
  uint64_t cou = 0, engine_updates = 0, log_bytes = 0;
  bool off_grid = false;
  for (uint32_t p = 0; p < kShards; ++p) {
    const tp::EngineMetrics& m = engine.shard(p).metrics();
    cou += m.cou_copies - cou0[p];
    engine_updates += m.updates - upd0[p];
    log_bytes += FileBytes(tp::paths::LogicalLogPath(
                     fleet().manifest().PartitionDir(fleet_root_, p))) -
                 log0[p];
    for (const tp::EngineCheckpointRecord& r : m.checkpoints) {
      if (r.start_tick < first || r.start_tick > last) continue;
      if (r.cut) {
        cut_stall_s_.push_back(r.cut_stall_seconds);
        continue;
      }
      ++periodic_checkpoints_;
      pause_s_.push_back(r.sync_seconds);
      writer_s_.push_back(r.async_seconds);
      objects += static_cast<double>(r.objects_written);
      if (!schedule.ShouldCheckpoint(p, r.start_tick)) off_grid = true;
    }
    // The usual count: every fixed-schedule start the cut stand-downs
    // (request tick through cut tick) leave in place.
    for (uint64_t t = first; t <= last; ++t) {
      bool suppressed = false;
      for (uint64_t c : cut_ticks) suppressed |= (t + lead >= c && t <= c);
      if (!suppressed && schedule.ShouldCheckpoint(p, t)) {
        ++expected_checkpoints_;
      }
    }
  }
  fell_behind_ = off_grid || periodic_checkpoints_ != expected_checkpoints_;
  // Starts pushed back by the scheduler's disk budget, plus fixed-schedule
  // starts the engine deferred because the shard's previous flush was
  // still running.
  deferrals_ = engine.scheduler().deferrals() - deferrals0 +
               (expected_checkpoints_ > periodic_checkpoints_
                    ? expected_checkpoints_ - periodic_checkpoints_
                    : 0);
  objects_per_checkpoint_ =
      periodic_checkpoints_ ? objects / periodic_checkpoints_ : 0.0;
  cou_copies_per_update_ =
      engine_updates ? static_cast<double>(cou) / engine_updates : 0.0;
  log_bytes_per_update_ =
      updates ? static_cast<double>(log_bytes) / updates : 0.0;
  const double checkpoints =
      static_cast<double>(std::max<uint64_t>(periodic_checkpoints_, 1));
  io_calls_per_checkpoint_ =
      static_cast<double>(io1.syscw - io0.syscw) / checkpoints;
  io_bytes_per_checkpoint_ =
      static_cast<double>(io1.wchar - io0.wchar) / checkpoints;
  write_bytes_per_update_ =
      updates ? static_cast<double>(io1.wchar - io0.wchar) / updates : 0.0;

  // Footprint at the end of the phase, whole and by layer.
  const double state = static_cast<double>(subject_->state_bytes());
  disk_bytes_per_state_byte_ = TreeBytes(fleet_root_) / state;
  uint64_t store = 0, doublewrite = 0, history = 0;
  for (uint32_t p = 0; p < kShards; ++p) {
    const std::string dir = fleet().manifest().PartitionDir(fleet_root_, p);
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      uint64_t gen = 0;
      if (name == tp::BackupStore::ImageFileName(0) ||
          name == tp::BackupStore::ImageFileName(1) ||
          tp::LogStore::ParseGenerationFileName(name, &gen)) {
        store += FileBytes(entry.path().string());
      } else if (name == tp::paths::DoublewriteFileName()) {
        doublewrite += FileBytes(entry.path().string());
      }
    }
    history += TreeBytes(tp::paths::HistoryDir(dir));
  }
  store_bytes_ratio_ = store / state;
  doublewrite_bytes_ratio_ = doublewrite / state;
  history_bytes_ratio_ = history / state;
  return subject_->CheckLive("paced phase");
}

tp::Status Runner::Failover(int round) {
  TP_RETURN_NOT_OK(PacedTicks(kOpGapTicks));
  const uint32_t p = static_cast<uint32_t>(round) % kShards;
  tp::Status status;
  {
    Span span(tracer_, "failover.crash_shard");
    status = fleet().SimulateShardCrash(p);
  }
  if (!status.ok()) return Count(kFailover, status);
  const auto start = Clock::now();
  {
    Span span(tracer_, "failover.failover_shard");
    status = fleet().FailoverShard(p);
  }
  const double seconds = SecondsBetween(start, Clock::now());
  TP_RETURN_NOT_OK(Count(kFailover, status));
  failover_s_.push_back(seconds);
  const tp::FailoverReport& report = fleet().last_failover_report();
  replica_rebuild_s_.push_back(report.rebuild_seconds);
  failover_bootstrap_s_.push_back(seconds - report.rebuild_seconds);
  return subject_->CheckLive("failover");
}

tp::Status Runner::Migrate(int round) {
  TP_RETURN_NOT_OK(PacedTicks(kOpGapTicks));
  uint64_t cut_tick = 0;
  TP_RETURN_NOT_OK(CutAndCommit(&cut_tick));
  const uint32_t p = static_cast<uint32_t>(round) % kShards;
  // The lowest slot no partition occupies.
  uint32_t to_slot = 0;
  for (;; ++to_slot) {
    bool used = false;
    for (uint32_t q = 0; q < kShards; ++q) {
      used |= fleet().engine().SlotOfPartition(q) == to_slot;
    }
    if (!used) break;
  }
  const auto start = Clock::now();
  tp::Status status;
  {
    Span span(tracer_, "fleet.migrate_partition");
    status = fleet().MigratePartition(p, to_slot);
  }
  const double seconds = SecondsBetween(start, Clock::now());
  TP_RETURN_NOT_OK(Count(kMigration, status));
  migrate_s_.push_back(seconds);
  return subject_->CheckLive("migration");
}

tp::Status Runner::Restart(int round) {
  TP_RETURN_NOT_OK(PacedTicks(kOpGapTicks + static_cast<uint64_t>(round)));
  const uint64_t ticks = fleet().current_tick();
  tp::Status status;
  {
    Span span(tracer_, "fleet.simulate_crash");
    status = fleet().SimulateCrash();
  }
  if (!status.ok()) return Count(kRestart, status);
  subject_->DropFleet();
  if (tracer_.enabled() && round == 0) {
    TP_RETURN_NOT_OK(ProbeCrashedStores());
  }
  const auto start = Clock::now();
  tp::StatusOr<tp::RecoveredFleet> recovered = [&] {
    Span span(tracer_, "recovery.recover");
    return tp::Fleet::Recover(fleet_root_);
  }();
  const double recover_s = SecondsBetween(start, Clock::now());
  if (!recovered.ok()) return Count(kRestart, recovered.status());
  tp::RecoveredFleet& r = recovered.value();
  if (r.resume_tick() != ticks) {
    return Count(kRestart,
                 tp::Status::Corruption(
                     "restart lost completed ticks: resumes at " +
                     std::to_string(r.resume_tick()) + ", crashed after " +
                     std::to_string(ticks)));
  }
  TP_RETURN_NOT_OK(subject_->CheckRecovered(r, ticks, "restart"));
  const tp::ShardedRecoveryResult& fleet_result = r.result().fleet;
  recovery_restore_s_.push_back(fleet_result.restore_seconds);
  recovery_replay_s_.push_back(fleet_result.replay_seconds);
  double replayed = 0.0;
  for (const tp::RecoveryResult& s : fleet_result.shards) {
    replayed += static_cast<double>(s.ticks_replayed);
  }
  replay_ticks_.push_back(replayed);
  const auto resume_start = Clock::now();
  {
    Span span(tracer_, "recovery.resume");
    status = subject_->Resume(std::move(r));
  }
  const double resume_s = SecondsBetween(resume_start, Clock::now());
  TP_RETURN_NOT_OK(Count(kRestart, status));
  recovery_resume_s_.push_back(resume_s);
  restart_s_.push_back(recover_s + resume_s);
  return subject_->CheckLive("restart");
}

tp::Status Runner::Rollback() {
  TP_RETURN_NOT_OK(PacedTicks(kOpGapTicks));
  uint64_t target = 0;
  if (!spec_.retention) {
    TP_RETURN_NOT_OK(CutAndCommit(&target));
    TP_RETURN_NOT_OK(PacedTicks(kTicksAfterCut));
  }
  tp::Status status;
  {
    Span span(tracer_, "fleet.simulate_crash");
    status = fleet().SimulateCrash();
  }
  if (!status.ok()) return Count(kRollback, status);
  subject_->DropFleet();
  if (spec_.retention) {
    Span span(tracer_, "history.restorable_window");
    tp::StatusOr<tp::HistoryWindow> window =
        tp::Fleet::RestorableWindow(fleet_root_);
    if (!window.ok()) return Count(kRollback, window.status());
    if (!window->any) {
      return Count(kRollback,
                   tp::Status::FailedPrecondition("no restorable window"));
    }
    target = window->low_tick;
    history_window_ticks_ = static_cast<double>(window->high_tick -
                                                window->low_tick + 1);
  }
  const auto start = Clock::now();
  tp::StatusOr<tp::RecoveredFleet> recovered = [&] {
    Span span(tracer_, spec_.retention ? "recovery.recover_to_tick"
                                       : "recovery.recover_to_cut");
    return spec_.retention ? tp::Fleet::RecoverToTick(fleet_root_, target)
                           : tp::Fleet::RecoverToCut(fleet_root_);
  }();
  const double recover_s = SecondsBetween(start, Clock::now());
  if (!recovered.ok()) return Count(kRollback, recovered.status());
  tp::RecoveredFleet& r = recovered.value();
  const bool landed = spec_.retention ? r.at_requested_tick()
                                      : r.at_cut() &&
                                            r.result().cut_tick == target;
  if (!landed || r.resume_tick() != target + 1) {
    return Count(kRollback,
                 tp::Status::Corruption(
                     "rollback did not land on tick " +
                     std::to_string(target) + " (resume tick " +
                     std::to_string(r.resume_tick()) + ")"));
  }
  TP_RETURN_NOT_OK(subject_->CheckRecovered(r, target + 1, "rollback"));
  const auto resume_start = Clock::now();
  {
    Span span(tracer_, "recovery.resume");
    status = subject_->Resume(std::move(r));
  }
  const double resume_s = SecondsBetween(resume_start, Clock::now());
  TP_RETURN_NOT_OK(Count(kRollback, status));
  rollback_s_.push_back(recover_s + resume_s);
  recovery_resume_s_.push_back(resume_s);
  TP_RETURN_NOT_OK(subject_->CheckLive("rollback"));
  // The resumed timeline keeps matching the oracle as it moves on.
  TP_RETURN_NOT_OK(PacedTicks(kTicksAfterCut));
  return subject_->CheckLive("ticks after rollback");
}

tp::Status Runner::CheckHistoryBound() {
  if (!spec_.retention) return tp::Status::OK();
  const tp::FleetManifest& manifest = fleet().manifest();
  const tp::StateTable probe(manifest.layout);
  const uint64_t image_bytes = 48 + probe.buffer_bytes();
  // Generations are capped by the policy; archived log segments only span
  // the retained window, at most one record per tick it covers.
  const uint64_t window_ticks =
      (kRetainedGenerations + 1) * spec_.period_ticks + kOpGapTicks +
      kTicksAfterCut;
  const uint64_t bound = kRetainedGenerations * image_bytes +
                         window_ticks * subject_->TickRecordBytesBound();
  double generations = 0.0;
  for (uint32_t p = 0; p < kShards; ++p) {
    const std::string dir = manifest.PartitionDir(fleet_root_, p);
    tp::StatusOr<tp::HistoryIndex> index = [&] {
      Span span(tracer_, "history.read_index");
      return tp::ShardHistory::ReadIndex(dir);
    }();
    if (!index.ok()) return index.status();
    generations += static_cast<double>(index->generations.size());
    if (index->generations.size() > kRetainedGenerations ||
        index->TotalBytes() > bound) {
      return tp::Status::Corruption(
          "history of partition " + std::to_string(p) + " holds " +
          std::to_string(index->generations.size()) + " generations, " +
          std::to_string(index->TotalBytes()) + " bytes: past the bound " +
          std::to_string(bound));
    }
  }
  history_generations_ = generations;
  return tp::Status::OK();
}

tp::Status Runner::ProbeCrashedStores() {
  PB_ASSIGN_OR_RETURN(const tp::FleetManifest manifest,
                      tp::ReadNewestFleetManifest(fleet_root_));
  const bool backup = tp::GetTraits(manifest.algorithm).disk ==
                      tp::DiskOrganization::kDoubleBackup;
  double read_s = 0.0;
  for (uint32_t p = 0; p < kShards; ++p) {
    const std::string dir = manifest.PartitionDir(fleet_root_, p);
    tp::StateTable table(manifest.layout);
    const auto start = Clock::now();
    Span span(tracer_, "store.read_image");
    if (backup) {
      PB_ASSIGN_OR_RETURN(
          auto store, tp::BackupStore::Open(dir, manifest.layout, false,
                                            nullptr, false));
      int best = -1;
      uint64_t best_seq = 0;
      for (int index = 0; index < 2; ++index) {
        PB_ASSIGN_OR_RETURN(const tp::ImageInfo info, store->Inspect(index));
        if (info.valid && (best < 0 || info.seq > best_seq)) {
          best = index;
          best_seq = info.seq;
        }
      }
      if (best >= 0) TP_RETURN_NOT_OK(store->ReadAll(best, &table));
    } else {
      PB_ASSIGN_OR_RETURN(auto store,
                          tp::LogStore::Open(dir, manifest.layout, false));
      PB_ASSIGN_OR_RETURN(const tp::ImageInfo info, store->Restore(&table));
      (void)info;
    }
    read_s += SecondsBetween(start, Clock::now());
  }
  store_read_s_.push_back(read_s);

  // LogicalLog::Replay over a copy of partition 0's log.
  const std::string log_copy = root_ + "/probe-logical.log";
  std::error_code ec;
  std::filesystem::copy_file(
      tp::paths::LogicalLogPath(manifest.PartitionDir(fleet_root_, 0)),
      log_copy, std::filesystem::copy_options::overwrite_existing, ec);
  if (ec) return tp::Status::IOError("copy log: " + ec.message());
  for (int rep = 0; rep < 3; ++rep) {
    tp::StateTable table(manifest.layout);
    const auto start = Clock::now();
    Span span(tracer_, "log.replay");
    PB_ASSIGN_OR_RETURN(const auto stats,
                        tp::LogicalLog::Replay(log_copy, 0, UINT64_MAX,
                                               &table));
    (void)stats;
    log_replay_s_.push_back(SecondsBetween(start, Clock::now()));
  }
  std::filesystem::remove(log_copy, ec);
  return tp::Status::OK();
}

tp::Status Runner::LayerProbes() {
  Span phase(tracer_, "bench.probes");
  TP_RETURN_NOT_OK(fleet().WaitForIdle());
  const tp::FleetManifest manifest = fleet().manifest();
  const tp::StateTable& live = fleet().engine().shard(0).state();

  // Fleet manifest commit and read on a scratch root.
  const std::string manifest_root = root_ + "/probe-manifest";
  std::filesystem::create_directories(manifest_root);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    auto start = Clock::now();
    {
      Span span(tracer_, "manifest.write");
      TP_RETURN_NOT_OK(
          tp::WriteFleetManifest(manifest_root, manifest, false));
    }
    manifest_write_s_.push_back(SecondsBetween(start, Clock::now()));
    start = Clock::now();
    {
      Span span(tracer_, "manifest.read");
      PB_ASSIGN_OR_RETURN(const tp::FleetManifest read,
                          tp::ReadNewestFleetManifest(manifest_root));
      (void)read;
    }
    manifest_read_s_.push_back(SecondsBetween(start, Clock::now()));
  }

  // CRC-32 over a state-sized buffer.
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const auto start = Clock::now();
    {
      Span span(tracer_, "crc32.state");
      g_probe_sink = tp::Crc32(live.data(), live.buffer_bytes());
    }
    const double s = SecondsBetween(start, Clock::now());
    crc_gbps_.push_back(live.buffer_bytes() / s / 1e9);
  }

  // History reads and compaction planning: the fleet's own history when
  // retention is on, otherwise a scratch history of the live state.
  std::vector<std::string> history_dirs;
  if (spec_.retention) {
    for (uint32_t p = 0; p < kShards; ++p) {
      history_dirs.push_back(manifest.PartitionDir(fleet_root_, p));
    }
  } else {
    const std::string dir = root_ + "/probe-history";
    std::filesystem::create_directories(dir);
    tp::RetentionPolicy policy;
    policy.enabled = true;
    policy.max_generations = kRetainedGenerations;
    PB_ASSIGN_OR_RETURN(auto history, tp::ShardHistory::Open(
                                          dir, manifest.layout, policy, false));
    for (uint64_t g = 0; g < 2; ++g) {
      TP_RETURN_NOT_OK(history->RecordGeneration(live, g * spec_.period_ticks));
    }
    history_dirs.push_back(dir);
  }
  for (const std::string& dir : history_dirs) {
    tp::StateTable table(manifest.layout);
    for (int rep = 0; rep < 3; ++rep) {
      auto start = Clock::now();
      tp::StatusOr<tp::HistoryIndex> index = [&] {
        Span span(tracer_, "history.read_index");
        return tp::ShardHistory::ReadIndex(dir);
      }();
      if (!index.ok()) return index.status();
      history_read_index_s_.push_back(SecondsBetween(start, Clock::now()));
      if (index->generations.empty()) continue;
      start = Clock::now();
      {
        Span span(tracer_, "history.read_generation");
        PB_ASSIGN_OR_RETURN(
            const uint64_t tick,
            tp::ShardHistory::ReadGenerationImage(
                dir, index->generations.back().seq, &table));
        (void)tick;
      }
      history_read_gen_s_.push_back(SecondsBetween(start, Clock::now()));
      tp::RetentionPolicy policy = manifest.retention;
      policy.enabled = true;
      policy.max_generations = 1;  // plan a real fold of the older ones
      constexpr int kPlans = 100;
      start = Clock::now();
      {
        Span span(tracer_, "compactor.plan");
        for (int i = 0; i < kPlans; ++i) {
          g_probe_sink = tp::PlanCompaction(*index, policy).window_base;
        }
      }
      compactor_plan_s_.push_back(SecondsBetween(start, Clock::now()) /
                                  kPlans);
    }
  }

  // The world step, replayed without the fleet: the share of a game tick
  // persistence cannot move. The synthetic workloads time the game-ops
  // zones too, so the metric exists on every workload.
  const tp::game::GameShardAdapterConfig game =
      GameConfig(kWorkloads[2], seed_);
  std::vector<std::unique_ptr<tp::game::World>> zones;
  for (uint32_t z = 0; z < kShards; ++z) {
    tp::game::WorldConfig zone = game.zone_world;
    zone.seed = tp::game::GameShardAdapter::ZoneSeed(game.zone_world.seed, z);
    zone.active_fraction *= game.zone_activity[z];
    zones.push_back(std::make_unique<tp::game::World>(zone));
  }
  for (int t = 0; t < 45; ++t) {
    const auto start = Clock::now();
    Span span(tracer_, "game.step");
    for (auto& world : zones) world->Tick();
    game_step_s_.push_back(SecondsBetween(start, Clock::now()));
  }
  std::error_code ec;
  std::filesystem::remove_all(manifest_root, ec);
  std::filesystem::remove_all(root_ + "/probe-history", ec);
  return tp::Status::OK();
}

tp::Status Runner::OpsPhase() {
  Span phase(tracer_, "bench.ops");
  for (int i = 0; i < kFailovers; ++i) TP_RETURN_NOT_OK(Failover(i));
  for (int i = 0; i < kMigrations; ++i) TP_RETURN_NOT_OK(Migrate(i));
  for (int i = 0; i < kRestarts; ++i) TP_RETURN_NOT_OK(Restart(i));
  for (int i = 0; i < kRollbacks; ++i) TP_RETURN_NOT_OK(Rollback());
  TP_RETURN_NOT_OK(PacedTicks(kOpGapTicks));
  TP_RETURN_NOT_OK(CheckHistoryBound());
  return subject_->CheckLive("end of run");
}

tp::Status Runner::Run() {
  std::filesystem::create_directories(root_);
  TP_RETURN_NOT_OK(Setup());
  TP_RETURN_NOT_OK(PacedPhase());
  TP_RETURN_NOT_OK(OpsPhase());
  if (tracer_.enabled()) TP_RETURN_NOT_OK(LayerProbes());
  {
    Span span(tracer_, "bench.verify");
    TP_RETURN_NOT_OK(subject_->Verify());
  }
  TP_RETURN_NOT_OK(fleet().Shutdown());
  subject_->DropFleet();
  return tp::Status::OK();
}

std::string JsonList(const std::vector<double>& values, double scale) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ", ",
                  values[i] * scale);
    out += buf;
  }
  return out + "]";
}

void PrintMetric(std::string* out, const char* name, double value,
                 const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name, value, unit);
  *out += buf;
}

std::vector<double> Runner::TickQuantiles() const {
  std::vector<double> sorted = tick_s_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  if (sorted.empty()) return out;
  for (double q : {0.5, 0.75, 0.9, 0.95}) {
    out.push_back(sorted[static_cast<size_t>(q * (sorted.size() - 1))]);
  }
  return out;
}

void Runner::PrintResult(bool correct) const {
  const size_t tail_beyond = 10;
  std::string m;
  if (!tracer_.enabled()) {
    PrintMetric(&m, "setup_s", LowerQuartile(setup_s_), "s");
    PrintMetric(&m, "tick_cpu_ms", tick_cpu_s_ * 1e3, "ms");
    PrintMetric(&m, "restart_s", LowerQuartile(restart_s_), "s");
    PrintMetric(&m, "rollback_s", LowerQuartile(rollback_s_), "s");
    PrintMetric(&m, "write_bytes_per_update", write_bytes_per_update_, "B");
    PrintMetric(&m, "disk_bytes_per_state_byte", disk_bytes_per_state_byte_,
                "ratio");
    PrintMetric(&m, "peak_rss_mb", PeakRssMb(), "MB");
  } else {
    PrintMetric(&m, "fleet.submit_ms", Median(submit_s_) * 1e3, "ms");
    PrintMetric(&m, "fleet.drain_ms", Median(drain_s_) * 1e3, "ms");
    PrintMetric(&m, "fleet.drain_tail_ms",
                TailWithBeyond(drain_s_, tail_beyond) * 1e3, "ms");
    PrintMetric(&m, "fleet.tick_p50_ms", Median(tick_s_) * 1e3, "ms");
    PrintMetric(&m, "fleet.tick_tail_ms",
                TailWithBeyond(tick_s_, tail_beyond) * 1e3, "ms");
    PrintMetric(&m, "engine.checkpoints",
                static_cast<double>(periodic_checkpoints_), "count");
    PrintMetric(&m, "engine.pause_ms", Median(pause_s_) * 1e3, "ms");
    PrintMetric(&m, "engine.writer_s", Median(writer_s_), "s");
    PrintMetric(&m, "engine.cut_stall_ms", Median(cut_stall_s_) * 1e3, "ms");
    PrintMetric(&m, "engine.cou_copies_per_update", cou_copies_per_update_,
                "ratio");
    PrintMetric(&m, "engine.objects_per_checkpoint", objects_per_checkpoint_,
                "count");
    PrintMetric(&m, "log.bytes_per_update", log_bytes_per_update_, "B");
    PrintMetric(&m, "log.replay_s", Median(log_replay_s_), "s");
    PrintMetric(&m, "log.replay_ticks", Median(replay_ticks_), "count");
    PrintMetric(&m, "store.read_image_s", Median(store_read_s_), "s");
    PrintMetric(&m, "store.bytes_per_state_byte", store_bytes_ratio_,
                "ratio");
    PrintMetric(&m, "doublewrite.bytes_per_state_byte",
                doublewrite_bytes_ratio_, "ratio");
    PrintMetric(&m, "io.write_calls_per_checkpoint", io_calls_per_checkpoint_,
                "count");
    PrintMetric(&m, "io.bytes_per_checkpoint", io_bytes_per_checkpoint_, "B");
    PrintMetric(&m, "recovery.restore_s", Median(recovery_restore_s_), "s");
    PrintMetric(&m, "recovery.replay_s", Median(recovery_replay_s_), "s");
    PrintMetric(&m, "recovery.resume_s", Median(recovery_resume_s_), "s");
    PrintMetric(&m, "history.bytes_per_state_byte", history_bytes_ratio_,
                "ratio");
    PrintMetric(&m, "history.generations", history_generations_, "count");
    PrintMetric(&m, "history.window_ticks", history_window_ticks_, "count");
    PrintMetric(&m, "history.read_index_ms",
                Median(history_read_index_s_) * 1e3, "ms");
    PrintMetric(&m, "history.read_generation_s", Median(history_read_gen_s_),
                "s");
    PrintMetric(&m, "compactor.plan_us", Median(compactor_plan_s_) * 1e6,
                "us");
    PrintMetric(&m, "failover.call_ms", LowerQuartile(failover_s_) * 1e3,
                "ms");
    PrintMetric(&m, "replica.rebuild_ms", Median(replica_rebuild_s_) * 1e3,
                "ms");
    PrintMetric(&m, "failover.bootstrap_ms",
                Median(failover_bootstrap_s_) * 1e3, "ms");
    PrintMetric(&m, "fleet.migrate_ms", LowerQuartile(migrate_s_) * 1e3,
                "ms");
    PrintMetric(&m, "cut.commit_ms", Median(cut_commit_s_) * 1e3, "ms");
    PrintMetric(&m, "cut.tick_ms", Median(cut_tick_s_) * 1e3, "ms");
    PrintMetric(&m, "cut.checkpoint_s", Median(cut_checkpoint_s_), "s");
    PrintMetric(&m, "manifest.write_ms", Median(manifest_write_s_) * 1e3,
                "ms");
    PrintMetric(&m, "manifest.read_ms", Median(manifest_read_s_) * 1e3, "ms");
    PrintMetric(&m, "scheduler.deferrals", static_cast<double>(deferrals_),
                "count");
    PrintMetric(&m, "game.step_ms", Median(game_step_s_) * 1e3, "ms");
    PrintMetric(&m, "crc32.gb_per_s", Median(crc_gbps_), "GB/s");
  }
  uint64_t attempted = 0, failed = 0;
  std::string ops;
  for (const OpCount& op : ops_) {
    attempted += op.attempted;
    failed += op.failed;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                  "}",
                  ops.empty() ? "" : ", ", op.name, op.attempted, op.failed);
    ops += buf;
  }
  // The paper's cost model (Table 3 hardware) beside the measurements:
  // one partition's checkpoint write and the per-tick mutator overhead
  // for the measured update and copy-on-update counts.
  const tp::CostModel model(tp::HardwareParams::Paper());
  const uint64_t partition_objects =
      subject_->state_bytes() / kShards / model.hw().object_size;
  const bool log_store =
      tp::GetTraits(spec_.algorithm).disk == tp::DiskOrganization::kLog;
  const double model_checkpoint_s =
      log_store ? model.LogWriteSeconds(
                      static_cast<uint64_t>(objects_per_checkpoint_))
                : model.DoubleBackupWriteSeconds(partition_objects);
  const double updates_per_tick =
      tick_s_.empty() ? 0.0
                      : static_cast<double>(subject_->updates()) /
                            static_cast<double>(ops_[kTick].attempted);
  const double model_overhead_ms =
      1e3 * updates_per_tick *
      (model.BitTestSeconds() +
       cou_copies_per_update_ * model.CopyOnUpdateTouchSeconds());
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"nproc\": %u, \"root_fs\": \"%s\", \"fsync\": false, "
      "\"io_backend\": \"%s\", \"build_type\": \"%s\", \"paced_ticks\": %zu, "
      "\"tick_tail_rank\": \"11th largest of %zu paced ticks\", "
      "\"periodic_checkpoints\": %" PRIu64
      ", \"expected_checkpoints\": %" PRIu64
      ", \"fell_behind\": %s, \"late_ticks\": %" PRIu64
      ", \"max_late_ms\": %.3f, \"updates\": %" PRIu64
      ", \"tick_p50_ms\": %.4f, \"tick_tail_ms\": %.4f, "
      "\"cut_checkpoint_s\": %.5f, \"budget_ms\": %.2f, "
      "\"writer_s\": %.4f, \"model_checkpoint_s\": %.4f, "
      "\"model_overhead_ms_per_tick\": %.4f, \"ops\": {%s}, "
      "\"host_steal_s\": %.2f, "
      "\"tick_quantiles_ms\": %s, "
      "\"samples\": {\"setup_s\": %s, \"cut_checkpoint_s\": %s, "
      "\"restart_s\": %s, \"rollback_s\": %s, \"failover_ms\": %s, "
      "\"migrate_ms\": %s}}}\n",
      spec_.name, seed_, std::thread::hardware_concurrency(),
      FilesystemOf(root_).c_str(), tp::IoBackendKindName(spec_.backend),
      TP_PERF_BUILD_TYPE, static_cast<size_t>(paced_ticks_), tick_s_.size(),
      periodic_checkpoints_, expected_checkpoints_,
      fell_behind_ ? "true" : "false", late_ticks_, max_late_s_ * 1e3,
      subject_->updates(), Median(tick_s_) * 1e3,
      TailWithBeyond(tick_s_, tail_beyond) * 1e3, Median(cut_checkpoint_s_),
      model.hw().LatencyLimitSeconds() * 1e3, Median(writer_s_),
      model_checkpoint_s, model_overhead_ms, ops.c_str(),
      StealSeconds() - steal_start_s_,
      JsonList(TickQuantiles(), 1e3).c_str(),
      JsonList(setup_s_, 1).c_str(), JsonList(cut_checkpoint_s_, 1).c_str(),
      JsonList(restart_s_, 1).c_str(), JsonList(rollback_s_, 1).c_str(),
      JsonList(failover_s_, 1e3).c_str(), JsonList(migrate_s_, 1e3).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, m.c_str());
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "fleet_bench: %s\nusage: fleet_bench --workload "
               "<zipf-cou|uniform-redo-pit|game-ops> --seed <n> --seconds "
               "<n> --trace <0|1> --root <dir> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, root, trace_out;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::atoll(value);
    } else if (key == "--seconds") {
      seconds = std::atoll(value);
    } else if (key == "--trace") {
      trace = std::atoll(value);
    } else if (key == "--root") {
      root = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Usage("unknown --workload");
  if (seed < 0 || seconds < 1 || seconds > 600 || (trace != 0 && trace != 1) ||
      root.empty()) {
    return Usage("bad or missing argument");
  }
  if (std::getenv("TP_SCHED_FUZZ_SEED") != nullptr) {
    return Usage("refusing to run with TP_SCHED_FUZZ_SEED set: it perturbs "
                 "the schedule being measured");
  }
  // Pin the IO backend for the whole process before the first engine
  // call: fleets reopened by RecoveredFleet::Resume take it from this
  // variable (it is not persisted in the manifest).
  setenv("TP_IO_BACKEND", tp::IoBackendKindName(spec->backend), 1);
  // Pin glibc's heap behaviour. Left dynamic, the mmap threshold rises at
  // the first free of a large buffer, so early state tables are fresh
  // mappings and later ones come from an already-faulted heap, and
  // repeated operations got cheaper through a run. Pinned high, with the
  // heap never trimmed, every buffer after the warm-up set-ups reuses
  // faulted memory.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  if (tp::DefaultIoBackendKind() != spec->backend) {
    return Usage("TP_IO_BACKEND was read before it could be pinned");
  }

  // Refuse an existing root before the guard takes ownership of the path:
  // the guard removes it on exit, and a directory this run did not create
  // is not its to remove.
  if (std::filesystem::exists(root)) {
    return Usage("--root already exists; each run needs its own");
  }
  ScopedRemoveAll root_guard(root);
  Runner runner(*spec, static_cast<uint64_t>(seed),
                static_cast<int>(seconds), trace == 1, root);
  const tp::Status status = runner.Run();
  if (trace == 1) {
    runner.tracer().PrintLayerSelfTimes(stderr);
    if (!trace_out.empty()) {
      const tp::Status written = runner.tracer().WriteChromeTrace(trace_out);
      if (!written.ok()) {
        std::fprintf(stderr, "fleet_bench: %s\n", written.ToString().c_str());
      }
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "fleet_bench: %s failed: %s\n", spec->name,
                 status.ToString().c_str());
    runner.PrintResult(false);
    return 1;
  }
  runner.PrintResult(true);
  return 0;
}
