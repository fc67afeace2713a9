// Micro-benchmarks (google-benchmark) of the inner-loop operations whose
// costs the paper's model parameterizes: dirty-bit tests, lock round trips,
// object copies, Zipf draws, update handling in the simulator and the real
// engine, and logical-log appends.
//
// Alongside the console report, every run lands as one row in
// BENCH_micro_ops.json (override with --json-out=PATH) in the same flat
// {"bench", "rows"} shape the other harnesses emit, so CI diffs all
// benchmark numbers through one code path.
#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>

#include "bench/bench_util.h"
#include "core/sim_executor.h"
#include "engine/dirty_map.h"
#include "engine/logical_log.h"
#include "engine/state_table.h"
#include "util/bitvec.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/zipf.h"

namespace tickpoint {
namespace {

void BM_BitVectorTestSet(benchmark::State& state) {
  BitVector bits(1 << 16);
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t index = (i++ * 7919) & 0xFFFF;
    if (!bits.Get(index)) bits.Set(index);
    benchmark::DoNotOptimize(bits);
  }
}
BENCHMARK(BM_BitVectorTestSet);

void BM_EpochVectorSetClear(benchmark::State& state) {
  EpochVector epochs(1 << 16);
  uint64_t i = 0;
  for (auto _ : state) {
    epochs.Set((i++ * 7919) & 0xFFFF);
    if ((i & 0xFFF) == 0) epochs.ClearAll();
    benchmark::DoNotOptimize(epochs);
  }
}
BENCHMARK(BM_EpochVectorSetClear);

void BM_AtomicBitMapTestAndSet(benchmark::State& state) {
  AtomicBitMap bits(1 << 16);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits.TestAndSet((i++ * 7919) & 0xFFFF));
  }
}
BENCHMARK(BM_AtomicBitMapTestAndSet);

void BM_SpinlockRoundTrip(benchmark::State& state) {
  ObjectLockTable locks(4096);
  uint64_t i = 0;
  for (auto _ : state) {
    const ObjectId o = (i++ * 31) & 4095;
    locks.Lock(o);
    locks.Unlock(o);
  }
}
BENCHMARK(BM_SpinlockRoundTrip);

void BM_ZipfDraw(benchmark::State& state) {
  ZipfGenerator zipf(1000000, 0.8);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(&rng));
  }
}
BENCHMARK(BM_ZipfDraw);

void BM_Crc32PerObject(benchmark::State& state) {
  std::vector<uint8_t> object(512, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(object.data(), object.size()));
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_Crc32PerObject);

void BM_StateTableCellWrite(benchmark::State& state) {
  StateTable table(StateLayout::Small(4096, 10));
  uint64_t i = 0;
  const uint64_t cells = table.layout().num_cells();
  for (auto _ : state) {
    table.WriteCell((i * 2654435761ULL) % cells, static_cast<int32_t>(i));
    ++i;
  }
}
BENCHMARK(BM_StateTableCellWrite);

void BM_ObjectCopy512(benchmark::State& state) {
  StateTable table(StateLayout::Small(4096, 10));
  std::vector<uint8_t> side(512);
  uint64_t i = 0;
  for (auto _ : state) {
    table.CopyObjectTo((i++ * 31) % table.num_objects(), side.data());
    benchmark::DoNotOptimize(side.data());
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ObjectCopy512);

// The simulated Handle-Update path for each algorithm family.
void BM_SimHandleUpdate(benchmark::State& state) {
  const auto kind = static_cast<AlgorithmKind>(state.range(0));
  CheckpointSim sim(kind, StateLayout::Small(65536, 10),
                    HardwareParams::Paper());
  // Prime a running checkpoint so the copy-on-update branch is live.
  sim.BeginTick();
  sim.EndTick();
  sim.BeginTick();
  uint64_t i = 0;
  const uint64_t n = sim.layout().num_objects();
  for (auto _ : state) {
    sim.OnObjectUpdate((i++ * 2654435761ULL) % n);
  }
  sim.EndTick();
}
BENCHMARK(BM_SimHandleUpdate)
    ->Arg(static_cast<int>(AlgorithmKind::kNaiveSnapshot))
    ->Arg(static_cast<int>(AlgorithmKind::kDribble))
    ->Arg(static_cast<int>(AlgorithmKind::kAtomicCopyDirty))
    ->Arg(static_cast<int>(AlgorithmKind::kCopyOnUpdate));

void BM_LogicalLogAppend(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tp_bench_logical").string();
  TP_CHECK_OK(EnsureDirectory(dir));
  auto log_or = LogicalLog::Open(dir, 0, /*sync_every=*/64, /*fsync=*/true);
  TP_CHECK_OK(log_or.status());
  std::vector<CellUpdate> updates(state.range(0));
  for (size_t i = 0; i < updates.size(); ++i) {
    updates[i] = {static_cast<uint32_t>(i), static_cast<int32_t>(i)};
  }
  uint64_t tick = 0;
  for (auto _ : state) {
    TP_CHECK_OK(log_or.value()->AppendTick(tick++, updates));
  }
  TP_CHECK_OK(log_or.value()->Close());
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(state.iterations() * updates.size() *
                          sizeof(CellUpdate));
}
BENCHMARK(BM_LogicalLogAppend)->Arg(64)->Arg(1024);

/// A ConsoleReporter that also records every completed run as one
/// JsonEmitter row, so the console output stays identical while
/// BENCH_micro_ops.json matches the other harnesses' format.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::JsonEmitter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      // GetAdjustedRealTime/CPUTime are per-iteration in the run's time
      // unit; every benchmark here uses the default (nanoseconds).
      auto& row = json_->AddRow("micro_ops")
                      .Str("name", run.benchmark_name())
                      .Int("iterations", static_cast<uint64_t>(run.iterations))
                      .Num("real_ns_per_iter", run.GetAdjustedRealTime())
                      .Num("cpu_ns_per_iter", run.GetAdjustedCPUTime());
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        row.Num("bytes_per_second", bytes->second);
      }
    }
  }

 private:
  bench::JsonEmitter* json_;
};

}  // namespace
}  // namespace tickpoint

int main(int argc, char** argv) {
  // Peel off --json-out=PATH before google-benchmark sees the argv (it
  // rejects flags it does not own).
  std::string json_path = "BENCH_micro_ops.json";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tickpoint::bench::JsonEmitter json("bench_micro_ops");
  tickpoint::JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  json.WriteFile(json_path);
  return 0;
}
