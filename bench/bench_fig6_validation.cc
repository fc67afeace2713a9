// Figure 6: validation of the simulation model against the real
// implementation (paper Section 6). For each update rate the harness runs
//   (1) the simulator, parameterized with hardware values calibrated on
//       THIS host (the paper's methodology), and
//   (2) the real engine: actual memory copies, a real writer thread, real
//       checkpoint files, a real crash, and a real timed recovery,
// for Naive-Snapshot and Copy-on-Update (the algorithms the paper
// validated; --all runs all six).
//
// Substitution note: the paper used a dedicated SATA disk via a raw block
// device and a 40 MB state at 30 Hz wall-clock. Here the state is scaled
// (default ~10 MB) and files live on the host filesystem, so absolute
// numbers differ; the validation claim is about *shape*: simulated and
// measured overhead/checkpoint/recovery track each other as the update
// rate scales.
#include <filesystem>

#include "bench/bench_util.h"
#include "calib/microbench.h"
#include "engine/engine.h"
#include "engine/mutator.h"
#include "engine/recovery.h"

using namespace tickpoint;

namespace {

struct Measured {
  double overhead = 0.0;
  double checkpoint = 0.0;
  double recovery = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(argc, argv, "bench_fig6_validation",
                          "Paper Figure 6(a-c): simulation model vs real "
                          "implementation");
  const uint64_t rows = ctx.flags().GetInt64("rows", 262144);
  const uint64_t ticks = ctx.flags().GetInt64("ticks", 120);
  const double hz = ctx.flags().GetDouble("hz", 120.0);
  const uint64_t query_reads = ctx.flags().GetInt64("query-reads", 2000);
  const bool all_algorithms = ctx.flags().GetBool("all", false);
  const std::string work_dir =
      ctx.flags().GetString("dir", "/tmp/tickpoint_fig6");

  StateLayout layout = StateLayout::Paper();
  layout.rows = rows;
  char params[256];
  std::snprintf(params, sizeof(params),
                "%llu rows (%.1f MB state, %llu objects), %llu ticks at "
                "%.0f Hz, dir %s",
                static_cast<unsigned long long>(rows),
                layout.state_bytes() / 1e6,
                static_cast<unsigned long long>(layout.num_objects()),
                static_cast<unsigned long long>(ticks), hz,
                work_dir.c_str());
  ctx.PrintHeader(params);

  // Calibrate the simulation with this host's parameters (quick settings).
  std::fprintf(stderr, "  calibrating host...\n");
  CalibrationOptions calib;
  calib.mem_iterations = 3;
  calib.small_copy_count = 50000;
  calib.lock_ops = 200000;
  calib.bit_ops = 2000000;
  calib.disk_write_bytes = 64ull << 20;
  calib.disk_dir = work_dir;
  TP_CHECK_OK(EnsureDirectory(work_dir));
  auto calibrated_or = RunCalibration(calib);
  TP_CHECK_OK(calibrated_or.status());
  HardwareParams hw = calibrated_or->ToHardwareParams();
  hw.tick_hz = hz;
  std::printf("calibrated: %s\n", hw.ToString().c_str());

  const std::vector<uint64_t> rates = {1000, 8000, 64000};
  std::vector<AlgorithmKind> kinds = {AlgorithmKind::kNaiveSnapshot,
                                      AlgorithmKind::kCopyOnUpdate};
  if (all_algorithms) kinds = AllAlgorithms();

  // results[rate][kind] -> {simulated, measured}
  std::vector<std::vector<std::pair<Measured, Measured>>> results;
  bench::JsonEmitter json("bench_fig6_validation");

  for (uint64_t rate : rates) {
    ZipfTraceConfig trace;
    trace.layout = layout;
    trace.num_ticks = ticks;
    trace.updates_per_tick = rate;
    trace.theta = 0.8;
    trace.seed = 77;

    // Simulation side.
    SimulationOptions sim_options;
    sim_options.hw = hw;
    ZipfUpdateSource sim_source(trace);
    auto sim_results = RunSimulation(sim_options, kinds, &sim_source);

    // Implementation side.
    std::vector<std::pair<Measured, Measured>> row;
    for (size_t k = 0; k < kinds.size(); ++k) {
      Measured sim;
      sim.overhead = sim_results[k].avg_overhead_seconds;
      sim.checkpoint = sim_results[k].avg_checkpoint_seconds;
      sim.recovery = sim_results[k].recovery_seconds;

      const std::string dir =
          work_dir + "/" + GetTraits(kinds[k]).short_name;
      std::filesystem::remove_all(dir);
      EngineConfig config;
      config.layout = layout;
      config.algorithm = kinds[k];
      config.dir = dir;
      config.fsync = true;
      auto engine_or = Engine::Open(config);
      TP_CHECK_OK(engine_or.status());
      Engine& engine = *engine_or.value();

      ZipfUpdateSource engine_source(trace);
      MutatorOptions mutator;
      mutator.tick_hz = hz;
      mutator.query_reads_per_tick = query_reads;
      mutator.crash_after_tick = ticks - 1;  // crash at the end: measure
                                             // a real recovery
      std::fprintf(stderr, "  engine %s @ %llu updates/tick...\n",
                   GetTraits(kinds[k]).short_name,
                   static_cast<unsigned long long>(rate));
      auto report = RunWorkload(&engine, &engine_source, mutator);
      TP_CHECK_OK(report.status());

      StateTable recovered(layout);
      auto recovery_or = Recover(config, &recovered);
      TP_CHECK_OK(recovery_or.status());
      TP_CHECK(recovered.ContentEquals(engine.state()));

      Measured impl;
      impl.overhead = engine.metrics().AvgOverheadSeconds();
      impl.checkpoint = engine.metrics().AvgCheckpointSeconds();
      impl.recovery = recovery_or->total_seconds();
      json.AddRow("fig6")
          .Int("updates_per_tick", rate)
          .Str("algorithm", GetTraits(kinds[k]).short_name)
          .Num("sim_overhead_seconds", sim.overhead)
          .Num("impl_overhead_seconds", impl.overhead)
          .Num("sim_checkpoint_seconds", sim.checkpoint)
          .Num("impl_checkpoint_seconds", impl.checkpoint)
          .Num("sim_recovery_seconds", sim.recovery)
          .Num("impl_recovery_seconds", impl.recovery);
      row.emplace_back(sim, impl);
      std::filesystem::remove_all(dir);
    }
    results.push_back(std::move(row));
  }

  auto print_metric = [&](const char* title, double Measured::*field) {
    std::vector<std::string> headers = {"updates/tick"};
    for (AlgorithmKind kind : kinds) {
      headers.push_back(std::string(GetTraits(kind).short_name) + " (sim)");
      headers.push_back(std::string(GetTraits(kind).short_name) + " (impl)");
    }
    TablePrinter table(headers);
    for (size_t r = 0; r < rates.size(); ++r) {
      std::vector<std::string> row = {std::to_string(rates[r])};
      for (const auto& [sim, impl] : results[r]) {
        row.push_back(bench::Sec(sim.*field));
        row.push_back(bench::Sec(impl.*field));
      }
      table.AddRow(std::move(row));
    }
    std::printf("\n%s\n", title);
    bench::Emit(table, ctx.csv());
  };

  print_metric("Figure 6(a): average overhead time per tick",
               &Measured::overhead);
  print_metric("Figure 6(b): average time to checkpoint",
               &Measured::checkpoint);
  print_metric("Figure 6(c): recovery time (simulated estimate vs real "
               "timed recovery)",
               &Measured::recovery);

  std::printf(
      "\n# paper: naive-snapshot implementation matches simulation closely "
      "(both bandwidth-bound); copy-on-update implementation overhead "
      "exceeds the simulation's by up to 3x (lock contention + writer I/O "
      "interference), growing with the update rate, while checkpoint and "
      "recovery times track the model\n");
  json.WriteFile(ctx.flags().GetString("json", "BENCH_fig6_validation.json"));
  ctx.Finish();
  return 0;
}
