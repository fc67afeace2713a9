// Shared plumbing for the benchmark harnesses: flag handling, uniform
// headers, and formatting of per-algorithm results.
//
// Every harness prints (1) a header naming the paper table/figure it
// regenerates, (2) the parameters in effect, (3) aligned result tables, and
// (4) `# paper:` reference lines quoting the numbers/shapes the paper
// reports, so the output is directly comparable.
#ifndef TICKPOINT_BENCH_BENCH_UTIL_H_
#define TICKPOINT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "trace/zipf_source.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace tickpoint {
namespace bench {

/// Parses flags, handles --help, and rejects unknown flags at exit.
class BenchContext {
 public:
  /// With --help (or -h) prints the harness name and description and
  /// exits 0 before any workload runs.
  BenchContext(int argc, char** argv, const std::string& name,
               const std::string& description)
      : name_(name), description_(description) {
    TP_CHECK_OK(flags_.Parse(argc, argv));
    if (flags_.help_requested()) {
      std::printf("%s\n%s\n", name_.c_str(), description_.c_str());
      std::exit(0);
    }
  }

  Flags& flags() { return flags_; }
  bool csv() { return flags_.GetBool("csv", false); }

  /// Prints the harness banner.
  void PrintHeader(const std::string& parameters) {
    std::printf("==================================================\n");
    std::printf("%s\n", name_.c_str());
    std::printf("%s\n", description_.c_str());
    std::printf("parameters: %s\n", parameters.c_str());
    std::printf("==================================================\n");
  }

  /// Call at exit: warns about typo'd flags.
  void Finish() {
    for (const std::string& key : flags_.UnusedKeys()) {
      std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
    }
  }

 private:
  std::string name_;
  std::string description_;
  Flags flags_;
};

/// Prints a results table in text or CSV form.
inline void Emit(TablePrinter& table, bool csv) {
  if (csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
}

/// Runs all six algorithms over a Zipf trace and returns the results.
inline std::vector<AlgorithmRunResult> RunZipf(const ZipfTraceConfig& trace,
                                               const SimulationOptions& options) {
  ZipfUpdateSource source(trace);
  return RunSimulation(options, AllAlgorithms(), &source);
}

/// "0.85 ms"-style cell for a seconds value.
inline std::string Sec(double seconds) {
  return TablePrinter::Seconds(seconds);
}

/// Accumulates flat key/value rows and writes them as one JSON document
/// ({"bench": ..., "rows": [...]}), so CI can diff benchmark numbers
/// without scraping the aligned text tables. Every row carries a
/// "section" key naming the table it came from.
class JsonEmitter {
 public:
  explicit JsonEmitter(const std::string& bench_name)
      : bench_name_(bench_name) {}

  class Row {
   public:
    Row& Str(const std::string& key, const std::string& value) {
      fields_.push_back(Quote(key) + ":" + Quote(value));
      return *this;
    }
    Row& Num(const std::string& key, double value) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      fields_.push_back(Quote(key) + ":" + buf);
      return *this;
    }
    Row& Int(const std::string& key, uint64_t value) {
      fields_.push_back(Quote(key) + ":" + std::to_string(value));
      return *this;
    }
    Row& Bool(const std::string& key, bool value) {
      fields_.push_back(Quote(key) + (value ? ":true" : ":false"));
      return *this;
    }

   private:
    friend class JsonEmitter;
    std::vector<std::string> fields_;
  };

  /// Starts a row in `section`. The returned reference stays valid for
  /// the emitter's lifetime (rows live in a deque).
  Row& AddRow(const std::string& section) {
    rows_.emplace_back();
    return rows_.back().Str("section", section);
  }

  /// Writes the accumulated document; false (with a stderr note) when the
  /// file cannot be written.
  bool WriteFile(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(file, "{%s:%s,%s:[", Quote("bench").c_str(),
                 Quote(bench_name_).c_str(), Quote("rows").c_str());
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(file, "%s{", r == 0 ? "" : ",");
      const Row& row = rows_[r];
      for (size_t f = 0; f < row.fields_.size(); ++f) {
        std::fprintf(file, "%s%s", f == 0 ? "" : ",",
                     row.fields_[f].c_str());
      }
      std::fprintf(file, "}");
    }
    std::fprintf(file, "]}\n");
    std::fclose(file);
    std::printf("# json: %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  static std::string Quote(const std::string& raw) {
    std::string quoted = "\"";
    for (char c : raw) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c);
    }
    quoted.push_back('"');
    return quoted;
  }

  std::string bench_name_;
  std::deque<Row> rows_;
};

}  // namespace bench
}  // namespace tickpoint

#endif  // TICKPOINT_BENCH_BENCH_UTIL_H_
