// Shared helpers for the experiment benches.
//
// Every bench binary reproduces one table or figure of the paper: it
// generates a synthetic Stampede-like workload, trains the relevant
// model(s), prints the paper-style table/series to stdout, and then runs
// a few google-benchmark timings of the hot operations.  EXPERIMENTS.md
// records the paper-vs-measured comparison for each binary.
//
// Scale: the paper trains on 100k jobs; that is out of budget for a
// 2-core CI box, so each bench defaults to a few hundred jobs per class
// and honours the XDMODML_SCALE environment variable (a positive float
// multiplier) for larger runs.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/job_classifier.hpp"
#include "ml/metrics.hpp"
#include "supremm/dataset_builder.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

#ifndef XDMODML_BUILD_TYPE
#define XDMODML_BUILD_TYPE "unknown"
#endif

namespace xdmodml::bench {

/// Result of a repeated timing run (see `time_median_ms`).
struct TimedRuns {
  double median_ms = 0.0;
  std::size_t repeats = 1;
};

/// Median-of-N wall time with untimed warm-up runs.
///
/// Single-shot timings let first-touch page faults, cold caches, and
/// scheduler noise bias whichever arm runs first — BENCH_smo once
/// recorded the *warm* Gram sweep slower than the cold one for exactly
/// that reason.  Benches should time every recorded op through this
/// helper and pass the returned `repeats` to `record()` so BENCH files
/// state how each number was measured and stay comparable across PRs.
template <typename Fn>
TimedRuns time_median_ms(Fn&& fn, std::size_t repeats = 5,
                         std::size_t warmup = 1) {
  if (repeats == 0) repeats = 1;
  for (std::size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(repeats);
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  const double median = (samples.size() % 2 == 1)
                            ? samples[mid]
                            : 0.5 * (samples[mid - 1] + samples[mid]);
  return {median, repeats};
}

/// CPUs this process may run on (its affinity mask), or -1.
inline int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

/// HEAD of the source tree the bench was built from, read with git at
/// run time, with "-dirty" appended when tracked files differ from it
/// (the numbers then belong to uncommitted code); "none" outside a git
/// work tree of its own.
inline std::string source_commit() {
#ifdef XDMODML_SOURCE_DIR
  const std::string dir = XDMODML_SOURCE_DIR;
  std::error_code ec;
  if (dir.find('\'') != std::string::npos ||
      !std::filesystem::exists(dir + "/.git", ec)) {
    return "none";
  }
  // First line: the commit; any further line: a modified tracked file.
  const std::string git = "git -C '" + dir + "' ";
  const std::string cmd = git + "rev-parse HEAD 2>/dev/null && " + git +
                          "status --porcelain --untracked-files=no 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "none";
  char line[512] = {};
  std::string commit = std::fgets(line, sizeof(line), pipe) ? line : "";
  bool dirty = false;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) dirty = true;
  pclose(pipe);
  commit.erase(commit.find_last_not_of(" \t\r\n") + 1);
  if (commit.size() != 40 ||
      commit.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return "none";
  }
  return dirty ? commit + "-dirty" : commit;
#else
  return "none";
#endif
}

/// Machine-readable timing emitter.  Benches call `record()` for each
/// measured operation; when a path was supplied via `--json=<path>` (any
/// argv position) or the XDMODML_BENCH_JSON environment variable, the
/// collected records are written on destruction (or an explicit
/// `write()`) as a JSON array of
///   {"bench": ..., "op": ..., "wall_ms": ..., "n_jobs": ...,
///    "threads": ..., "repeats": ..., "nproc": ..., "isa": ...,
///    "compiler": ..., "build_type": ..., "commit": ...}
/// so the perf trajectory of every PR can be recorded and diffed.
/// `wall_ms` is the median over `repeats` runs when the bench used
/// `time_median_ms`; `repeats` is 1 for legacy single-shot timings.  The
/// last five fields stamp the host as pipebench does: CPUs in the
/// affinity mask, the SIMD ISA active when the row was recorded, the
/// compiler, the build type and the source tree's commit
/// (`source_commit`).
class BenchJsonRecorder {
 public:
  static BenchJsonRecorder& instance() {
    static BenchJsonRecorder recorder;
    return recorder;
  }

  /// Scans argv for --json=<path> and --metrics; falls back to the
  /// XDMODML_BENCH_JSON / XDMODML_METRICS environment variables.
  /// --metrics turns the observability registry on (obs::set_enabled)
  /// and appends its JSON snapshot to every recorded row, so a
  /// BENCH_*.json trajectory can correlate wall time with cache hit
  /// rates, SMO iteration counts and latency histograms.
  void parse_args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--json=", 0) == 0) path_ = arg.substr(7);
      if (arg == "--metrics") metrics_ = true;
    }
    if (path_.empty()) {
      if (const char* env = std::getenv("XDMODML_BENCH_JSON")) path_ = env;
    }
    if (obs::enabled()) metrics_ = true;  // XDMODML_METRICS env toggle
    if (metrics_) obs::set_enabled(true);
  }

  void set_path(std::string path) { path_ = std::move(path); }
  bool enabled() const { return !path_.empty(); }
  /// True when rows carry a metrics snapshot.
  bool metrics() const { return metrics_; }
  void set_metrics(bool on) {
    metrics_ = on;
    if (on) obs::set_enabled(true);
  }

  void record(const std::string& bench, const std::string& op,
              double wall_ms, std::size_t n_jobs, std::size_t threads,
              std::size_t repeats = 1) {
    // Snapshot at record time: each row sees the registry state right
    // after its op ran, so deltas between rows attribute cache/solver
    // behaviour to individual arms.
    std::string snapshot;
    if (metrics_) {
      snapshot = xdmodml::obs::MetricsRegistry::instance().to_json();
    }
    records_.push_back({bench, op, wall_ms, n_jobs, threads, repeats,
                        std::string(simd::isa_name(simd::active())),
                        std::move(snapshot)});
  }

  /// Writes and clears the collected records; no-op without a path.
  void write() {
    if (path_.empty() || records_.empty()) return;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write JSON to %s\n", path_.c_str());
      return;
    }
    const std::string host = ", \"nproc\": " +
                             std::to_string(affinity_cpus()) +
                             ", \"isa\": \"";
    const std::string build = "\", \"compiler\": \"" + escape(kCompiler) +
                              "\", \"build_type\": \"" +
                              escape(XDMODML_BUILD_TYPE) +
                              "\", \"commit\": \"" + source_commit() + "\"";
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      out << "  {\"bench\": \"" << escape(r.bench) << "\", \"op\": \""
          << escape(r.op) << "\", \"wall_ms\": " << r.wall_ms
          << ", \"n_jobs\": " << r.n_jobs << ", \"threads\": " << r.threads
          << ", \"repeats\": " << r.repeats << host << escape(r.isa)
          << build;
      // Already a JSON object — embedded verbatim, never escaped.
      if (!r.metrics_json.empty()) out << ", \"metrics\": " << r.metrics_json;
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    std::printf("\nwrote %zu timing records to %s\n", records_.size(),
                path_.c_str());
    records_.clear();
  }

  ~BenchJsonRecorder() { write(); }

 private:
  struct Record {
    std::string bench;
    std::string op;
    double wall_ms;
    std::size_t n_jobs;
    std::size_t threads;
    std::size_t repeats;
    std::string isa;           ///< SIMD ISA active at record time
    std::string metrics_json;  ///< registry snapshot; empty = no --metrics
  };

  static constexpr const char* kCompiler =
#if defined(__clang__)
      "clang " __clang_version__;
#elif defined(__GNUC__)
      "gcc " __VERSION__;
#else
      "unknown";
#endif

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      out.push_back(ch);
    }
    return out;
  }

  std::string path_;
  bool metrics_ = false;
  std::vector<Record> records_;
};

/// Scale multiplier from the environment (default 1.0).
inline double scale_factor() {
  if (const char* s = std::getenv("XDMODML_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return 1.0;
}

/// Applies the scale factor with a floor.
inline std::size_t scaled(std::size_t base, std::size_t floor = 10) {
  const auto v = static_cast<std::size_t>(
      static_cast<double>(base) * scale_factor());
  return v < floor ? floor : v;
}

/// The paper's 20 Table-2 applications, in Table 2's row order.
inline const std::vector<std::string>& table2_applications() {
  static const std::vector<std::string> apps{
      "AMBER",  "ARPS",      "CACTUS", "CHARMM++",  "CHARMM",
      "CP2K",   "ENZO",      "FD3D",   "FLASH4",    "GADGET",
      "GROMACS", "IFORTDDWN", "LAMMPS", "NAMD",      "OPENFOAM",
      "PYTHON", "Q-ESPRESSO", "SIESTA", "VASP",      "WRF"};
  return apps;
}

/// Balanced training pool over the Table-2 applications.
inline std::vector<workload::GeneratedJob> generate_table2_train(
    workload::WorkloadGenerator& gen, std::size_t per_class) {
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : table2_applications()) {
    auto batch = gen.generate_for(app, per_class);
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  return jobs;
}

/// Native-mix test pool restricted to the Table-2 applications.
inline std::vector<workload::GeneratedJob> generate_table2_test(
    workload::WorkloadGenerator& gen, std::size_t target) {
  std::vector<workload::GeneratedJob> jobs;
  while (jobs.size() < target) {
    auto batch = gen.generate_native(target);
    for (auto& job : batch) {
      const auto& apps = table2_applications();
      if (std::find(apps.begin(), apps.end(), job.summary.application) !=
              apps.end() &&
          jobs.size() < target) {
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

/// Prints a threshold curve as an aligned table.
inline void print_threshold_curve(
    const std::string& title,
    const std::vector<ml::ThresholdPoint>& curve, bool labeled) {
  std::printf("\n%s\n", title.c_str());
  std::vector<std::string> header{"threshold", "% classified"};
  if (labeled) header.push_back("% correctly classified");
  TextTable table(std::move(header));
  for (const auto& pt : curve) {
    std::vector<std::string> row{format_double(pt.threshold, 2),
                                 format_percent(pt.classified_fraction, 1)};
    if (labeled) row.push_back(format_percent(pt.correct_fraction, 1));
    table.add_row(std::move(row));
  }
  std::printf("%s", table.render().c_str());
}

/// Finds the curve point at a threshold (exact grid match).
inline const ml::ThresholdPoint& curve_at(
    const std::vector<ml::ThresholdPoint>& curve, double threshold) {
  for (const auto& pt : curve) {
    if (std::abs(pt.threshold - threshold) < 1e-9) return pt;
  }
  throw InvalidArgument("threshold not on grid");
}

}  // namespace xdmodml::bench
