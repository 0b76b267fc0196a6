// pipebench: the paper's production path (SUPReMM CSV in, Lariat,
// the Table-2 SVM behind ClassificationService, warehouse out) measured
// end to end and, in a separate traced run, layer by layer.
//
//   pipebench --workload backfill|retrain --seed N --seconds S
//             --trace 0|1 [--spans PATH] [--commit TEXT] [--source TEXT]
//
// Normally started through `python3 pipebench/run.py`, which builds this
// binary and supplies --spans, --commit and --source.  The last line of
// standard output is the JSON result; a failed output check prints no
// metrics and exits 1.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "inputs.hpp"
#include "report.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pipebench;

/// Settings that select an ablation arm, arm faults or change what the
/// program records; a run under any of them would not measure the
/// default program, so it refuses to start.
constexpr const char* kGuardedEnv[] = {
    "XDMODML_METRICS", "XDMODML_FAILPOINTS", "XDMODML_SIMD",
    "XDMODML_SVM_PREDICT", "XDMODML_TREE_SPLIT"};

struct Args {
  RunConfig config;
  std::string commit = "unknown";
  std::string source = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload "
               "backfill|retrain --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--commit TEXT] [--source TEXT]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.config.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        args.config.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        args.config.seconds = std::stod(value);
        have[2] = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.config.trace = value == "1";
        have[3] = true;
      } else if (flag == "--spans") {
        args.config.spans_path = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--source") {
        args.source = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(args.config.seconds > 0.0 && args.config.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return args;
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

void print_stamp(const Args& args) {
  const auto& c = args.config;
  std::cout << "stamp: workload=" << c.workload << " seed=" << c.seed
            << " seconds=" << c.seconds << " trace=" << (c.trace ? 1 : 0)
            << "\n";
  std::cout << "stamp: nproc=" << affinity_cpus()
            << " hardware_concurrency=" << std::thread::hardware_concurrency()
            << " pool_threads=" << xdmodml::ThreadPool::global().size()
            << " isa=" << xdmodml::simd::isa_name(xdmodml::simd::active())
            << "\n";
  std::cout << "stamp: compiler=" <<
#if defined(__clang__)
      "clang " __clang_version__
#elif defined(__GNUC__)
      "gcc " __VERSION__
#else
      "unknown"
#endif
            << " build_type=" << PIPEBENCH_BUILD_TYPE
            << " commit=" << args.commit << " source=" << args.source << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  for (const char* name : kGuardedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "pipebench: refusing to run with %s set; unset it to "
                   "measure the default program\n",
                   name);
      return 2;
    }
  }
  const auto& workload = args.config.workload;
  if (workload != "backfill" && workload != "retrain") {
    usage("unknown workload " + workload);
  }
  print_stamp(args);
  std::cout.flush();

  RunResult result;
  try {
    if (workload == "backfill") {
      result = run_backfill(args.config);
    } else {
      result = run_retrain(args.config);
    }
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "pipebench: check failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: error: %s\n", e.what());
    return 1;
  }

  for (const auto& phase : result.phases) std::cout << phase_line(phase) << "\n";
  for (const auto& note : result.notes) std::cout << note << "\n";
  for (const auto& metric : result.metrics) {
    std::cout << metric_line(metric) << "\n";
  }
  std::cout << result_json(true, result.attempted, result.failed,
                           result.metrics)
            << std::endl;
  return 0;
}
