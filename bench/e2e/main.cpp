// offnet_e2e — the repository's end-to-end benchmark (bench/e2e/README.md).
//
//   offnet_e2e --workload series|study|query --seed N --seconds S
//              --trace 0|1 [--work DIR]
//
// Builds the workload's inputs from the seed (set-up), measures it for
// about S seconds in fresh processes, checks the outputs, and prints one
// "name value unit" line per metric followed by the one-line JSON result
// {"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero when a
// check fails or the run cannot complete. Normally started through
// bench/e2e/run.py, which builds this binary first.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common.h"
#include "workloads.h"

namespace {

using namespace offnet::e2e;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_u64(std::string_view flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    throw UsageError(std::string(flag) + " needs a whole number");
  }
  return value;
}

int run(int argc, char** argv) {
  Options options;
  options.self_path = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw UsageError("missing value for " + std::string(flag));
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      options.trace = parse_u64(flag, value) != 0;
    } else if (flag == "--work") {
      options.work_dir = value;
    } else {
      throw UsageError("unknown option " + std::string(flag));
    }
  }
  refuse_sanitized_build();

  if (options.work_dir.empty()) {
    options.work_dir = ".bench_build/work/" + options.workload;
  }
  if (options.seconds < 1) throw UsageError("--seconds must be at least 1");
  std::filesystem::create_directories(options.work_dir);

  Result result(options);
  result.note("workload", options.workload);
  result.note("seed", std::to_string(options.seed));
  result.note("seconds", std::to_string(options.seconds));
  result.note("trace", options.trace ? "1" : "0");
  result.note("nproc", std::to_string(nproc()));
  result.note("build_type", build_type());
  result.note("compiler", compiler_version());
  result.note("window", window_label());
  if (options.workload == "series") {
    run_series(options, result);
  } else if (options.workload == "study") {
    run_study(options, result);
  } else if (options.workload == "query") {
    run_query(options, result);
  } else {
    throw UsageError("--workload must be series, study or query");
  }
  result.print();
  return result.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr,
                 "offnet_e2e: %s\nusage: offnet_e2e --workload "
                 "series|study|query --seed N --seconds S --trace 0|1 "
                 "[--work DIR]\n",
                 e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "offnet_e2e: %s\n", e.what());
    return 1;
  }
}
