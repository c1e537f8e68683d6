// emafbench: the emaf benchmark.
//
//   emafbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke]
//
// Runs one workload (train_grid, serve_families, serve_churn,
// online_update) on inputs generated from the seed, prints "# ..." detail
// lines, then one JSON line: {"correct", "attempted", "failed", "metrics"}
// with every metric the run measured as "name": value; run.py turns it
// into the result BENCHMARK.json describes. Scratch files live under .bench_out/ in the working
// directory and are removed at exit; a traced run leaves its Chrome trace
// there. Exit code 1 (and no JSON) when the run could not be set up.

#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include <malloc.h>
#include <unistd.h>

#include "common/string_util.h"
#include "common/trace.h"
#include "harness.h"
#include "workloads.h"

namespace {

using emafbench::Options;

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options->seconds = std::stod(value);
    } else if (arg == "--trace") {
      options->trace = value != "0";
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays with the allocator instead of going back to the
  // kernel, so the work is not redone as page faults. Those faults cost a
  // virtual machine more the busier its host is: with glibc's defaults an
  // online_update run took a million of them and 3.5 s of system time in
  // 20 s, and with these settings 16 thousand and 0.9 s.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  Options options;
  try {
    if (!ParseArgs(argc, argv, &options)) {
      std::cerr << "usage: emafbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--smoke]\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "emafbench: bad argument: " << e.what() << "\n";
    return 2;
  }
  namespace fs = std::filesystem;
  options.out_dir = ".bench_out";
  options.work_dir = emaf::StrCat(options.out_dir, "/work-", options.workload,
                                  "-", options.seed, "-", getpid());
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);

  emafbench::Result result;
  int code = 0;
  try {
    if (options.workload == "train_grid") {
      emafbench::RunTrainGrid(options, &result);
    } else if (options.workload == "serve_families") {
      emafbench::RunServeFamilies(options, &result);
    } else if (options.workload == "serve_churn") {
      emafbench::RunServeChurn(options, &result);
    } else if (options.workload == "online_update") {
      emafbench::RunOnlineUpdate(options, &result);
    } else {
      std::cerr << "emafbench: unknown workload " << options.workload << "\n";
      code = 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "emafbench: " << options.workload << " failed: " << e.what()
              << "\n";
    code = 1;
  }
  std::error_code ignored;
  fs::remove_all(options.work_dir, ignored);
  if (code != 0) return code;

  result.Set("peak_rss_mb", emafbench::PeakRssMb());
  if (options.trace) {
    const emaf::Status flushed = emaf::obs::Trace::Flush();
    if (!flushed.ok()) result.Detail("trace_file", flushed.ToString());
  }
  std::cout << result.Render() << std::flush;
  return 0;
}
