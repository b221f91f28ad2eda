// fddbench — the repository's end-to-end benchmark. See README.md.
//
//   fddbench --workload <name> --seed <n> --out <run.json>
//            [--trace <spans.json>] [--quick] [--seconds <s>]
//            [--work-dir <dir>] [--git-sha <sha>] [--git-dirty]
//
// Generates its inputs in-process from the seed, drives the system through
// public APIs only, checks every output, and writes every metric by name
// with its unit to the run JSON. Exits 1 when the workload cannot run and
// 2 on bad arguments or (outside --quick) a non-Release build.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "fddbench.h"
#include "obs/metrics.h"

#ifndef FDDBENCH_BUILD_TYPE
#define FDDBENCH_BUILD_TYPE "unknown"
#endif

namespace fddbench {
namespace {

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"snapshot-ingest", runSnapshotIngest},
      {"restore-chain", runRestoreChain},
      {"daemon-mixed", runDaemonMixed},
      {"attack-sweep", runAttackSweep},
  };
  return kWorkloads;
}

int usage(const char* message) {
  fprintf(stderr,
          "fddbench: %s\nusage: fddbench --workload <name> --seed <n> --out "
          "<run.json> [--trace <spans.json>] [--quick] [--seconds <s>] "
          "[--work-dir <dir>] [--git-sha <sha>] [--git-dirty]\nworkloads:",
          message);
  for (const auto& [name, fn] : workloads())
    fprintf(stderr, " %s", name.c_str());
  fprintf(stderr, "\n");
  return 2;
}

/// CPUs this process may run on (what nproc prints).
uint32_t availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool parseArgs(int argc, char** argv, Options& options, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--git-dirty") {
      options.gitDirty = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--out" ||
               arg == "--trace" || arg == "--seconds" ||
               arg == "--work-dir" || arg == "--git-sha") {
      const char* v = value();
      if (v == nullptr) {
        error = arg + " needs a value";
        return false;
      }
      char* end = nullptr;
      if (arg == "--workload") {
        options.workload = v;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0') {
          error = "--seed must be a whole number";
          return false;
        }
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(options.seconds > 0) ||
            options.seconds > 600) {
          error = "--seconds must be in (0, 600]";
          return false;
        }
      } else if (arg == "--out") {
        options.outPath = v;
      } else if (arg == "--trace") {
        options.tracePath = v;
      } else if (arg == "--work-dir") {
        options.workDir = v;
      } else {
        options.gitSha = v;
      }
    } else {
      error = "unknown argument " + arg;
      return false;
    }
  }
  if (workloads().count(options.workload) == 0) {
    error = "unknown workload '" + options.workload + "'";
    return false;
  }
  if (options.outPath.empty()) {
    error = "--out is required";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace fddbench

int main(int argc, char** argv) {
  using namespace fddbench;
  namespace fs = std::filesystem;
  Options options;
  std::string error;
  if (!parseArgs(argc, argv, options, error)) return usage(error.c_str());
  const std::string buildType = FDDBENCH_BUILD_TYPE;
  if (!options.quick && buildType != "Release") {
    fprintf(stderr,
            "fddbench: refusing to report numbers from a '%s' build; "
            "configure with -DCMAKE_BUILD_TYPE=Release (or pass --quick)\n",
            buildType.c_str());
    return 2;
  }
  options.threads = std::min<uint32_t>(4, availableCpus());

  // Outputs are resolved before moving into the work directory, where the
  // stores and the daemon's socket live under short relative paths.
  options.outPath = fs::absolute(options.outPath).string();
  if (options.traced())
    options.tracePath = fs::absolute(options.tracePath).string();
  if (options.workDir.empty())
    options.workDir = "fddbench-work-" + std::to_string(getpid());
  const fs::path workDir = fs::absolute(options.workDir);
  const fs::path startDir = fs::current_path();
  // The work directory is created here and removed recursively at exit, so
  // it must not be something that already exists.
  if (fs::exists(workDir)) return usage("--work-dir must not exist yet");

  Report report;
  report.header("workload", options.workload);
  report.header("seed", static_cast<double>(options.seed));
  report.header("seconds", options.seconds);
  report.header("quick", options.quick ? 1 : 0);
  report.header("git_sha", options.gitSha);
  report.header("git_dirty", options.gitDirty ? 1 : 0);
  report.header("build_type", buildType);
  report.header("compiler", compiler());
  report.header("nproc", availableCpus());
  report.header("load_threads", options.threads);
  report.header("cpu_model", cpuModel());
  report.header("obs_enabled", freqdedup::obs::kObsEnabled ? 1 : 0);

  const double start = nowSeconds();
  int status = 0;
  try {
    fs::create_directories(workDir);
    fs::current_path(workDir);
    workloads().at(options.workload)(options, report);
  } catch (const std::exception& e) {
    fprintf(stderr, "fddbench: %s: %s\n", options.workload.c_str(), e.what());
    report.op(false, std::string("workload aborted: ") + e.what());
    status = 1;
  }
  std::error_code ec;
  fs::current_path(startDir, ec);
  fs::remove_all(workDir, ec);
  report.header("run_wall_s", nowSeconds() - start);
  try {
    report.write(options.outPath, options.traced());
  } catch (const std::exception& e) {
    fprintf(stderr, "fddbench: %s\n", e.what());
    return 1;
  }
  return status;
}
