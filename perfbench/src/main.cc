// perfbench: the repository benchmark's measuring program. run.py builds it
// and invokes it as
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>]
//
// It prints provenance labels and every metric by name with its unit, then
// one JSON result line, and exits non-zero when any output check failed.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "kernel/layer_scan.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload {decide_direct|"
               "decide_routed_churn|solve_wave|solve_interactive} --seed N "
               "--seconds S --trace {0|1} [--commit ID]\n";
  return 2;
}

bool IsRelease() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload) return Usage("missing arguments");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be > 0");
  if (!IsRelease()) {
    std::cerr << "perfbench: refusing to record from a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  config.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (config.nproc < 1) config.nproc = 1;

  perfbench::Report report(config.trace);
  report.Label("workload", config.workload);
  report.Label("seed", std::to_string(config.seed));
  report.Label("seconds", std::to_string(config.seconds));
  report.Label("trace", config.trace ? "1" : "0");
  report.Label("commit", commit);
  report.Label("build_type", PERFBENCH_BUILD_TYPE);
  report.Label("nproc", std::to_string(config.nproc));
  auto backend = crowdprice::kernel::KernelRegistry::Global().Resolve("");
  report.Label("kernel_backend", backend.ok() ? (*backend)->name() : "none");

  if (config.workload == "decide_direct") {
    perfbench::RunDecide(config, /*routed=*/false, report);
  } else if (config.workload == "decide_routed_churn") {
    perfbench::RunDecide(config, /*routed=*/true, report);
  } else if (config.workload == "solve_wave") {
    perfbench::RunSolveWave(config, report);
  } else if (config.workload == "solve_interactive") {
    perfbench::RunSolveInteractive(config, report);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (config.trace) perfbench::RunLayerReplay(config, report);

  const int64_t attempted = report.attempted();
  report.Info("error_rate",
              attempted > 0 ? static_cast<double>(report.failed()) /
                                  static_cast<double>(attempted)
                            : 1.0,
              "ratio");
  report.Print();
  return report.failed() == 0 && attempted > 0 ? 0 : 1;
}
