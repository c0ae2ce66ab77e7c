// solve_wave and solve_interactive.
//
// solve_wave re-prices a fleet in waves: engine::SolveWave with
// evaluate = true over a few thousand small deadline campaigns stamped from
// a finite set of rate profiles, on a foreground SolverPool of
// kWavePoolThreads threads and a fresh PmfShareCache per wave (so every
// wave builds its profiles' pmf blocks once and shares them across
// campaigns). The run re-solves one seeded wave: the more often it
// repeats the same wave, the surer its fastest repeat missed the host's
// stalls (see ClosedLoop).
//
// solve_interactive is the paper's on-the-fly use: one caller, closed loop,
// each step one Engine::Solve of a bound-mode deadline spec (the Theorem 2
// penalty bisection over Algorithm 2) on a large campaign with its own
// rates, so no pmf block is shared across campaigns.

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "engine/solve_wave.h"
#include "inputs.h"
#include "oracle.h"
#include "util/stringf.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cp::StringF;

/// The stated pool size (fewer on a host with fewer hardware threads).
constexpr int kWavePoolThreads = 4;
/// Campaigns per wave re-solved sequentially by the oracle.
constexpr int kWaveChecks = 4;

cp::engine::SolveWaveOptions WaveOptions(cp::engine::SolverPool* pool,
                                         cp::kernel::PmfShareCache* cache) {
  cp::engine::SolveWaveOptions options;
  options.pool = pool;
  options.share_cache = cache;
  options.evaluate = true;
  return options;
}

// A closed loop of one caller over `inputs` distinct inputs run in turn:
// call c runs input c % inputs. `timed` runs back to back for `seconds`
// (returning the units it produced), `untimed` after each call (the
// oracle). Each call's wall time, process CPU time and the jiffies stolen
// meanwhile are kept. Over whole cycles of the inputs (so every run
// weighs them alike) it reports cpu_ms_per_op, the gated process CPU time
// per unit, and best_wall_ms_per_op, wall time per unit from each input's
// fastest repeat: stolen time only ever adds wall time, so the fastest of
// many repeats of one input is the one the hypervisor disturbed least.
// The other wall-clock figures come from the quieter half of the calls
// (QuietHalf).
void ClosedLoop(const RunConfig& config, const SetupTimer& setup,
                size_t inputs, const std::function<double()>& timed,
                const std::function<void()>& untimed, Report& report) {
  std::vector<uint64_t> nanos, steal;
  std::vector<double> units, cpu_s;
  double gap_max_s = 0.0;
  const CpuJiffies begin = ReadCpuJiffies();
  const Clock::time_point start = Clock::now();
  Clock::time_point last_end = start;
  while (SecondsSince(start) < config.seconds) {
    const CpuJiffies j0 = ReadCpuJiffies();
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    gap_max_s = std::max(
        gap_max_s, std::chrono::duration<double>(t0 - last_end).count());
    units.push_back(timed());
    nanos.push_back(NanosBetween(t0, Clock::now()));
    cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    steal.push_back(ReadCpuJiffies().steal - j0.steal);
    untimed();
    last_end = Clock::now();
  }
  const double steal_frac = StealFraction(begin, ReadCpuJiffies());

  LatencyHistogram all, quiet;
  for (uint64_t n : nanos) all.RecordNanos(n);
  double quiet_units = 0.0, quiet_s = 0.0;
  for (size_t i : QuietHalf(steal)) {
    quiet.RecordNanos(nanos[i]);
    quiet_units += units[i];
    quiet_s += 1e-9 * static_cast<double>(nanos[i]);
  }
  setup.AddTo(report);
  report.PerLayer("p50_ms", quiet.QuantileMs(0.5), "ms");
  report.PerLayer("p90_ms", quiet.QuantileMs(0.9), "ms");
  report.PerLayer("throughput_per_s", quiet_units / quiet_s, "1/s");
  report.Info("all_ops_p50_ms", all.QuantileMs(0.5), "ms");
  report.Info("all_ops_p90_ms", all.QuantileMs(0.9), "ms");
  report.Info("ops", static_cast<double>(all.count()), "count");

  const size_t whole =
      units.size() >= inputs ? units.size() / inputs * inputs : units.size();
  double cycle_units = 0.0, cycle_cpu_s = 0.0;
  std::vector<uint64_t> fastest(std::min(inputs, whole),
                                std::numeric_limits<uint64_t>::max());
  for (size_t i = 0; i < whole; ++i) {
    cycle_units += units[i];
    cycle_cpu_s += cpu_s[i];
    fastest[i % inputs] = std::min(fastest[i % inputs], nanos[i]);
  }
  double best_s = 0.0, best_units = 0.0;
  for (size_t k = 0; k < fastest.size(); ++k) {
    best_s += 1e-9 * static_cast<double>(fastest[k]);
    best_units += units[k];
  }
  report.EndToEnd("cpu_ms_per_op", 1e3 * cycle_cpu_s / cycle_units, "ms");
  report.PerLayer("best_wall_ms_per_op", 1e3 * best_s / best_units, "ms");
  report.Info("repeats_per_input",
              static_cast<double>(whole) / static_cast<double>(fastest.size()),
              "count");
  report.PerLayer("p99_ms", all.QuantileMs(0.99), "ms");
  report.PerLayer("p999_ms", all.QuantileMs(0.999), "ms");
  // A closed loop has no schedule to fall behind: its lag is the gap the
  // generator leaves between one operation's end and the next's start.
  report.PerLayer("generator.lag_ms_max", 1e3 * gap_max_s, "ms");
  report.PerLayer("generator.late_frac", 0.0, "ratio");
  report.PerLayer("host.steal_frac", steal_frac, "ratio");
}

}  // namespace

void RunSolveWave(const RunConfig& config, Report& report) {
  const WaveShape shape;
  const int pool_threads =
      std::min(kWavePoolThreads, std::max(1, config.nproc));
  // Set-up: generate the wave, start the pool, and one wave to warm the
  // pool's threads and the allocator (so setup_s is mostly that wave's
  // CPU time; the first two alone take about a millisecond, too little
  // to time steadily on a shared host).
  SetupTimer setup;
  std::vector<cp::engine::PolicySpec> wave;
  std::unique_ptr<cp::engine::SolverPool> pool;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    wave.clear();
    pool.reset();
    setup.Begin();
    wave = WorkloadWave(config.seed);
    pool = std::make_unique<cp::engine::SolverPool>(pool_threads,
                                                    /*background=*/false);
    cp::kernel::PmfShareCache cache;
    for (const auto& r :
         cp::engine::SolveWave(wave, WaveOptions(pool.get(), &cache))) {
      if (!r.ok()) {
        report.Attempt();
        report.Fail("warm-up wave: " + r.status().ToString());
        return;
      }
    }
    setup.End();
  }

  cp::Rng pick(config.seed ^ 0x5eed);
  std::vector<cp::Result<cp::engine::PolicyArtifact>> results;
  ClosedLoop(
      config, setup, /*inputs=*/1,
      [&] {
        cp::kernel::PmfShareCache cache;
        results = cp::engine::SolveWave(wave, WaveOptions(pool.get(), &cache));
        return static_cast<double>(wave.size());
      },
      [&] {
        report.Attempt(static_cast<int64_t>(wave.size()));
        // Every campaign solved and evaluated...
        for (size_t i = 0; i < results.size(); ++i) {
          if (!results[i].ok()) {
            report.Fail(StringF("wave campaign %zu: %s", i,
                                results[i].status().ToString().c_str()));
          } else if (!results[i]->deadline_evaluation().ok()) {
            report.Fail(StringF("wave campaign %zu: no evaluation", i));
          }
        }
        // ...and sampled campaigns equal to sequential Engine::Solve.
        for (int c = 0; c < kWaveChecks; ++c) {
          const auto i = static_cast<size_t>(
              pick.UniformInt(0, static_cast<int64_t>(wave.size()) - 1));
          if (!results[i].ok()) continue;
          auto want = cp::engine::Engine::Solve(wave[i]);
          const std::string why =
              want.ok()
                  ? CheckArtifact(*results[i], *want)
                  : "sequential solve failed: " + want.status().ToString();
          if (!why.empty()) {
            report.Fail(StringF("wave oracle %zu: %s", i, why.c_str()));
          }
        }
        results.clear();
      },
      report);
  report.Label("load", StringF("closed loop re-solving one %d-campaign "
                               "wave, %d pool threads, evaluate on, fresh "
                               "share cache per wave",
                               shape.campaigns, pool_threads));
  wave.clear();
  pool.reset();
  report.PerLayer("peak_rss_mb", PeakRssMb(), "MiB");
}

void RunSolveInteractive(const RunConfig& config, Report& report) {
  const InteractiveShape shape;
  // Set-up: generate the specs, then one serial warm-up solve (the library
  // keeps no state between solves; this is the first answer's cost, and
  // serial because its CPU time holds steadier across the host's steal
  // levels than a parallel solve's).
  SetupTimer setup;
  std::vector<cp::engine::DeadlineDpSpec> specs;
  cp::engine::DeadlineDpSpec warmup;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    setup.Begin();
    specs = WorkloadInteractiveSpecs(config.seed, shape.strata);
    warmup = InteractiveWarmupSpec(config.seed);
    cp::engine::DeadlineDpSpec serial = warmup;
    serial.dp_options.num_threads = 1;
    auto solved = cp::engine::Engine::Solve(serial);
    if (!solved.ok()) {
      report.Attempt();
      report.Fail("warm-up solve: " + solved.status().ToString());
      return;
    }
    setup.End();
  }

  // One untimed parallel solve grows the scan pool's threads and their
  // allocator arenas, so the run's peak RSS does not depend on which sizes
  // the first parallel solves happen to draw.
  if (!cp::engine::Engine::Solve(warmup).ok()) {
    report.Attempt();
    report.Fail("parallel warm-up solve failed");
    return;
  }

  size_t i = 0;
  cp::Result<cp::engine::PolicyArtifact> solved = cp::Status::Internal("unset");
  ClosedLoop(
      config, setup, specs.size(),
      [&] {
        solved = cp::engine::Engine::Solve(specs[i % specs.size()]);
        return 1.0;
      },
      [&] {
        const cp::engine::DeadlineDpSpec& spec = specs[i++ % specs.size()];
        report.Attempt();
        const std::string why =
            solved.ok() ? CheckBound(*solved, shape.bound)
                        : "solve failed: " + solved.status().ToString();
        if (!why.empty()) {
          report.Fail(StringF("interactive N=%d: %s", spec.problem.num_tasks,
                              why.c_str()));
        }
      },
      report);
  report.Label("load", StringF("closed loop, 1 caller, bound-mode solves of "
                               "%d campaigns in turn, N in [%d, %d] (one per "
                               "stratum), %d intervals",
                               shape.strata, shape.min_tasks, shape.max_tasks,
                               shape.num_intervals));
  report.PerLayer("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace perfbench
