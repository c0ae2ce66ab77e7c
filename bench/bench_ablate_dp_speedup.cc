// Ablation A1: Algorithm 1 (SimpleDP) vs Algorithm 2 (ImprovedDP) vs
// ImprovedDP + time-monotonicity pruning (§3.2).
//
// Checks: all three produce identical policies; the monotone search does
// asymptotically less work (O(N + C log N) vs O(N C) per layer), with the
// advantage growing in N.
//
// Second part -- the layer fan-out grain (pricing::kLayerFanOutGrain). A
// solve fans a layer out across the foreground pool only when the layer's
// estimated work (DeadlineTables::LayerWork, multiply-adds) clears the
// grain. Two measurements, on a 21-price grid with supply ~2N and the
// 50-price grid with lambda = 610 N / 200 (24 intervals each):
//  * Layer probe: one Algorithm 1 layer scanned serially on the caller vs
//    as a ParallelFor region on SolverPool::Foreground() with the solver's
//    chunking, best-of-blocks wall per layer, and the process CPU of the
//    block that gave the best region wall. A row whose region CPU is under
//    1.25x its region wall is starved: no helper joined its regions, so it
//    measured the scheduler, not the fan-out (the record's
//    layer_starved_rows counts them). Over the rows that are not starved,
//    the smallest probed work from which on every fanned-out layer takes
//    at most half the serial wall time is the record's
//    layer_crossover_work. A region's cost (wake-ups, join) does not
//    depend on what its body scans, so the crossover, in multiply-adds,
//    holds for the monotone search's ranges too.
//  * Whole solves, both algorithms, num_threads = 1 vs the default: wall
//    and process CPU per solve, the plan's threads_used and the per-layer
//    work estimate. Plans must be byte-identical; timings gate nothing.
//
// Third part -- where an on-the-fly bound solve's CPU goes. The interactive
// shape (N 200-1000, 72 intervals, 21-price grid, supply ~2N, bound 0.5):
// one SolveForExpectedRemaining is replayed stage by stage -- the pmf build
// (DeadlineTables::Build), its DP solves (SolveDeadlineDp) and its nominal
// evaluations (EvaluatePolicyNominal) -- with the search's own bracketing
// and bisection, each stage timed in process CPU. The replay must land on
// the library search's penalty and solve count, and its stages must sum to
// within 10% of the whole search's CPU, timed interleaved with it.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "choice/acceptance.h"
#include "engine/solver_pool.h"
#include "kernel/layer_scan.h"
#include "kernel/pmf_arena.h"
#include "pricing/deadline_dp.h"
#include "pricing/penalty_search.h"
#include "pricing/policy_eval.h"
#include "pricing/serialization.h"
#include "stats/descriptive.h"
#include "util/table.h"

using namespace crowdprice;

namespace {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wall and process CPU seconds of one call.
struct Cost {
  double wall = 0.0;
  double cpu = 0.0;
};

Cost Time(const std::function<void()>& fn) {
  const double cpu = CpuSeconds();
  const double wall = WallSeconds();
  fn();
  return {WallSeconds() - wall, CpuSeconds() - cpu};
}

// A rate grid of the grain sweep: its actions and its per-interval worker
// mean at N tasks.
struct GrainGrid {
  const char* name;
  pricing::ActionSet actions;
  double (*lambda)(const pricing::ActionSet&, int n);
};

constexpr int kGrainIntervals = 24;

double SupplyTwoN(const pricing::ActionSet& actions, int n) {
  return 2.0 * n / (kGrainIntervals * actions.actions().back().acceptance);
}

double PaperLambda(const pricing::ActionSet&, int n) {
  return 610.0 * n / 200.0;
}

// A probe row is starved when its best region block's CPU is under this
// multiple of its wall: no helper joined the regions.
constexpr double kStarvedCpuOverWall = 1.25;

struct LayerProbe {
  int64_t work = 0;
  double serial_us = 0.0;
  double region_us = 0.0;
  /// Process CPU of the block that gave region_us.
  double region_cpu_us = 0.0;

  bool starved() const {
    return region_cpu_us < kStarvedCpuOverWall * region_us;
  }
};

// One Algorithm 1 layer at n tasks: serial scan vs a foreground region
// chunked as SolveDeadlineDp chunks it. Best of `blocks` alternating
// blocks of back-to-back layers; the region CPU is the best region
// block's.
LayerProbe ProbeLayer(const GrainGrid& grid, int n, int blocks) {
  const std::vector<double> lambdas(1, grid.lambda(grid.actions, n));
  const pricing::DeadlineTables tables =
      pricing::DeadlineTables::Build(lambdas, grid.actions, 1e-9).value();
  std::vector<double> costs;
  std::vector<int> bundles;
  for (const pricing::PricingAction& a : grid.actions.actions()) {
    costs.push_back(a.cost_per_task_cents);
    bundles.push_back(a.bundle);
  }
  kernel::LayerTables layer;
  layer.arena = tables.arena().get();
  layer.tables = tables.table_ids().data();
  layer.costs = costs.data();
  layer.bundles = bundles.data();
  layer.num_actions = static_cast<int>(costs.size());
  std::vector<double> opt_next(static_cast<size_t>(n) + 1, 0.0);
  for (int i = 1; i <= n; ++i) {
    opt_next[static_cast<size_t>(i)] = 14.0 * i + (i % 7) * 0.3;
  }
  std::vector<double> opt_row(static_cast<size_t>(n) + 1, 0.0);
  std::vector<int32_t> action_row(static_cast<size_t>(n) + 1, -1);

  const kernel::LayerScanKernel* kern =
      kernel::KernelRegistry::Global().Resolve("").value();
  engine::SolverPool& pool = engine::SolverPool::Foreground();
  const int threads = engine::SolverPool::DefaultThreads();
  const int64_t chunks = std::min<int64_t>(n, threads * 8L);
  const int64_t per_chunk = (n + chunks - 1) / chunks;
  const std::function<void(int64_t)> scan_chunk = [&](int64_t chunk) {
    const int lo = static_cast<int>(1 + chunk * per_chunk);
    const int hi =
        static_cast<int>(std::min<int64_t>(n, (chunk + 1) * per_chunk));
    if (lo <= hi) {
      kern->ScanLayer(layer, lo, hi, 0, layer.num_actions - 1,
                      opt_next.data(), opt_row.data(), action_row.data());
    }
  };
  const auto serial = [&] {
    kern->ScanLayer(layer, 1, n, 0, layer.num_actions - 1, opt_next.data(),
                    opt_row.data(), action_row.data());
  };
  const auto region = [&] {
    pool.ParallelFor(chunks, scan_chunk, std::min(threads, pool.size() + 1));
  };

  // A block is a solve's worth of back-to-back layers (at least the sweep's
  // interval count, and >= 10 ms of serial work), so the pool's workers
  // are as warm as they are inside a solve.
  const double one = Time(serial).wall;
  const int reps = static_cast<int>(
      std::clamp(1e-2 / std::max(one, 1e-7), double{kGrainIntervals}, 1e5));
  LayerProbe probe;
  probe.work = tables.LayerWork(0, n, /*monotone=*/false);
  probe.serial_us = probe.region_us = probe.region_cpu_us = 1e30;
  for (int b = 0; b < blocks; ++b) {
    const Cost s = Time([&] { for (int r = 0; r < reps; ++r) serial(); });
    const Cost p = Time([&] { for (int r = 0; r < reps; ++r) region(); });
    probe.serial_us = std::min(probe.serial_us, 1e6 * s.wall / reps);
    if (1e6 * p.wall / reps < probe.region_us) {
      probe.region_us = 1e6 * p.wall / reps;
      probe.region_cpu_us = 1e6 * p.cpu / reps;
    }
  }
  return probe;
}

// The interactive shape's market: per-interval worker means with a diurnal
// shape whose accepted supply at the top price sums to 2N.
constexpr int kSearchIntervals = 72;
constexpr double kSearchBound = 0.5;

std::vector<double> DiurnalSupplyTwoN(const pricing::ActionSet& actions,
                                      int n) {
  std::vector<double> lambdas;
  double total = 0.0;
  for (int t = 0; t < kSearchIntervals; ++t) {
    lambdas.push_back(1.0 + 0.5 * std::sin(2.0 * std::numbers::pi * t / 24.0));
    total += lambdas.back();
  }
  const double top = actions.actions().back().acceptance;
  for (double& l : lambdas) l *= 2.0 * n / (top * total);
  return lambdas;
}

// CPU seconds of one bound search's stages.
struct SearchStages {
  double build = 0.0;
  double dp = 0.0;
  double eval = 0.0;
  int dp_solves = 0;
  double penalty_used = 0.0;
};

// SolveForExpectedRemaining's bracketing and bisection (default
// BoundSolveOptions), replayed with each stage timed on its own.
SearchStages ReplaySearch(const pricing::DeadlineProblem& base,
                          const std::vector<double>& lambdas,
                          const pricing::ActionSet& actions) {
  const pricing::BoundSolveOptions options;
  SearchStages out;
  std::optional<pricing::DeadlineTables> tables;
  out.build = Time([&] {
                tables = pricing::DeadlineTables::Build(
                             lambdas, actions, base.truncation_epsilon)
                             .value();
              }).cpu;
  // Whether the plan at `penalty` meets the bound.
  const auto feasible = [&](double penalty) {
    pricing::DeadlineProblem problem = base;
    problem.penalty_cents = penalty;
    std::optional<pricing::DeadlinePlan> plan;
    out.dp += Time([&] {
                plan = pricing::SolveDeadlineDp(
                           problem, lambdas, actions,
                           pricing::DpAlgorithm::kImproved,
                           options.dp_options, &*tables)
                           .value();
              }).cpu;
    double remaining = 0.0;
    out.eval += Time([&] {
                  remaining = pricing::EvaluatePolicyNominal(*plan)
                                  .value()
                                  .expected_remaining;
                }).cpu;
    ++out.dp_solves;
    return remaining <= kSearchBound;
  };
  double hi = options.initial_penalty;
  while (!feasible(hi)) hi *= 4.0;
  double lo = hi > options.initial_penalty ? hi / 4.0 : 0.0;
  for (int i = 0; i < options.max_iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  out.penalty_used = hi;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Ablation: DP solver speed-ups (§3.2) ===\n\n";
  auto acceptance = choice::LogitAcceptance::Paper2014();
  pricing::ActionSet actions = [&] {
    auto r = pricing::ActionSet::FromPriceGrid(50, acceptance);
    bench::DieOnError(r.status(), "actions");
    return std::move(r).value();
  }();

  Table table({"N", "simple evals", "improved evals", "pruned evals",
               "simple ms", "improved ms", "speedup", "policies equal"});
  const int sizes[] = {50, 100, 200, 400, 800};
  double speedup_first = 0.0, speedup_last = 0.0;
  bool all_equal = true;
  for (int n : sizes) {
    pricing::DeadlineProblem problem;
    problem.num_tasks = n;
    problem.num_intervals = 24;
    problem.penalty_cents = 200.0;
    const std::vector<double> lambdas(24, 610.0 * n / 200.0);
    const engine::PolicyArtifact simple_art = bench::SolveOrDie(
        bench::MakeDeadlineSpec(problem, lambdas, actions,
                                pricing::DpAlgorithm::kSimple),
        "simple");
    const engine::PolicyArtifact improved_art = bench::SolveOrDie(
        bench::MakeDeadlineSpec(problem, lambdas, actions), "improved");
    engine::DeadlineDpSpec pruned_spec =
        bench::MakeDeadlineSpec(problem, lambdas, actions);
    pruned_spec.dp_options.time_monotonicity_pruning = true;
    const engine::PolicyArtifact pruned_art =
        bench::SolveOrDie(pruned_spec, "pruned");
    const pricing::DeadlinePlan& simple = **simple_art.deadline_plan();
    const pricing::DeadlinePlan& improved = **improved_art.deadline_plan();
    const pricing::DeadlinePlan& pruned = **pruned_art.deadline_plan();
    bool equal = true;
    for (int t = 0; t < problem.num_intervals && equal; ++t) {
      for (int i = 1; i <= n; ++i) {
        if (simple.ActionIndexUnchecked(i, t) != improved.ActionIndexUnchecked(i, t) ||
            simple.ActionIndexUnchecked(i, t) != pruned.ActionIndexUnchecked(i, t)) {
          equal = false;
          break;
        }
      }
    }
    all_equal = all_equal && equal;
    const double speedup =
        static_cast<double>(simple.action_evaluations) /
        static_cast<double>(improved.action_evaluations);
    if (n == sizes[0]) speedup_first = speedup;
    speedup_last = speedup;
    bench::DieOnError(
        table.AddRow(
            {StringF("%d", n),
             StringF("%lld", static_cast<long long>(simple.action_evaluations)),
             StringF("%lld", static_cast<long long>(improved.action_evaluations)),
             StringF("%lld", static_cast<long long>(pruned.action_evaluations)),
             StringF("%.1f", simple.solve_seconds * 1e3),
             StringF("%.1f", improved.solve_seconds * 1e3),
             StringF("%.1fx", speedup), equal ? "yes" : "NO"}),
        "row");
  }
  table.Print(std::cout);
  std::cout << "\n";
  bench::Check(all_equal,
               "all three solvers produce identical policies (Conjecture 1 "
               "holds on these instances)");
  bench::Check(speedup_last > 2.0,
               "monotone search is > 2x cheaper in action evaluations at "
               "N = 800");
  bench::Check(speedup_last > speedup_first,
               "the advantage of Algorithm 2 grows with N");

  bench::BenchRecord record("ablate_dp_speedup");
  record.Param("N_max", sizes[4])
      .Param("T", 24)
      .Param("max_price", 50)
      .Metric("alg2_eval_speedup_at_nmax", speedup_last)
      .Label("policy_source", "engine::Solve");

  // ---------------------------------------------------------------------
  // The layer fan-out grain.
  const int hw = engine::SolverPool::DefaultThreads();
  std::cout << "\n=== Layer fan-out grain (" << hw
            << " hardware threads, grain " << pricing::kLayerFanOutGrain
            << " multiply-adds) ===\n\n";
  const std::vector<GrainGrid> grids = {
      {"g21", pricing::ActionSet::FromPriceGrid(20, acceptance).value(),
       SupplyTwoN},
      {"g50", actions, PaperLambda},
  };
  const std::vector<int> grain_sizes =
      bench::Smoke() ? std::vector<int>{200, 800}
                     : std::vector<int>{100, 200, 400, 800, 1600, 3200};
  const int blocks = bench::SmokeN(7, 2);
  record.Param("grain", static_cast<double>(pricing::kLayerFanOutGrain))
      .Param("grain_intervals", kGrainIntervals);

  Table probe_table({"grid", "N", "layer work", "serial us", "region us",
                     "region CPU us", "wall speedup", "starved"});
  std::vector<LayerProbe> probes;
  for (const GrainGrid& grid : grids) {
    for (int n : grain_sizes) {
      const LayerProbe p = ProbeLayer(grid, n, blocks);
      probes.push_back(p);
      bench::DieOnError(
          probe_table.AddRow(
              {grid.name, StringF("%d", n),
               StringF("%lld", static_cast<long long>(p.work)),
               StringF("%.1f", p.serial_us), StringF("%.1f", p.region_us),
               StringF("%.1f", p.region_cpu_us),
               StringF("%.2fx", p.serial_us / p.region_us),
               p.starved() ? "yes" : "no"}),
          "probe row");
      const std::string key = StringF("layer_%s_n%d_", grid.name, n);
      record.Metric(key + "work", static_cast<double>(p.work))
          .Metric(key + "serial_us", p.serial_us)
          .Metric(key + "region_us", p.region_us)
          .Metric(key + "region_cpu_us", p.region_cpu_us);
    }
  }
  probe_table.Print(std::cout);
  // The crossover: the least probed work from which on every probed layer
  // at least as big runs >= 2x faster fanned out, over the rows that are
  // not starved.
  const auto starved_rows =
      std::count_if(probes.begin(), probes.end(),
                    [](const LayerProbe& p) { return p.starved(); });
  std::erase_if(probes, [](const LayerProbe& p) { return p.starved(); });
  std::sort(probes.begin(), probes.end(),
            [](const LayerProbe& a, const LayerProbe& b) {
              return a.work < b.work;
            });
  double crossover = -1.0;
  for (size_t i = probes.size(); i-- > 0;) {
    if (probes[i].region_us * 2.0 > probes[i].serial_us) break;
    crossover = static_cast<double>(probes[i].work);
  }
  std::cout << StringF("\nlayer crossover (fanned out >= 2x faster from here "
                       "on, %lld starved row(s) left out): %s\n\n",
                       static_cast<long long>(starved_rows),
                       crossover < 0 ? "none probed"
                                     : StringF("%.0f multiply-adds",
                                               crossover).c_str());
  record.Metric("layer_crossover_work", crossover)
      .Metric("layer_starved_rows", static_cast<double>(starved_rows));

  Table solve_table({"alg", "grid", "N", "layer work", "threads",
                     "serial ms", "serial CPU", "default ms", "default CPU",
                     "plans equal"});
  bool solves_identical = true;
  const int solve_reps = bench::SmokeN(3, 1);
  for (const auto algorithm : {pricing::DpAlgorithm::kSimple,
                               pricing::DpAlgorithm::kImproved}) {
    const bool simple = algorithm == pricing::DpAlgorithm::kSimple;
    for (const GrainGrid& grid : grids) {
      for (int n : grain_sizes) {
        pricing::DeadlineProblem problem;
        problem.num_tasks = n;
        problem.num_intervals = kGrainIntervals;
        problem.penalty_cents = 200.0;
        const std::vector<double> lambdas(kGrainIntervals,
                                          grid.lambda(grid.actions, n));
        engine::DeadlineDpSpec spec =
            bench::MakeDeadlineSpec(problem, lambdas, grid.actions, algorithm);
        const int64_t work =
            pricing::DeadlineTables::Build(lambdas, grid.actions, 1e-9)
                .value()
                .LayerWork(0, n, !simple);
        Cost serial{1e30, 1e30}, parallel{1e30, 1e30};
        std::string serial_bytes, parallel_bytes;
        int threads_used = 0;
        for (int r = 0; r < solve_reps; ++r) {
          for (const int threads : {1, 0}) {
            spec.dp_options.num_threads = threads;
            std::optional<engine::PolicyArtifact> art;
            const Cost c =
                Time([&] { art = bench::SolveOrDie(spec, "grain solve"); });
            const pricing::DeadlinePlan& plan = **art->deadline_plan();
            Cost& best = threads == 1 ? serial : parallel;
            best.wall = std::min(best.wall, c.wall);
            best.cpu = std::min(best.cpu, c.cpu);
            if (r == 0) {
              (threads == 1 ? serial_bytes : parallel_bytes) =
                  pricing::SerializePlan(plan);
              if (threads == 0) threads_used = plan.threads_used;
            }
          }
        }
        const bool equal = serial_bytes == parallel_bytes;
        solves_identical = solves_identical && equal;
        bench::DieOnError(
            solve_table.AddRow(
                {simple ? "1" : "2", grid.name, StringF("%d", n),
                 StringF("%lld", static_cast<long long>(work)),
                 StringF("%d", threads_used),
                 StringF("%.2f", 1e3 * serial.wall),
                 StringF("%.2f", 1e3 * serial.cpu),
                 StringF("%.2f", 1e3 * parallel.wall),
                 StringF("%.2f", 1e3 * parallel.cpu), equal ? "yes" : "NO"}),
            "solve row");
        const std::string key =
            StringF("solve_alg%d_%s_n%d_", simple ? 1 : 2, grid.name, n);
        record.Metric(key + "layer_work", static_cast<double>(work))
            .Metric(key + "threads_used", threads_used)
            .Metric(key + "serial_ms", 1e3 * serial.wall)
            .Metric(key + "serial_cpu_ms", 1e3 * serial.cpu)
            .Metric(key + "default_ms", 1e3 * parallel.wall)
            .Metric(key + "default_cpu_ms", 1e3 * parallel.cpu);
      }
    }
  }
  solve_table.Print(std::cout);
  std::cout << "\n";
  bench::Check(solves_identical,
               "serial and default-thread solves produce byte-identical "
               "plans on every grain-sweep instance");

  // ---------------------------------------------------------------------
  // The bound search's stages.
  std::cout << "\n=== Bound search stages (interactive shape: "
            << kSearchIntervals << " intervals, 21-price grid, supply ~2N, "
               "bound "
            << kSearchBound << ") ===\n\n";
  const pricing::ActionSet grid21 = grids[0].actions;
  const std::vector<int> search_sizes =
      bench::Smoke() ? std::vector<int>{200, 600}
                     : std::vector<int>{200, 400, 600, 800, 1000};
  const int search_reps = bench::SmokeN(10, 2);
  record.Param("search_intervals", kSearchIntervals)
      .Param("search_bound", kSearchBound)
      .Param("search_reps", search_reps);
  Table search_table({"N", "DP solves", "build ms", "DP ms", "eval ms",
                      "stages ms", "search ms", "search IQR ms",
                      "stages/search", "DP ms/solve"});
  bool replay_matches = true;
  bool stages_close = true;
  for (const int n : search_sizes) {
    pricing::DeadlineProblem problem;
    problem.num_tasks = n;
    problem.num_intervals = kSearchIntervals;
    const std::vector<double> lambdas = DiurnalSupplyTwoN(grid21, n);
    // One untimed search first, so no arm pays for a cold start; its
    // result is what every replay must land on.
    const pricing::BoundSolveResult want =
        pricing::SolveForExpectedRemaining(problem, lambdas, grid21,
                                           kSearchBound)
            .value();
    SearchStages stages;
    std::vector<double> wholes;
    // The whole search and its staged replay alternate which runs first
    // (whole, replay, replay, whole, ...).
    for (int r = 0; r < 2 * search_reps; ++r) {
      if ((r + r / 2) % 2 == 0) {
        wholes.push_back(Time([&] {
                           (void)pricing::SolveForExpectedRemaining(
                               problem, lambdas, grid21, kSearchBound);
                         }).cpu);
        continue;
      }
      const SearchStages s = ReplaySearch(problem, lambdas, grid21);
      replay_matches = replay_matches &&
                       s.penalty_used == want.penalty_used &&
                       s.dp_solves == want.dp_solves;
      stages.build += s.build;
      stages.dp += s.dp;
      stages.eval += s.eval;
      stages.dp_solves = s.dp_solves;
    }
    double whole = 0.0;
    for (const double w : wholes) whole += w;
    const double iqr = stats::Percentile(wholes, 0.75).value() -
                       stats::Percentile(wholes, 0.25).value();
    const double scale = 1e3 / search_reps;
    const double sum = stages.build + stages.dp + stages.eval;
    const double ratio = sum / whole;
    stages_close = stages_close && std::abs(ratio - 1.0) <= 0.10;
    bench::DieOnError(
        search_table.AddRow(
            {StringF("%d", n), StringF("%d", stages.dp_solves),
             StringF("%.2f", scale * stages.build),
             StringF("%.2f", scale * stages.dp),
             StringF("%.2f", scale * stages.eval),
             StringF("%.2f", scale * sum), StringF("%.2f", scale * whole),
             StringF("%.2f", 1e3 * iqr), StringF("%.3f", ratio),
             StringF("%.3f", scale * stages.dp / stages.dp_solves)}),
        "search row");
    const std::string key = StringF("search_n%d_", n);
    record.Metric(key + "dp_solves", stages.dp_solves)
        .Metric(key + "build_cpu_ms", scale * stages.build)
        .Metric(key + "dp_cpu_ms", scale * stages.dp)
        .Metric(key + "eval_cpu_ms", scale * stages.eval)
        .Metric(key + "search_cpu_ms", scale * whole)
        .Metric(key + "search_cpu_iqr_ms", 1e3 * iqr)
        .Metric(key + "stages_over_search", ratio);
  }
  search_table.Print(std::cout);
  std::cout << "\n";
  bench::Check(replay_matches,
               "the staged replay lands on the library search's penalty and "
               "DP solve count");
  bench::Check(stages_close,
               "pmf build + DP solves + nominal evaluations sum to within "
               "10% of the whole bound search's CPU");

  (void)record.Write();
  return bench::Finish();
}
