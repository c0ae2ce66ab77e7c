// Randomized-instance property tests for the deadline DP solvers.
//
// Conjecture 1 (paper §3.2) says the optimal price is monotone in n, which
// is what lets SolveImprovedDp shrink its search brackets; these tests
// check, over randomized instances, that Algorithm 1 and Algorithm 2 (with
// and without time-monotonicity pruning) produce identical plans -- and
// that the pool-parallel layer scans are bit-identical to a serial solve,
// whatever the thread count, that layers under the fan-out grain never
// open a region, and that Algorithm 2 matches a per-state reference copy
// of its recursion in plan bytes and evaluation count.

#include "pricing/deadline_dp.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/solver_pool.h"
#include "kernel/eval_detail.h"
#include "kernel/layer_scan.h"
#include "kernel/pmf_arena.h"
#include "pricing/serialization.h"
#include "util/rng.h"

namespace crowdprice::pricing {
namespace {

struct RandomInstance {
  DeadlineProblem problem;
  std::vector<double> lambdas;
  ActionSet actions;
};

RandomInstance MakeRandomInstance(Rng& rng) {
  DeadlineProblem problem;
  problem.num_tasks = 5 + static_cast<int>(rng.NextDouble() * 60.0);
  problem.num_intervals = 2 + static_cast<int>(rng.NextDouble() * 10.0);
  problem.penalty_cents = 20.0 + rng.NextDouble() * 400.0;
  // extra_penalty_alpha stays 0: the §3.3 extended penalty makes the price
  // spike as n -> 0 (see ExtendedPenaltyPricesHarderNearZeroRemaining in
  // deadline_dp_test), which violates Conjecture 1 -- the premise of
  // Algorithm 2's bracket shrinking. The equivalence property only holds on
  // the linear-penalty instances the conjecture covers.

  const double s = 8.0 + rng.NextDouble() * 14.0;
  const double b = -0.8 + rng.NextDouble() * 1.2;
  const double m = 500.0 + rng.NextDouble() * 3000.0;
  auto acceptance = choice::LogitAcceptance::Create(s, b, m);
  EXPECT_TRUE(acceptance.ok()) << acceptance.status();
  const int max_price = 10 + static_cast<int>(rng.NextDouble() * 40.0);
  auto actions = ActionSet::FromPriceGrid(max_price, *acceptance);
  EXPECT_TRUE(actions.ok()) << actions.status();

  // Arrival volumes spanning starved to saturated markets, with some
  // repeated rates so the truncated-Poisson cache path is exercised.
  std::vector<double> lambdas;
  const double base =
      problem.num_tasks * (0.2 + rng.NextDouble() * 3.0) / problem.num_intervals;
  for (int t = 0; t < problem.num_intervals; ++t) {
    lambdas.push_back(rng.NextDouble() < 0.5 ? base
                                             : base * (0.5 + rng.NextDouble()));
  }
  return RandomInstance{problem, std::move(lambdas), std::move(actions).value()};
}

void ExpectIdenticalPlans(const DeadlinePlan& a, const DeadlinePlan& b,
                          const char* label) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  ASSERT_EQ(a.num_intervals(), b.num_intervals());
  for (int t = 0; t < a.num_intervals(); ++t) {
    for (int n = 1; n <= a.num_tasks(); ++n) {
      ASSERT_EQ(a.ActionIndexUnchecked(n, t), b.ActionIndexUnchecked(n, t))
          << label << " at (n=" << n << ", t=" << t << ")";
      // Bit-identical values, not just close: both solvers must evaluate
      // the winning action with the same arithmetic.
      ASSERT_EQ(a.OptUnchecked(n, t), b.OptUnchecked(n, t))
          << label << " Opt at (n=" << n << ", t=" << t << ")";
    }
  }
}

// Every registered kernel backend must uphold the equivalence property:
// within one backend, Algorithm 1, Algorithm 2 and the pruned variant
// produce bit-identical plans (the kernel's dense/bracketed scans share
// their arithmetic exactly -- the contract in kernel/layer_scan.h).
TEST(DpEquivalenceTest, SimpleAndImprovedAgreeOnRandomInstancesPerBackend) {
  for (const std::string& backend :
       kernel::KernelRegistry::Global().Available()) {
    SCOPED_TRACE(backend);
    Rng rng(20260726);
    for (int rep = 0; rep < 15; ++rep) {
      const RandomInstance instance = MakeRandomInstance(rng);
      DpOptions options;
      options.kernel_backend = backend;
      auto simple = SolveSimpleDp(instance.problem, instance.lambdas,
                                  instance.actions, options);
      ASSERT_TRUE(simple.ok()) << simple.status();
      EXPECT_EQ(simple->kernel_backend, backend);
      auto improved = SolveImprovedDp(instance.problem, instance.lambdas,
                                      instance.actions, options);
      ASSERT_TRUE(improved.ok()) << improved.status();
      ExpectIdenticalPlans(*simple, *improved, "simple vs improved");

      DpOptions pruned = options;
      pruned.time_monotonicity_pruning = true;
      auto improved_pruned = SolveImprovedDp(instance.problem, instance.lambdas,
                                             instance.actions, pruned);
      ASSERT_TRUE(improved_pruned.ok()) << improved_pruned.status();
      ExpectIdenticalPlans(*simple, *improved_pruned, "simple vs pruned");
      // Pruning may only reduce work.
      EXPECT_LE(improved_pruned->action_evaluations,
                improved->action_evaluations);
    }
  }
}

// Every backend produces the scalar backend's plan bit for bit: same
// actions, same Opt values (one fused arithmetic, kernel/eval_detail.h).
TEST(DpEquivalenceTest, BackendsBitIdenticalToScalar) {
  if (kernel::KernelRegistry::Global().Available().size() < 2) {
    GTEST_SKIP() << "no SIMD backend registered on this host";
  }
  Rng rng(607);
  for (int rep = 0; rep < 6; ++rep) {
    const RandomInstance instance = MakeRandomInstance(rng);
    DpOptions scalar_options;
    scalar_options.kernel_backend = "scalar";
    auto want = SolveImprovedDp(instance.problem, instance.lambdas,
                                instance.actions, scalar_options);
    ASSERT_TRUE(want.ok()) << want.status();
    for (const std::string& backend :
         kernel::KernelRegistry::Global().Available()) {
      if (backend == "scalar") continue;  // the reference itself
      SCOPED_TRACE(backend);
      DpOptions options;
      options.kernel_backend = backend;
      auto got = SolveImprovedDp(instance.problem, instance.lambdas,
                                 instance.actions, options);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectIdenticalPlans(*got, *want, "backend vs scalar");
    }
  }
}

TEST(DpEquivalenceTest, ParallelSolvesAreBitIdenticalToSerial) {
  // Every layer of both algorithms must clear the solver's fan-out grain
  // (asserted below; a heavy-supply market at N = 1000), and the thread
  // counts straddle hardware_concurrency on any machine.
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = ActionSet::FromPriceGrid(35, acceptance);
  ASSERT_TRUE(actions.ok());
  DeadlineProblem problem;
  problem.num_tasks = 1000;
  problem.num_intervals = 8;
  problem.penalty_cents = 150.0;
  const std::vector<double> lambdas(8, 80000.0);
  const DeadlineTables tables =
      DeadlineTables::Build(lambdas, *actions, problem.truncation_epsilon)
          .value();
  for (const bool monotone : {false, true}) {
    EXPECT_GE(tables.LayerWork(0, problem.num_tasks, monotone),
              kLayerFanOutGrain);
  }

  for (const std::string& backend :
       kernel::KernelRegistry::Global().Available()) {
    SCOPED_TRACE(backend);
    DpOptions serial;
    serial.num_threads = 1;
    serial.kernel_backend = backend;
    for (const bool monotone : {false, true}) {
      auto solve = [&](const DpOptions& options) {
        return monotone ? SolveImprovedDp(problem, lambdas, *actions, options)
                        : SolveSimpleDp(problem, lambdas, *actions, options);
      };
      auto baseline = solve(serial);
      ASSERT_TRUE(baseline.ok()) << baseline.status();
      EXPECT_EQ(baseline->threads_used, 1);
      for (const int threads : {2, 3, 4, 8}) {
        DpOptions parallel;
        parallel.num_threads = threads;
        parallel.kernel_backend = backend;
        auto plan = solve(parallel);
        ASSERT_TRUE(plan.ok()) << plan.status();
        // threads_used reports actual parallelism: the request capped by
        // the foreground pool (pool workers + the calling thread).
        EXPECT_EQ(plan->threads_used,
                  std::min(threads,
                           engine::SolverPool::Foreground().size() + 1));
        ExpectIdenticalPlans(*baseline, *plan,
                             monotone ? "serial vs parallel (monotone)"
                                      : "serial vs parallel (simple)");
        // The parallel decomposition must not change the work done either.
        EXPECT_EQ(plan->action_evaluations, baseline->action_evaluations);
      }
    }
  }
}

TEST(DpEquivalenceTest, LayersUnderTheGrainScanSeriallyAtAnyThreadCount) {
  // N = 600 and a light market: no layer of either algorithm reaches the
  // fan-out grain, so every request runs the serial scan on the caller.
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = ActionSet::FromPriceGrid(35, acceptance);
  ASSERT_TRUE(actions.ok());
  DeadlineProblem problem;
  problem.num_tasks = 600;
  problem.num_intervals = 8;
  problem.penalty_cents = 150.0;
  const std::vector<double> lambdas(8, 240.0);
  const DeadlineTables tables =
      DeadlineTables::Build(lambdas, *actions, problem.truncation_epsilon)
          .value();
  for (const bool monotone : {false, true}) {
    SCOPED_TRACE(monotone ? "monotone" : "simple");
    EXPECT_LT(tables.LayerWork(0, problem.num_tasks, monotone),
              kLayerFanOutGrain);
    std::string serial_bytes;
    int64_t serial_evals = 0;
    for (const int threads : {1, 2, 4, 8}) {
      DpOptions options;
      options.num_threads = threads;
      auto plan = SolveDeadlineDp(
          problem, lambdas, *actions,
          monotone ? DpAlgorithm::kImproved : DpAlgorithm::kSimple, options);
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_EQ(plan->threads_used, 1) << threads << " threads";
      if (threads == 1) {
        serial_bytes = SerializePlan(*plan);
        serial_evals = plan->action_evaluations;
        continue;
      }
      EXPECT_EQ(SerializePlan(*plan), serial_bytes) << threads << " threads";
      EXPECT_EQ(plan->action_evaluations, serial_evals);
    }
  }
}

// Reference Algorithm 2: the divide-and-conquer recursion scanning one
// state's bracket per midpoint all the way down, with the per-state
// argmin (kernel::detail::BestOverActions), as the solver ran before
// collapsed brackets were handed to the kernel as dense ranges.
struct ReferenceMonotone {
  const kernel::LayerTables* layer;
  const double* opt_next;
  const int32_t* cap_row;
  double* opt_row;
  int32_t* action_row;
  int64_t evals = 0;

  void Range(int n_lo, int n_hi, int a_lo, int a_hi) {
    if (n_lo > n_hi) return;
    const int m = n_lo + (n_hi - n_lo) / 2;
    int hi = a_hi;
    if (cap_row != nullptr && cap_row[m] >= 0) {
      hi = std::min(hi, static_cast<int>(cap_row[m]));
    }
    hi = std::max(hi, a_lo);
    const kernel::detail::BestAction best =
        kernel::detail::BestOverActions(*layer, m, a_lo, hi, opt_next);
    evals += hi - a_lo + 1;
    opt_row[m] = best.cost;
    action_row[m] = best.index;
    Range(n_lo, m - 1, a_lo, best.index);
    Range(m + 1, n_hi, best.index, a_hi);
  }
};

DeadlinePlan ReferenceImprovedPlan(const DeadlineProblem& problem,
                                   const std::vector<double>& lambdas,
                                   const ActionSet& actions, bool pruning) {
  const DeadlineTables tables =
      DeadlineTables::Build(lambdas, actions, problem.truncation_epsilon)
          .value();
  std::vector<double> costs;
  std::vector<int> bundles;
  for (const PricingAction& a : actions.actions()) {
    costs.push_back(a.cost_per_task_cents);
    bundles.push_back(a.bundle);
  }
  const int num_actions = static_cast<int>(actions.size());
  kernel::LayerTables layer;
  layer.arena = tables.arena().get();
  layer.costs = costs.data();
  layer.bundles = bundles.data();
  layer.num_actions = num_actions;
  DeadlinePlan plan(problem, actions, lambdas);
  int64_t evals = 0;
  for (int t = problem.num_intervals - 1; t >= 0; --t) {
    layer.tables =
        tables.table_ids().data() + static_cast<size_t>(t) * num_actions;
    ReferenceMonotone ref{
        &layer, plan.OptLayer(t + 1),
        pruning && t < problem.num_intervals - 1 ? plan.ActionLayer(t + 1)
                                                 : nullptr,
        plan.MutableOptLayer(t), plan.MutableActionLayer(t)};
    ref.Range(1, problem.num_tasks, 0, num_actions - 1);
    evals += ref.evals;
  }
  plan.action_evaluations = evals;
  return plan;
}

// Per-interval worker means with a diurnal shape whose accepted supply at
// the top price sums to `supply_over_n` * N (the on-the-fly bound solves'
// market).
std::vector<double> DiurnalLambdas(Rng& rng, int num_intervals, int num_tasks,
                                   double supply_over_n, double top) {
  const double phase = 2.0 * std::numbers::pi * rng.NextDouble();
  std::vector<double> shape;
  double total = 0.0;
  for (int t = 0; t < num_intervals; ++t) {
    shape.push_back(
        (1.0 + 0.5 * std::sin(2.0 * std::numbers::pi * t / 24.0 + phase)) *
        (1.0 + 0.1 * (2.0 * rng.NextDouble() - 1.0)));
    total += shape.back();
  }
  for (double& s : shape) s *= supply_over_n * num_tasks / (top * total);
  return shape;
}

TEST(DpEquivalenceTest, ImprovedMatchesPerStateReferenceRecursion) {
  struct Case {
    const char* name;
    DeadlineProblem problem;
    std::vector<double> lambdas;
    ActionSet actions;
  };
  const auto acceptance = choice::LogitAcceptance::Paper2014();
  const ActionSet grid21 = ActionSet::FromPriceGrid(20, acceptance).value();
  const double top = grid21.actions().back().acceptance;
  Rng rng(1807);
  std::vector<Case> cases;
  // The interactive shape: N = 600, 72 intervals, supply ~2N, at penalties
  // across a bound search's range.
  for (const double penalty : {40.0, 300.0, 2500.0}) {
    DeadlineProblem problem;
    problem.num_tasks = 600;
    problem.num_intervals = 72;
    problem.penalty_cents = penalty;
    cases.push_back({"interactive", problem,
                     DiurnalLambdas(rng, 72, 600, 1.9 + 0.2 * rng.NextDouble(),
                                    top),
                     grid21});
  }
  // Wave-like campaigns: N 8-40, 24 intervals, level 300-2500 workers.
  for (int p = 0; p < 6; ++p) {
    DeadlineProblem problem;
    problem.num_tasks = 8 + static_cast<int>(rng.NextDouble() * 33.0);
    problem.num_intervals = 24;
    problem.penalty_cents = 150.0 + 10.0 * p;
    const double level = 300.0 + 2200.0 * rng.NextDouble();
    const double phase = 2.0 * std::numbers::pi * rng.NextDouble();
    std::vector<double> lambdas;
    for (int t = 0; t < 24; ++t) {
      lambdas.push_back(
          level * (1.0 + 0.4 * std::sin(2.0 * std::numbers::pi * t / 24.0 +
                                        phase)));
    }
    cases.push_back({"wave", problem, std::move(lambdas), grid21});
  }
  // Layers above the fan-out grain, so the range pre-split path runs.
  {
    DeadlineProblem problem;
    problem.num_tasks = 1000;
    problem.num_intervals = 8;
    problem.penalty_cents = 150.0;
    const ActionSet grid36 = ActionSet::FromPriceGrid(35, acceptance).value();
    const std::vector<double> lambdas(8, 80000.0);
    EXPECT_GE(DeadlineTables::Build(lambdas, grid36, 1e-9)
                  .value()
                  .LayerWork(0, problem.num_tasks, /*monotone=*/true),
              kLayerFanOutGrain);
    cases.push_back({"above grain", problem, lambdas, grid36});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.name << " N=" << c.problem.num_tasks
                                    << " penalty=" << c.problem.penalty_cents);
    for (const bool pruning : {false, true}) {
      const DeadlinePlan want =
          ReferenceImprovedPlan(c.problem, c.lambdas, c.actions, pruning);
      const std::string want_bytes = SerializePlan(want);
      for (const std::string& backend :
           kernel::KernelRegistry::Global().Available()) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(testing::Message() << backend << " pruning=" << pruning
                                          << " threads=" << threads);
          DpOptions options;
          options.kernel_backend = backend;
          options.num_threads = threads;
          options.time_monotonicity_pruning = pruning;
          auto plan = SolveImprovedDp(c.problem, c.lambdas, c.actions, options);
          ASSERT_TRUE(plan.ok()) << plan.status();
          EXPECT_EQ(SerializePlan(*plan), want_bytes);
          EXPECT_EQ(plan->action_evaluations, want.action_evaluations);
        }
      }
    }
  }
}

TEST(DpEquivalenceTest, PoissonTableCacheReusesRepeatedRates) {
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = ActionSet::FromPriceGrid(20, acceptance);
  ASSERT_TRUE(actions.ok());
  DeadlineProblem problem;
  problem.num_tasks = 30;
  problem.num_intervals = 12;
  problem.penalty_cents = 100.0;
  // Constant trace: every interval repeats the same rates.
  const std::vector<double> lambdas(12, 90.0);
  auto plan = SolveImprovedDp(problem, lambdas, *actions);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // One table per action, built once; the other 11 layers reuse them.
  EXPECT_EQ(plan->poisson_tables_built, 21);
  EXPECT_EQ(plan->poisson_table_reuses, 21 * 11);
}

TEST(DpEquivalenceTest, RejectsNegativeThreadCount) {
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = ActionSet::FromPriceGrid(10, acceptance);
  ASSERT_TRUE(actions.ok());
  DeadlineProblem problem;
  problem.num_tasks = 5;
  problem.num_intervals = 2;
  problem.penalty_cents = 50.0;
  DpOptions options;
  options.num_threads = -2;
  EXPECT_TRUE(SolveSimpleDp(problem, {10.0, 10.0}, *actions, options)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace crowdprice::pricing
