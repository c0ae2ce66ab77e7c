// Randomized-instance property tests for the deadline DP solvers.
//
// Conjecture 1 (paper §3.2) says the optimal price is monotone in n, which
// is what lets SolveImprovedDp shrink its search brackets; these tests
// check, over randomized instances, that Algorithm 1 and Algorithm 2 (with
// and without time-monotonicity pruning) produce identical plans -- and
// that the pool-parallel layer scans are bit-identical to a serial solve,
// whatever the thread count, and that layers under the fan-out grain never
// open a region.

#include "pricing/deadline_dp.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/solver_pool.h"
#include "kernel/layer_scan.h"
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
