#include "pricing/fixed_price.h"

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "kernel/pmf_cache.h"
#include "pricing/penalty_search.h"
#include "pricing/serialization.h"
#include "stats/poisson.h"

namespace crowdprice::pricing {
namespace {

choice::LogitAcceptance Paper() { return choice::LogitAcceptance::Paper2014(); }

// The paper's headline setting (§5.2.1): N = 200 tasks, 24 h horizon, and a
// marketplace whose total worker arrivals over the horizon make c0 ~ 12.
std::vector<double> PaperLambdas(int nt = 72, double total = 122000.0) {
  return std::vector<double>(static_cast<size_t>(nt), total / nt);
}

TEST(EvaluateFixedPriceTest, Validation) {
  auto acc = Paper();
  EXPECT_TRUE(
      EvaluateFixedPrice(10, 0, PaperLambdas(), acc).status().IsInvalidArgument());
  EXPECT_TRUE(EvaluateFixedPrice(10, 5, {}, acc).status().IsInvalidArgument());
  EXPECT_TRUE(EvaluateFixedPrice(-1, 5, PaperLambdas(), acc)
                  .status()
                  .IsInvalidArgument());
}

TEST(EvaluateFixedPriceTest, SingleTaskAnalytic) {
  auto acc = Paper();
  const std::vector<double> lambdas{100.0};
  auto sol = EvaluateFixedPrice(10, 1, lambdas, acc).value();
  const double rate = 100.0 * acc.ProbabilityAt(10.0);
  EXPECT_NEAR(sol.expected_remaining, std::exp(-rate), 1e-9);
  EXPECT_NEAR(sol.prob_finish, 1.0 - std::exp(-rate), 1e-9);
  EXPECT_NEAR(sol.expected_cost_cents, 10.0 * (1.0 - std::exp(-rate)), 1e-8);
}

TEST(EvaluateFixedPriceTest, RemainingDecreasesWithPrice) {
  auto acc = Paper();
  double prev = 1e18;
  for (int c = 0; c <= 30; c += 5) {
    auto sol = EvaluateFixedPrice(c, 200, PaperLambdas(), acc).value();
    EXPECT_LE(sol.expected_remaining, prev + 1e-9);
    prev = sol.expected_remaining;
  }
}

TEST(TheoreticalMinimumPriceTest, ReproducesPaperC0OfTwelve) {
  // §5.2.1: "In our experiment, c0 ~ 12".
  auto c0 = TheoreticalMinimumPrice(200, PaperLambdas(), Paper(), 50);
  ASSERT_TRUE(c0.ok());
  EXPECT_EQ(c0.value(), 12);
}

TEST(TheoreticalMinimumPriceTest, Minimality) {
  auto acc = Paper();
  const auto lambdas = PaperLambdas();
  const int c0 = TheoreticalMinimumPrice(200, lambdas, acc, 50).value();
  double total = 0.0;
  for (double l : lambdas) total += l;
  EXPECT_GE(acc.ProbabilityAt(static_cast<double>(c0)), 200.0 / total);
  EXPECT_LT(acc.ProbabilityAt(static_cast<double>(c0 - 1)), 200.0 / total);
}

TEST(SolveFixedForQuantileTest, ReproducesPaperPriceOfSixteen) {
  // §5.2.1: the fixed strategy needs c = 16 for the 99.9% guarantee, a 33%
  // premium over the dynamic policy's ~12.
  auto sol = SolveFixedForQuantile(200, PaperLambdas(), Paper(), 50, 0.999);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->price_cents, 16);
  EXPECT_GE(sol->prob_finish, 0.999);
}

TEST(SolveFixedForQuantileTest, MinimalityAndValidation) {
  auto acc = Paper();
  const auto lambdas = PaperLambdas();
  auto sol = SolveFixedForQuantile(200, lambdas, acc, 50, 0.999).value();
  auto below = EvaluateFixedPrice(sol.price_cents - 1, 200, lambdas, acc).value();
  EXPECT_LT(below.prob_finish, 0.999);
  EXPECT_TRUE(SolveFixedForQuantile(200, lambdas, acc, 50, 0.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SolveFixedForQuantile(200, lambdas, acc, 50, 1.0)
                  .status()
                  .IsInvalidArgument());
}

TEST(SolveFixedForQuantileTest, UnreachableCeiling) {
  EXPECT_TRUE(SolveFixedForQuantile(200, PaperLambdas(), Paper(), 5, 0.999)
                  .status()
                  .IsOutOfRange());
}

TEST(SolveFixedForExpectedCompletionTest, FaridaniCriterion) {
  auto acc = Paper();
  const auto lambdas = PaperLambdas();
  auto sol = SolveFixedForExpectedCompletion(200, lambdas, acc, 50).value();
  // E[X] >= N at the solution but not one cent below.
  double total = 0.0;
  for (double l : lambdas) total += l;
  EXPECT_GE(total * acc.ProbabilityAt(sol.price_cents), 200.0);
  EXPECT_LT(total * acc.ProbabilityAt(sol.price_cents - 1), 200.0);
  // The expectation criterion coincides with c0.
  EXPECT_EQ(sol.price_cents,
            TheoreticalMinimumPrice(200, lambdas, acc, 50).value());
}

TEST(SolveFixedForExpectedRemainingTest, MeetsBoundMinimally) {
  auto acc = Paper();
  const auto lambdas = PaperLambdas();
  for (double bound : {0.1, 1.0, 5.0}) {
    auto sol =
        SolveFixedForExpectedRemaining(200, lambdas, acc, 50, bound).value();
    EXPECT_LE(sol.expected_remaining, bound);
    auto below =
        EvaluateFixedPrice(sol.price_cents - 1, 200, lambdas, acc).value();
    EXPECT_GT(below.expected_remaining, bound);
  }
}

// --- Expected finish time (Faridani's original criterion) -------------------

TEST(ExpectedFinishTimeTest, Validation) {
  auto rate = arrival::PiecewiseConstantRate::Constant(100.0, 1.0).value();
  EXPECT_TRUE(ExpectedFinishTimeHours(0, rate, 0.5).status().IsInvalidArgument());
  EXPECT_TRUE(ExpectedFinishTimeHours(5, rate, 1.5).status().IsInvalidArgument());
  EXPECT_TRUE(
      ExpectedFinishTimeHours(5, rate, 0.0).status().IsFailedPrecondition());
}

TEST(ExpectedFinishTimeTest, SingleTaskIsExponentialMean) {
  // Homogeneous rate 100/h, p = 0.2: first completion ~ Exp(20/h),
  // E[T_1] = 1/20 h.
  auto rate = arrival::PiecewiseConstantRate::Constant(100.0, 0.01).value();
  EXPECT_NEAR(ExpectedFinishTimeHours(1, rate, 0.2).value(), 1.0 / 20.0, 5e-3);
}

TEST(ExpectedFinishTimeTest, ErlangMeanForManyTasks) {
  // N-th completion of a homogeneous Poisson(rate*p) process has mean N/mu.
  auto rate = arrival::PiecewiseConstantRate::Constant(1000.0, 0.02).value();
  const double mu = 1000.0 * 0.1;
  for (int n : {5, 50, 200}) {
    EXPECT_NEAR(ExpectedFinishTimeHours(n, rate, 0.1).value(),
                static_cast<double>(n) / mu, 0.02 * n / mu + 0.02)
        << "n = " << n;
  }
}

TEST(ExpectedFinishTimeTest, DeadNightsAddTheirLength) {
  // Day/night rate (fast 12 h, dead 12 h): a batch needing ~18 productive
  // hours must sit through one dead night, so E[T] exceeds the always-on
  // equivalent by roughly the night's length.
  std::vector<double> day_night;
  for (int h = 0; h < 12; ++h) day_night.push_back(1000.0);
  for (int h = 0; h < 12; ++h) day_night.push_back(0.0);
  auto bursty = arrival::PiecewiseConstantRate::Create(day_night, 1.0).value();
  auto always_on = arrival::PiecewiseConstantRate::Constant(1000.0, 1.0).value();
  const double t_bursty = ExpectedFinishTimeHours(180, bursty, 0.01).value();
  const double t_always = ExpectedFinishTimeHours(180, always_on, 0.01).value();
  // ~18 h of productive time either way; the bursty market inserts the
  // 12-hour night between hours 12 and 24.
  EXPECT_NEAR(t_always, 18.0, 0.5);
  EXPECT_NEAR(t_bursty, t_always + 12.0, 0.75);
}

TEST(SolveFixedForExpectedFinishTimeTest, MinimalAndFeasible) {
  auto acc = Paper();
  auto rate = arrival::PiecewiseConstantRate::Constant(5083.0, 24.0).value();
  auto sol = SolveFixedForExpectedFinishTime(200, rate, 24.0, acc, 50).value();
  const double p = acc.ProbabilityAt(sol.price_cents);
  EXPECT_LE(ExpectedFinishTimeHours(200, rate, p).value(), 24.0);
  if (sol.price_cents > 0) {
    const double p_below = acc.ProbabilityAt(sol.price_cents - 1);
    EXPECT_GT(ExpectedFinishTimeHours(200, rate, p_below).value(), 24.0);
  }
  // The expectation criterion is weaker than the 99.9% quantile one, so its
  // price is no higher (the original Faridani scheme's known weakness).
  auto strict =
      SolveFixedForQuantile(200, std::vector<double>(72, 5083.0 * 24.0 / 72.0),
                            acc, 50, 0.999)
          .value();
  EXPECT_LE(sol.price_cents, strict.price_cents);
}

// --- Penalty search (Theorem 2) ---------------------------------------------

TEST(PenaltySearchTest, Validation) {
  auto acc = Paper();
  auto actions = ActionSet::FromPriceGrid(40, acc).value();
  DeadlineProblem p;
  p.num_tasks = 20;
  p.num_intervals = 6;
  auto lambdas = std::vector<double>(6, 800.0);
  EXPECT_TRUE(SolveForExpectedRemaining(p, lambdas, actions, -1.0)
                  .status()
                  .IsInvalidArgument());
  BoundSolveOptions bad;
  bad.max_iterations = 0;
  EXPECT_TRUE(SolveForExpectedRemaining(p, lambdas, actions, 1.0, bad)
                  .status()
                  .IsInvalidArgument());
  // Penalty bracket limits are checked before the first solve: a NaN cap
  // used to let an unreachable bound grow the penalty until it overflowed,
  // and an infinite start failed inside the DP with a misleading message.
  const auto unreachable = ActionSet::FromPriceGrid(2, acc).value();
  for (auto [initial, cap] :
       {std::pair{100.0, std::nan("")}, std::pair{HUGE_VAL, 1e9},
        std::pair{100.0, HUGE_VAL}, std::pair{std::nan(""), 1e9},
        std::pair{0.0, 1e9}, std::pair{100.0, 50.0}}) {
    BoundSolveOptions limits;
    limits.initial_penalty = initial;
    limits.max_penalty = cap;
    auto result =
        SolveForExpectedRemaining(p, lambdas, unreachable, 0.001, limits);
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << "initial " << initial << " cap " << cap << ": " << result.status();
  }
}

// The search as it ran before it shared one table set: every step a fresh
// solve (building its own tables) plus a fresh nominal evaluation.
struct ReferenceSearch {
  DeadlinePlan plan;
  PolicyEvaluation evaluation;
  double penalty_used;
  int dp_solves;
};

ReferenceSearch FreshSolveSearch(const DeadlineProblem& base,
                                 const std::vector<double>& lambdas,
                                 const ActionSet& actions, double bound,
                                 const BoundSolveOptions& options) {
  const auto attempt = [&](double penalty) {
    DeadlineProblem problem = base;
    problem.penalty_cents = penalty;
    DeadlinePlan plan = SolveDeadlineDp(problem, lambdas, actions,
                                        options.algorithm, options.dp_options)
                            .value();
    PolicyEvaluation eval = EvaluatePolicyNominal(plan).value();
    return ReferenceSearch{std::move(plan), std::move(eval), penalty, 0};
  };
  int solves = 1;
  double hi = options.initial_penalty;
  ReferenceSearch feasible = attempt(hi);
  while (feasible.evaluation.expected_remaining > bound) {
    hi *= 4.0;
    feasible = attempt(hi);
    ++solves;
  }
  double lo = hi > options.initial_penalty ? hi / 4.0 : 0.0;
  for (int i = 0; i < options.max_iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    ReferenceSearch step = attempt(mid);
    ++solves;
    if (step.evaluation.expected_remaining <= bound) {
      hi = mid;
      feasible = std::move(step);
    } else {
      lo = mid;
    }
  }
  feasible.dp_solves = solves;
  return feasible;
}

TEST(PenaltySearchTest, SharedTablesMatchFreshSolves) {
  auto acc = Paper();
  auto actions = ActionSet::FromPriceGrid(40, acc).value();
  DeadlineProblem p;
  p.num_tasks = 40;
  p.num_intervals = 10;
  std::vector<double> lambdas;
  for (int t = 0; t < p.num_intervals; ++t) {
    lambdas.push_back(700.0 + 90.0 * (t % 4));  // periodic: tables repeat
  }
  const double bound = 0.5;
  for (DpAlgorithm algorithm : {DpAlgorithm::kImproved, DpAlgorithm::kSimple}) {
    for (const char* backend : {"scalar", ""}) {
      SCOPED_TRACE(testing::Message()
                   << (algorithm == DpAlgorithm::kSimple ? "Algorithm 1"
                                                         : "Algorithm 2")
                   << ", backend '" << backend << "'");
      kernel::PmfShareCache cache;
      BoundSolveOptions options;
      options.algorithm = algorithm;
      options.dp_options.kernel_backend = backend;
      options.dp_options.share_cache = &cache;
      const BoundSolveResult got =
          SolveForExpectedRemaining(p, lambdas, actions, bound, options)
              .value();

      // The whole search requested the grid's tables from the cache once.
      const kernel::PmfArena::Stats stats = cache.stats();
      EXPECT_EQ(stats.blocks_built, got.plan.poisson_tables_built);
      EXPECT_EQ(stats.blocks_shared, 0);

      options.dp_options.share_cache = nullptr;
      const ReferenceSearch want =
          FreshSolveSearch(p, lambdas, actions, bound, options);
      EXPECT_EQ(got.penalty_used, want.penalty_used);
      EXPECT_EQ(got.dp_solves, want.dp_solves);
      EXPECT_EQ(SerializePlan(got.plan), SerializePlan(want.plan));

      // A fresh solve at the chosen penalty and its own evaluation.
      DeadlineProblem at = p;
      at.penalty_cents = got.penalty_used;
      const DeadlinePlan fresh =
          SolveDeadlineDp(at, lambdas, actions, algorithm, options.dp_options)
              .value();
      EXPECT_EQ(SerializePlan(got.plan), SerializePlan(fresh));
      const PolicyEvaluation eval = EvaluatePolicyNominal(fresh).value();
      for (const PolicyEvaluation* e : {&want.evaluation, &eval}) {
        EXPECT_EQ(got.evaluation.expected_cost_cents, e->expected_cost_cents);
        EXPECT_EQ(got.evaluation.expected_remaining, e->expected_remaining);
        EXPECT_EQ(got.evaluation.prob_unfinished, e->prob_unfinished);
        EXPECT_EQ(got.evaluation.remaining_distribution,
                  e->remaining_distribution);
        EXPECT_EQ(got.evaluation.average_reward_per_task,
                  e->average_reward_per_task);
        EXPECT_EQ(got.evaluation.expected_objective, e->expected_objective);
      }
    }
  }
}

TEST(PenaltySearchTest, ThreadCountsGiveByteIdenticalSearches) {
  // A heavy-supply grid whose layers clear the solver's fan-out grain for
  // both algorithms, and a light one whose layers do not.
  auto acc = Paper();
  auto actions = ActionSet::FromPriceGrid(35, acc).value();
  struct Grid {
    const char* name;
    int num_tasks;
    std::vector<double> lambdas;
    bool clears_grain;
  };
  const Grid grids[] = {
      {"heavy", 800, std::vector<double>(6, 80000.0), true},
      {"light", 40, std::vector<double>(6, 3000.0), false},
  };
  for (const Grid& grid : grids) {
    DeadlineProblem p;
    p.num_tasks = grid.num_tasks;
    p.num_intervals = static_cast<int>(grid.lambdas.size());
    const DeadlineTables tables =
        DeadlineTables::Build(grid.lambdas, actions, p.truncation_epsilon)
            .value();
    for (bool simple : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << grid.name << ", "
                   << (simple ? "Algorithm 1" : "Algorithm 2"));
      EXPECT_EQ(tables.LayerWork(0, p.num_tasks, !simple) >= kLayerFanOutGrain,
                grid.clears_grain);
      BoundSolveOptions options;
      options.algorithm =
          simple ? DpAlgorithm::kSimple : DpAlgorithm::kImproved;
      options.dp_options.num_threads = 1;
      const BoundSolveResult serial =
          SolveForExpectedRemaining(p, grid.lambdas, actions, 0.5, options)
              .value();
      EXPECT_EQ(serial.plan.threads_used, 1);
      for (const int threads : {2, 4}) {
        options.dp_options.num_threads = threads;
        const BoundSolveResult got =
            SolveForExpectedRemaining(p, grid.lambdas, actions, 0.5, options)
                .value();
        EXPECT_EQ(got.plan.threads_used > 1, grid.clears_grain)
            << threads << " threads";
        EXPECT_EQ(got.penalty_used, serial.penalty_used);
        EXPECT_EQ(got.dp_solves, serial.dp_solves);
        EXPECT_EQ(SerializePlan(got.plan), SerializePlan(serial.plan));
      }
    }
  }
}

TEST(PenaltySearchTest, RefusesTablesOfAnotherGrid) {
  auto acc = Paper();
  auto actions = ActionSet::FromPriceGrid(40, acc).value();
  DeadlineProblem p;
  p.num_tasks = 20;
  p.num_intervals = 6;
  const auto lambdas = std::vector<double>(6, 800.0);
  const auto other = DeadlineTables::Build(std::vector<double>(6, 801.0),
                                           actions, p.truncation_epsilon)
                         .value();
  EXPECT_TRUE(SolveForExpectedRemaining(p, lambdas, actions, 1.0, {}, &other)
                  .status()
                  .IsInvalidArgument());
  const auto own =
      DeadlineTables::Build(lambdas, actions, p.truncation_epsilon).value();
  const auto via_own =
      SolveForExpectedRemaining(p, lambdas, actions, 1.0, {}, &own).value();
  const auto built = SolveForExpectedRemaining(p, lambdas, actions, 1.0).value();
  EXPECT_EQ(via_own.penalty_used, built.penalty_used);
  EXPECT_EQ(SerializePlan(via_own.plan), SerializePlan(built.plan));
}

TEST(PenaltySearchTest, MeetsBound) {
  auto acc = Paper();
  auto actions = ActionSet::FromPriceGrid(40, acc).value();
  DeadlineProblem p;
  p.num_tasks = 30;
  p.num_intervals = 8;
  auto lambdas = std::vector<double>(8, 900.0);
  for (double bound : {0.25, 1.0, 4.0}) {
    auto result = SolveForExpectedRemaining(p, lambdas, actions, bound).value();
    EXPECT_LE(result.evaluation.expected_remaining, bound) << "bound " << bound;
    EXPECT_GT(result.penalty_used, 0.0);
    EXPECT_GT(result.dp_solves, 1);
  }
}

TEST(PenaltySearchTest, TighterBoundCostsMore) {
  auto acc = Paper();
  auto actions = ActionSet::FromPriceGrid(40, acc).value();
  DeadlineProblem p;
  p.num_tasks = 30;
  p.num_intervals = 8;
  auto lambdas = std::vector<double>(8, 900.0);
  auto tight = SolveForExpectedRemaining(p, lambdas, actions, 0.1).value();
  auto loose = SolveForExpectedRemaining(p, lambdas, actions, 3.0).value();
  EXPECT_GE(tight.evaluation.expected_cost_cents,
            loose.evaluation.expected_cost_cents - 1e-9);
  EXPECT_GE(tight.penalty_used, loose.penalty_used);
}

TEST(PenaltySearchTest, UnreachableBoundFailsCleanly) {
  auto acc = Paper();
  // Price ceiling of 2 cents: nearly no workers accept, so E[remaining]
  // cannot be pushed near zero.
  auto actions = ActionSet::FromPriceGrid(2, acc).value();
  DeadlineProblem p;
  p.num_tasks = 50;
  p.num_intervals = 4;
  auto lambdas = std::vector<double>(4, 50.0);
  auto result = SolveForExpectedRemaining(p, lambdas, actions, 0.001);
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST(PenaltySearchTest, DynamicBeatsFixedAtMatchedBound) {
  // The core claim of §5.2: at the same E[remaining] threshold, the dynamic
  // policy spends less than the binary-search fixed price.
  auto acc = Paper();
  auto actions = ActionSet::FromPriceGrid(50, acc).value();
  DeadlineProblem p;
  p.num_tasks = 50;
  p.num_intervals = 24;
  auto lambdas = std::vector<double>(24, 122000.0 / 72.0 * (50.0 / 200.0) * 3.0);
  const double bound = 0.5;
  auto dynamic = SolveForExpectedRemaining(p, lambdas, actions, bound).value();
  auto fixed =
      SolveFixedForExpectedRemaining(50, lambdas, acc, 50, bound).value();
  EXPECT_LE(dynamic.evaluation.expected_remaining, bound);
  EXPECT_LT(dynamic.evaluation.expected_cost_cents, fixed.expected_cost_cents);
}

}  // namespace
}  // namespace crowdprice::pricing
