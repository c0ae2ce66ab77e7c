// SolveWave tests: batched solving over the SolverPool farm is
// bit-identical to sequential Engine::Solve (Serialize() equality), for
// any pool size; mixed-kind waves keep spec order with per-slot errors;
// coinciding rate profiles share one table set, built once through the
// wave's cache; and evaluate=true precomputes the same nominal evaluation
// Evaluate() would.

#include "engine/solve_wave.h"

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "kernel/pmf_cache.h"
#include "pricing/policy_eval.h"

#include "test_util.h"

namespace crowdprice::engine {
namespace {

const choice::LogitAcceptance& PaperAcceptance() {
  static const choice::LogitAcceptance acceptance =
      choice::LogitAcceptance::Paper2014();
  return acceptance;
}

DeadlineDpSpec DeadlineSpec(int num_tasks, double lambda,
                            double penalty = 180.0) {
  DeadlineDpSpec spec;
  spec.problem.num_tasks = num_tasks;
  spec.problem.num_intervals = 6;
  spec.problem.penalty_cents = penalty;
  spec.interval_lambdas.assign(6, lambda);
  spec.actions = pricing::ActionSet::FromPriceGrid(30, PaperAcceptance()).value();
  return spec;
}

// A fleet-shaped wave: many campaigns stamped from few rate profiles (the
// sharing opportunity SolveWave exists for), plus non-deadline kinds.
std::vector<PolicySpec> MixedWave() {
  std::vector<PolicySpec> specs;
  for (int i = 0; i < 6; ++i) {
    // Two distinct profiles, three campaigns each; tasks vary per campaign.
    specs.push_back(DeadlineSpec(15 + i, i % 2 == 0 ? 1400.0 : 2100.0));
  }
  // One more profile repeated at other sizes and penalties, on either
  // algorithm, plus a bound-mode campaign whose penalty search runs over
  // the same grid.
  for (int i = 0; i < 3; ++i) {
    DeadlineDpSpec spec = DeadlineSpec(10 + 7 * i, 1750.0, 60.0 + 90.0 * i);
    if (i == 1) spec.algorithm = pricing::DpAlgorithm::kSimple;
    specs.push_back(spec);
  }
  DeadlineDpSpec bounded = DeadlineSpec(24, 1750.0);
  bounded.expected_remaining_bound = 0.5;
  specs.push_back(bounded);
  FixedPriceSpec fixed;
  fixed.num_tasks = 20;
  fixed.interval_lambdas.assign(6, 1500.0);
  fixed.acceptance = &PaperAcceptance();
  fixed.max_price_cents = 40;
  specs.push_back(fixed);
  BudgetStaticSpec budget;
  budget.num_tasks = 40;
  budget.budget_cents = 600.0;
  budget.acceptance = &PaperAcceptance();
  budget.max_price_cents = 40;
  specs.push_back(budget);
  return specs;
}

TEST(SolveWaveTest, BitIdenticalToSequentialSolveForAnyPoolSize) {
  std::vector<PolicySpec> specs = MixedWave();
  std::vector<std::string> sequential;
  for (const PolicySpec& spec : specs) {
    auto artifact = Engine::Solve(spec);
    ASSERT_TRUE(artifact.ok()) << artifact.status();
    sequential.push_back(artifact->Serialize().value());
  }

  for (int threads : {1, 2, 3}) {
    SolverPool pool(threads);
    kernel::PmfShareCache cache;
    SolveWaveOptions options;
    options.pool = &pool;
    options.share_cache = &cache;
    auto results = SolveWave(specs, options);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << "pool=" << threads << " slot " << i << ": "
          << results[i].status();
      EXPECT_EQ(results[i]->Serialize().value(), sequential[i])
          << "pool=" << threads << " slot " << i;
    }
  }
}

TEST(SolveWaveTest, CoincidingProfilesSharePmfBlocks) {
  std::vector<PolicySpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(DeadlineSpec(20 + i, 1700.0));  // one shared profile
  }
  SolverPool pool(2);
  kernel::PmfShareCache cache;
  SolveWaveOptions options;
  options.pool = &pool;
  options.share_cache = &cache;
  auto results = SolveWave(specs, options);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status();
  const kernel::PmfArena::Stats stats = cache.stats();
  // Four campaigns on one rate profile share one grid: the wave builds its
  // tables once, requesting each distinct rate's block from the cache
  // exactly once, and every campaign solves over them.
  std::set<double> rates;
  for (const pricing::PricingAction& a :
       specs[0].get<DeadlineDpSpec>().actions->actions()) {
    rates.insert(1700.0 * a.acceptance);
  }
  EXPECT_EQ(stats.blocks_built, static_cast<int64_t>(rates.size()));
  EXPECT_EQ(stats.blocks_shared, 0);
  EXPECT_GT(cache.resident_bytes(), 0u);
}

TEST(SolveWaveTest, PerSlotErrorsNeverPoisonTheWave) {
  std::vector<PolicySpec> specs;
  specs.push_back(DeadlineSpec(15, 1400.0));
  DeadlineDpSpec bad = DeadlineSpec(15, 1400.0);
  bad.actions.reset();  // Solve rejects a spec without actions
  specs.push_back(bad);
  specs.push_back(DeadlineSpec(18, 2100.0));

  SolverPool pool(2);
  auto results = SolveWave(specs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_TRUE(results[1].status().IsInvalidArgument());
  EXPECT_TRUE(results[2].ok()) << results[2].status();
}

TEST(SolveWaveTest, FailedGridBuildGivesEachCampaignItsSequentialError) {
  // Two campaigns on a grid whose tables cannot be built, and one whose
  // grid is fine but whose problem is not: every slot fails exactly as
  // sequential Engine::Solve does.
  std::vector<PolicySpec> specs;
  for (int n : {12, 14}) {
    DeadlineDpSpec bad_rates = DeadlineSpec(n, 1400.0);
    bad_rates.interval_lambdas[2] = -5.0;
    specs.push_back(bad_rates);
  }
  DeadlineDpSpec bad_problem = DeadlineSpec(0, 1400.0);
  specs.push_back(bad_problem);
  specs.push_back(DeadlineSpec(16, 1400.0));

  SolverPool pool(2);
  SolveWaveOptions options;
  options.pool = &pool;
  auto results = SolveWave(specs, options);
  ASSERT_EQ(results.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    auto sequential = Engine::Solve(specs[i]);
    EXPECT_EQ(results[i].status().ToString(), sequential.status().ToString())
        << "slot " << i;
  }
  EXPECT_FALSE(results[0].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_TRUE(results[3].ok()) << results[3].status();
}

TEST(SolveWaveTest, EvaluateFlagPrecomputesNominalEvaluation) {
  std::vector<PolicySpec> specs;
  specs.push_back(DeadlineSpec(15, 1400.0));
  specs.push_back(DeadlineSpec(22, 2100.0));

  SolverPool pool(2);
  kernel::PmfShareCache cache;
  SolveWaveOptions options;
  options.pool = &pool;
  options.share_cache = &cache;
  options.evaluate = true;
  auto results = SolveWave(specs, options);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    auto cached = results[i]->deadline_evaluation();
    ASSERT_TRUE(cached.ok()) << cached.status();
    // The precomputed evaluation is the same nominal forward pass a
    // sequential Evaluate() call runs.
    auto sequential = Engine::Solve(specs[i]);
    ASSERT_TRUE(sequential.ok());
    auto eval = sequential->Evaluate();
    ASSERT_TRUE(eval.ok()) << eval.status();
    EXPECT_DOUBLE_EQ((*cached)->expected_objective, eval->expected_objective);
    EXPECT_DOUBLE_EQ((*cached)->expected_cost_cents, eval->expected_cost_cents);
    EXPECT_DOUBLE_EQ((*cached)->expected_remaining, eval->expected_remaining);
  }
}

TEST(SolveWaveTest, AdaptiveSpecsPassThroughUntouched) {
  AdaptiveSpec adaptive;
  adaptive.problem.num_tasks = 15;
  adaptive.problem.num_intervals = 4;
  adaptive.problem.penalty_cents = 120.0;
  adaptive.believed_lambdas.assign(4, 300.0);
  adaptive.actions = pricing::ActionSet::FromPriceGrid(25, PaperAcceptance()).value();
  adaptive.horizon_hours = 8.0;
  std::vector<PolicySpec> specs;
  specs.push_back(adaptive);

  SolverPool pool(1);
  SolveWaveOptions options;
  options.pool = &pool;
  auto results = SolveWave(specs, options);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[0]->kind(), PolicyKind::kAdaptive);
  auto controller = results[0]->MakeAdaptiveController();
  ASSERT_TRUE(controller.ok()) << controller.status();
  auto offer = test_util::SingleOffer(*controller, 0.0, 15);
  ASSERT_TRUE(offer.ok()) << offer.status();
}

TEST(SolveWaveTest, PoolCountersBalanceAfterWaves) {
  SolverPool pool(2);
  std::vector<PolicySpec> specs;
  for (int i = 0; i < 5; ++i) specs.push_back(DeadlineSpec(12 + i, 1600.0));
  SolveWaveOptions options;
  options.pool = &pool;
  options.share_cache = nullptr;  // sharing off is also a supported mode
  auto results = SolveWave(specs, options);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(pool.submitted(), 5);
  // A worker counts its job after the job has delivered its result, so the
  // last count can land just after SolveWave returns.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.completed() < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.completed(), 5);
}

}  // namespace
}  // namespace crowdprice::engine
