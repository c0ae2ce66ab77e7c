// Figure 14 + Table 4 (§5.4.3): per-trial answer accuracy under the dynamic
// grouping policy, split by the two group sizes the policy actually uses
// (the paper reports 20 and 50; other sizes are rarely chosen).
//
// Paper finding: per-trial means 88-95%, no significant difference between
// the group sizes the dynamic policy toggles between.

#include <cmath>
#include <iostream>

#include "arrival/trace.h"
#include "bench_common.h"
#include "choice/acceptance.h"
#include "market/simulator.h"
#include "pricing/controller.h"
#include "pricing/deadline_dp.h"
#include "stats/descriptive.h"
#include "util/rng.h"
#include "util/table.h"

using namespace crowdprice;

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Figure 14 / Table 4: accuracy under dynamic pricing ===\n\n";
  choice::TabulatedAcceptance acceptance = [&] {
    auto r = choice::TabulatedAcceptance::Create(
        {2.0 / 50, 2.0 / 40, 2.0 / 30, 2.0 / 20, 2.0 / 10},
        {0.0011, 0.0012, 0.0014, 0.0035, 0.0123});
    bench::DieOnError(r.status(), "acceptance");
    return std::move(r).value();
  }();
  BENCH_ASSIGN(arrival::PiecewiseConstantRate full_rate,
               arrival::SyntheticTraceGenerator::TrueRate(bench::PaperMarketConfig()));
  BENCH_ASSIGN(arrival::PiecewiseConstantRate rate, full_rate.Window(8.0, 14.0));

  // Dynamic grouping plan as in bench_fig12.
  std::vector<pricing::PricingAction> raw;
  for (int g : {10, 20, 30, 40, 50}) {
    pricing::PricingAction a;
    a.cost_per_task_cents = 2.0 / g;
    a.bundle = g;
    a.acceptance = acceptance.ProbabilityAt(a.cost_per_task_cents);
    raw.push_back(a);
  }
  pricing::ActionSet actions = [&] {
    auto r = pricing::ActionSet::FromActions(raw);
    bench::DieOnError(r.status(), "actions");
    return std::move(r).value();
  }();
  pricing::DeadlineProblem problem;
  problem.num_tasks = 5000;
  problem.num_intervals = 14;
  problem.penalty_cents = 2.0;
  std::vector<double> lambdas;
  BENCH_ASSIGN(lambdas, rate.IntervalMeans(14.0, 14));
  const engine::PolicyArtifact plan_art = bench::SolveOrDie(
      bench::MakeDeadlineSpec(problem, lambdas, actions,
                              pricing::DpAlgorithm::kSimple),
      "DP");

  market::SimulatorConfig config;
  config.total_tasks = 5000;
  config.horizon_hours = 14.0;
  config.decision_interval_hours = 1.0;
  config.service_minutes_per_task = 0.2;
  config.accuracy.enabled = true;
  config.accuracy.beta_alpha = 30.0;
  config.accuracy.beta_beta = 3.0;
  config.retention.max_rate = 0.5;
  config.retention.half_price_cents = 0.1;

  Rng rng(1414);
  Table table({"trial", "overall acc %", "small-group acc %",
               "large-group acc %", "tasks done"});
  std::vector<double> trial_means;
  bool split_close = true;
  for (int trial = 1; trial <= 5; ++trial) {
    std::unique_ptr<market::PricingController> controller;
    BENCH_ASSIGN(controller, plan_art.MakeController(14.0));
    Rng child = rng.Fork();
    market::SimulationResult result;
    BENCH_ASSIGN(result,
                 market::RunSimulation(config, rate, acceptance, *controller, child));
    // Per-worker accuracy, split by the (first) group size the worker saw.
    // Workers whose HITs were small groups vs large groups.
    stats::RunningStats overall, small_g, large_g;
    size_t event_idx = 0;
    for (const auto& w : result.workers) {
      if (w.tasks < 5) {
        event_idx += static_cast<size_t>(w.hits);
        continue;
      }
      const double acc = 100.0 * w.correct / w.tasks;
      overall.Add(acc);
      // Use the worker's first event's group size for the split.
      if (event_idx < result.events.size()) {
        (result.events[event_idx].group_size <= 20 ? small_g : large_g).Add(acc);
      }
      event_idx += static_cast<size_t>(w.hits);
    }
    trial_means.push_back(overall.mean());
    if (small_g.count() > 20 && large_g.count() > 20) {
      split_close = split_close && std::fabs(small_g.mean() - large_g.mean()) < 4.0;
    }
    bench::DieOnError(
        table.AddRow({StringF("%d", trial), StringF("%.1f", overall.mean()),
                      small_g.count() > 0 ? StringF("%.1f", small_g.mean()) : "-",
                      large_g.count() > 0 ? StringF("%.1f", large_g.mean()) : "-",
                      StringF("%lld", static_cast<long long>(
                                          result.tasks_completed_by_horizon))}),
        "row");
  }
  table.Print(std::cout);
  std::cout << "\n(paper Table 4 overall means: 90.7 / 91.7 / 88.2 / 95.0 / 90.9)\n\n";

  double lo = trial_means[0], hi = trial_means[0];
  for (double m : trial_means) {
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  bench::Check(lo > 85.0 && hi < 95.0,
               "per-trial accuracy means stay near ~90% under dynamic pricing");
  bench::Check(split_close,
               "no meaningful accuracy gap between the small and large group "
               "sizes the policy toggles between (Table 4)");
  return bench::Finish();
}
