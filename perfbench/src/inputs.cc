#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "choice/acceptance.h"
#include "engine/engine.h"

namespace perfbench {

namespace {

constexpr int kDecideMaxPrice = 20;
constexpr int kSolveMaxPrice = 20;
constexpr double kDecidePenaltyCents = 200.0;

// Per-interval worker means whose accepted supply at the top price sums to
// `supply_over_n` * num_tasks, with a seeded diurnal shape and per-interval
// jitter (so no two campaigns share rate bits unless stamped on purpose).
std::vector<double> ScaledRates(cp::Rng& rng, int num_intervals, int num_tasks,
                                double supply_over_n, double top_acceptance,
                                double jitter) {
  const double phase = 2.0 * std::numbers::pi * rng.NextDouble();
  std::vector<double> shape(static_cast<size_t>(num_intervals));
  double total = 0.0;
  for (int t = 0; t < num_intervals; ++t) {
    const double diurnal =
        1.0 + 0.5 * std::sin(2.0 * std::numbers::pi * t / 24.0 + phase);
    shape[static_cast<size_t>(t)] =
        diurnal * (1.0 + jitter * (2.0 * rng.NextDouble() - 1.0));
    total += shape[static_cast<size_t>(t)];
  }
  const double scale = supply_over_n * num_tasks / (top_acceptance * total);
  for (double& s : shape) s *= scale;
  return shape;
}

// Value k of `count` evenly spaced points over [lo, hi], jittered within
// its stratum by the seed.
double Stratified(cp::Rng& rng, int k, int count, double lo, double hi) {
  return lo + (hi - lo) * (k + rng.NextDouble()) / count;
}

}  // namespace

cp::pricing::ActionSet PriceGrid(int max_price_cents) {
  static const cp::choice::LogitAcceptance kAcceptance =
      cp::choice::LogitAcceptance::Paper2014();
  // The paper's logit is increasing, so the grid always validates.
  return cp::pricing::ActionSet::FromPriceGrid(max_price_cents, kAcceptance)
      .value();
}

cp::serving::CampaignLimits FleetPlan::LimitsFor(int artifact) const {
  cp::serving::CampaignLimits limits;
  limits.total_tasks =
      artifact_specs[static_cast<size_t>(artifact)].problem.num_tasks;
  limits.deadline_hours = shape.num_intervals;
  return limits;
}

FleetShape DecideFleetShape(bool routed) {
  FleetShape shape;
  if (routed) {
    shape.campaigns = 512;
    shape.churn_campaigns = 64;
  }
  return shape;
}

FleetPlan MakeFleetPlan(uint64_t seed, const FleetShape& shape) {
  cp::Rng rng(seed ^ 0xdec1de);
  FleetPlan plan;
  plan.shape = shape;
  const cp::pricing::ActionSet actions = PriceGrid(kDecideMaxPrice);
  const double top = actions.actions().back().acceptance;
  for (int a = 0; a < shape.artifacts; ++a) {
    cp::engine::DeadlineDpSpec spec;
    spec.problem.num_tasks = static_cast<int>(
        Stratified(rng, a, shape.artifacts, shape.min_tasks,
                   shape.max_tasks + 1));
    spec.problem.num_intervals = shape.num_intervals;
    spec.problem.penalty_cents = kDecidePenaltyCents;
    const double supply = Stratified(rng, a, shape.artifacts, 1.0, 2.0);
    spec.interval_lambdas = ScaledRates(rng, shape.num_intervals,
                                        spec.problem.num_tasks, supply, top,
                                        0.1);
    spec.actions = actions;
    plan.artifact_specs.push_back(std::move(spec));
  }
  const int total = shape.campaigns + shape.churn_campaigns;
  for (int i = 0; i < total; ++i) {
    plan.campaign_artifact.push_back(
        static_cast<int>(rng.UniformInt(0, shape.artifacts - 1)));
  }
  return plan;
}

cp::Result<std::vector<std::shared_ptr<const cp::engine::PolicyArtifact>>>
SolveArtifactPool(const FleetPlan& plan) {
  std::vector<std::shared_ptr<const cp::engine::PolicyArtifact>> pool;
  for (const cp::engine::DeadlineDpSpec& spec : plan.artifact_specs) {
    cp::Result<cp::engine::PolicyArtifact> solved =
        cp::engine::Engine::Solve(spec);
    if (!solved.ok()) return solved.status();
    pool.push_back(std::make_shared<const cp::engine::PolicyArtifact>(
        std::move(solved).value()));
  }
  return pool;
}

std::vector<Frame> MakeFrames(cp::Rng& rng, const FleetPlan& plan, int count,
                              int min_size, int max_size) {
  std::vector<Frame> frames(static_cast<size_t>(count));
  for (Frame& frame : frames) {
    const auto size = rng.UniformInt(min_size, max_size);
    frame.reserve(static_cast<size_t>(size));
    for (int64_t r = 0; r < size; ++r) {
      const auto i =
          static_cast<int>(rng.UniformInt(0, plan.shape.campaigns - 1));
      const int artifact = plan.campaign_artifact[static_cast<size_t>(i)];
      const cp::serving::CampaignLimits limits = plan.LimitsFor(artifact);
      const double now = limits.deadline_hours * rng.NextDouble();
      frame.push_back(cp::serving::DecideRequest::Single(
          plan.BaseId(i), now, rng.UniformInt(1, limits.total_tasks)));
    }
  }
  return frames;
}

std::vector<Frame> DecideFrames(uint64_t seed, const FleetPlan& plan) {
  cp::Rng rng(seed ^ 0xf4a3e5);
  return MakeFrames(rng, plan, 4096, 1, kMaxFrameRequests);
}

std::vector<Frame> SweepFrames(uint64_t seed, const FleetPlan& plan) {
  cp::Rng rng(seed ^ 0x5ee9);
  return MakeFrames(rng, plan, 8, kSweepRequests, kSweepRequests);
}

std::vector<ControlCycle> ControlCycles(uint64_t seed, const FleetPlan& plan,
                                        int count) {
  cp::Rng rng(seed ^ 0xc0de);
  std::vector<ControlCycle> cycles(static_cast<size_t>(count));
  const int last = plan.shape.artifacts - 1;
  for (ControlCycle& c : cycles) {
    c.admit_artifact = static_cast<int>(rng.UniformInt(0, last));
    c.swap_artifact = static_cast<int>(rng.UniformInt(0, last));
    c.swap_pick = rng.NextUint64();
    c.tick_pick = rng.NextUint64();
    // Strictly inside the deadline with tasks left: a tick that keeps the
    // campaign live.
    c.tick_hours = (plan.shape.num_intervals - 1) * rng.NextDouble();
    c.tick_remaining = rng.UniformInt(1, plan.shape.min_tasks);
  }
  return cycles;
}

std::vector<cp::engine::PolicySpec> MakeWaveSpecs(
    cp::Rng& rng, const WaveShape& shape,
    const cp::pricing::ActionSet& actions) {
  struct Profile {
    std::vector<double> lambdas;
    double penalty = 0.0;
  };
  std::vector<Profile> profiles;
  for (int p = 0; p < shape.profiles; ++p) {
    const double level = Stratified(rng, p, shape.profiles, 300.0, 2500.0);
    const double phase = 2.0 * std::numbers::pi * rng.NextDouble();
    Profile profile;
    for (int t = 0; t < shape.num_intervals; ++t) {
      profile.lambdas.push_back(
          level * (1.0 + 0.4 * std::sin(2.0 * std::numbers::pi * t /
                                            shape.num_intervals +
                                        phase)));
    }
    profile.penalty = 150.0 + 10.0 * p;
    profiles.push_back(std::move(profile));
  }
  std::vector<cp::engine::PolicySpec> specs;
  specs.reserve(static_cast<size_t>(shape.campaigns));
  for (int i = 0; i < shape.campaigns; ++i) {
    const Profile& profile =
        profiles[static_cast<size_t>(i % shape.profiles)];
    cp::engine::DeadlineDpSpec spec;
    spec.problem.num_tasks =
        static_cast<int>(rng.UniformInt(shape.min_tasks, shape.max_tasks));
    spec.problem.num_intervals = shape.num_intervals;
    spec.problem.penalty_cents = profile.penalty;
    spec.interval_lambdas = profile.lambdas;
    spec.actions = actions;
    specs.emplace_back(std::move(spec));
  }
  return specs;
}

std::vector<cp::engine::DeadlineDpSpec> MakeInteractiveSpecs(
    cp::Rng& rng, const InteractiveShape& shape,
    const cp::pricing::ActionSet& actions, int count) {
  const double top = actions.actions().back().acceptance;
  std::vector<int> order(static_cast<size_t>(shape.strata));
  std::vector<cp::engine::DeadlineDpSpec> specs;
  for (int i = 0; i < count; ++i) {
    const int slot = i % shape.strata;
    if (slot == 0) {
      // A fresh seeded permutation of the strata every cycle.
      for (int k = 0; k < shape.strata; ++k) order[static_cast<size_t>(k)] = k;
      for (int k = shape.strata - 1; k > 0; --k) {
        std::swap(order[static_cast<size_t>(k)],
                  order[static_cast<size_t>(rng.UniformInt(0, k))]);
      }
    }
    cp::engine::DeadlineDpSpec spec;
    spec.problem.num_tasks = static_cast<int>(
        Stratified(rng, order[static_cast<size_t>(slot)], shape.strata,
                   shape.min_tasks, shape.max_tasks + 1));
    spec.problem.num_intervals = shape.num_intervals;
    const double supply = 1.9 + 0.2 * rng.NextDouble();
    spec.interval_lambdas = ScaledRates(rng, shape.num_intervals,
                                        spec.problem.num_tasks, supply, top,
                                        0.1);
    spec.actions = actions;
    spec.expected_remaining_bound = shape.bound;
    specs.push_back(std::move(spec));
  }
  return specs;
}


std::vector<cp::engine::PolicySpec> WorkloadWave(uint64_t seed) {
  cp::Rng rng(seed ^ 0x3a7e);
  return MakeWaveSpecs(rng, WaveShape{}, PriceGrid(kSolveMaxPrice));
}

std::vector<cp::engine::DeadlineDpSpec> WorkloadInteractiveSpecs(uint64_t seed,
                                                                 int count) {
  cp::Rng rng(seed ^ 0x1e7a);
  return MakeInteractiveSpecs(rng, InteractiveShape{},
                              PriceGrid(kSolveMaxPrice), count);
}

cp::engine::DeadlineDpSpec InteractiveWarmupSpec(uint64_t seed) {
  cp::Rng rng(seed ^ 0x3a3a);
  InteractiveShape shape;
  shape.min_tasks = shape.max_tasks = 600;
  shape.strata = 1;
  return MakeInteractiveSpecs(rng, shape, PriceGrid(kSolveMaxPrice), 1)
      .front();
}

}  // namespace perfbench
