// Seeded input generation for every workload. The benchmark derives all
// of a run's inputs from --seed through these functions and hands the
// library only their output, so one seed always means one input set.
//
// Workload properties the library's behaviour depends on are fixed here
// and stratified rather than drawn freely, so runs with different seeds
// carry the same amount of work: campaign sizes and rate levels are spread
// evenly across their ranges and only jittered by the seed.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/policy_artifact.h"
#include "engine/policy_spec.h"
#include "pricing/action.h"
#include "serving/campaign_shard_map.h"
#include "util/rng.h"

namespace perfbench {

namespace cp = crowdprice;

// --- decide workloads ------------------------------------------------------

/// Shape of the artifact-backed fleet both decide workloads serve.
struct FleetShape {
  int artifacts = 32;         ///< Distinct solved policies in the pool.
  int campaigns = 4096;       ///< Base campaigns (decide targets).
  int churn_campaigns = 0;    ///< Extra campaigns the control stream cycles.
  int num_intervals = 12;     ///< Deadline intervals (1 hour each).
  int min_tasks = 10;
  int max_tasks = 40;
};

/// Everything a fleet is built from: the artifact pool's specs and, per
/// campaign (base first, then churn), which artifact it plays.
struct FleetPlan {
  FleetShape shape;
  std::vector<cp::engine::DeadlineDpSpec> artifact_specs;
  std::vector<int> campaign_artifact;  ///< Index into artifact_specs.

  cp::serving::CampaignLimits LimitsFor(int artifact) const;
  /// Campaign ids are assigned explicitly: base campaign i has id i + 1,
  /// churn campaign j has id campaigns + j + 1.
  cp::serving::CampaignId BaseId(int i) const {
    return static_cast<cp::serving::CampaignId>(i + 1);
  }
};

FleetPlan MakeFleetPlan(uint64_t seed, const FleetShape& shape);

/// The fleets of decide_direct (4096 campaigns) and decide_routed_churn
/// (512 base + 64 churn campaigns).
FleetShape DecideFleetShape(bool routed);

/// Solves the plan's artifact pool (Engine::Solve, fixed penalty).
cp::Result<std::vector<std::shared_ptr<const cp::engine::PolicyArtifact>>>
SolveArtifactPool(const FleetPlan& plan);

using Frame = std::vector<cp::serving::DecideRequest>;

/// `count` decide frames of [min_size, max_size] requests each against
/// the plan's base campaigns: uniform campaign, wall clock uniform inside
/// the deadline, remaining tasks uniform in [1, N].
std::vector<Frame> MakeFrames(cp::Rng& rng, const FleetPlan& plan, int count,
                              int min_size, int max_size);

inline constexpr int kMaxFrameRequests = 16;
inline constexpr int kSweepRequests = 600;

/// The pool of 1-16 request frames a decide workload cycles through.
std::vector<Frame> DecideFrames(uint64_t seed, const FleetPlan& plan);
/// The routed workload's sweep batches (kSweepRequests requests each).
std::vector<Frame> SweepFrames(uint64_t seed, const FleetPlan& plan);

/// One control-stream cycle's random draws; the cycle is admit, swap,
/// tick, retire-oldest, so the live churn set stays the same size.
struct ControlCycle {
  int admit_artifact = 0;
  int swap_artifact = 0;
  uint64_t swap_pick = 0;   ///< Picks the swapped campaign among live ones.
  uint64_t tick_pick = 0;   ///< Picks the ticked campaign among live ones.
  double tick_hours = 0.0;  ///< Inside every campaign's deadline.
  int64_t tick_remaining = 1;
};

std::vector<ControlCycle> ControlCycles(uint64_t seed, const FleetPlan& plan,
                                        int count);

// --- solve workloads -------------------------------------------------------

/// The unit-bundle price grid {0..max_price} under the paper's logit
/// acceptance function.
cp::pricing::ActionSet PriceGrid(int max_price_cents);

struct WaveShape {
  int campaigns = 2048;  ///< Wave size.
  int profiles = 16;     ///< Rate profiles the campaigns are stamped from.
  int num_intervals = 24;
  int min_tasks = 8;
  int max_tasks = 40;
};

/// One wave of fixed-penalty deadline specs. Campaign i plays profile
/// i % profiles (profile rate levels are stratified over [300, 2500]
/// arrivals per interval), so pmf blocks repeat across the wave.
std::vector<cp::engine::PolicySpec> MakeWaveSpecs(
    cp::Rng& rng, const WaveShape& shape,
    const cp::pricing::ActionSet& actions);

struct InteractiveShape {
  int num_intervals = 72;
  int min_tasks = 200;
  int max_tasks = 1000;
  int strata = 9;  ///< Size strata per cycle (evenly spaced N).
  double bound = 0.5;  ///< E[remaining] target.
};

/// solve_wave's wave at this seed (default shape, 21-price grid).
std::vector<cp::engine::PolicySpec> WorkloadWave(uint64_t seed);

/// `count` bound-mode deadline specs. Sizes walk a seeded permutation of
/// evenly spaced strata; every campaign gets its own rates (distinct bits),
/// scaled so the supply at the top price is about twice N.
std::vector<cp::engine::DeadlineDpSpec> MakeInteractiveSpecs(
    cp::Rng& rng, const InteractiveShape& shape,
    const cp::pricing::ActionSet& actions, int count);

/// solve_interactive's campaigns at this seed (default shape, 21-price
/// grid), and its fixed-size (N = 600) warm-up campaign.
std::vector<cp::engine::DeadlineDpSpec> WorkloadInteractiveSpecs(uint64_t seed,
                                                                 int count);
cp::engine::DeadlineDpSpec InteractiveWarmupSpec(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
