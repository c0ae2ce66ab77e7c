// engine::SolveWave -- batched policy production over the solve farm.
//
// A fleet re-prices campaigns in waves: thousands of PolicySpecs at once,
// most of them small deadline solves stamped from a handful of rate
// profiles. SolveWave fans the specs out across a SolverPool (one job per
// spec; the caller's thread helps drain the queue instead of sleeping).
//
// Where the pmf tables are built: a deadline solve's truncated-Poisson
// tables depend only on its rate grid (interval means, action
// acceptances, truncation epsilon; see pricing::DeadlineTables). The wave
// groups its deadline specs, bound-mode ones included, by the exact bits
// of their grid. The first job of each group builds the grid's tables
// once, through the wave's PmfShareCache (so later waves on the same
// profiles adopt the blocks), then fans the group's other campaigns out;
// every campaign -- each step of a bound-mode penalty search too -- solves
// over that one set, and the nominal evaluations replay it.
//
// Determinism: each artifact is bit-identical to what sequential
// Engine::Solve(spec) produces for the same spec -- a grid's tables hold
// the same bytes whoever builds them (the cache keys are exact rate bits,
// kernel/pmf_cache.h) and deadline plans are thread-count-independent, so
// scheduling changes nothing. Results arrive in spec order, errors per
// slot (one bad spec never poisons the wave; a grid whose tables fail to
// build leaves its campaigns to fail exactly as Engine::Solve would).
//
// Non-deadline kinds (including adaptive, whose DP solves happen later
// inside controllers) pass through to Engine::Solve untouched: their
// artifacts may outlive the wave, so no wave-scoped cache pointer is ever
// planted in them.

#ifndef CROWDPRICE_ENGINE_SOLVE_WAVE_H_
#define CROWDPRICE_ENGINE_SOLVE_WAVE_H_

#include <span>
#include <vector>

#include "engine/engine.h"
#include "engine/solver_pool.h"
#include "kernel/pmf_cache.h"
#include "util/result.h"

namespace crowdprice::engine {

struct SolveWaveOptions {
  /// Farm to run on; null uses SolverPool::Shared().
  SolverPool* pool = nullptr;
  /// Cache the wave's per-grid table builds go through (and, with
  /// `evaluate`, any forward pass that cannot replay its plan's tables).
  /// Null builds privately; the default is the process-wide cache.
  kernel::PmfShareCache* share_cache = &kernel::PmfShareCache::Global();
  /// Also run the kernel-backed nominal evaluation of every deadline
  /// artifact (PolicyArtifact::PrecomputeEvaluation), still inside the
  /// farm jobs -- the batched replacement for a sequential per-campaign
  /// Evaluate() loop.
  bool evaluate = false;
};

/// Solves every spec, fanned out over the farm; results in spec order.
/// Blocks until the whole wave is done (the calling thread participates in
/// the work). Safe to call concurrently from several threads against the
/// same pool -- waves interleave without blocking each other.
std::vector<Result<PolicyArtifact>> SolveWave(
    std::span<const PolicySpec> specs, const SolveWaveOptions& options = {});

}  // namespace crowdprice::engine

#endif  // CROWDPRICE_ENGINE_SOLVE_WAVE_H_
