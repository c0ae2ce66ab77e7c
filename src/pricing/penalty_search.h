// Penalty <-> bound duality (paper §3.3, Theorem 2).
//
// The MDP optimizes E[cost] + Penalty * E[remaining]. Users usually want
// the dual form: minimize E[cost] subject to E[remaining] <= Bound. By
// Theorem 2 the two coincide for a suitable Penalty, found here by binary
// search (E[remaining] is non-increasing in Penalty).
//
// The pmf tables do not depend on the penalty, so a search builds its
// grid's DeadlineTables once (through dp_options.share_cache when set) and
// runs every DP solve over them; each nominal evaluation then replays the
// same tables through the plan (pricing/policy_eval.h). A caller that
// already holds the grid's tables -- engine::SolveWave -- hands them in.

#ifndef CROWDPRICE_PRICING_PENALTY_SEARCH_H_
#define CROWDPRICE_PRICING_PENALTY_SEARCH_H_

#include <vector>

#include "pricing/deadline_dp.h"
#include "pricing/policy_eval.h"
#include "util/result.h"

namespace crowdprice::pricing {

struct BoundSolveOptions {
  /// Bisection iterations after bracketing (each is one DP solve).
  int max_iterations = 24;
  /// Initial upper bracket for Penalty; grows geometrically if needed.
  /// Must be finite and > 0.
  double initial_penalty = 100.0;
  /// Growth cap: give up if Penalty exceeds this without meeting the bound.
  /// Must be finite and >= initial_penalty.
  double max_penalty = 1e9;
  /// The inner solves' algorithm; kSimple (Algorithm 1) is required for
  /// bundled (multi-task HIT) action sets.
  DpAlgorithm algorithm = DpAlgorithm::kImproved;
  DpOptions dp_options;
};

struct BoundSolveResult {
  DeadlinePlan plan;
  PolicyEvaluation evaluation;
  double penalty_used = 0.0;
  int dp_solves = 0;
};

/// Finds the smallest penalty (within bisection resolution) whose optimal
/// policy satisfies E[remaining] <= bound, and returns that policy. The
/// problem's penalty_cents field is ignored (overwritten by the search).
/// bound must be >= 0; an unreachable bound yields FailedPrecondition.
Result<BoundSolveResult> SolveForExpectedRemaining(
    const DeadlineProblem& problem, const std::vector<double>& interval_lambdas,
    const ActionSet& actions, double bound,
    const BoundSolveOptions& options = {});

/// The same search over prebuilt tables for this grid (see
/// SolveDeadlineDp; InvalidArgument if they were built for another grid).
/// Null builds them, exactly as the overload above does.
Result<BoundSolveResult> SolveForExpectedRemaining(
    const DeadlineProblem& problem, const std::vector<double>& interval_lambdas,
    const ActionSet& actions, double bound, const BoundSolveOptions& options,
    const DeadlineTables* tables);

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_PENALTY_SEARCH_H_
