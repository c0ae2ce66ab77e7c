#include "pricing/penalty_search.h"

#include <cmath>
#include <optional>
#include <utility>

#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::pricing {

namespace {

struct Attempt {
  DeadlinePlan plan;
  PolicyEvaluation eval;
  double penalty;
};

Result<Attempt> TryPenalty(const DeadlineProblem& base,
                           const std::vector<double>& lambdas,
                           const ActionSet& actions, double penalty,
                           const BoundSolveOptions& options,
                           const DeadlineTables& tables) {
  DeadlineProblem problem = base;
  problem.penalty_cents = penalty;
  CP_ASSIGN_OR_RETURN(
      DeadlinePlan plan,
      SolveDeadlineDp(problem, lambdas, actions, options.algorithm,
                      options.dp_options, &tables));
  CP_ASSIGN_OR_RETURN(PolicyEvaluation eval, EvaluatePolicyNominal(plan));
  return Attempt{std::move(plan), std::move(eval), penalty};
}

}  // namespace

Result<BoundSolveResult> SolveForExpectedRemaining(
    const DeadlineProblem& problem, const std::vector<double>& interval_lambdas,
    const ActionSet& actions, double bound, const BoundSolveOptions& options) {
  return SolveForExpectedRemaining(problem, interval_lambdas, actions, bound,
                                   options, nullptr);
}

Result<BoundSolveResult> SolveForExpectedRemaining(
    const DeadlineProblem& problem, const std::vector<double>& interval_lambdas,
    const ActionSet& actions, double bound, const BoundSolveOptions& options,
    const DeadlineTables* tables) {
  if (!(bound >= 0.0) || !std::isfinite(bound)) {
    return Status::InvalidArgument(
        StringF("bound must be finite, >= 0; got %g", bound));
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (!(options.initial_penalty > 0.0) ||
      !std::isfinite(options.initial_penalty)) {
    return Status::InvalidArgument(
        StringF("initial_penalty must be finite and > 0; got %g",
                options.initial_penalty));
  }
  if (!(options.max_penalty >= options.initial_penalty) ||
      !std::isfinite(options.max_penalty)) {
    return Status::InvalidArgument(
        StringF("max_penalty must be finite and >= initial_penalty %g; got %g",
                options.initial_penalty, options.max_penalty));
  }
  // The tables do not depend on the penalty: build them once for every
  // solve of the search.
  std::optional<DeadlineTables> own_tables;
  if (tables == nullptr) {
    CP_ASSIGN_OR_RETURN(
        own_tables,
        DeadlineTables::Build(interval_lambdas, actions,
                              problem.truncation_epsilon,
                              options.dp_options.share_cache));
    tables = &*own_tables;
  }
  int solves = 0;
  // Bracket: grow the penalty until the bound is met.
  double hi = options.initial_penalty;
  std::optional<Attempt> feasible;
  while (true) {
    CP_ASSIGN_OR_RETURN(
        Attempt attempt,
        TryPenalty(problem, interval_lambdas, actions, hi, options, *tables));
    ++solves;
    if (attempt.eval.expected_remaining <= bound) {
      feasible = std::move(attempt);
      break;
    }
    hi *= 4.0;
    if (hi > options.max_penalty) {
      return Status::FailedPrecondition(
          StringF("bound %g unreachable: even penalty %g leaves E[remaining] "
                  "= %g (price ceiling or worker supply too low)",
                  bound, hi / 4.0, attempt.eval.expected_remaining));
    }
  }
  // Bisect [lo, hi]: lo infeasible (or zero), hi feasible.
  double lo = hi > options.initial_penalty ? hi / 4.0 : 0.0;
  for (int i = 0; i < options.max_iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;  // resolution exhausted
    CP_ASSIGN_OR_RETURN(
        Attempt attempt,
        TryPenalty(problem, interval_lambdas, actions, mid, options, *tables));
    ++solves;
    if (attempt.eval.expected_remaining <= bound) {
      hi = mid;
      feasible = std::move(attempt);
    } else {
      lo = mid;
    }
  }
  BoundSolveResult result{std::move(feasible->plan), std::move(feasible->eval),
                          feasible->penalty, solves};
  return result;
}

}  // namespace crowdprice::pricing
