#include "engine/engine.h"

#include <utility>
#include <variant>

#include "pricing/budget.h"
#include "pricing/deadline_dp.h"
#include "pricing/fixed_price.h"
#include "pricing/multitype.h"
#include "pricing/penalty_search.h"
#include "pricing/policy_eval.h"
#include "pricing/tradeoff.h"
#include "util/macros.h"

namespace crowdprice::engine {

namespace {

Result<PolicyArtifact> SolveSpec(const DeadlineDpSpec& s) {
  return Engine::SolveDeadline(s, nullptr);
}

Result<PolicyArtifact> SolveSpec(const BudgetStaticSpec& s) {
  if (s.acceptance == nullptr) {
    return Status::InvalidArgument("BudgetStaticSpec.acceptance is required");
  }
  if (s.method == BudgetStaticSpec::Method::kExactDp) {
    CP_ASSIGN_OR_RETURN(
        pricing::StaticPriceAssignment assignment,
        pricing::SolveBudgetExactDp(static_cast<int>(s.num_tasks),
                                    static_cast<int>(s.budget_cents),
                                    *s.acceptance, s.max_price_cents));
    return PolicyArtifact(std::move(assignment));
  }
  CP_ASSIGN_OR_RETURN(pricing::StaticPriceAssignment assignment,
                      pricing::SolveBudgetLp(s.num_tasks, s.budget_cents,
                                             *s.acceptance, s.max_price_cents));
  return PolicyArtifact(std::move(assignment));
}

Result<PolicyArtifact> SolveSpec(const FixedPriceSpec& s) {
  if (s.acceptance == nullptr) {
    return Status::InvalidArgument("FixedPriceSpec.acceptance is required");
  }
  Result<pricing::FixedPriceSolution> solution = Status::OK();
  switch (s.criterion) {
    case FixedPriceSpec::Criterion::kExpectedCompletion:
      solution = pricing::SolveFixedForExpectedCompletion(
          s.num_tasks, s.interval_lambdas, *s.acceptance, s.max_price_cents);
      break;
    case FixedPriceSpec::Criterion::kQuantile:
      solution = pricing::SolveFixedForQuantile(
          s.num_tasks, s.interval_lambdas, *s.acceptance, s.max_price_cents,
          s.threshold);
      break;
    case FixedPriceSpec::Criterion::kExpectedRemaining:
      solution = pricing::SolveFixedForExpectedRemaining(
          s.num_tasks, s.interval_lambdas, *s.acceptance, s.max_price_cents,
          s.threshold);
      break;
  }
  CP_RETURN_IF_ERROR(solution.status());
  return PolicyArtifact(std::move(solution).value());
}

Result<PolicyArtifact> SolveSpec(const AdaptiveSpec& s) {
  if (!s.actions.has_value()) {
    return Status::InvalidArgument("AdaptiveSpec.actions is required");
  }
  // Validate eagerly so a bad spec fails at Solve time, not mid-campaign.
  CP_RETURN_IF_ERROR(pricing::AdaptiveRateController::Create(
                         s.problem, s.believed_lambdas, *s.actions,
                         s.horizon_hours, s.options)
                         .status());
  return PolicyArtifact(AdaptivePolicy{s.problem, s.believed_lambdas,
                                       *s.actions, s.horizon_hours, s.options});
}

Result<PolicyArtifact> SolveSpec(const MultiTypeSpec& s) {
  CP_ASSIGN_OR_RETURN(
      pricing::JointLogitAcceptance joint,
      pricing::JointLogitAcceptance::Create(s.s1, s.b1, s.s2, s.b2, s.m));
  pricing::MultiTypeOptions options;
  options.kernel_backend = s.kernel_backend;
  CP_ASSIGN_OR_RETURN(pricing::MultiTypePlan plan,
                      pricing::SolveMultiType(s.problem, s.interval_lambdas,
                                              joint, options));
  return PolicyArtifact(std::move(plan));
}

Result<PolicyArtifact> SolveSpec(const TradeoffSpec& s) {
  if (s.acceptance == nullptr) {
    return Status::InvalidArgument("TradeoffSpec.acceptance is required");
  }
  Result<pricing::TradeoffSolution> solution =
      s.model == TradeoffSpec::Model::kFixedRate
          ? pricing::SolveFixedRateTradeoff(s.rate, *s.acceptance, s.alpha,
                                            s.max_price_cents,
                                            s.two_completion_tolerance)
          : pricing::SolveWorkerArrivalTradeoff(s.rate, *s.acceptance, s.alpha,
                                                s.max_price_cents);
  CP_RETURN_IF_ERROR(solution.status());
  return PolicyArtifact(std::move(solution).value());
}

}  // namespace

const char* KindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kDeadlineDp: return "deadline-dp";
    case PolicyKind::kBudgetStatic: return "budget-static";
    case PolicyKind::kFixedPrice: return "fixed-price";
    case PolicyKind::kAdaptive: return "adaptive";
    case PolicyKind::kMultiType: return "multitype";
    case PolicyKind::kTradeoff: return "tradeoff";
  }
  return "unknown";
}

// One overload per PolicySpec alternative: a kind without a solver fails
// to compile here instead of failing at run time.
Result<PolicyArtifact> Engine::Solve(const PolicySpec& spec) {
  return std::visit([](const auto& s) { return SolveSpec(s); }, spec.config());
}

Result<PolicyArtifact> Engine::SolveDeadline(
    const DeadlineDpSpec& s, const pricing::DeadlineTables* tables) {
  if (!s.actions.has_value()) {
    return Status::InvalidArgument("DeadlineDpSpec.actions is required");
  }
  if (s.expected_remaining_bound.has_value()) {
    // Theorem 2 penalty bisection; the inner solves honor the spec's
    // algorithm choice (kSimple is required for bundled action sets).
    pricing::BoundSolveOptions options;
    options.algorithm = s.algorithm;
    options.dp_options = s.dp_options;
    CP_ASSIGN_OR_RETURN(
        pricing::BoundSolveResult bound,
        pricing::SolveForExpectedRemaining(s.problem, s.interval_lambdas,
                                           *s.actions,
                                           *s.expected_remaining_bound, options,
                                           tables));
    return PolicyArtifact(DeadlinePolicy{std::move(bound.plan),
                                         bound.penalty_used, bound.dp_solves,
                                         std::move(bound.evaluation)});
  }
  CP_ASSIGN_OR_RETURN(
      pricing::DeadlinePlan plan,
      pricing::SolveDeadlineDp(s.problem, s.interval_lambdas, *s.actions,
                               s.algorithm, s.dp_options, tables));
  return PolicyArtifact(DeadlinePolicy{std::move(plan), s.problem.penalty_cents,
                                       1, std::nullopt});
}

}  // namespace crowdprice::engine
