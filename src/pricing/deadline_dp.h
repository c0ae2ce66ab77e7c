// Fixed-deadline dynamic pricing via MDP dynamic programming (paper §3).
//
// SolveSimpleDp is Algorithm 1: for each interval t (backwards) and each
// remaining count n, scan every action and evaluate
//
//   Opt(n,t) = min_c  sum_s Pois(s | lambda_t p(c)) [s c + Opt(n-s, t+1)]
//            + Pr[Pois >= n] * n c,
//
// with the Poisson sum truncated at the epsilon tail point s0 (§3.2,
// Theorem 1 bounds the induced error).
//
// SolveImprovedDp is Algorithm 2: assuming Conjecture 1 (the optimal price
// is non-decreasing in n for fixed t — verified empirically by our property
// tests, as in the paper), the per-interval price search is organized as a
// divide-and-conquer over n, shrinking each state's price range to the
// bracket established by already-solved states. Complexity drops from
// O(NT * N^2 * C) to O(NT * N * (N + C log N)). Once a range's bracket has
// collapsed to one price, every state in it can only take that price, so
// the range is handed to the kernel as one dense scan (vector groups of
// contiguous states on the SIMD backends) instead of being recursed one
// midpoint at a time; the plan and the evaluation count are unchanged.
//
// An optional further pruning uses the price monotonicity in t for fixed n
// (§3.2 last paragraph): Price(n, t) <= Price(n, t+1), so the layer at t+1
// caps each state's search range from above.
//
// Both algorithms run over DeadlineTables: the truncated-Poisson tables of
// one rate grid (per-interval worker means x action acceptances, at one
// truncation epsilon). The tables do not depend on N, the penalty, the
// prices or the algorithm, so callers that solve one grid many times build
// them once and hand them to SolveDeadlineDp: the Theorem 2 penalty search
// (pricing/penalty_search.h) shares one set across its bisection, and
// engine::SolveWave one set per distinct grid across a wave. A solve given
// no set builds its own, which is all SolveSimpleDp and SolveImprovedDp do.

#ifndef CROWDPRICE_PRICING_DEADLINE_DP_H_
#define CROWDPRICE_PRICING_DEADLINE_DP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pricing/plan.h"
#include "util/result.h"

namespace crowdprice::kernel {
class PmfArena;
class PmfShareCache;
}  // namespace crowdprice::kernel

namespace crowdprice::pricing {

struct DpOptions {
  /// Use the Algorithm 2 divide-and-conquer price search (requires a
  /// unit-bundle action set; errors otherwise). Ignored by SolveSimpleDp.
  bool monotone_price_search = true;
  /// Additionally cap each state's search range by Price(n, t+1).
  bool time_monotonicity_pruning = false;
  /// Parallelism cap for the per-layer state scans. 0 picks
  /// hardware_concurrency; 1 forces a serial solve; higher values are
  /// additionally capped by the calling thread plus the foreground job
  /// pool's workers (engine::SolverPool::Foreground()). Only a layer whose
  /// estimated work (DeadlineTables::LayerWork) clears kLayerFanOutGrain
  /// fans out; smaller layers scan serially on the caller, so a solve of
  /// small layers runs serially at any cap. The plan's threads_used field
  /// reports the most threads any layer actually ran on. The produced plan
  /// is bit-identical at every thread count.
  int num_threads = 0;
  /// LayerScanKernel backend for the inner scans ("scalar", "avx2",
  /// "neon", ...). Empty selects the $CROWDPRICE_KERNEL override when set,
  /// else the fastest backend the host supports; unknown names fail the
  /// solve. The plan's kernel_backend field records what actually ran.
  /// Every backend runs the same fused arithmetic, so the plan is
  /// bit-identical whichever backend ran (see kernel/layer_scan.h).
  std::string kernel_backend;
  /// Cross-solve pmf sharing: when set, a solve that builds its own
  /// DeadlineTables adopts truncated-Poisson blocks from (and contributes
  /// new ones to) this cache instead of building private blocks.
  /// Cache keys are exact rate bits, so the produced plan is bit-identical
  /// with and without a cache (see kernel/pmf_cache.h). Unused by a solve
  /// handed prebuilt tables. Not owned; must outlive the solve. Never
  /// serialized -- deserialized artifacts carry the default nullptr.
  kernel::PmfShareCache* share_cache = nullptr;
};

/// The truncated-Poisson tables of one rate grid: one PmfArena holding the
/// table of every (interval, action) rate lambda_t * p(c) -- deduplicated
/// by quantized rate, so constant or periodic traces share tables -- plus
/// the interval-major [t * num_actions + a] table-id grid. Immutable after
/// Build; copies share the arena. A solve refuses tables built for another
/// grid, so handing a set to the wrong solve fails instead of mispricing.
class DeadlineTables {
 public:
  /// Builds the tables for `interval_lambdas` (each finite and >= 0) x the
  /// acceptances of `actions` (non-empty) at `truncation_epsilon` (in
  /// (0, 1)). With a `share_cache`, each distinct table is adopted from
  /// (or built into) the cache; the contents are the same either way.
  static Result<DeadlineTables> Build(
      const std::vector<double>& interval_lambdas, const ActionSet& actions,
      double truncation_epsilon, kernel::PmfShareCache* share_cache = nullptr);

  /// Identity of a grid: the exact bits of the epsilon, the means and the
  /// acceptances. Grids with equal keys have byte-identical tables.
  static std::string GridKey(const std::vector<double>& interval_lambdas,
                             const ActionSet& actions,
                             double truncation_epsilon);

  /// Whether these are the tables of exactly that grid.
  bool BuiltFor(const std::vector<double>& interval_lambdas,
                const ActionSet& actions, double truncation_epsilon) const {
    return GridKey(interval_lambdas, actions, truncation_epsilon) == grid_key_;
  }

  const std::shared_ptr<const kernel::PmfArena>& arena() const {
    return arena_;
  }
  /// Arena table id per (interval, action), interval-major.
  const std::vector<int>& table_ids() const { return table_ids_; }

  /// Estimated multiply-adds of one layer scan at `num_tasks` remaining:
  /// an (n, action) evaluation sums min(n, len) pmf terms, counted here as
  /// min(N, len) for the action's table. Algorithm 1 evaluates every action
  /// at every state (the sum over the layer's actions); the monotone search
  /// about one per state (their max). Requires 0 <= interval < the grid's
  /// interval count.
  int64_t LayerWork(int interval, int num_tasks, bool monotone) const;

 private:
  DeadlineTables() = default;

  std::shared_ptr<const kernel::PmfArena> arena_;
  std::vector<int> table_ids_;
  int num_actions_ = 0;
  std::string grid_key_;
};

/// The least LayerWork at which a deadline solve fans a layer out across
/// the foreground pool; smaller layers scan serially on the caller, with no
/// region. A region costs wake-ups and a join, tens of microseconds of wall
/// time and more of CPU, so a layer fans out only from where
/// bench_ablate_dp_speedup measures a fanned-out layer scan at least 2x
/// faster than the serial one. Its record's layer_crossover_work read
/// 420,800 and 570,400 multiply-adds (a ~130-200 us layer) in two runs on
/// a 4-vCPU x86 VM; the grain is the power of two between them. The
/// on-the-fly bound solves (N <= 1000, 72 intervals, supply ~2N) stay
/// under 100,000 and run serially; Algorithm 1 at N = 2000 on the
/// 50-price grid (~7.7M per layer) fans out.
inline constexpr int64_t kLayerFanOutGrain = int64_t{1} << 19;

/// The backward-induction price search a deadline solve runs.
enum class DpAlgorithm {
  kSimple,    ///< Algorithm 1: every state scans every action.
  kImproved,  ///< Algorithm 2: monotone divide-and-conquer price search.
};

/// The one deadline solve path. With `tables`, the solve runs over that
/// prebuilt set, which must have been built for this solve's grid
/// (interval_lambdas, the actions' acceptances, the problem's
/// truncation_epsilon; InvalidArgument otherwise); the plan is byte-
/// identical to a solve that builds its own. Null builds a set first.
Result<DeadlinePlan> SolveDeadlineDp(
    const DeadlineProblem& problem,
    const std::vector<double>& interval_lambdas, const ActionSet& actions,
    DpAlgorithm algorithm, const DpOptions& options = {},
    const DeadlineTables* tables = nullptr);

/// Algorithm 1. Supports any ActionSet (including bundled HIT actions).
/// interval_lambdas must have problem.num_intervals entries, each finite
/// and >= 0. The monotone-search switches of `options` do not apply.
Result<DeadlinePlan> SolveSimpleDp(const DeadlineProblem& problem,
                                   const std::vector<double>& interval_lambdas,
                                   const ActionSet& actions,
                                   const DpOptions& options = {});

/// Algorithm 2 (+ optional time-monotonicity pruning). Produces the same
/// tables as SolveSimpleDp whenever Conjecture 1 holds.
Result<DeadlinePlan> SolveImprovedDp(
    const DeadlineProblem& problem,
    const std::vector<double>& interval_lambdas, const ActionSet& actions,
    const DpOptions& options = {});

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_DEADLINE_DP_H_
