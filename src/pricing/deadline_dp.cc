#include "pricing/deadline_dp.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "engine/solver_pool.h"
#include "kernel/layer_scan.h"
#include "kernel/pmf_arena.h"
#include "kernel/pmf_cache.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::pricing {

namespace {

// Smallest monotone n-range handed to a worker as one task.
constexpr int kParallelMinRange = 32;

// The grid half of a solve's input checks, shared with DeadlineTables.
Status ValidateGrid(const std::vector<double>& interval_lambdas,
                    const ActionSet& actions) {
  for (size_t t = 0; t < interval_lambdas.size(); ++t) {
    if (!(interval_lambdas[t] >= 0.0) || !std::isfinite(interval_lambdas[t])) {
      return Status::InvalidArgument(
          StringF("interval_lambdas[%zu] = %g must be finite and >= 0", t,
                  interval_lambdas[t]));
    }
  }
  if (actions.size() == 0) {
    return Status::InvalidArgument("empty action set");
  }
  return Status::OK();
}

Status ValidateInputs(const DeadlineProblem& problem,
                      const std::vector<double>& interval_lambdas,
                      const ActionSet& actions) {
  CP_RETURN_IF_ERROR(problem.Validate());
  if (interval_lambdas.size() != static_cast<size_t>(problem.num_intervals)) {
    return Status::InvalidArgument(
        StringF("interval_lambdas has %zu entries; problem has %d intervals",
                interval_lambdas.size(), problem.num_intervals));
  }
  return ValidateGrid(interval_lambdas, actions);
}

// One midpoint of Algorithm 2: search bracket [a_lo, a_hi], optionally
// capped from above by Price(n, t+1) (time monotonicity). Writes the layer
// rows and returns the chosen action.
int SolveMonotoneState(const kernel::LayerScanKernel& kern,
                       const kernel::LayerTables& layer, int n, int a_lo,
                       int a_hi, const double* opt_next,
                       const int32_t* cap_row, double* opt_row,
                       int32_t* action_row, int64_t* evals) {
  int hi = a_hi;
  if (cap_row != nullptr && cap_row[n] >= 0) {
    hi = std::min(hi, static_cast<int>(cap_row[n]));
  }
  hi = std::max(hi, a_lo);  // Defensive: never let the cap empty the range.
  kern.ScanLayer(layer, n, n, a_lo, hi, opt_next, opt_row, action_row);
  *evals += hi - a_lo + 1;
  return action_row[n];
}

// Algorithm 2's FindOptimalPriceForTime: divide-and-conquer over n in
// [n_lo, n_hi] with the price bracket [a_lo, a_hi]. Once the bracket has
// collapsed (a_lo == a_hi) the recursion would give every state of the
// range one evaluation, of a_lo (the time cap is clamped up to a_lo), so
// the range is scanned densely in one kernel call instead, with the same
// per-state arithmetic, results and evaluation count.
void SolveRangeMonotone(const kernel::LayerScanKernel& kern,
                        const kernel::LayerTables& layer, int n_lo, int n_hi,
                        int a_lo, int a_hi, const double* opt_next,
                        const int32_t* cap_row, double* opt_row,
                        int32_t* action_row, int64_t* evals) {
  if (n_lo > n_hi) return;
  if (a_lo == a_hi) {
    kern.ScanLayer(layer, n_lo, n_hi, a_lo, a_lo, opt_next, opt_row,
                   action_row);
    *evals += n_hi - n_lo + 1;
    return;
  }
  const int m = n_lo + (n_hi - n_lo) / 2;
  const int a = SolveMonotoneState(kern, layer, m, a_lo, a_hi, opt_next,
                                   cap_row, opt_row, action_row, evals);
  SolveRangeMonotone(kern, layer, n_lo, m - 1, a_lo, a, opt_next, cap_row,
                     opt_row, action_row, evals);
  SolveRangeMonotone(kern, layer, m + 1, n_hi, a, a_hi, opt_next, cap_row,
                     opt_row, action_row, evals);
}

// An unsolved node of the Algorithm 2 recursion tree.
struct MonotoneRange {
  int n_lo, n_hi, a_lo, a_hi;
  int width() const { return n_hi - n_lo + 1; }
};

}  // namespace

Result<DeadlineTables> DeadlineTables::Build(
    const std::vector<double>& interval_lambdas, const ActionSet& actions,
    double truncation_epsilon, kernel::PmfShareCache* share_cache) {
  CP_RETURN_IF_ERROR(ValidateGrid(interval_lambdas, actions));
  if (!(truncation_epsilon > 0.0 && truncation_epsilon < 1.0)) {
    return Status::InvalidArgument(
        StringF("truncation_epsilon must be in (0, 1); got %g",
                truncation_epsilon));
  }
  std::vector<double> rates;
  rates.reserve(interval_lambdas.size() * actions.size());
  for (double lambda_t : interval_lambdas) {
    for (const PricingAction& a : actions.actions()) {
      rates.push_back(lambda_t * a.acceptance);
    }
  }
  CP_ASSIGN_OR_RETURN(
      kernel::PmfArena arena,
      kernel::PmfArena::Build(rates, truncation_epsilon, share_cache));
  DeadlineTables out;
  out.table_ids_.reserve(rates.size());
  for (size_t i = 0; i < rates.size(); ++i) {
    out.table_ids_.push_back(arena.TableOf(i));
  }
  out.arena_ = std::make_shared<const kernel::PmfArena>(std::move(arena));
  out.num_actions_ = static_cast<int>(actions.size());
  out.grid_key_ = GridKey(interval_lambdas, actions, truncation_epsilon);
  return out;
}

int64_t DeadlineTables::LayerWork(int interval, int num_tasks,
                                  bool monotone) const {
  const int* ids =
      table_ids_.data() + static_cast<size_t>(interval) * num_actions_;
  int64_t terms = 0;
  for (int a = 0; a < num_actions_; ++a) {
    const int64_t len = std::min(arena_->View(ids[a]).len, num_tasks);
    terms = monotone ? std::max(terms, len) : terms + len;
  }
  return terms * num_tasks;
}

std::string DeadlineTables::GridKey(
    const std::vector<double>& interval_lambdas, const ActionSet& actions,
    double truncation_epsilon) {
  // Fixed-width fields (epsilon, interval count, means, acceptances), so
  // two grids share a key only when every bit agrees.
  std::string key;
  key.reserve(sizeof(double) * (2 + interval_lambdas.size() + actions.size()));
  const auto append = [&key](const void* bytes, size_t n) {
    key.append(static_cast<const char*>(bytes), n);
  };
  const uint64_t intervals = interval_lambdas.size();
  append(&truncation_epsilon, sizeof(double));
  append(&intervals, sizeof(intervals));
  append(interval_lambdas.data(), interval_lambdas.size() * sizeof(double));
  for (const PricingAction& a : actions.actions()) {
    append(&a.acceptance, sizeof(double));
  }
  return key;
}

Result<DeadlinePlan> SolveDeadlineDp(
    const DeadlineProblem& problem,
    const std::vector<double>& interval_lambdas, const ActionSet& actions,
    DpAlgorithm algorithm, const DpOptions& options,
    const DeadlineTables* tables) {
  CP_RETURN_IF_ERROR(ValidateInputs(problem, interval_lambdas, actions));
  if (tables != nullptr &&
      !tables->BuiltFor(interval_lambdas, actions,
                        problem.truncation_epsilon)) {
    return Status::InvalidArgument(
        "deadline tables were built for a different rate grid (interval "
        "means, action acceptances or truncation epsilon)");
  }
  if (algorithm == DpAlgorithm::kImproved && !actions.uniform_unit_bundle()) {
    return Status::FailedPrecondition(
        "monotone price search (Algorithm 2) requires a unit-bundle action "
        "set; use SolveSimpleDp for bundled actions");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  CP_ASSIGN_OR_RETURN(
      const kernel::LayerScanKernel* kern,
      kernel::KernelRegistry::Global().Resolve(options.kernel_backend));
  const auto start = std::chrono::steady_clock::now();
  DeadlinePlan plan(problem, actions, interval_lambdas);
  const int num_actions = static_cast<int>(actions.size());
  const int nt = problem.num_intervals;
  const int num_tasks = problem.num_tasks;
  const bool monotone =
      algorithm == DpAlgorithm::kImproved && options.monotone_price_search;

  engine::SolverPool& pool = engine::SolverPool::Foreground();
  const int requested_threads = options.num_threads > 0
                                    ? options.num_threads
                                    : engine::SolverPool::DefaultThreads();
  // The decomposition (chunk and range counts) follows the request so it is
  // machine-independent; actual participation is capped by the pool.
  const int effective_threads =
      requested_threads > 1 ? std::min(requested_threads, pool.size() + 1)
                            : 1;
  // The largest number of threads any layer's region ran on.
  int threads_used = 1;
  int64_t evals = 0;
  std::atomic<int64_t> range_evals{0};  // summed by the monotone regions

  // All of the solve's pmf tables in one aligned arena, built (unless the
  // caller handed them in) before any layer work so the scans and their
  // worker threads only read.
  std::optional<DeadlineTables> own_tables;
  if (tables == nullptr) {
    CP_ASSIGN_OR_RETURN(
        own_tables,
        DeadlineTables::Build(interval_lambdas, actions,
                              problem.truncation_epsilon, options.share_cache));
    tables = &*own_tables;
  }
  std::vector<double> costs;
  std::vector<int> bundles;
  costs.reserve(actions.size());
  bundles.reserve(actions.size());
  for (const PricingAction& a : actions.actions()) {
    costs.push_back(a.cost_per_task_cents);
    bundles.push_back(a.bundle);
  }

  // One layer's scan state, read by the two region bodies below, which are
  // built once per solve; each fanned-out layer reassigns the state and
  // runs one region.
  kernel::LayerTables layer;
  layer.arena = tables->arena().get();
  layer.costs = costs.data();
  layer.bundles = bundles.data();
  layer.num_actions = num_actions;
  const double* opt_next = nullptr;
  double* opt_row = nullptr;
  int32_t* action_row = nullptr;
  const int32_t* cap_row = nullptr;
  std::vector<MonotoneRange> ranges;

  // States within a layer are independent; chunk [1, N] across the pool.
  // Costs grow with n, so chunks are kept small for balance.
  const int64_t chunks =
      std::min<int64_t>(num_tasks, static_cast<int64_t>(requested_threads) * 8);
  const int64_t per_chunk = (num_tasks + chunks - 1) / chunks;
  const std::function<void(int64_t)> scan_chunk = [&](int64_t chunk) {
    const int lo = static_cast<int>(1 + chunk * per_chunk);
    const int hi = static_cast<int>(
        std::min<int64_t>(num_tasks, (chunk + 1) * per_chunk));
    if (lo > hi) return;
    kern->ScanLayer(layer, lo, hi, 0, num_actions - 1, opt_next, opt_row,
                    action_row);
  };
  const std::function<void(int64_t)> scan_range = [&](int64_t i) {
    const MonotoneRange& r = ranges[static_cast<size_t>(i)];
    int64_t local = 0;
    SolveRangeMonotone(*kern, layer, r.n_lo, r.n_hi, r.a_lo, r.a_hi, opt_next,
                       cap_row, opt_row, action_row, &local);
    range_evals.fetch_add(local, std::memory_order_relaxed);
  };
  const size_t target_ranges = static_cast<size_t>(requested_threads) * 4;
  // Runs one fanned-out layer's region and records its participation.
  const auto fan_out = [&](int64_t count,
                           const std::function<void(int64_t)>& body) {
    pool.ParallelFor(count, body, effective_threads);
    threads_used = std::max<int>(
        threads_used, static_cast<int>(std::min<int64_t>(effective_threads,
                                                         count)));
  };

  for (int t = nt - 1; t >= 0; --t) {
    layer.tables =
        tables->table_ids().data() + static_cast<size_t>(t) * num_actions;
    // With the layer-major arena, layer t+1 is read and layer t written in
    // place -- no per-layer copies.
    opt_next = plan.OptLayer(t + 1);
    opt_row = plan.MutableOptLayer(t);
    action_row = plan.MutableActionLayer(t);
    // Opt(0, t) stays 0 (initialized by the plan constructor). A layer
    // whose work is under the grain runs its serial scan inline: a region's
    // wake-ups and join would cost more than they save.
    const bool parallel =
        effective_threads > 1 &&
        tables->LayerWork(t, num_tasks, monotone) >= kLayerFanOutGrain;
    if (!monotone) {
      if (parallel) {
        fan_out(chunks, scan_chunk);
      } else {
        kern->ScanLayer(layer, 1, num_tasks, 0, num_actions - 1, opt_next,
                        opt_row, action_row);
      }
      evals += static_cast<int64_t>(num_tasks) * num_actions;
      continue;
    }
    cap_row = options.time_monotonicity_pruning && t < nt - 1
                  ? plan.ActionLayer(t + 1)
                  : nullptr;
    if (!parallel) {
      SolveRangeMonotone(*kern, layer, 1, num_tasks, 0, num_actions - 1,
                         opt_next, cap_row, opt_row, action_row, &evals);
      continue;
    }
    // Expand the top of the recursion tree sequentially: solving a range's
    // midpoint splits it into two independent subranges (their price
    // brackets only depend on already-solved states), so once enough
    // disjoint subranges exist they fan out across the pool. Each state
    // sees exactly the bracket the sequential recursion would give it, so
    // the plan is bit-identical to a serial solve (one unsplit range).
    ranges.assign(1, {1, num_tasks, 0, num_actions - 1});
    while (ranges.size() < target_ranges) {
      size_t widest = ranges.size();
      int widest_width = kParallelMinRange;
      for (size_t i = 0; i < ranges.size(); ++i) {
        if (ranges[i].width() > widest_width) {
          widest_width = ranges[i].width();
          widest = i;
        }
      }
      if (widest == ranges.size()) break;  // everything is fine-grained
      const MonotoneRange r = ranges[widest];
      const int m = r.n_lo + (r.n_hi - r.n_lo) / 2;
      const int a = SolveMonotoneState(*kern, layer, m, r.a_lo, r.a_hi,
                                       opt_next, cap_row, opt_row, action_row,
                                       &evals);
      ranges[widest] = {r.n_lo, m - 1, r.a_lo, a};
      ranges.push_back({m + 1, r.n_hi, a, r.a_hi});
    }
    fan_out(static_cast<int64_t>(ranges.size()), scan_range);
  }

  plan.action_evaluations = evals + range_evals.load();
  plan.threads_used = threads_used;
  plan.poisson_tables_built = tables->arena()->tables_built();
  plan.poisson_table_reuses = tables->arena()->table_reuses();
  plan.kernel_backend = kern->name();
  plan.SetSolveArena(tables->arena(), tables->table_ids());
  plan.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return plan;
}

Result<DeadlinePlan> SolveSimpleDp(const DeadlineProblem& problem,
                                   const std::vector<double>& interval_lambdas,
                                   const ActionSet& actions,
                                   const DpOptions& options) {
  return SolveDeadlineDp(problem, interval_lambdas, actions,
                         DpAlgorithm::kSimple, options);
}

Result<DeadlinePlan> SolveImprovedDp(
    const DeadlineProblem& problem,
    const std::vector<double>& interval_lambdas, const ActionSet& actions,
    const DpOptions& options) {
  return SolveDeadlineDp(problem, interval_lambdas, actions,
                         DpAlgorithm::kImproved, options);
}

}  // namespace crowdprice::pricing
