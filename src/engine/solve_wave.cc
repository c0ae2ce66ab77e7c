#include "engine/solve_wave.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/macros.h"

namespace crowdprice::engine {

namespace {

// One deadline campaign's farm job: the wave's cache, single-threaded (the
// wave's parallelism is across campaigns, not within one solve -- plans are
// bit-identical either way), over its grid's tables when the wave built
// them. The solve and its evaluation run on the spec's kernel backend.
Result<PolicyArtifact> SolveCampaign(const DeadlineDpSpec& spec,
                                     const pricing::DeadlineTables* tables,
                                     const SolveWaveOptions& options) {
  DeadlineDpSpec s = spec;
  s.dp_options.share_cache = options.share_cache;
  s.dp_options.num_threads = 1;
  Result<PolicyArtifact> solved = Engine::SolveDeadline(s, tables);
  if (solved.ok() && options.evaluate) {
    pricing::EvalOptions eval_options;
    eval_options.kernel_backend = s.dp_options.kernel_backend;
    eval_options.share_cache = options.share_cache;
    CP_RETURN_IF_ERROR(solved.value().PrecomputeEvaluation(eval_options));
  }
  return solved;
}

// The wave's deadline campaigns on one rate grid, in spec order. The
// first member's job builds the grid's tables; every member solves over
// them.
struct GridGroup {
  std::vector<size_t> members;
  /// Unset until built, and for good if the build fails: the members then
  /// build their own and fail exactly as Engine::Solve would.
  std::optional<pricing::DeadlineTables> tables;
};

}  // namespace

std::vector<Result<PolicyArtifact>> SolveWave(std::span<const PolicySpec> specs,
                                              const SolveWaveOptions& options) {
  SolverPool& pool = options.pool != nullptr ? *options.pool
                                             : SolverPool::Shared();
  std::vector<Result<PolicyArtifact>> results;
  results.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    results.push_back(Status::Internal("wave slot never solved"));
  }

  struct WaveState {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
  };
  WaveState state;
  state.remaining = specs.size();
  const auto finish = [&results, &state](size_t i, Result<PolicyArtifact> r) {
    results[i] = std::move(r);
    std::lock_guard<std::mutex> lock(state.mu);
    if (--state.remaining == 0) state.cv.notify_all();
  };

  // Group the deadline campaigns by the exact bits of their rate grid;
  // other kinds (and specs missing their actions) solve on their own.
  std::vector<GridGroup> groups;
  std::unordered_map<std::string, size_t> group_of;
  std::vector<size_t> solo;
  for (size_t i = 0; i < specs.size(); ++i) {
    const PolicySpec& spec = specs[i];
    if (spec.kind() == PolicyKind::kDeadlineDp &&
        spec.get<DeadlineDpSpec>().actions.has_value()) {
      const DeadlineDpSpec& s = spec.get<DeadlineDpSpec>();
      std::string key = pricing::DeadlineTables::GridKey(
          s.interval_lambdas, *s.actions, s.problem.truncation_epsilon);
      const auto [it, inserted] =
          group_of.try_emplace(std::move(key), groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].members.push_back(i);
      continue;
    }
    solo.push_back(i);
  }

  // One job per grid builds its tables on the farm, fans the group's
  // other campaigns out over them, then solves its own. Every campaign is
  // still one job, so pool counters match the wave size.
  const auto solve_member = [&](size_t g, size_t k) {
    const GridGroup& group = groups[g];
    const size_t i = group.members[k];
    finish(i, SolveCampaign(specs[i].get<DeadlineDpSpec>(),
                            group.tables ? &*group.tables : nullptr, options));
  };
  for (size_t g = 0; g < groups.size(); ++g) {
    pool.Submit([&specs, &groups, &options, &pool, &solve_member, g] {
      GridGroup& group = groups[g];
      const DeadlineDpSpec& lead =
          specs[group.members.front()].get<DeadlineDpSpec>();
      Result<pricing::DeadlineTables> built = pricing::DeadlineTables::Build(
          lead.interval_lambdas, *lead.actions, lead.problem.truncation_epsilon,
          options.share_cache);
      if (built.ok()) group.tables.emplace(std::move(built).value());
      for (size_t k = 1; k < group.members.size(); ++k) {
        pool.Submit([&solve_member, g, k] { solve_member(g, k); });
      }
      solve_member(g, 0);
    });
  }
  for (size_t i : solo) {
    pool.Submit([&finish, &specs, i] { finish(i, Engine::Solve(specs[i])); });
  }

  // Help drain the farm instead of sleeping; the brief timed wait covers
  // the window where every remaining job is already running elsewhere.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state.mu);
      if (state.remaining == 0) break;
    }
    if (pool.TryRunOne()) continue;
    std::unique_lock<std::mutex> lock(state.mu);
    state.cv.wait_for(lock, std::chrono::milliseconds(1),
                      [&state] { return state.remaining == 0; });
  }
  return results;
}

}  // namespace crowdprice::engine
