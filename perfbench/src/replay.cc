// The traced run's per-layer replay. A sample of the seed's inputs -- the
// same frames, control cycles and specs the workloads generate -- goes
// through each layer's public calls one at a time, timed from here:
//
//   net.wire       Serialize/Deserialize of decide requests and responses,
//                  SerializeControlOp on admit artifacts
//   net.client/server
//                  PricingClient::DecideBatch round trips, and what is left
//                  of them after the in-process stages (transport residual)
//   serving        CampaignShardMap::Decide / DecideBatch / Apply, and the
//                  RCU snapshot counters after QuiesceReclamation
//   router         routed minus direct round trips of the same batch, sent
//                  interleaved; the line splice the router does per batch
//   engine/kernel  Engine::Solve, SolveWave, SolverPool, PmfShareCache,
//                  PmfArena::Build
//   pricing        SolveForExpectedRemaining, SolveImprovedDp,
//                  EvaluatePolicyNominal
//
// Every layer is replayed whatever the workload, so each traced run reports
// the same metric set; the replayed outputs go through the same oracles as
// the workloads'.

#include <algorithm>
#include <deque>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/solve_wave.h"
#include "fleet.h"
#include "kernel/pmf_arena.h"
#include "kernel/pmf_cache.h"
#include "net/wire.h"
#include "oracle.h"
#include "pricing/deadline_dp.h"
#include "pricing/penalty_search.h"
#include "pricing/policy_eval.h"
#include "util/stringf.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cp::StringF;
using cp::serving::CampaignId;
using cp::serving::ControlOp;
using cp::serving::DecideResponse;

constexpr int kReplayFrames = 512;
constexpr int kReplayRounds = 3;
constexpr int kReplayCycles = 64;
constexpr int kReplayWaveSpecs = 512;
constexpr int kReplaySolveSpecs = 64;
constexpr int kReplayCacheSpecs = 4;
constexpr int kReplayRepeats = 3;

template <typename F>
uint64_t TimeNanos(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return NanosBetween(t0, Clock::now());
}

// One stage of the decide path: per-frame times plus the total over all
// requests.
struct Stage {
  LatencyHistogram per_frame;
  double total_ns = 0.0;

  void Add(uint64_t nanos) {
    per_frame.RecordNanos(nanos);
    total_ns += static_cast<double>(nanos);
  }
  double MedianUs() const { return per_frame.QuantileUs(0.5); }
};

// The in-process stages a direct decide frame goes through, in order.
struct DecideStages {
  Stage req_encode, req_decode, map_decide, resp_encode, resp_decode;
  Stage batch_decide;  // CampaignShardMap::DecideBatch (the fan-out path)
  double requests = 0.0;
  double req_bytes = 0.0;
  double resp_bytes = 0.0;

  /// Summed per-frame medians of the stages a server-inline frame takes.
  double PathMedianUs() const {
    return req_encode.MedianUs() + req_decode.MedianUs() +
           map_decide.MedianUs() + resp_encode.MedianUs() +
           resp_decode.MedianUs();
  }
};

// Replays `frames` through the wire codecs and `map` in process.
void MeasureStages(const std::vector<Frame>& frames,
                   cp::serving::CampaignShardMap& map, DecideStages& stages,
                   Report& report) {
  for (const Frame& frame : frames) {
    std::string request;
    stages.req_encode.Add(TimeNanos(
        [&] { request = cp::net::SerializeDecideBatchRequest(frame); }));
    cp::Result<std::vector<cp::serving::DecideRequest>> decoded =
        cp::Status::Internal("unset");
    stages.req_decode.Add(TimeNanos(
        [&] { decoded = cp::net::DeserializeDecideBatchRequest(request); }));
    if (!decoded.ok() || decoded->size() != frame.size()) {
      report.Fail("replay request decode: " + decoded.status().ToString());
      continue;
    }
    std::vector<DecideResponse> responses;
    stages.map_decide.Add(TimeNanos([&] {
      responses.reserve(frame.size());
      for (const cp::serving::DecideRequest& r : *decoded) {
        DecideResponse response;
        response.campaign_id = r.campaign_id;
        auto sheet = map.Decide(r.campaign_id, r.request);
        if (sheet.ok()) {
          response.sheet = std::move(sheet).value();
        } else {
          response.status = sheet.status();
        }
        responses.push_back(std::move(response));
      }
    }));
    stages.batch_decide.Add(TimeNanos([&] { (void)map.DecideBatch(frame); }));
    std::string response;
    stages.resp_encode.Add(TimeNanos(
        [&] { response = cp::net::SerializeDecideBatchResponse(responses); }));
    cp::Result<std::vector<DecideResponse>> parsed =
        cp::Status::Internal("unset");
    stages.resp_decode.Add(TimeNanos(
        [&] { parsed = cp::net::DeserializeDecideBatchResponse(response); }));
    const std::string why = parsed.ok() ? CheckSheets(frame, *parsed, map)
                                        : parsed.status().ToString();
    if (!why.empty()) report.Fail("replay decode oracle: " + why);
    stages.requests += static_cast<double>(frame.size());
    stages.req_bytes += static_cast<double>(request.size());
    stages.resp_bytes += static_cast<double>(response.size());
  }
}

// Runs control cycles through `apply` (an in-process map or a wire client):
// admit, swap, tick, retire-oldest, starting from `live`. Times each op
// into by_kind[0..3] and checks every outcome like the workload does.
using Applier =
    std::function<cp::Result<cp::serving::ControlOutcome>(ControlOp)>;

void ReplayControl(const Applier& apply, const FleetPlan& plan,
                   const ArtifactPool& pool,
                   const std::vector<ControlCycle>& cycles,
                   std::deque<CampaignId> live, LatencyHistogram by_kind[4],
                   Report& report) {
  for (const ControlCycle& c : cycles) {
    if (live.empty()) {
      report.Fail("replay control lost every live campaign");
      return;
    }
    // Each op picks its target when it is due, as the workload's stream
    // does (the swap may hit the campaign the admit just added).
    auto make_op = [&](int kind) {
      switch (kind) {
        case 0:
          return ControlOp::AdmitShared(
              pool[static_cast<size_t>(c.admit_artifact)],
              plan.LimitsFor(c.admit_artifact));
        case 1:
          return ControlOp::SwapArtifactShared(
              live[c.swap_pick % live.size()],
              pool[static_cast<size_t>(c.swap_artifact)]);
        case 2:
          return ControlOp::Tick(live[c.tick_pick % live.size()], c.tick_hours,
                                 c.tick_remaining);
        default:
          return ControlOp::Retire(live.front());
      }
    };
    for (int kind = 0; kind < 4; ++kind) {
      ControlOp op = make_op(kind);
      cp::Result<cp::serving::ControlOutcome> outcome =
          cp::Status::Internal("unset");
      by_kind[kind].RecordNanos(
          TimeNanos([&] { outcome = apply(std::move(op)); }));
      const cp::serving::CampaignState want =
          kind == 3 ? cp::serving::CampaignState::kRetiredExplicit
                    : cp::serving::CampaignState::kLive;
      if (!outcome.ok() || outcome->state != want) {
        report.Fail(StringF("replay control op %d: %s", kind,
                            outcome.status().ToString().c_str()));
        continue;
      }
      if (kind == 0) live.push_back(outcome->id);
      if (kind == 3) live.pop_front();
    }
  }
}

double HitRatio(const cp::kernel::PmfArena::Stats& stats) {
  const int64_t lookups = stats.blocks_built + stats.blocks_shared;
  return lookups > 0 ? static_cast<double>(stats.blocks_shared) /
                           static_cast<double>(lookups)
                     : 0.0;
}

std::deque<CampaignId> ChurnIds(const FleetPlan& plan) {
  std::deque<CampaignId> ids;
  for (int j = 0; j < plan.shape.churn_campaigns; ++j) {
    ids.push_back(plan.BaseId(plan.shape.campaigns + j));
  }
  return ids;
}

void AddServerStats(const cp::net::PricingServer& server,
                    cp::net::ServerStats& sum) {
  const cp::net::ServerStats s = server.stats();
  sum.frames_received += s.frames_received;
  sum.decide_requests += s.decide_requests;
  sum.control_ops += s.control_ops;
  sum.protocol_errors += s.protocol_errors;
}

// --- decide path: wire, client/server, shard map, router ------------------

void ReplayDecide(const RunConfig& config, Report& report) {
  cp::net::ServerStats servers;

  // Direct: the decide_direct fleet and frames.
  const FleetPlan plan = MakeFleetPlan(config.seed, DecideFleetShape(false));
  auto pool = SolveArtifactPool(plan);
  auto direct = pool.ok() ? StartDirectFleet(plan, *pool)
                          : cp::Result<std::unique_ptr<DirectFleet>>(
                                pool.status());
  if (!direct.ok()) {
    report.Fail("replay direct fleet: " + direct.status().ToString());
    return;
  }
  std::vector<Frame> frames = DecideFrames(config.seed, plan);
  frames.resize(kReplayFrames);
  DecideStages stages;
  Stage rtt;
  auto client = Dial(*(*direct)->server);
  if (!client.ok()) {
    report.Fail("replay dial: " + client.status().ToString());
    return;
  }
  for (int round = 0; round < kReplayRounds; ++round) {
    MeasureStages(frames, *(*direct)->map, stages, report);
    for (const Frame& frame : frames) {
      cp::Result<std::vector<DecideResponse>> got =
          cp::Status::Internal("unset");
      rtt.Add(TimeNanos([&] { got = client->DecideBatch(frame); }));
      const std::string why = got.ok()
                                  ? CheckSheets(frame, *got, *(*direct)->map)
                                  : got.status().ToString();
      if (!why.empty()) report.Fail("replay direct oracle: " + why);
    }
  }
  const double per_req = 1e-3 / stages.requests;  // ns total -> us/request
  report.PerLayer("wire.req_encode_us", stages.req_encode.total_ns * per_req,
                  "us");
  report.PerLayer("wire.req_decode_us", stages.req_decode.total_ns * per_req,
                  "us");
  report.PerLayer("wire.resp_encode_us", stages.resp_encode.total_ns * per_req,
                  "us");
  report.PerLayer("wire.resp_decode_us", stages.resp_decode.total_ns * per_req,
                  "us");
  report.PerLayer("wire.req_bytes", stages.req_bytes / stages.requests,
                  "bytes");
  report.PerLayer("wire.resp_bytes", stages.resp_bytes / stages.requests,
                  "bytes");
  report.PerLayer("shard_map.decide_us_per_req",
                  stages.map_decide.total_ns * per_req, "us");
  report.PerLayer("shard_map.batch_us_per_req",
                  stages.batch_decide.total_ns * per_req, "us");
  const double rtt_us = rtt.MedianUs();
  report.PerLayer("client.rtt_us", rtt_us, "us");
  report.PerLayer("transport.residual_us", rtt_us - stages.PathMedianUs(),
                  "us");
  report.PerLayer("stages.coverage", stages.PathMedianUs() / rtt_us, "ratio");
  {
    std::vector<double> decides;
    for (int s = 0; s < (*direct)->map->num_shards(); ++s) {
      decides.push_back(
          static_cast<double>((*direct)->map->shard_stats(s).decides));
    }
    double mean = 0.0;
    for (double d : decides) mean += d / static_cast<double>(decides.size());
    report.PerLayer("shard_map.decide_imbalance",
                    *std::max_element(decides.begin(), decides.end()) / mean,
                    "ratio");
  }
  AddServerStats(*(*direct)->server, servers);
  direct->reset();

  // Routed: the decide_routed_churn fleet behind its router, and a direct
  // fleet holding the same base campaigns; each frame goes to both,
  // interleaved, alternating which goes first.
  const FleetPlan rplan = MakeFleetPlan(config.seed, DecideFleetShape(true));
  auto rpool = SolveArtifactPool(rplan);
  if (!rpool.ok()) {
    report.Fail("replay routed pool: " + rpool.status().ToString());
    return;
  }
  auto routed = StartRoutedFleet(rplan, *rpool);
  auto twin = StartDirectFleet(rplan, *rpool);
  if (!routed.ok() || !twin.ok()) {
    report.Fail("replay routed fleets: " + routed.status().ToString() + " / " +
                twin.status().ToString());
    return;
  }
  auto routed_client = Dial(*(*routed)->front);
  auto twin_client = Dial(*(*twin)->server);
  if (!routed_client.ok() || !twin_client.ok()) {
    report.Fail("replay routed dial failed");
    return;
  }
  std::vector<Frame> rframes = DecideFrames(config.seed, rplan);
  rframes.resize(kReplayFrames);
  DecideStages rstages;
  Stage routed_rtt, twin_rtt, splice;
  double owners = 0.0;
  const cp::router::PlacementTable placement = (*routed)->router->placement();
  for (int round = 0; round < kReplayRounds; ++round) {
    MeasureStages(rframes, *(*twin)->map, rstages, report);
    for (size_t i = 0; i < rframes.size(); ++i) {
      const Frame& frame = rframes[i];
      for (int arm = 0; arm < 2; ++arm) {
        const bool via_router = (arm == 0) == (i % 2 == 0);
        cp::net::PricingClient& c = via_router ? *routed_client : *twin_client;
        cp::Result<std::vector<DecideResponse>> got =
            cp::Status::Internal("unset");
        (via_router ? routed_rtt : twin_rtt)
            .Add(TimeNanos([&] { got = c.DecideBatch(frame); }));
        const std::string why = got.ok()
                                    ? CheckSheets(frame, *got, *(*twin)->map)
                                    : got.status().ToString();
        if (!why.empty()) report.Fail("replay routed oracle: " + why);
      }
      // The router's per-batch line work: split the request payload, read
      // each line's campaign id, rejoin the answers.
      const std::string payload = cp::net::SerializeDecideBatchRequest(frame);
      splice.Add(TimeNanos([&] {
        auto lines =
            cp::net::SplitDecideBatchPayload(payload, "decide batch");
        if (!lines.ok()) return;
        for (const std::string& line : *lines) {
          (void)cp::net::DecideLineCampaignId(line);
        }
        (void)cp::net::JoinDecideBatchPayload(*lines);
      }));
      if (round == 0) {
        std::set<std::string> backends;
        for (const auto& r : frame) {
          auto owner = placement.OwnerOf(r.campaign_id);
          if (owner.ok()) backends.insert(*owner);
        }
        owners += static_cast<double>(backends.size());
      }
    }
  }
  const double routed_us = routed_rtt.MedianUs();
  report.PerLayer("router.rtt_us", routed_us, "us");
  report.PerLayer("router.hop_us", routed_us - twin_rtt.MedianUs(), "us");
  report.PerLayer("router.splice_us", splice.MedianUs(), "us");
  report.PerLayer("router.backends_per_batch",
                  owners / static_cast<double>(rframes.size()), "count");
  report.PerLayer("routed.stages.coverage",
                  (rstages.PathMedianUs() + splice.MedianUs()) / routed_us,
                  "ratio");

  // Control over the wire through the router's front.
  LatencyHistogram wire_ops[4];
  ReplayControl(
      [&](ControlOp op) { return routed_client->Apply(op); }, rplan, *rpool,
      ControlCycles(config.seed, rplan, kReplayCycles), ChurnIds(rplan),
      wire_ops, report);
  LatencyHistogram wire_all;
  for (const LatencyHistogram& h : wire_ops) wire_all.Merge(h);
  report.PerLayer("control.rtt_us", wire_all.QuantileUs(0.5), "us");
  const cp::router::RouterStats rs = (*routed)->router->stats();
  uint64_t failovers = 0;
  for (const auto& h : (*routed)->router->Health()) failovers += h.failovers;
  report.PerLayer("router.unavailable", static_cast<double>(rs.unavailable),
                  "count");
  report.PerLayer("router.lost_campaigns",
                  static_cast<double>(rs.lost_campaigns), "count");
  report.PerLayer("router.failovers", static_cast<double>(failovers),
                  "count");
  AddServerStats(*(*routed)->front, servers);
  for (const auto& backend : (*routed)->backends) {
    AddServerStats(*backend, servers);
  }
  AddServerStats(*(*twin)->server, servers);
  report.PerLayer("server.frames_received",
                  static_cast<double>(servers.frames_received), "count");
  report.PerLayer("server.decide_requests",
                  static_cast<double>(servers.decide_requests), "count");
  report.PerLayer("server.control_ops",
                  static_cast<double>(servers.control_ops), "count");
  report.PerLayer("server.protocol_errors",
                  static_cast<double>(servers.protocol_errors), "count");

  // Control in process: the same cycles on a map holding the churn set.
  auto map = cp::serving::CampaignShardMap::Create(kShardsPerMap);
  if (!map.ok()) {
    report.Fail("replay control map: " + map.status().ToString());
    return;
  }
  for (CampaignId id : ChurnIds(rplan)) {
    const auto i = static_cast<size_t>(id - 1);
    const int a = rplan.campaign_artifact[i];
    auto admitted = map->Apply(ControlOp::AdmitSharedWithId(
        id, (*rpool)[static_cast<size_t>(a)], rplan.LimitsFor(a)));
    if (!admitted.ok()) {
      report.Fail("replay churn admit: " + admitted.status().ToString());
    }
  }
  LatencyHistogram apply_ops[4];
  ReplayControl([&](ControlOp op) { return map->Apply(std::move(op)); }, rplan,
                *rpool, ControlCycles(config.seed, rplan, kReplayCycles),
                ChurnIds(rplan), apply_ops, report);
  const char* kKinds[4] = {"admit", "swap", "tick", "retire"};
  for (int k = 0; k < 4; ++k) {
    report.PerLayer(std::string("shard_map.apply_us.") + kKinds[k],
                    apply_ops[k].QuantileUs(0.5), "us");
  }
  map->QuiesceReclamation();
  const cp::serving::SnapshotStats snap = map->snapshot_stats();
  report.PerLayer("snapshot.published", static_cast<double>(snap.published),
                  "count");
  report.PerLayer("snapshot.reclaimed", static_cast<double>(snap.reclaimed),
                  "count");
  report.PerLayer("snapshot.live", static_cast<double>(snap.live_campaigns),
                  "count");
  if (snap.published != snap.reclaimed + snap.live_campaigns) {
    report.Fail("snapshot counters do not reconcile after quiesce");
  }

  LatencyHistogram encode;
  for (int rep = 0; rep < kReplayRepeats; ++rep) {
    for (size_t a = 0; a < rpool->size(); ++a) {
      const ControlOp op = ControlOp::AdmitShared(
          (*rpool)[a], rplan.LimitsFor(static_cast<int>(a)));
      encode.RecordNanos(
          TimeNanos([&] { (void)cp::net::SerializeControlOp(op); }));
    }
  }
  report.PerLayer("wire.control_encode_us", encode.QuantileUs(0.5), "us");
}

// --- engine and kernel -----------------------------------------------------

void ReplaySolveFarm(const RunConfig& config, Report& report) {
  const std::vector<cp::engine::PolicySpec> wave = WorkloadWave(config.seed);
  LatencyHistogram solve;
  for (int i = 0; i < kReplaySolveSpecs; ++i) {
    solve.RecordNanos(TimeNanos([&] {
      (void)cp::engine::Engine::Solve(wave[static_cast<size_t>(i)]);
    }));
  }
  report.PerLayer("engine.solve_ms", solve.QuantileMs(0.5), "ms");

  // The same sub-wave sequentially (solve + nominal evaluation per spec)
  // and through SolveWave, run back to back.
  const std::span<const cp::engine::PolicySpec> sub(
      wave.data(), static_cast<size_t>(kReplayWaveSpecs));
  std::vector<cp::Result<cp::engine::PolicyArtifact>> sequential;
  const uint64_t sequential_ns = TimeNanos([&] {
    for (const cp::engine::PolicySpec& spec : sub) {
      auto artifact = cp::engine::Engine::Solve(spec);
      if (artifact.ok()) (void)artifact->PrecomputeEvaluation();
      sequential.push_back(std::move(artifact));
    }
  });
  cp::engine::SolverPool pool(std::max(1, config.nproc), /*background=*/false);
  cp::kernel::PmfShareCache cache;
  cp::engine::SolveWaveOptions options;
  options.pool = &pool;
  options.share_cache = &cache;
  options.evaluate = true;
  std::vector<cp::Result<cp::engine::PolicyArtifact>> farmed;
  const uint64_t wave_ns =
      TimeNanos([&] { farmed = cp::engine::SolveWave(sub, options); });
  for (size_t i = 0; i < sub.size(); ++i) {
    const std::string why =
        farmed[i].ok() && sequential[i].ok()
            ? CheckArtifact(*farmed[i], *sequential[i])
            : "solve failed";
    if (!why.empty()) {
      report.Fail(StringF("replay wave %zu: %s", i, why.c_str()));
    }
  }
  report.PerLayer("wave.speedup_vs_sequential",
                  static_cast<double>(sequential_ns) /
                      static_cast<double>(wave_ns),
                  "ratio");
  report.PerLayer("pool.jobs_completed", static_cast<double>(pool.completed()),
                  "count");
  const cp::kernel::PmfArena::Stats stats = cache.stats();
  report.PerLayer("pmf_cache.blocks_built",
                  static_cast<double>(stats.blocks_built), "count");
  report.PerLayer("pmf_cache.blocks_shared",
                  static_cast<double>(stats.blocks_shared), "count");
  report.PerLayer("pmf_cache.hit_ratio", HitRatio(stats), "ratio");
  report.PerLayer("pmf_cache.resident_bytes",
                  static_cast<double>(cache.resident_bytes()), "bytes");
  report.PerLayer("pmf_cache.evicted", static_cast<double>(cache.evicted()),
                  "count");
}

// --- pricing --------------------------------------------------------------

void ReplayPricing(const RunConfig& config, Report& report) {
  const cp::engine::DeadlineDpSpec spec = InteractiveWarmupSpec(config.seed);
  const cp::pricing::ActionSet& actions = *spec.actions;
  const double bound = *spec.expected_remaining_bound;
  auto solved = cp::pricing::SolveForExpectedRemaining(
      spec.problem, spec.interval_lambdas, actions, bound);
  if (!solved.ok() || !(solved->evaluation.expected_remaining <= bound)) {
    report.Fail("replay bound solve: " + solved.status().ToString());
    return;
  }
  report.PerLayer("penalty_search.dp_solves",
                  static_cast<double>(solved->dp_solves), "count");
  cp::pricing::DeadlineProblem at_penalty = spec.problem;
  at_penalty.penalty_cents = solved->penalty_used;

  LatencyHistogram parallel, serial, evaluate;
  int threads_used = 0;
  for (int rep = 0; rep < kReplayRepeats; ++rep) {
    cp::Result<cp::pricing::DeadlinePlan> plan = cp::Status::Internal("unset");
    parallel.RecordNanos(TimeNanos([&] {
      plan = cp::pricing::SolveImprovedDp(at_penalty, spec.interval_lambdas,
                                          actions);
    }));
    cp::pricing::DpOptions one_thread;
    one_thread.num_threads = 1;
    serial.RecordNanos(TimeNanos([&] {
      (void)cp::pricing::SolveImprovedDp(at_penalty, spec.interval_lambdas,
                                         actions, one_thread);
    }));
    if (!plan.ok()) {
      report.Fail("replay dp solve: " + plan.status().ToString());
      return;
    }
    threads_used = plan->threads_used;
    evaluate.RecordNanos(
        TimeNanos([&] { (void)cp::pricing::EvaluatePolicyNominal(*plan); }));
  }
  report.PerLayer("deadline_dp.solve_ms", parallel.QuantileMs(0.5), "ms");
  report.PerLayer("deadline_dp.threads_used", threads_used, "count");
  report.PerLayer("deadline_dp.serial_over_parallel",
                  serial.QuantileNanos(0.5) / parallel.QuantileNanos(0.5),
                  "ratio");
  report.PerLayer("policy_eval.nominal_ms", evaluate.QuantileMs(0.5), "ms");

  // PmfArena::Build over the spec's whole rate grid, interval-major.
  std::vector<double> rates;
  for (double lambda : spec.interval_lambdas) {
    for (const auto& a : actions.actions()) {
      rates.push_back(lambda * a.acceptance);
    }
  }
  LatencyHistogram build;
  for (int rep = 0; rep < kReplayRepeats; ++rep) {
    build.RecordNanos(TimeNanos([&] {
      (void)cp::kernel::PmfArena::Build(rates,
                                        spec.problem.truncation_epsilon);
    }));
  }
  report.PerLayer("pmf_arena.build_ms", build.QuantileMs(0.5), "ms");

  // What cross-campaign sharing buys interactive campaigns: one cache
  // across single-penalty solves of distinct campaigns.
  cp::kernel::PmfShareCache cache;
  for (const cp::engine::DeadlineDpSpec& s :
       WorkloadInteractiveSpecs(config.seed, kReplayCacheSpecs)) {
    cp::pricing::DpOptions shared;
    shared.share_cache = &cache;
    cp::pricing::DeadlineProblem p = s.problem;
    p.penalty_cents = solved->penalty_used;
    (void)cp::pricing::SolveImprovedDp(p, s.interval_lambdas, *s.actions,
                                       shared);
  }
  report.PerLayer("interactive.pmf_cache.hit_ratio", HitRatio(cache.stats()),
                  "ratio");
}

}  // namespace

void RunLayerReplay(const RunConfig& config, Report& report) {
  report.Attempt();
  Clock::time_point t0 = Clock::now();
  ReplayDecide(config, report);
  report.Info("replay.decide_s", SecondsSince(t0), "s");
  t0 = Clock::now();
  ReplaySolveFarm(config, report);
  report.Info("replay.solve_farm_s", SecondsSince(t0), "s");
  t0 = Clock::now();
  ReplayPricing(config, report);
  report.Info("replay.pricing_s", SecondsSince(t0), "s");
}

}  // namespace perfbench
