// perfbench self-tests: the latency histogram's error bound and the output
// oracles. (The "every workload emits every named metric" test is the tiny
// run driven by `run.py --selftest`.) Exits non-zero on any failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fleet.h"
#include "histogram.h"
#include "inputs.h"
#include "oracle.h"

namespace {

namespace cp = crowdprice;
using perfbench::LatencyHistogram;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// Histogram quantiles against exact nearest-rank quantiles of a seeded
// log-uniform sample spanning 10 ns .. 10 s, and merge == single recorder.
void HistogramWithinStatedError() {
  cp::Rng rng(20140901);
  std::vector<uint64_t> sample;
  LatencyHistogram whole, left, right;
  for (int i = 0; i < 200000; ++i) {
    const auto v = static_cast<uint64_t>(std::exp(
        std::log(10.0) + rng.NextDouble() * (std::log(1e10) - std::log(10.0))));
    sample.push_back(v);
    whole.RecordNanos(v);
    (i % 2 == 0 ? left : right).RecordNanos(v);
  }
  std::sort(sample.begin(), sample.end());
  left.Merge(right);
  double worst = 0.0;
  for (double q : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sample.size())));
    const double exact = static_cast<double>(sample[rank - 1]);
    worst = std::max(worst, std::abs(whole.QuantileNanos(q) - exact) / exact);
    Expect(left.QuantileNanos(q) == whole.QuantileNanos(q),
           "merged halves give the whole sample's q=" + std::to_string(q));
  }
  Expect(worst <= 0.03, "histogram quantile relative error " +
                            std::to_string(worst) + " <= 0.03");
  Expect(whole.count() == sample.size(), "histogram counts every sample");
}

// The decide oracle accepts the reference's own sheets and fires on a
// sheet one ulp off, on a misaligned campaign id, and on an error status.
void DecideOracleFires() {
  perfbench::FleetShape shape;
  shape.artifacts = 4;
  shape.campaigns = 64;
  const perfbench::FleetPlan plan = perfbench::MakeFleetPlan(7, shape);
  auto pool = perfbench::SolveArtifactPool(plan);
  Expect(pool.ok(), "artifact pool solves");
  if (!pool.ok()) return;
  auto map = perfbench::BuildBaseMap(plan, *pool);
  Expect(map.ok(), "reference map builds");
  if (!map.ok()) return;
  cp::Rng rng(11);
  const perfbench::Frame frame =
      perfbench::MakeFrames(rng, plan, 1, 8, 8).front();
  std::vector<cp::serving::DecideResponse> responses;
  for (const auto& r : frame) {
    cp::serving::DecideResponse response;
    response.campaign_id = r.campaign_id;
    response.sheet = (*map)->Decide(r.campaign_id, r.request).value();
    responses.push_back(response);
  }
  Expect(perfbench::CheckSheets(frame, responses, **map).empty(),
         "oracle accepts the reference sheets");

  auto corrupted = responses;
  double& reward = corrupted[3].sheet.offers[0].per_task_reward_cents;
  reward = std::nextafter(reward, 1e9);
  Expect(!perfbench::CheckSheets(frame, corrupted, **map).empty(),
         "oracle fires on a sheet one ulp off");

  auto misaligned = responses;
  std::swap(misaligned[0], misaligned[1]);
  Expect(frame[0].campaign_id == frame[1].campaign_id ||
             !perfbench::CheckSheets(frame, misaligned, **map).empty(),
         "oracle fires on misaligned responses");

  auto failed = responses;
  failed[5].status = cp::Status::NotFound("gone");
  Expect(!perfbench::CheckSheets(frame, failed, **map).empty(),
         "oracle fires on an error status");

  auto short_batch = responses;
  short_batch.pop_back();
  Expect(!perfbench::CheckSheets(frame, short_batch, **map).empty(),
         "oracle fires on a missing response");
}

// The artifact oracle accepts an evaluated re-solve of the same spec and
// fires on an artifact without an evaluation and on the artifact of a
// different spec; the bound oracle fires above its bound.
void ArtifactOracleFires() {
  cp::Rng rng(3);
  perfbench::WaveShape shape;
  shape.campaigns = 2;
  auto specs =
      perfbench::MakeWaveSpecs(rng, shape, perfbench::PriceGrid(20));
  auto a = cp::engine::Engine::Solve(specs[0]);
  auto again = cp::engine::Engine::Solve(specs[0]);
  auto b = cp::engine::Engine::Solve(specs[1]);
  Expect(a.ok() && again.ok() && b.ok(), "wave specs solve");
  if (!a.ok() || !again.ok() || !b.ok()) return;
  Expect(!perfbench::CheckArtifact(*a, *again).empty(),
         "artifact oracle fires on an artifact without an evaluation");
  Expect(a->PrecomputeEvaluation().ok(), "evaluation precomputes");
  Expect(perfbench::CheckArtifact(*a, *again).empty(),
         "artifact oracle accepts a sequential re-solve");
  Expect(!perfbench::CheckArtifact(*a, *b).empty(),
         "artifact oracle fires on a wrong artifact");

  auto interactive = perfbench::WorkloadInteractiveSpecs(5, 1).front();
  interactive.problem.num_tasks = 60;
  auto bounded = cp::engine::Engine::Solve(interactive);
  Expect(bounded.ok(), "bound-mode spec solves");
  if (!bounded.ok()) return;
  Expect(perfbench::CheckBound(*bounded, *interactive.expected_remaining_bound)
             .empty(),
         "bound oracle accepts a solved bound");
  Expect(!perfbench::CheckBound(*bounded, -1.0).empty(),
         "bound oracle fires above its bound");
}

}  // namespace

int main() {
  HistogramWithinStatedError();
  DecideOracleFires();
  ArtifactOracleFires();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
