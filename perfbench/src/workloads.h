// The four workloads and the traced per-layer replay. Each Run* builds its
// inputs from the run's seed, sets up (several times; the median is
// setup_s), measures for the configured seconds, checks every sampled
// output, and adds its metrics to the report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

/// Set-ups per run; setup_s is their median and the last one is measured.
inline constexpr int kSetupRepetitions = 3;

/// decide_direct (routed = false) and decide_routed_churn (routed = true).
void RunDecide(const RunConfig& config, bool routed, Report& report);

void RunSolveWave(const RunConfig& config, Report& report);

void RunSolveInteractive(const RunConfig& config, Report& report);

/// Traced runs only: replays a sample of the seed's inputs through each
/// layer's public calls separately and reports the per-layer metrics.
void RunLayerReplay(const RunConfig& config, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
