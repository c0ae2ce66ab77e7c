// Output oracles: every answer the benchmark times is checked against an
// in-process reference before the run may report success.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "engine/policy_artifact.h"
#include "inputs.h"
#include "serving/campaign_shard_map.h"

namespace perfbench {

/// Decide responses (direct or routed) against CampaignShardMap::Decide on
/// a reference map holding the same artifacts under the same ids: every
/// response must be OK, aligned by campaign id, and its sheet must
/// serialize (net::SerializeOfferSheet) byte-equal to the reference
/// sheet. Returns "" when they match, else the first mismatch.
std::string CheckSheets(const Frame& frame,
                        const std::vector<cp::serving::DecideResponse>& got,
                        cp::serving::CampaignShardMap& reference);

/// A farm-solved artifact against the sequential Engine::Solve of the same
/// spec: Serialize() bytes equal, and `got` must carry a nominal
/// evaluation (SolveWave with evaluate = true attaches one) whose expected
/// cost and remaining are bit-equal to `want.Evaluate()`. Returns "" on a
/// match.
std::string CheckArtifact(const cp::engine::PolicyArtifact& got,
                          const cp::engine::PolicyArtifact& want);

/// A bound-mode artifact's nominal E[remaining] must not exceed `bound`.
/// Returns "" when it holds.
std::string CheckBound(const cp::engine::PolicyArtifact& artifact,
                       double bound);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
