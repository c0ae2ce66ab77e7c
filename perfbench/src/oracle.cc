#include "oracle.h"

#include <bit>
#include <cstdint>

#include "net/wire.h"
#include "util/stringf.h"

namespace perfbench {

using cp::StringF;

std::string CheckSheets(const Frame& frame,
                        const std::vector<cp::serving::DecideResponse>& got,
                        cp::serving::CampaignShardMap& reference) {
  if (got.size() != frame.size()) {
    return StringF("%zu responses for %zu requests", got.size(),
                   frame.size());
  }
  for (size_t i = 0; i < frame.size(); ++i) {
    const cp::serving::DecideRequest& request = frame[i];
    const cp::serving::DecideResponse& response = got[i];
    if (response.campaign_id != request.campaign_id) {
      return StringF("response %zu is for campaign %llu, asked %llu", i,
                     static_cast<unsigned long long>(response.campaign_id),
                     static_cast<unsigned long long>(request.campaign_id));
    }
    if (!response.status.ok()) {
      return StringF("campaign %llu: %s",
                     static_cast<unsigned long long>(request.campaign_id),
                     response.status.ToString().c_str());
    }
    cp::Result<cp::market::OfferSheet> want =
        reference.Decide(request.campaign_id, request.request);
    if (!want.ok()) {
      return "reference decide failed: " + want.status().ToString();
    }
    const std::string got_text = cp::net::SerializeOfferSheet(response.sheet);
    const std::string want_text = cp::net::SerializeOfferSheet(*want);
    if (got_text != want_text) {
      return StringF("campaign %llu sheet differs: got '%s' want '%s'",
                     static_cast<unsigned long long>(request.campaign_id),
                     got_text.c_str(), want_text.c_str());
    }
  }
  return "";
}

std::string CheckArtifact(const cp::engine::PolicyArtifact& got,
                          const cp::engine::PolicyArtifact& want) {
  cp::Result<std::string> got_text = got.Serialize();
  cp::Result<std::string> want_text = want.Serialize();
  if (!got_text.ok() || !want_text.ok()) {
    return "artifact does not serialize";
  }
  if (*got_text != *want_text) return "artifact bytes differ from sequential";
  cp::Result<const cp::pricing::PolicyEvaluation*> got_eval =
      got.deadline_evaluation();
  if (!got_eval.ok()) return "artifact carries no nominal evaluation";
  cp::Result<cp::pricing::PolicyEvaluation> want_eval = want.Evaluate();
  if (!want_eval.ok()) return "sequential evaluation failed";
  if (std::bit_cast<uint64_t>((*got_eval)->expected_cost_cents) !=
          std::bit_cast<uint64_t>(want_eval->expected_cost_cents) ||
      std::bit_cast<uint64_t>((*got_eval)->expected_remaining) !=
          std::bit_cast<uint64_t>(want_eval->expected_remaining)) {
    return "nominal evaluation differs from sequential";
  }
  return "";
}

std::string CheckBound(const cp::engine::PolicyArtifact& artifact,
                       double bound) {
  cp::Result<const cp::pricing::PolicyEvaluation*> eval =
      artifact.deadline_evaluation();
  if (!eval.ok()) return "no nominal evaluation: " + eval.status().ToString();
  if (!((*eval)->expected_remaining <= bound)) {
    return StringF("E[remaining] %.6g exceeds bound %.6g",
                   (*eval)->expected_remaining, bound);
  }
  return "";
}

}  // namespace perfbench
