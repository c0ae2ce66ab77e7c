// The serving stacks the decide workloads (and the traced replay) run
// against, built from a FleetPlan: one PricingServer over a
// CampaignShardMap (direct), or a PricingServer fronting a CampaignRouter
// over backend PricingServers (routed). Members are declared so that
// destruction stops servers before the maps and router they borrow.

#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <memory>
#include <vector>

#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "router/router.h"
#include "serving/campaign_shard_map.h"

namespace perfbench {

using ArtifactPool =
    std::vector<std::shared_ptr<const cp::engine::PolicyArtifact>>;

inline constexpr int kShardsPerMap = 8;
inline constexpr int kRoutedBackends = 2;
/// Handler threads of every PricingServer the benchmark starts.
inline constexpr int kServerWorkers = 4;

struct DirectFleet {
  std::unique_ptr<cp::serving::CampaignShardMap> map;
  std::unique_ptr<cp::net::PricingServer> server;
};

struct RoutedFleet {
  std::vector<std::unique_ptr<cp::serving::CampaignShardMap>> maps;
  std::vector<std::unique_ptr<cp::net::PricingServer>> backends;
  std::unique_ptr<cp::router::CampaignRouter> router;
  std::unique_ptr<cp::net::PricingServer> front;
};

/// A shard map holding the plan's base campaigns under their ids (the
/// direct fleet's serving map, and every decide oracle's reference).
cp::Result<std::unique_ptr<cp::serving::CampaignShardMap>> BuildBaseMap(
    const FleetPlan& plan, const ArtifactPool& pool);

/// Base campaigns on one map behind one started server.
cp::Result<std::unique_ptr<DirectFleet>> StartDirectFleet(
    const FleetPlan& plan, const ArtifactPool& pool);

/// kRoutedBackends empty backends behind a router behind a front server;
/// base and churn campaigns are admitted through the router under their
/// plan ids.
cp::Result<std::unique_ptr<RoutedFleet>> StartRoutedFleet(
    const FleetPlan& plan, const ArtifactPool& pool);

/// A plain-TCP loopback client.
cp::Result<cp::net::PricingClient> Dial(const cp::net::PricingServer& server);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
