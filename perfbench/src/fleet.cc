#include "fleet.h"

#include <string>
#include <utility>

namespace perfbench {

namespace {

cp::Result<std::unique_ptr<cp::net::PricingServer>> StartServer(
    cp::Result<cp::net::PricingServer> created) {
  if (!created.ok()) return created.status();
  auto server =
      std::make_unique<cp::net::PricingServer>(std::move(created).value());
  cp::Status started = server->Start();
  if (!started.ok()) return started;
  return server;
}

cp::Result<std::unique_ptr<cp::serving::CampaignShardMap>> NewMap() {
  cp::Result<cp::serving::CampaignShardMap> map =
      cp::serving::CampaignShardMap::Create(kShardsPerMap);
  if (!map.ok()) return map.status();
  return std::make_unique<cp::serving::CampaignShardMap>(
      std::move(map).value());
}

// Base/churn campaign i under its plan id.
cp::serving::ControlOp AdmitOp(const FleetPlan& plan, const ArtifactPool& pool,
                               int i) {
  const int artifact = plan.campaign_artifact[static_cast<size_t>(i)];
  return cp::serving::ControlOp::AdmitSharedWithId(
      plan.BaseId(i), pool[static_cast<size_t>(artifact)],
      plan.LimitsFor(artifact));
}

}  // namespace

cp::Result<std::unique_ptr<cp::serving::CampaignShardMap>> BuildBaseMap(
    const FleetPlan& plan, const ArtifactPool& pool) {
  auto map = NewMap();
  if (!map.ok()) return map.status();
  for (int i = 0; i < plan.shape.campaigns; ++i) {
    cp::Status admitted = (*map)->Apply(AdmitOp(plan, pool, i)).status();
    if (!admitted.ok()) return admitted;
  }
  return map;
}

cp::Result<std::unique_ptr<DirectFleet>> StartDirectFleet(
    const FleetPlan& plan, const ArtifactPool& pool) {
  auto fleet = std::make_unique<DirectFleet>();
  auto map = BuildBaseMap(plan, pool);
  if (!map.ok()) return map.status();
  fleet->map = std::move(map).value();
  cp::net::ServerOptions options;
  options.num_workers = kServerWorkers;
  auto server =
      StartServer(cp::net::PricingServer::Create(fleet->map.get(), options));
  if (!server.ok()) return server.status();
  fleet->server = std::move(server).value();
  return fleet;
}

cp::Result<std::unique_ptr<RoutedFleet>> StartRoutedFleet(
    const FleetPlan& plan, const ArtifactPool& pool) {
  auto fleet = std::make_unique<RoutedFleet>();
  cp::net::ServerOptions options;
  options.num_workers = kServerWorkers;
  std::vector<std::string> endpoints;
  for (int b = 0; b < kRoutedBackends; ++b) {
    auto map = NewMap();
    if (!map.ok()) return map.status();
    fleet->maps.push_back(std::move(map).value());
    auto server = StartServer(
        cp::net::PricingServer::Create(fleet->maps.back().get(), options));
    if (!server.ok()) return server.status();
    endpoints.push_back("127.0.0.1:" + std::to_string(server->get()->port()));
    fleet->backends.push_back(std::move(server).value());
  }
  cp::Result<cp::router::CampaignRouter> router =
      cp::router::CampaignRouter::Create(endpoints);
  if (!router.ok()) return router.status();
  fleet->router =
      std::make_unique<cp::router::CampaignRouter>(std::move(router).value());
  const int total = plan.shape.campaigns + plan.shape.churn_campaigns;
  for (int i = 0; i < total; ++i) {
    cp::Status admitted =
        fleet->router->Apply(AdmitOp(plan, pool, i)).status();
    if (!admitted.ok()) return admitted;
  }
  auto front = StartServer(cp::net::PricingServer::Create(
      static_cast<cp::net::ServingSurface*>(fleet->router.get()), options));
  if (!front.ok()) return front.status();
  fleet->front = std::move(front).value();
  return fleet;
}

cp::Result<cp::net::PricingClient> Dial(const cp::net::PricingServer& server) {
  return cp::net::PricingClient::Connect("127.0.0.1", server.port());
}

}  // namespace perfbench
