// Serving load: decide latency over the wire, direct and through the router.
//
// The in-process benches (bench_fleet_*) measure the serving layer with
// callers in the same address space; this one measures the wire path end to
// end. Load-generator *processes* each hold one TCP connection and stream
// 16-request decide-batch frames at a 64-campaign fleet over loopback. Two
// topologies serve the same artifact:
//   * direct: one PricingServer over a CampaignShardMap, loaded by 1/2/4/8
//     connections (1/2 in smoke mode);
//   * routed: a front PricingServer over a CampaignRouter over 2/3/4
//     backend servers, loaded by 4 connections (2 in smoke mode). Batches
//     spread over the fleet, so routed batches take the fan-out path.
// Every topology is built once. The cells then run interleaved, each repeat
// rotating which cell goes first, for kRepeats repeats, so a stretch of
// host noise lands on every cell instead of one. Children send back raw
// per-batch round trips in nanoseconds; the parent records each round into
// a util::LatencyHistogram. Each cell reports the median over repeats of
// its p50, p99 and sheets/sec, with the interquartile range of its p99s as
// the spread.
//
// The router's promise: the median routed p99 stays within 2x of the
// median p99 of the direct cell at the same connection count, measured in
// the same repeats (16x in smoke mode, whose rounds are too short for
// stable tails). check_bench_json re-applies the bound to the record.
//
// The generators are forked BEFORE any server exists (fork and threads do
// not mix) and idle on their config pipes; the parent owns the maps, the
// routers and the servers. Emits BENCH_serving.json.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "choice/acceptance.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "router/router.h"
#include "serving/campaign_shard_map.h"
#include "stats/descriptive.h"
#include "util/latency_histogram.h"
#include "util/table.h"

using namespace crowdprice;

namespace {

constexpr int kCampaigns = 64;
constexpr int kBatchSize = 16;
constexpr int kRepeats = 5;

/// One round's marching orders, parent -> child over a pipe: the port to
/// load and the ids of the fleet behind it (each topology admits its own).
struct RoundConfig {
  uint32_t port = 0;
  uint64_t campaign_ids[kCampaigns] = {};
};

/// One child's round summary, child -> parent. Its `batches_completed`
/// per-batch round trips follow on the pipe as raw uint64_t nanoseconds.
struct RoundResult {
  int64_t batches_completed = 0;
  int64_t sheets = 0;
  int64_t failures = 0;
  double seconds = 0.0;
};

bool ReadFull(int fd, void* out, size_t size) {
  auto* bytes = static_cast<char*>(out);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = read(fd, bytes + got, size - got);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

bool WriteFull(int fd, const void* data, size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = write(fd, bytes + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// The load-generator body: runs in the forked child, never returns. Each
/// round: connect, stream `batches` decide-batch frames over the fleet,
/// report the round trips, disconnect. EOF on the config pipe ends it.
[[noreturn]] void GeneratorLoop(int config_fd, int result_fd, int index,
                                int batches) {
  RoundConfig config;
  std::vector<uint64_t> nanos;
  nanos.reserve(static_cast<size_t>(batches));
  std::vector<serving::DecideRequest> batch;
  batch.reserve(kBatchSize);
  while (ReadFull(config_fd, &config, sizeof(config))) {
    RoundResult result;
    nanos.clear();
    auto client = net::PricingClient::Connect(
        "127.0.0.1", static_cast<uint16_t>(config.port));
    if (!client.ok()) {
      result.failures = batches;
    } else {
      const auto start = std::chrono::steady_clock::now();
      for (int b = 0; b < batches; ++b) {
        batch.clear();
        for (int r = 0; r < kBatchSize; ++r) {
          // Spread requests over the fleet, staggered by child index so
          // connections do not march over campaigns in lockstep.
          const int pick = (index + b * kBatchSize + r) % kCampaigns;
          batch.push_back(serving::DecideRequest::Single(
              config.campaign_ids[pick], 1.0 + 0.25 * (r % 8),
              1 + (b + r) % 16));
        }
        const auto sent = std::chrono::steady_clock::now();
        const auto responses = client->DecideBatch(batch);
        const auto elapsed = std::chrono::steady_clock::now() - sent;
        if (!responses.ok()) {
          ++result.failures;
          continue;
        }
        nanos.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
        for (const serving::DecideResponse& response : *responses) {
          if (response.status.ok()) ++result.sheets;
        }
      }
      result.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    }
    result.batches_completed = static_cast<int64_t>(nanos.size());
    if (!WriteFull(result_fd, &result, sizeof(result)) ||
        !WriteFull(result_fd, nanos.data(), nanos.size() * sizeof(uint64_t))) {
      break;
    }
  }
  _exit(0);
}

/// One measured configuration and its per-repeat readings.
struct Cell {
  std::string key;  ///< Metric suffix: "conns_4", "backends_3".
  int conns = 0;
  RoundConfig config;
  std::vector<double> p50s = {}, p99s = {}, sheets_per_sec = {};
  int64_t failures = 0;
  int64_t completed = 0;
};

double RepeatQuantile(const std::vector<double>& values, double q) {
  auto quantile = stats::Percentile(values, q);
  bench::DieOnError(quantile.status(), "repeat quantile");
  return *quantile;
}

/// A router over its own backends, behind its own front server.
struct RoutedTopology {
  int backends = 0;
  std::vector<std::unique_ptr<serving::CampaignShardMap>> maps;
  std::vector<std::unique_ptr<net::PricingServer>> servers;
  std::unique_ptr<router::CampaignRouter> router;
  std::unique_ptr<net::PricingServer> front;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Serving load: decide latency, direct and routed ===\n";

  const std::vector<int> direct_conns =
      bench::Smoke() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const int routed_conns = bench::Smoke() ? 2 : 4;
  const std::vector<int> backend_counts = {2, 3, 4};
  const int max_conns = direct_conns.back();
  const int batches = bench::SmokeN(400, 40);

  // Fork the generator pool before anything spawns a thread (the engine
  // solve, the servers and the routers' fan-out all do).
  std::fflush(stdout);
  struct Child {
    pid_t pid = -1;
    int config_fd = -1;  ///< Parent writes round configs here.
    int result_fd = -1;  ///< Parent reads round results here.
  };
  std::vector<Child> children;
  for (int i = 0; i < max_conns; ++i) {
    int to_child[2];
    int to_parent[2];
    if (pipe(to_child) != 0 || pipe(to_parent) != 0) {
      std::cerr << "bench_serving: pipe: " << std::strerror(errno) << "\n";
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "bench_serving: fork: " << std::strerror(errno) << "\n";
      return 1;
    }
    if (pid == 0) {
      close(to_child[1]);
      close(to_parent[0]);
      for (const Child& sibling : children) {
        close(sibling.config_fd);
        close(sibling.result_fd);
      }
      GeneratorLoop(to_child[0], to_parent[1], i, batches);
    }
    close(to_child[0]);
    close(to_parent[1]);
    children.push_back(Child{pid, to_child[1], to_parent[0]});
  }

  // Parent only from here: solve one artifact and build every topology.
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = 20;
  spec.problem.num_intervals = 8;
  spec.problem.penalty_cents = 150.0;
  spec.interval_lambdas.assign(8, 60.0);
  auto actions = pricing::ActionSet::FromPriceGrid(
      30, choice::LogitAcceptance::Paper2014());
  bench::DieOnError(actions.status(), "actions");
  spec.actions = std::move(actions).value();
  const auto artifact = std::make_shared<const engine::PolicyArtifact>(
      bench::SolveOrDie(spec, "solve"));
  serving::CampaignLimits limits;
  limits.total_tasks = 20;
  limits.deadline_hours = 8.0;

  const auto admit_fleet = [&](auto& surface, RoundConfig& config) {
    for (uint64_t& id : config.campaign_ids) {
      auto admitted =
          surface.Apply(serving::ControlOp::AdmitShared(artifact, limits));
      bench::DieOnError(admitted.status(), "admit");
      id = admitted->id;
    }
  };
  const auto start_server = [](auto* backing, int workers) {
    net::ServerOptions options;
    options.port = 0;
    options.num_workers = workers;
    auto server = net::PricingServer::Create(backing, options);
    bench::DieOnError(server.status(), "server create");
    auto started = std::make_unique<net::PricingServer>(std::move(*server));
    bench::DieOnError(started->Start(), "server start");
    return started;
  };

  std::vector<Cell> cells;
  auto direct_map = serving::CampaignShardMap::Create(8);
  bench::DieOnError(direct_map.status(), "direct map");
  const auto direct_server = start_server(&direct_map.value(), 4);
  RoundConfig direct_config;
  direct_config.port = direct_server->port();
  admit_fleet(*direct_map, direct_config);
  for (const int conns : direct_conns) {
    cells.push_back(Cell{StringF("conns_%d", conns), conns, direct_config});
  }
  const size_t baseline_cell = static_cast<size_t>(
      std::find(direct_conns.begin(), direct_conns.end(), routed_conns) -
      direct_conns.begin());

  std::vector<RoutedTopology> routed(backend_counts.size());
  for (size_t t = 0; t < routed.size(); ++t) {
    RoutedTopology& topology = routed[t];
    topology.backends = backend_counts[t];
    std::vector<std::string> names;
    for (int b = 0; b < topology.backends; ++b) {
      auto map = serving::CampaignShardMap::Create(4);
      bench::DieOnError(map.status(), "backend map");
      topology.maps.push_back(
          std::make_unique<serving::CampaignShardMap>(std::move(*map)));
      topology.servers.push_back(start_server(topology.maps.back().get(), 2));
      names.push_back("127.0.0.1:" +
                      std::to_string(topology.servers.back()->port()));
    }
    router::RouterOptions router_options;
    router_options.pool.probe_interval_ms = 100;  // Probes under load.
    auto router = router::CampaignRouter::Create(names, router_options);
    bench::DieOnError(router.status(), "router");
    topology.router =
        std::make_unique<router::CampaignRouter>(std::move(*router));
    topology.front = start_server(topology.router.get(), 4);
    RoundConfig config;
    config.port = topology.front->port();
    admit_fleet(*topology.router, config);
    cells.push_back(Cell{StringF("backends_%d", topology.backends),
                         routed_conns, config});
  }
  std::cout << StringF(
      "%d campaigns, %d-request batches, %d batches per connection, %d "
      "interleaved repeats of %zu cells\n\n",
      kCampaigns, kBatchSize, batches, kRepeats, cells.size());

  // One round: the cell's generators stream their batches at its port; the
  // parent folds every round trip into the round's histogram.
  const auto run_round = [&](Cell& cell) {
    for (int i = 0; i < cell.conns; ++i) {
      if (!WriteFull(children[static_cast<size_t>(i)].config_fd, &cell.config,
                     sizeof(cell.config))) {
        bench::DieOnError(Status::Internal("config pipe closed early"),
                          "round dispatch");
      }
    }
    util::LatencyHistogram histogram;
    std::vector<uint64_t> nanos;
    int64_t sheets = 0;
    double slowest = 0.0;
    for (int i = 0; i < cell.conns; ++i) {
      const int fd = children[static_cast<size_t>(i)].result_fd;
      RoundResult result;
      bool ok = ReadFull(fd, &result, sizeof(result));
      if (ok) {
        nanos.resize(static_cast<size_t>(result.batches_completed));
        ok = ReadFull(fd, nanos.data(), nanos.size() * sizeof(uint64_t));
      }
      if (!ok) {
        bench::DieOnError(Status::Internal("result pipe closed early"),
                          "round collect");
      }
      for (const uint64_t v : nanos) histogram.RecordNanos(v);
      sheets += result.sheets;
      cell.failures += result.failures;
      cell.completed += result.batches_completed;
      slowest = std::max(slowest, result.seconds);
    }
    cell.p50s.push_back(histogram.QuantileMs(0.50));
    cell.p99s.push_back(histogram.QuantileMs(0.99));
    cell.sheets_per_sec.push_back(
        slowest > 0.0 ? static_cast<double>(sheets) / slowest : 0.0);
  };
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (size_t i = 0; i < cells.size(); ++i) {
      run_round(cells[(static_cast<size_t>(rep) + i) % cells.size()]);
    }
  }

  // Tear the pool down: EOF on the config pipes ends the round loops.
  for (Child& child : children) {
    close(child.config_fd);
    close(child.result_fd);
  }
  for (Child& child : children) {
    int wstatus = 0;
    waitpid(child.pid, &wstatus, 0);
    bench::Check(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0,
                 "load generator exited cleanly");
  }

  bench::BenchRecord record("serving");
  record.Label("layer", "router+net+serving");
  record.Param("campaigns", kCampaigns);
  record.Param("batch_size", kBatchSize);
  record.Param("batches_per_conn", batches);
  record.Param("repeats", kRepeats);
  record.Param("routed_connections", routed_conns);

  const double direct_p99 = RepeatQuantile(cells[baseline_cell].p99s, 0.5);
  Table table({"cell", "conns", "sheets/sec", "p50 ms", "p99 ms",
               "p99 IQR ms", "p99 vs direct"});
  double worst_overhead = 0.0;
  for (const Cell& cell : cells) {
    bench::Check(cell.failures == 0,
                 StringF("%s: no failed batches", cell.key.c_str()));
    bench::Check(cell.completed ==
                     static_cast<int64_t>(cell.conns) * batches * kRepeats,
                 StringF("%s: every batch answered", cell.key.c_str()));
    const double p50 = RepeatQuantile(cell.p50s, 0.5);
    const double p99 = RepeatQuantile(cell.p99s, 0.5);
    const double iqr =
        RepeatQuantile(cell.p99s, 0.75) - RepeatQuantile(cell.p99s, 0.25);
    const double sheets_per_sec = RepeatQuantile(cell.sheets_per_sec, 0.5);
    record.Metric("sheets_per_sec_" + cell.key, sheets_per_sec);
    record.Metric("p50_ms_" + cell.key, p50);
    record.Metric("p99_ms_" + cell.key, p99);
    record.Metric("p99_iqr_ms_" + cell.key, iqr);
    std::string overhead_text = "-";
    if (cell.key.rfind("backends_", 0) == 0) {
      const double overhead = direct_p99 > 0.0 ? p99 / direct_p99 : 0.0;
      worst_overhead = std::max(worst_overhead, overhead);
      record.Metric("p99_overhead_vs_direct_" + cell.key, overhead);
      overhead_text = StringF("%.2fx", overhead);
    }
    bench::DieOnError(
        table.AddRow({cell.key, StringF("%d", cell.conns),
                      StringF("%.0f", sheets_per_sec), StringF("%.3f", p50),
                      StringF("%.3f", p99), StringF("%.3f", iqr),
                      overhead_text}),
        "row");
  }
  table.Print(std::cout);

  for (const RoutedTopology& topology : routed) {
    bench::Check(topology.router->stats().unavailable == 0,
                 StringF("backends_%d: no failovers under healthy fleet",
                         topology.backends));
  }
  std::vector<net::PricingServer*> servers = {direct_server.get()};
  for (RoutedTopology& topology : routed) {
    servers.push_back(topology.front.get());
    for (auto& server : topology.servers) servers.push_back(server.get());
  }
  uint64_t protocol_errors = 0;
  for (net::PricingServer* server : servers) {
    bench::DieOnError(server->Stop(), "server stop");
    protocol_errors += server->stats().protocol_errors;
  }
  bench::Check(protocol_errors == 0,
               StringF("no protocol errors under load on any of %zu servers",
                       servers.size()));

  std::cout << StringF(
      "\nworst median routed p99 vs median direct p99 at %d connections "
      "(%.3f ms): %.2fx\n",
      routed_conns, direct_p99, worst_overhead);
  const double ceiling = bench::Smoke() ? 16.0 : 2.0;
  bench::Check(worst_overhead <= ceiling,
               StringF("routed p99 within %.0fx of direct", ceiling));
  record.Metric("p99_overhead_vs_direct", worst_overhead);
  bench::DieOnError(record.Write(), "bench record");
  return bench::Finish();
}
