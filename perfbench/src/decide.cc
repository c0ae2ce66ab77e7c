// decide_direct and decide_routed_churn.
//
// Both send seeded decide frames of 1-16 requests over loopback, first as
// an open loop at a fixed frame rate (latency timed from each frame's
// scheduled send), then as a closed loop at saturation (sheets/s). Frames
// stay under the servers' pool_batch_threshold, so on the direct fleet they
// never leave the handler thread's inline read path. The routed workload
// adds, through the router's front server: a control stream cycling admit
// (with full artifact text), swap, tick and retire so the live count stays
// flat, and sweep batches large enough that each backend's slice still
// crosses pool_batch_threshold.

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fleet.h"
#include "oracle.h"
#include "util/stringf.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cp::StringF;
using cp::serving::CampaignId;
using cp::serving::DecideResponse;

// Load model. The open-loop rates sit well below each fleet's closed-loop
// peak, so the open loop keeps its schedule through the host's vCPU stalls
// (see METRICS.md).
constexpr double kDirectFramesPerSec = 1000.0;
constexpr double kRoutedFramesPerSec = 300.0;
constexpr int kOpenLoopConnections = 2;
constexpr double kControlOpsPerSec = 20.0;
constexpr double kSweepsPerSec = 1.0;
/// Every kSampleEvery-th frame's responses go through the full oracle; the
/// rest are checked for per-request status only.
constexpr int64_t kSampleEvery = 16;
/// Sampled frames kept per generator thread and phase (bounds memory, so
/// peak RSS does not track throughput).
constexpr size_t kMaxSamples = 1024;
/// Width of the windows the phases are cut into (see QuietHalf).
constexpr double kWindowSeconds = 0.5;

struct Sample {
  size_t frame = 0;
  std::vector<DecideResponse> responses;
};

// A phase cut into equal windows; the reported figures come from the
// quieter half of them (QuietHalf).
struct Windows {
  Clock::time_point start;
  Clock::duration width{};
  int count = 0;

  static Windows Over(Clock::time_point start, double seconds, int count) {
    return {start,
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds / count)),
            count};
  }
  Clock::time_point end() const { return start + count * width; }
  /// The window holding `t`, or -1 outside the phase.
  int Of(Clock::time_point t) const {
    if (t < start) return -1;
    const auto w = static_cast<int>((t - start) / width);
    return w < count ? w : -1;
  }
};

// One generator thread's tallies (merged after the threads join).
struct Tally {
  explicit Tally(int windows = 0)
      : window_latency(static_cast<size_t>(windows)),
        window_sheets(static_cast<size_t>(windows), 0) {}

  LatencyHistogram latency;
  std::vector<LatencyHistogram> window_latency;  ///< By due time.
  std::vector<int64_t> window_sheets;            ///< By completion time.
  int64_t frames = 0;
  int64_t sheets = 0;
  double lag_max_s = 0.0;
  int64_t late = 0;
  std::vector<Sample> samples;
};

struct Stack {
  FleetPlan plan;
  ArtifactPool pool;
  std::unique_ptr<DirectFleet> direct;
  std::unique_ptr<RoutedFleet> routed;
  std::unique_ptr<cp::serving::CampaignShardMap> reference;
  std::vector<Frame> frames;
  std::vector<Frame> sweeps;
  std::vector<ControlCycle> cycles;
  std::vector<cp::net::PricingClient> clients;

  const cp::net::PricingServer& entry() const {
    return direct ? *direct->server : *routed->front;
  }
};

cp::Result<std::unique_ptr<Stack>> SetUp(const RunConfig& config, bool routed,
                                         int connections, int control_cycles) {
  auto stack = std::make_unique<Stack>();
  stack->plan = MakeFleetPlan(config.seed, DecideFleetShape(routed));
  auto pool = SolveArtifactPool(stack->plan);
  if (!pool.ok()) return pool.status();
  stack->pool = std::move(pool).value();
  if (routed) {
    auto fleet = StartRoutedFleet(stack->plan, stack->pool);
    if (!fleet.ok()) return fleet.status();
    stack->routed = std::move(fleet).value();
  } else {
    auto fleet = StartDirectFleet(stack->plan, stack->pool);
    if (!fleet.ok()) return fleet.status();
    stack->direct = std::move(fleet).value();
  }
  auto reference = BuildBaseMap(stack->plan, stack->pool);
  if (!reference.ok()) return reference.status();
  stack->reference = std::move(reference).value();
  stack->frames = DecideFrames(config.seed, stack->plan);
  if (routed) {
    stack->sweeps = SweepFrames(config.seed, stack->plan);
    stack->cycles = ControlCycles(config.seed, stack->plan, control_cycles);
  }
  for (int c = 0; c < connections; ++c) {
    auto client = Dial(stack->entry());
    if (!client.ok()) return client.status();
    stack->clients.push_back(std::move(client).value());
  }
  return stack;
}

// Sends frames[index] and accounts the outcome; `due` is when the frame
// was scheduled (or sent, in a closed loop).
void SendFrame(cp::net::PricingClient& client, const std::vector<Frame>& frames,
               size_t index, Clock::time_point due, const Windows& windows,
               bool sample, Tally& tally, Report& report) {
  const Frame& frame = frames[index];
  auto responses = client.DecideBatch(frame);
  const Clock::time_point done = Clock::now();
  const uint64_t nanos = NanosBetween(due, done);
  tally.latency.RecordNanos(nanos);
  const int due_window = windows.Of(due);
  if (due_window >= 0) {
    tally.window_latency[static_cast<size_t>(due_window)].RecordNanos(nanos);
  }
  ++tally.frames;
  if (!responses.ok()) {
    report.Fail("decide frame: " + responses.status().ToString());
    return;
  }
  for (const DecideResponse& r : *responses) {
    if (!r.status.ok()) {
      report.Fail("decide response: " + r.status.ToString());
      return;
    }
  }
  tally.sheets += static_cast<int64_t>(responses->size());
  const int done_window = windows.Of(done);
  if (done_window >= 0) {
    tally.window_sheets[static_cast<size_t>(done_window)] +=
        static_cast<int64_t>(responses->size());
  }
  if (sample && tally.samples.size() < kMaxSamples) {
    tally.samples.push_back({index, std::move(responses).value()});
  }
}

// Open loop: frame k is due at start + k * interval whatever happened to
// frame k - 1. Frames due after the phase are not sent.
void OpenLoop(cp::net::PricingClient& client, const std::vector<Frame>& frames,
              size_t first, const Windows& windows, Clock::duration interval,
              int64_t sample_every, Tally& tally, Report& report) {
  TightenTimerSlack();
  for (int64_t k = 0;; ++k) {
    const Clock::time_point due = windows.start + k * interval;
    if (due >= windows.end()) break;
    PaceUntil(due);
    const double lag =
        std::chrono::duration<double>(Clock::now() - due).count();
    tally.lag_max_s = std::max(tally.lag_max_s, lag);
    if (lag > std::chrono::duration<double>(interval).count()) ++tally.late;
    SendFrame(client, frames, (first + static_cast<size_t>(k)) % frames.size(),
              due, windows, k % sample_every == 0, tally, report);
  }
}

void ClosedLoop(cp::net::PricingClient& client,
                const std::vector<Frame>& frames, size_t first,
                const Windows& windows, Tally& tally, Report& report) {
  for (size_t k = 0; Clock::now() < windows.end(); ++k) {
    SendFrame(client, frames, (first + k) % frames.size(), Clock::now(),
              windows, k % kSampleEvery == 0, tally, report);
  }
}

// The routed control stream: cycles of admit, swap, tick, retire-oldest,
// one op due every `interval` until `stop` is set, each timed from when it
// was due.
struct ControlTally {
  LatencyHistogram latency;
  int64_t ops = 0;
};

void ControlLoop(cp::net::PricingClient& client, const Stack& stack,
                 Clock::time_point start, Clock::duration interval,
                 const std::atomic<bool>& stop, ControlTally& tally,
                 Report& report) {
  TightenTimerSlack();
  std::deque<CampaignId> live;
  std::unordered_set<CampaignId> seen;
  for (int j = 0; j < stack.plan.shape.churn_campaigns; ++j) {
    live.push_back(stack.plan.BaseId(stack.plan.shape.campaigns + j));
    seen.insert(live.back());
  }
  int64_t k = 0;
  auto fail = [&](const std::string& why) { report.Fail("control " + why); };
  for (const ControlCycle& c : stack.cycles) {
    for (int step = 0; step < 4; ++step, ++k) {
      const Clock::time_point due = start + k * interval;
      PaceUntil(due);
      if (stop.load()) return;
      if (live.empty()) {
        fail("stream lost every live campaign");
        return;
      }
      switch (step) {
        case 0: {
          auto admitted = client.AdmitShared(
              stack.pool[static_cast<size_t>(c.admit_artifact)],
              stack.plan.LimitsFor(c.admit_artifact));
          if (!admitted.ok()) {
            fail("admit: " + admitted.status().ToString());
          } else if (*admitted == 0 || !seen.insert(*admitted).second) {
            fail(StringF("admit returned reused id %llu",
                         static_cast<unsigned long long>(*admitted)));
          } else {
            live.push_back(*admitted);
          }
          break;
        }
        case 1: {
          const CampaignId id = live[c.swap_pick % live.size()];
          cp::Status swapped = client.SwapArtifactShared(
              id, stack.pool[static_cast<size_t>(c.swap_artifact)]);
          if (!swapped.ok()) fail("swap: " + swapped.ToString());
          break;
        }
        case 2: {
          const CampaignId id = live[c.tick_pick % live.size()];
          auto state = client.Tick(id, c.tick_hours, c.tick_remaining);
          if (!state.ok()) {
            fail("tick: " + state.status().ToString());
          } else if (*state != cp::serving::CampaignState::kLive) {
            fail(StringF("tick retired a live campaign (%s)",
                         cp::serving::CampaignStateName(*state)));
          }
          break;
        }
        default: {
          cp::Status retired = client.Retire(live.front());
          if (!retired.ok()) fail("retire: " + retired.ToString());
          live.pop_front();
          break;
        }
      }
      ++tally.ops;
      tally.latency.RecordNanos(NanosBetween(due, Clock::now()));
    }
  }
}

// Checks every sampled frame against the reference map.
void CheckSamples(const Stack& stack, const std::vector<Frame>& frames,
                  const std::vector<Sample>& samples, Report& report) {
  for (const Sample& s : samples) {
    const std::string why =
        CheckSheets(frames[s.frame], s.responses, *stack.reference);
    if (!why.empty()) report.Fail("decide oracle: " + why);
  }
}

// Windows per phase: about kWindowSeconds each, at least 4.
int WindowsIn(double seconds) {
  return std::max(4, static_cast<int>(seconds / kWindowSeconds + 0.5));
}

// Stolen jiffies in each window of `phase`, sampled at its boundaries
// while the phase's threads run.
std::vector<uint64_t> WindowSteal(const Windows& phase) {
  std::vector<uint64_t> steal;
  CpuJiffies last = ReadCpuJiffies();
  for (int w = 1; w <= phase.count; ++w) {
    std::this_thread::sleep_until(phase.start + w * phase.width);
    const CpuJiffies now = ReadCpuJiffies();
    steal.push_back(now.steal - last.steal);
    last = now;
  }
  return steal;
}

}  // namespace

void RunDecide(const RunConfig& config, bool routed, Report& report) {
  const int connections = std::min(4, std::max(1, config.nproc));
  const int open_connections = std::min(kOpenLoopConnections, connections);
  const double warmup_s = std::min(1.0, 0.1 * config.seconds);
  const double open_s = 0.6 * config.seconds;
  const double closed_s = 0.4 * config.seconds;
  const int control_cycles =
      static_cast<int>(kControlOpsPerSec * config.seconds / 2.0) + 8;

  // --- set-up (repeated; the last stack is measured) -----------------------
  SetupTimer setup;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    stack.reset();
    setup.Begin();
    auto built = SetUp(config, routed, connections, control_cycles);
    if (!built.ok()) {
      report.Attempt();
      report.Fail("set-up: " + built.status().ToString());
      return;
    }
    stack = std::move(built).value();
    setup.End();
  }

  const double rate = routed ? kRoutedFramesPerSec : kDirectFramesPerSec;
  const auto interval =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          open_connections / rate));
  const size_t stride = stack->frames.size() / static_cast<size_t>(connections);
  const int open_windows = WindowsIn(open_s);
  const int closed_windows = WindowsIn(closed_s);

  // --- warm-up: the open loop, untimed ---------------------------------------
  {
    const Windows windows = Windows::Over(Clock::now(), warmup_s, 1);
    std::vector<Tally> warm(static_cast<size_t>(open_connections), Tally(1));
    std::vector<std::thread> threads;
    for (int c = 0; c < open_connections; ++c) {
      threads.emplace_back([&, c] {
        OpenLoop(stack->clients[static_cast<size_t>(c)], stack->frames,
                 stride * static_cast<size_t>(c), windows, interval,
                 kSampleEvery, warm[static_cast<size_t>(c)], report);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Tally& t : warm) report.Attempt(t.frames);
  }

  const CpuJiffies steal_begin = ReadCpuJiffies();

  // --- phase 1: open loop at the fixed rate (+ control, sweeps) -------------
  const Windows open_phase = Windows::Over(Clock::now(), open_s, open_windows);
  std::vector<Tally> open(static_cast<size_t>(open_connections),
                          Tally(open_windows));
  Tally sweep_tally(open_windows);
  ControlTally control;
  std::atomic<bool> stop_control{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < open_connections; ++c) {
    threads.emplace_back([&, c] {
      OpenLoop(stack->clients[static_cast<size_t>(c)], stack->frames,
               stride * static_cast<size_t>(c), open_phase, interval,
               kSampleEvery, open[static_cast<size_t>(c)], report);
    });
  }
  const bool churn = routed && connections >= 4;
  std::thread control_thread;
  if (churn) {
    control_thread = std::thread([&] {
      ControlLoop(stack->clients[2], *stack, open_phase.start,
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(1.0 / kControlOpsPerSec)),
                  stop_control, control, report);
    });
    threads.emplace_back([&] {
      OpenLoop(stack->clients[3], stack->sweeps, 0, open_phase,
               std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(1.0 / kSweepsPerSec)),
               2, sweep_tally, report);
    });
  }
  const std::vector<uint64_t> open_steal = WindowSteal(open_phase);
  for (std::thread& t : threads) t.join();
  threads.clear();
  stop_control.store(true);
  if (control_thread.joinable()) control_thread.join();

  // --- phase 2: closed loop at saturation, every connection ----------------
  std::vector<Tally> closed(static_cast<size_t>(connections),
                            Tally(closed_windows));
  const double cpu_before = ProcessCpuSeconds();
  const Windows closed_phase =
      Windows::Over(Clock::now(), closed_s, closed_windows);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ClosedLoop(stack->clients[static_cast<size_t>(c)], stack->frames,
                 stride * static_cast<size_t>(c), closed_phase,
                 closed[static_cast<size_t>(c)], report);
    });
  }
  const std::vector<uint64_t> closed_steal = WindowSteal(closed_phase);
  for (std::thread& t : threads) t.join();
  const double closed_cpu_s = ProcessCpuSeconds() - cpu_before;
  const double steal_frac = StealFraction(steal_begin, ReadCpuJiffies());

  // --- oracle --------------------------------------------------------------
  int64_t attempted = sweep_tally.frames + control.ops;
  double lag_max = 0.0;
  int64_t late = 0;
  LatencyHistogram latency;
  std::vector<LatencyHistogram> window_latency(
      static_cast<size_t>(open_windows));
  for (const Tally& t : open) {
    latency.Merge(t.latency);
    for (size_t w = 0; w < window_latency.size(); ++w) {
      window_latency[w].Merge(t.window_latency[w]);
    }
    attempted += t.frames;
    lag_max = std::max(lag_max, t.lag_max_s);
    late += t.late;
    CheckSamples(*stack, stack->frames, t.samples, report);
  }
  std::vector<double> window_sheets(static_cast<size_t>(closed_windows), 0.0);
  double closed_sheets = 0.0;
  for (const Tally& t : closed) {
    attempted += t.frames;
    closed_sheets += static_cast<double>(t.sheets);
    for (size_t w = 0; w < window_sheets.size(); ++w) {
      window_sheets[w] += static_cast<double>(t.window_sheets[w]);
    }
    CheckSamples(*stack, stack->frames, t.samples, report);
  }
  CheckSamples(*stack, stack->sweeps, sweep_tally.samples, report);
  report.Attempt(attempted);

  // --- metrics ---------------------------------------------------------------
  LatencyHistogram quiet_latency;
  for (size_t w : QuietHalf(open_steal)) quiet_latency.Merge(window_latency[w]);
  const std::vector<size_t> quiet_closed = QuietHalf(closed_steal);
  double quiet_sheets = 0.0;
  for (size_t w : quiet_closed) quiet_sheets += window_sheets[w];
  const double window_s =
      std::chrono::duration<double>(closed_phase.width).count();
  setup.AddTo(report);
  report.PerLayer("p50_ms", quiet_latency.QuantileMs(0.5), "ms");
  report.PerLayer("p90_ms", quiet_latency.QuantileMs(0.9), "ms");
  report.PerLayer("throughput_per_s",
                  quiet_sheets / (window_s * static_cast<double>(
                                                 quiet_closed.size())),
                  "1/s");
  double all_sheets = 0.0;
  for (double sheets : window_sheets) all_sheets += sheets;
  report.Info("all_windows_p50_ms", latency.QuantileMs(0.5), "ms");
  report.Info("all_windows_p90_ms", latency.QuantileMs(0.9), "ms");
  report.Info("all_windows_throughput_per_s",
              all_sheets / (window_s * closed_windows), "1/s");
  // Process CPU time (generators, servers, router) per sheet answered in
  // the closed loop.
  report.EndToEnd("cpu_ms_per_op", 1e3 * closed_cpu_s / closed_sheets, "ms");
  // Wall time per sheet in the closed loop's busiest window.
  const double best_window_sheets =
      *std::max_element(window_sheets.begin(), window_sheets.end());
  report.PerLayer("best_wall_ms_per_op", 1e3 * window_s / best_window_sheets,
                  "ms");
  report.PerLayer("p99_ms", latency.QuantileMs(0.99), "ms");
  report.PerLayer("p999_ms", latency.QuantileMs(0.999), "ms");
  report.PerLayer("generator.lag_ms_max", 1e3 * lag_max, "ms");
  report.PerLayer("generator.late_frac",
                  latency.count() > 0 ? static_cast<double>(late) /
                                            static_cast<double>(latency.count())
                                      : 0.0,
                  "ratio");
  report.PerLayer("host.steal_frac", steal_frac, "ratio");
  report.Info("decide_frames_timed", static_cast<double>(latency.count()),
              "count");
  report.Label("load", StringF("open loop %.0f frames/s over %d connections "
                               "for %.1f s, then closed loop over %d "
                               "connections for %.1f s; figures over the "
                               "quieter half of %.1f s windows",
                               rate, open_connections, open_s, connections,
                               closed_s, kWindowSeconds));
  if (churn) {
    report.Info("control_p50_ms", control.latency.QuantileMs(0.5), "ms");
    report.Info("control_p90_ms", control.latency.QuantileMs(0.9), "ms");
    report.Info("control_ops", static_cast<double>(control.ops), "count");
    report.Info("sweep_p50_ms", sweep_tally.latency.QuantileMs(0.5), "ms");
    report.Info("sweeps", static_cast<double>(sweep_tally.frames), "count");
    const cp::router::RouterStats rs = stack->routed->router->stats();
    report.Info("router_unavailable", static_cast<double>(rs.unavailable),
                "count");
    report.Info("router_lost_campaigns",
                static_cast<double>(rs.lost_campaigns), "count");
    if (rs.unavailable != 0 || rs.lost_campaigns != 0) {
      report.Fail("router answered Unavailable or lost campaigns");
    }
  }
  stack.reset();
  report.PerLayer("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace perfbench
