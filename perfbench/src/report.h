// Run configuration, result reporting, and host sampling shared by every
// workload.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "histogram.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return b > a ? static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                         .count())
               : 0;
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Generator threads/connections cap: the host's hardware threads.
  int nproc = 1;
};

/// Collects a run's metrics, labels and failures, and prints them: one
/// human-readable line per metric and label, then the final JSON line.
class Report {
 public:
  /// Untraced runs carry end-to-end metrics in the JSON result, traced
  /// runs per-layer ones; a metric of the other kind is printed for the
  /// reader only.
  explicit Report(bool trace) : trace_(trace) {}

  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    Add(name, value, unit, !trace_);
  }
  void PerLayer(const std::string& name, double value,
                const std::string& unit) {
    Add(name, value, unit, trace_);
  }
  /// Printed for the reader only, in both modes.
  void Info(const std::string& name, double value, const std::string& unit) {
    Add(name, value, unit, false);
  }
  void Label(const std::string& name, const std::string& value);

  /// One operation the workload attempted (a frame, control op, sweep,
  /// wave campaign, solve).
  void Attempt(int64_t n = 1);
  /// An attempted operation that failed or returned a wrong output.
  /// Thread-safe; the first few reasons are echoed to stderr.
  void Fail(const std::string& reason);

  int64_t attempted() const;
  int64_t failed() const;

  /// Prints everything; the last line is the JSON result object.
  void Print() const;

 private:
  void Add(const std::string& name, double value, const std::string& unit,
           bool in_json);

  const bool trace_;
  mutable std::mutex mu_;
  struct Entry {
    double value = 0.0;
    std::string unit;
    bool in_json = false;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> labels_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Machine-wide CPU jiffies from /proc/stat: stolen by the hypervisor, and
/// in total (zeros where unavailable).
struct CpuJiffies {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuJiffies ReadCpuJiffies();

/// Stolen share of all CPU time between two readings.
double StealFraction(const CpuJiffies& begin, const CpuJiffies& end);

/// CPU time of this process (all threads, user + system), in seconds. The
/// hypervisor's stolen time is not in it.
double ProcessCpuSeconds();

/// The quieter half of a run's windows or operations: indices of the items
/// whose stolen jiffies are at most the median. A stalled vCPU only ever
/// adds latency and removes throughput, and how often that happens depends
/// on the host's neighbours, not on the program, so end-to-end figures are
/// taken over these items.
std::vector<size_t> QuietHalf(const std::vector<uint64_t>& steal);

/// Times a workload's repeated set-ups. setup_s is the median CPU time of
/// the process (all threads) per set-up: the set-up's work, which time the
/// hypervisor steals does not inflate. The median wall time is printed
/// beside it.
class SetupTimer {
 public:
  void Begin();
  void End();
  void AddTo(Report& report) const;

 private:
  Clock::time_point wall_start_;
  double cpu_start_ = 0.0;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
};

/// Lowers the calling thread's timer slack so open-loop pacing sleeps wake
/// on time instead of up to 50 us late.
void TightenTimerSlack();

/// Sleeps until `when` (used by open-loop generators).
void PaceUntil(Clock::time_point when);

/// Median of `values` (which it sorts); 0 when empty.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
