#include "report.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

constexpr int64_t kEchoedFailures = 8;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, bool in_json) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Entry{value, unit, in_json};
}

void Report::Label(const std::string& name, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  labels_.emplace_back(name, value);
}

void Report::Attempt(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Report::Fail(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ < kEchoedFailures) {
    std::cerr << "perfbench: FAIL " << reason << "\n";
  }
  ++failed_;
}

int64_t Report::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

int64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Report::Print() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, value] : labels_) {
    out << "label " << name << " = " << value << "\n";
  }
  for (const auto& [name, e] : metrics_) {
    out << (e.in_json ? "metric " : "info   ") << name << " = "
        << Number(e.value) << " " << e.unit << "\n";
  }
  const bool correct = failed_ == 0 && attempted_ > 0;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!e.in_json) continue;
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << Number(e.value) << ", \"unit\": " << JsonString(e.unit) << "}";
    first = false;
  }
  out << "}}\n";
  std::cout << out.str() << std::flush;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies out;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest time is already
  // folded into user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

double StealFraction(const CpuJiffies& begin, const CpuJiffies& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::vector<size_t> QuietHalf(const std::vector<uint64_t>& steal) {
  std::vector<size_t> quiet;
  if (steal.empty()) return quiet;
  std::vector<uint64_t> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const uint64_t cutoff = sorted[(sorted.size() - 1) / 2];
  for (size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= cutoff) quiet.push_back(i);
  }
  return quiet;
}

void SetupTimer::Begin() {
  wall_start_ = Clock::now();
  cpu_start_ = ProcessCpuSeconds();
}

void SetupTimer::End() {
  wall_s_.push_back(SecondsSince(wall_start_));
  cpu_s_.push_back(ProcessCpuSeconds() - cpu_start_);
}

void SetupTimer::AddTo(Report& report) const {
  report.EndToEnd("setup_s", Median(cpu_s_), "s");
  report.Info("setup_wall_s", Median(wall_s_), "s");
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void PaceUntil(Clock::time_point when) {
  if (Clock::now() < when) std::this_thread::sleep_until(when);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
