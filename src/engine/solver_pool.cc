#include "engine/solver_pool.h"

#include <algorithm>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

namespace crowdprice::engine {

namespace {

void DropToBackgroundPriority() {
#ifdef __linux__
  // SCHED_IDLE is per-thread, unprivileged, and exactly the contract the
  // farm wants: run only when nothing latency-sensitive is runnable.
  sched_param param{};
  sched_setscheduler(0, SCHED_IDLE, &param);
#endif
}

}  // namespace

/// One ParallelFor region, shared by its caller and its helper jobs. A
/// helper registers in `active` before it takes an index; the caller, once
/// the index stream is exhausted, waits for active == 0. A helper that
/// registers after that finds the stream exhausted and never calls fn, so
/// the region outlives its caller only as this (shared) bookkeeping.
struct SolverPool::Region {
  Region(const std::function<void(int64_t)>* fn, int64_t count)
      : fn(fn), count(count) {}

  void Drain() {
    int64_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count) {
      (*fn)(i);
    }
  }

  void Help() {
    if (next.load(std::memory_order_relaxed) >= count) return;
    {
      std::lock_guard<std::mutex> lock(mu);
      ++active;
    }
    Drain();
    std::lock_guard<std::mutex> lock(mu);
    if (--active == 0) done_cv.notify_one();
  }

  const std::function<void(int64_t)>* const fn;
  const int64_t count;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  int active = 0;  ///< helpers inside Drain (under mu)
};

SolverPool::SolverPool(int num_threads, bool background)
    : background_(background) {
  const int n = num_threads > 0 ? num_threads : DefaultThreads();
  queues_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

SolverPool::~SolverPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void SolverPool::Push(std::function<void()> job) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Queue& q = *queues_[next_queue_.fetch_add(1, std::memory_order_relaxed) %
                      queues_.size()];
  std::lock_guard<std::mutex> lock(q.mu);
  q.jobs.push_back(std::move(job));
}

void SolverPool::Wake(int64_t jobs) {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    queued_ += jobs;
  }
  if (jobs == 1) {
    work_cv_.notify_one();
  } else {
    work_cv_.notify_all();
  }
}

void SolverPool::Submit(std::function<void()> job) {
  Push(std::move(job));
  Wake(1);
}

void SolverPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& fn,
                             int max_parallelism) {
  if (count <= 0) return;
  int64_t helpers = std::min<int64_t>(size(), count - 1);
  if (max_parallelism > 0) {
    helpers = std::min<int64_t>(helpers, max_parallelism - 1);
  }
  if (helpers <= 0) {
    for (int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  auto region = std::make_shared<Region>(&fn, count);
  for (int64_t h = 0; h < helpers; ++h) {
    Push([region] { region->Help(); });
  }
  Wake(helpers);
  region->Drain();
  std::unique_lock<std::mutex> lock(region->mu);
  region->done_cv.wait(lock, [&] { return region->active == 0; });
}

bool SolverPool::PopJob(int home, std::function<void()>* job) {
  const size_t count = queues_.size();
  const size_t start = home >= 0 ? static_cast<size_t>(home) : 0;
  for (size_t i = 0; i < count; ++i) {
    Queue& q = *queues_[(start + i) % count];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.jobs.empty()) continue;
    if (i == 0 && home >= 0) {
      // Owner drains its own queue in FIFO order...
      *job = std::move(q.jobs.front());
      q.jobs.pop_front();
    } else {
      // ...thieves steal from the opposite end.
      *job = std::move(q.jobs.back());
      q.jobs.pop_back();
    }
    std::lock_guard<std::mutex> sleep_lock(sleep_mu_);
    --queued_;
    return true;
  }
  return false;
}

void SolverPool::RunJob(std::function<void()>* job) {
  (*job)();
  *job = nullptr;
  completed_.fetch_add(1, std::memory_order_relaxed);
}

void SolverPool::WorkerLoop(int index) {
  if (background_) DropToBackgroundPriority();
  std::function<void()> job;
  for (;;) {
    if (PopJob(index, &job)) {
      RunJob(&job);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    // Queued jobs are always drained before shutdown completes.
    if (shutdown_ && queued_ == 0) return;
    work_cv_.wait(lock, [this] { return queued_ > 0 || shutdown_; });
  }
}

bool SolverPool::TryRunOne() {
  std::function<void()> job;
  if (!PopJob(/*home=*/-1, &job)) return false;
  RunJob(&job);
  return true;
}

int64_t SolverPool::submitted() const {
  return submitted_.load(std::memory_order_relaxed);
}

int64_t SolverPool::completed() const {
  return completed_.load(std::memory_order_relaxed);
}

int SolverPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

SolverPool& SolverPool::Shared() {
  static SolverPool* pool = new SolverPool();
  return *pool;
}

SolverPool& SolverPool::Foreground() {
  static SolverPool* pool =
      new SolverPool(std::max(1, DefaultThreads() - 1), /*background=*/false);
  return *pool;
}

}  // namespace crowdprice::engine
