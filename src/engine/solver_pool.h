// SolverPool: the process's job pool, for solve farms and data-parallel
// loops alike.
//
// Free-form jobs: each worker owns a deque, new jobs are pushed
// round-robin, idle workers steal from the back of other queues, and any
// caller can help drain the farm via TryRunOne() (how SolveWave lends its
// own thread instead of sleeping).
//
// Data-parallel regions: ParallelFor(count, fn) queues helper jobs that
// pull indices from one shared stream while the calling thread pulls from
// it too. The caller waits only for helpers that have already started, so
// a region never waits on a queued job: on a saturated pool it degrades to
// a serial loop on the caller. Regions may therefore run concurrently from
// any number of threads and may nest (a ParallelFor body, or a Submit job,
// may itself call ParallelFor).
//
// Two process-wide instances: Shared() runs at background priority
// (SCHED_IDLE on Linux, best-effort elsewhere), so a re-solve storm yields
// the CPU to latency-sensitive threads -- the serving path keeps its p99
// while the farm churns. Foreground() runs at normal priority and carries
// the latency-sensitive regions: the shard map's batch passes and those
// DP layer scans big enough to pay for a region (a layer under
// pricing::kLayerFanOutGrain scans inline on the solving thread).
//
// Jobs must not throw and must not block on other jobs' completion
// (SolveWave only ever waits while also draining via TryRunOne).

#ifndef CROWDPRICE_ENGINE_SOLVER_POOL_H_
#define CROWDPRICE_ENGINE_SOLVER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace crowdprice::engine {

class SolverPool {
 public:
  /// num_threads <= 0 sizes the pool to DefaultThreads(). With
  /// `background` (the default), workers drop to idle scheduling priority
  /// so solve storms never crowd out serving threads.
  explicit SolverPool(int num_threads = 0, bool background = true);
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Worker threads owned by the pool (>= 1).
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a job. Jobs may be submitted from any thread, including from
  /// inside other jobs.
  void Submit(std::function<void()> job);

  /// Runs one queued job on the calling thread if any is queued; returns
  /// whether it ran one. Lets waiters help drain the farm.
  bool TryRunOne();

  /// Runs fn(i) for every i in [0, count), dynamically load-balanced over
  /// the calling thread plus up to size() pool workers; returns when all
  /// iterations finish. At most max_parallelism threads take part (<= 0
  /// means no cap beyond the pool size), the calling thread counting as
  /// one; count 1 or a cap of 1 runs inline. fn must not throw.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn,
                   int max_parallelism = 0);

  /// Jobs submitted and completed so far, ParallelFor helpers included
  /// (diagnostics).
  int64_t submitted() const;
  int64_t completed() const;

  /// hardware_concurrency, with a floor of 1.
  static int DefaultThreads();

  /// Process-wide farm: DefaultThreads() background workers, started on
  /// first use. The default for SolveWave and the serving re-solve lane.
  static SolverPool& Shared();

  /// Process-wide foreground pool: DefaultThreads() - 1 normal-priority
  /// workers (at least 1; the caller of a region is the remaining thread),
  /// started on first use. Runs the shard map's batch passes and each DP
  /// layer scan whose estimated work clears pricing::kLayerFanOutGrain.
  static SolverPool& Foreground();

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> jobs;
  };
  struct Region;

  void WorkerLoop(int index);
  void Push(std::function<void()> job);
  void Wake(int64_t jobs);
  bool PopJob(int home, std::function<void()>* job);
  void RunJob(std::function<void()>* job);

  const bool background_;
  std::vector<std::unique_ptr<Queue>> queues_;  ///< one per worker
  std::vector<std::thread> workers_;

  std::mutex sleep_mu_;
  std::condition_variable work_cv_;
  int64_t queued_ = 0;  ///< jobs not yet popped (under sleep_mu_)
  bool shutdown_ = false;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<uint64_t> next_queue_{0};  ///< round-robin submit cursor
};

}  // namespace crowdprice::engine

#endif  // CROWDPRICE_ENGINE_SOLVER_POOL_H_
