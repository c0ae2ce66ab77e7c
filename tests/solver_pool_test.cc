// SolverPool tests: Submit jobs and ParallelFor regions share one pool.
// A region never waits on a queued job, so regions complete on a saturated
// pool, run concurrently from many threads, and nest.

#include "engine/solver_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace crowdprice::engine {
namespace {

/// Waits (up to 10 s) until every job the pool counted as submitted has
/// completed -- including region helpers that started after their region
/// returned.
void Quiesce(const SolverPool& pool) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.completed() != pool.submitted() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SolverPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  SolverPool pool(4);
  std::vector<std::atomic<int>> hits(513);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(513, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SolverPoolTest, CapOfOneRunsInline) {
  SolverPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int64_t sum = 0;
  pool.ParallelFor(100, [&](int64_t i) { sum += i; },
                   /*max_parallelism=*/1);  // inline: no races
  EXPECT_EQ(sum, 99 * 100 / 2);
  std::thread::id ran_on;
  pool.ParallelFor(1, [&](int64_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // Neither region queued a helper.
  EXPECT_EQ(pool.submitted(), 0);
}

TEST(SolverPoolTest, CompletesOnCallerWhenEveryWorkerIsBlocked) {
  SolverPool pool(2, /*background=*/false);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> blocked{0};
  for (int w = 0; w < pool.size(); ++w) {
    pool.Submit([&blocked, gate] {
      blocked.fetch_add(1);
      gate.wait();
    });
  }
  while (blocked.load() < pool.size()) std::this_thread::yield();

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(1000, [&](int64_t i) {
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
  EXPECT_EQ(off_caller.load(), 0);

  release.set_value();
  Quiesce(pool);
  EXPECT_EQ(pool.completed(), pool.submitted());
}

TEST(SolverPoolTest, RegionsNestInBodiesAndInJobs) {
  SolverPool pool(3, /*background=*/false);
  constexpr int kOuter = 8;
  constexpr int kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kOuter, [&](int64_t o) {
    pool.ParallelFor(kInner, [&](int64_t i) {
      hits[static_cast<size_t>(o * kInner + i)].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "nested index " << i;
  }

  // A Submit job that opens a region of its own, once per worker, so every
  // worker may be inside a job while the regions run.
  std::vector<std::promise<int64_t>> sums(static_cast<size_t>(pool.size()));
  std::vector<std::future<int64_t>> results;
  for (auto& promise : sums) {
    results.push_back(promise.get_future());
    pool.Submit([&pool, &promise] {
      std::atomic<int64_t> sum{0};
      pool.ParallelFor(200, [&](int64_t i) { sum.fetch_add(i); });
      promise.set_value(sum.load());
    });
  }
  for (auto& result : results) EXPECT_EQ(result.get(), 199 * 200 / 2);
  Quiesce(pool);
  EXPECT_EQ(pool.completed(), pool.submitted());
}

TEST(SolverPoolTest, ConcurrentRegionsEachHitEveryIndexOnce) {
  SolverPool pool(4, /*background=*/false);
  constexpr int kCallers = 4;
  constexpr int kRegions = 200;
  constexpr int kCount = 37;
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < kRegions; ++r) {
        std::vector<std::atomic<int>> hits(kCount);
        for (auto& h : hits) h.store(0);
        pool.ParallelFor(kCount, [&](int64_t i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        });
        for (const auto& h : hits) {
          if (h.load() != 1) bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(SolverPoolTest, DistinctThreadsNeverExceedTheCap) {
  SolverPool pool(4, /*background=*/false);
  for (const int cap : {2, 3, 5}) {
    for (int rep = 0; rep < 20; ++rep) {
      std::mutex mu;
      std::set<std::thread::id> ids;
      pool.ParallelFor(256, [&](int64_t) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ids.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }, cap);
      EXPECT_LE(static_cast<int>(ids.size()), cap) << "cap " << cap;
    }
  }
}

TEST(SolverPoolTest, CountersBalanceAfterQuiesce) {
  SolverPool pool(3, /*background=*/false);
  std::atomic<int> ran{0};
  for (int j = 0; j < 50; ++j) {
    pool.Submit([&ran] { ran.fetch_add(1); });
    pool.ParallelFor(16, [](int64_t) {});
  }
  Quiesce(pool);
  EXPECT_EQ(ran.load(), 50);
  // 50 jobs plus up to three helpers per region.
  EXPECT_GE(pool.submitted(), 50);
  EXPECT_LE(pool.submitted(), 50 + 50 * 3);
  EXPECT_EQ(pool.completed(), pool.submitted());
}

}  // namespace
}  // namespace crowdprice::engine
