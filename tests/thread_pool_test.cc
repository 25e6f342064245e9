#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace topl {
namespace {

TEST(ThreadPoolTest, ZeroThreadsDefaultsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(0, n, [&](std::size_t i) { hits[i].fetch_add(1); },
                   /*grain=*/7);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  pool.ParallelFor(7, 3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.ParallelFor(100, 200, [&](std::size_t i) { sum.fetch_add(i); },
                   /*grain=*/9);
  std::size_t expect = 0;
  for (std::size_t i = 100; i < 200; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(0, 5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, WorkerIdsWithinRange) {
  ThreadPool pool(4);
  std::atomic<bool> bad{false};
  pool.ParallelForWithWorker(
      0, 5000,
      [&](std::size_t worker, std::size_t) {
        if (worker >= pool.num_threads()) bad.store(true);
      },
      /*grain=*/16);
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPoolTest, TaskGroupRunsAllSubtasks) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  ThreadPool::TaskGroup group(&pool);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    group.Spawn([&sum, i] { sum.fetch_add(i); });
  }
  group.Wait();
  EXPECT_EQ(sum.load(), 5050u);
}

TEST(ThreadPoolTest, TaskGroupSingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;  // no synchronization: everything runs on this thread
  ThreadPool::TaskGroup group(&pool);
  for (int i = 0; i < 5; ++i) {
    group.Spawn([&order, i] { order.push_back(i); });
  }
  group.Wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, TaskGroupReusableAcrossWaitRounds) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ThreadPool::TaskGroup group(&pool);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) group.Spawn([&count] { count.fetch_add(1); });
    group.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, TaskGroupNestedFanOutInsideSubtaskDoesNotDeadlock) {
  // Saturate a tiny pool with subtasks that each fan out a nested TaskGroup
  // on the *same* pool. Every queue worker is occupied by an outer subtask,
  // so nested subtasks can only make progress through the help-first join —
  // if Wait() merely blocked, this test would hang.
  ThreadPool pool(2);
  std::atomic<std::uint64_t> nested_sum{0};
  ThreadPool::TaskGroup outer(&pool);
  for (int t = 0; t < 8; ++t) {
    outer.Spawn([&pool, &nested_sum] {
      ThreadPool::TaskGroup group(&pool);
      for (int i = 0; i < 20; ++i) {
        group.Spawn([&nested_sum] { nested_sum.fetch_add(1); });
      }
      group.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(nested_sum.load(), 8u * 20u);
}

TEST(ThreadPoolTest, TaskGroupPropagatesExceptions) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    group.Spawn([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 10);  // one failure never cancels siblings
}

TEST(ThreadPoolTest, ShutdownDrainsOfferedSubtasksAndGroupsStillRun) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  ThreadPool::TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) group.Spawn([&done] { done.fetch_add(1); });
  pool.Shutdown();  // runs every subtask already offered, then joins
  pool.Shutdown();  // idempotent
  group.Wait();
  EXPECT_EQ(done.load(), 16);

  // After shutdown nothing is offered to the (joined) workers; Wait() runs
  // a group's subtasks on the calling thread instead of hanging.
  for (int i = 0; i < 4; ++i) group.Spawn([&done] { done.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPoolTest, ParallelForStillWorksAfterShutdown) {
  // Shutdown only joins the queue workers; the blocking data-parallel mode
  // spawns per-call workers and keeps functioning (Engine::Shutdown relies
  // on this ordering independence).
  ThreadPool pool(3);
  pool.Shutdown();
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 100, [&](std::size_t) { calls.fetch_add(1); },
                   /*grain=*/8);
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPoolTest, WorkerScratchIsolation) {
  // Per-worker accumulators must see a consistent view without locks.
  ThreadPool pool(4);
  std::vector<std::uint64_t> per_worker(pool.num_threads(), 0);
  const std::size_t n = 20000;
  pool.ParallelForWithWorker(
      0, n, [&](std::size_t worker, std::size_t i) { per_worker[worker] += i; },
      /*grain=*/13);
  const std::uint64_t total =
      std::accumulate(per_worker.begin(), per_worker.end(), std::uint64_t{0});
  EXPECT_EQ(total, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

}  // namespace
}  // namespace topl
