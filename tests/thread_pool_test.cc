#include "common/thread_pool.h"

#include <sched.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace topl {
namespace {

TEST(ThreadPoolTest, ZeroThreadsDefaultsToHardware) {
  // "Hardware" is the process's affinity mask, so taskset/cgroup limits
  // hold; on an unrestricted host that is every CPU.
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_EQ(pool.num_threads(), ProcessCpuCount());
}

TEST(ThreadPoolTest, PinnedFirstSubmitterDoesNotConfineTheWorkers) {
  cpu_set_t constructor_mask;
  CPU_ZERO(&constructor_mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(constructor_mask), &constructor_mask), 0);
  if (CPU_COUNT(&constructor_mask) < 2) {
    GTEST_SKIP() << "needs an affinity mask of at least two CPUs";
  }
  constexpr std::size_t kWorkers = 3;
  ThreadPool pool(kWorkers);

  // Each task blocks until all kWorkers are running at once, so every queue
  // worker runs exactly one and reports its own mask.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::vector<cpu_set_t> worker_masks(kWorkers);
  std::thread submitter([&] {
    cpu_set_t one_cpu;
    CPU_ZERO(&one_cpu);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &constructor_mask)) {
        CPU_SET(cpu, &one_cpu);
        break;
      }
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(one_cpu), &one_cpu), 0);
    std::vector<std::future<void>> done;
    for (std::size_t t = 0; t < kWorkers; ++t) {
      done.push_back(pool.Submit([&, t] {
        CPU_ZERO(&worker_masks[t]);
        sched_getaffinity(0, sizeof(cpu_set_t), &worker_masks[t]);
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        cv.wait(lock, [&] { return arrived == kWorkers; });
      }));
    }
    for (auto& f : done) f.get();
  });
  submitter.join();
  for (std::size_t t = 0; t < kWorkers; ++t) {
    EXPECT_TRUE(CPU_EQUAL(&worker_masks[t], &constructor_mask)) << "task " << t;
  }
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

TEST(ThreadPoolTest, TaskGroupNestedFanOutFromSubmitDoesNotDeadlock) {
  // Saturate a tiny pool with Submit tasks that each fan out a nested
  // TaskGroup on the *same* pool. Every queue worker is occupied by an outer
  // task, so nested subtasks can only make progress through the help-first
  // join — if Wait() merely blocked, this test would hang.
  ThreadPool pool(2);
  std::atomic<std::uint64_t> nested_sum{0};
  std::vector<std::future<void>> outer;
  for (int t = 0; t < 8; ++t) {
    outer.push_back(pool.Submit([&pool, &nested_sum] {
      ThreadPool::TaskGroup group(&pool);
      for (int i = 0; i < 20; ++i) {
        group.Spawn([&nested_sum] { nested_sum.fetch_add(1); });
      }
      group.Wait();
    }));
  }
  for (auto& f : outer) f.get();
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

TEST(ThreadPoolTest, SubmitAfterShutdownThrowsTypedError) {
  ThreadPool pool(2);
  // Warm the lazy queue workers and prove normal service first.
  EXPECT_EQ(pool.Submit([] { return 41 + 1; }).get(), 42);

  pool.Shutdown();
  EXPECT_TRUE(pool.is_shutdown());
  pool.Shutdown();  // idempotent
  EXPECT_TRUE(pool.is_shutdown());

  std::atomic<bool> ran{false};
  std::future<void> rejected = pool.Submit([&ran] { ran.store(true); });
  // The rejected task never runs; its future resolves (never hangs) to the
  // documented typed error.
  try {
    rejected.get();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "ThreadPool is shut down");
  }
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPoolTest, ShutdownDrainsAlreadyQueuedTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([&done] { done.fetch_add(1); }));
  }
  pool.Shutdown();  // runs everything already accepted, then joins
  for (auto& f : futures) f.get();  // none throws: all were accepted
  EXPECT_EQ(done.load(), 16);
  EXPECT_EQ(pool.PendingTasks(), 0u);
}

TEST(ThreadPoolTest, ParallelForStillWorksAfterShutdown) {
  // Shutdown only closes the Submit queue; the blocking data-parallel mode
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
