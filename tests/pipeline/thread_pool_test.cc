#include "pipeline/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace freqdedup {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(pool.submit([&] { ++ran; }));
  pool.wait();
  EXPECT_EQ(ran, 100);
}

TEST(ThreadPool, WaitReturnsImmediatelyWhenIdle) {
  ThreadPool pool(2);
  pool.wait();  // nothing submitted: must not hang
}

TEST(ThreadPool, PoolStaysUsableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; });
  pool.wait();
  pool.submit([&] { ++ran; });
  pool.wait();
  EXPECT_EQ(ran, 2);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1, /*queueCapacity=*/64);
    for (int i = 0; i < 32; ++i)
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++ran;
      });
    pool.shutdown();  // graceful: queued tasks still execute
  }
  EXPECT_EQ(ran, 32);
}

TEST(ThreadPool, SubmitAfterShutdownFails) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, BackpressureBoundsTheQueue) {
  ThreadPool pool(1, /*queueCapacity=*/1);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // First task occupies the worker until released; the queue holds one more.
  pool.submit([&] {
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++ran;
  });
  pool.submit([&] { ++ran; });  // sits in the queue

  std::atomic<bool> thirdAccepted{false};
  std::thread submitter([&] {
    pool.submit([&] { ++ran; });  // blocks until a slot frees up
    thirdAccepted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(thirdAccepted);  // still blocked: backpressure

  release = true;
  submitter.join();
  pool.wait();
  EXPECT_EQ(ran, 3);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    constexpr size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    parallelFor(threads, kN, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  pool.submit([&] { ++ran; });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(ran, 1);  // the non-throwing task still ran
  // The pool stays usable and the error does not resurface.
  pool.submit([&] { ++ran; });
  pool.wait();
  EXPECT_EQ(ran, 2);
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  EXPECT_THROW(parallelFor(4, 1000,
                           [](size_t begin, size_t end) {
                             for (size_t i = begin; i < end; ++i)
                               if (i == 577)
                                 throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // Inline path (threads == 1) propagates directly.
  EXPECT_THROW(parallelFor(1, 10,
                           [](size_t, size_t) {
                             throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelFor, HandlesEmptyAndTinyRanges) {
  int calls = 0;
  parallelFor(4, 0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(4, 1, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForShared, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallelFor(pool, kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelForShared, ConcurrentCallersShareOnePool) {
  // Several threads drive independent ranges through one pool
  // simultaneously, each waiting only for its own blocks (a pool.wait()
  // based join would be racy here).
  ThreadPool pool(4);
  constexpr size_t kCallers = 4;
  constexpr size_t kN = 5'000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);

  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      parallelFor(pool, kN, [&, c](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ++hits[c][i];
      });
    });
  }
  for (auto& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c)
    for (size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[c][i], 1) << "caller " << c << " index " << i;
}

TEST(ParallelForShared, PropagatesBodyExceptionsToItsOwnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(parallelFor(pool, 1000,
                           [](size_t begin, size_t end) {
                             for (size_t i = begin; i < end; ++i)
                               if (i == 577)
                                 throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The error does not leak into the pool's own error slot: a later wait()
  // (or another caller) must not see it.
  pool.wait();
  std::atomic<int> ran{0};
  parallelFor(pool, 16, [&](size_t begin, size_t end) {
    ran += static_cast<int>(end - begin);
  });
  EXPECT_EQ(ran, 16);
}

TEST(ParallelForShared, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(2);
  int calls = 0;
  parallelFor(pool, 0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(pool, 1, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForOptionalPool, NullPoolRunsInlineOnce) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallelFor(nullptr, 0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(nullptr, 100, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForOptionalPool, PoolCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1'000;
  std::vector<std::atomic<int>> hits(kN);
  parallelFor(&pool, kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

// The calling thread claims blocks too: with the only worker parked, the
// call still covers the range and returns. Run through std::async so a
// caller that waits for the worker fails the test instead of hanging it.
TEST(ParallelForShared, CallerFinishesWhileEveryWorkerIsParked) {
  ThreadPool pool(1);
  std::latch release(1);
  ASSERT_TRUE(pool.submit([&release] { release.wait(); }));
  constexpr size_t kN = 1'000;
  std::vector<std::atomic<int>> hits(kN);
  auto call = std::async(std::launch::async, [&] {
    parallelFor(pool, kN, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
  });
  const bool finished =
      call.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.count_down();
  call.get();
  pool.wait();
  ASSERT_TRUE(finished) << "parallelFor waited for the parked worker";
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

// A pool task that calls parallelFor on its own 1-worker pool holds the
// only worker, so only the calling thread can run the blocks.
TEST(ParallelForShared, NestedCallInsideAPoolTaskCompletes) {
  auto pool = std::make_unique<ThreadPool>(1);
  constexpr size_t kN = 1'000;
  auto hits = std::make_shared<std::vector<std::atomic<int>>>(kN);
  auto finished = std::make_shared<std::promise<void>>();
  std::future<void> done = finished->get_future();
  ASSERT_TRUE(pool->submit([worker = pool.get(), hits, finished] {
    parallelFor(*worker, kN, [&hits](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++(*hits)[i];
    });
    finished->set_value();
  }));
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // The worker is deadlocked; joining it in the destructor would hang.
    (void)pool.release();
    FAIL() << "nested parallelFor did not complete";
  }
  pool->wait();
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ((*hits)[i], 1) << "index " << i;
}

// Two blocks throw: the caller gets one of them, once, every other block
// still runs, and nothing reaches the pool's own error slot.
TEST(ParallelForShared, ThrowingBlockIsRethrownOnceAndTheOthersStillRun) {
  ThreadPool pool(4);
  constexpr size_t kN = 1'000;
  std::vector<std::atomic<int>> hits(kN);
  int caught = 0;
  try {
    parallelFor(pool, kN, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
      for (const size_t bad : {size_t{0}, size_t{577}})
        if (begin <= bad && bad < end) throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(caught, 1);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
  EXPECT_NO_THROW(pool.wait());
}

}  // namespace
}  // namespace freqdedup
