// Async (pipelined) commit API: Wal::syncAsync and LogKv::syncAsync.
// Contracts under test: callbacks fire exactly once with ok=true after the
// covered LSN is durable; requests coalesce with concurrent committers;
// callbacks run off the caller's thread and may issue further WAL work;
// close drains pending callbacks (ok=false when never durable); data
// committed via the async path survives reopen.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "kvstore/logkv.h"
#include "kvstore/wal.h"

namespace freqdedup {
namespace {

class AsyncCommit : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& info = *::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("fdd_async_" + std::string(info.name())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

/// Blocks until `n` completions arrive; records failures.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t done = 0;
  uint64_t failed = 0;

  void complete(bool ok) {
    std::lock_guard lock(mu);
    ++done;
    if (!ok) ++failed;
    cv.notify_all();
  }
  void wait(uint64_t n) {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done >= n; }))
        << "async completions stuck at " << done << "/" << n;
  }
};

TEST_F(AsyncCommit, WalCallbackFiresAfterDurable) {
  Wal wal(dir_ + "/wal");
  const Lsn lsn = wal.append(toBytes("record-1")) + 8;
  Completions c;
  std::atomic<bool> coveredAtCallback{false};
  wal.syncAsync(lsn, [&](bool ok) {
    coveredAtCallback.store(wal.durableLsn() >= lsn);
    c.complete(ok);
  });
  c.wait(1);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_TRUE(coveredAtCallback.load());
  EXPECT_GE(wal.durableLsn(), lsn);
}

TEST_F(AsyncCommit, WalZeroLsnFiresImmediatelyEvenWithNothingAppended) {
  Wal wal(dir_ + "/wal");
  Completions c;
  wal.syncAsync(0, [&](bool ok) { c.complete(ok); });
  c.wait(1);
  EXPECT_EQ(c.failed, 0u);
}

TEST_F(AsyncCommit, WalManyPipelinedCommittersAllComplete) {
  Wal wal(dir_ + "/wal");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  Completions c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const ByteVec payload =
            toBytes("t" + std::to_string(t) + ":" + std::to_string(i));
        const Lsn end = wal.append(payload) + payload.size();
        wal.syncAsync(end, [&](bool ok) { c.complete(ok); });
      }
    });
  }
  for (auto& th : threads) th.join();
  c.wait(kThreads * kPerThread);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_GE(wal.durableLsn(), wal.appendedLsn());
}

TEST_F(AsyncCommit, WalCallbackMayAppendAndResync) {
  // The documented contract: callbacks run outside every Wal lock and may
  // append/sync the same log (the server's BackupFinish path does exactly
  // this through the store).
  Wal wal(dir_ + "/wal");
  Completions c;
  const Lsn first = wal.append(toBytes("first")) + 5;
  wal.syncAsync(first, [&](bool ok1) {
    if (!ok1) {
      c.complete(false);
      return;
    }
    const Lsn second = wal.append(toBytes("second")) + 6;
    wal.syncAsync(second, [&](bool ok2) { c.complete(ok2); });
  });
  c.wait(1);
  EXPECT_EQ(c.failed, 0u);
}

TEST_F(AsyncCommit, WalDestructorDrainsPending) {
  // Register a callback and destroy the Wal immediately: the callback must
  // still fire exactly once (with either verdict — durable before close, or
  // ok=false on shutdown), never leak or crash.
  Completions c;
  {
    Wal wal(dir_ + "/wal");
    const Lsn end = wal.append(toBytes("pending")) + 7;
    wal.syncAsync(end, [&](bool ok) { c.complete(ok); });
  }
  c.wait(1);
}

TEST_F(AsyncCommit, LogKvPutVisibleImmediatelyDurableAfterSyncAsync) {
  const std::string path = dir_ + "/kv";
  Completions c;
  {
    LogKv kv(path);
    kv.put(toBytes("key"), toBytes("value"));
    const Lsn lsn = kv.appendedLsn();
    // Visible to readers before durability.
    EXPECT_EQ(kv.get(toBytes("key")), toBytes("value"));
    kv.syncAsync(lsn, [&](bool ok) { c.complete(ok); });
    c.wait(1);
    EXPECT_EQ(c.failed, 0u);
    EXPECT_GE(kv.durableLsn(), lsn);
  }
  // Survives reopen.
  LogKv reopened(path);
  EXPECT_EQ(reopened.get(toBytes("key")), toBytes("value"));
}

TEST_F(AsyncCommit, LogKvConcurrentAsyncCommitsCoalesceAndPersist) {
  const std::string path = dir_ + "/kv";
  constexpr int kThreads = 6;
  constexpr int kPerThread = 40;
  Completions c;
  {
    LogKv kv(path);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string k =
              "k" + std::to_string(t) + ":" + std::to_string(i);
          kv.put(toBytes(k), toBytes("v" + k));
          // Another thread's put may land in between: the LSN then covers
          // more than this record, never less.
          const Lsn lsn = kv.appendedLsn();
          kv.syncAsync(lsn, [&](bool ok) { c.complete(ok); });
        }
      });
    }
    for (auto& th : threads) th.join();
    c.wait(kThreads * kPerThread);
    EXPECT_EQ(c.failed, 0u);
    EXPECT_EQ(kv.size(), static_cast<size_t>(kThreads) * kPerThread);
  }
  LogKv reopened(path);
  EXPECT_EQ(reopened.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) {
      const std::string k = "k" + std::to_string(t) + ":" + std::to_string(i);
      EXPECT_EQ(reopened.get(toBytes(k)), toBytes("v" + k)) << k;
    }
}

TEST_F(AsyncCommit, MixedSyncAndAsyncCommittersInterleave) {
  // Blocking sync() and syncAsync() share the same group-commit machinery;
  // interleaving them must deadlock-free complete everything.
  Wal wal(dir_ + "/wal");
  constexpr int kRounds = 100;
  Completions c;
  std::thread asyncThread([&] {
    for (int i = 0; i < kRounds; ++i) {
      const Lsn end = wal.append(toBytes("async")) + 5;
      wal.syncAsync(end, [&](bool ok) { c.complete(ok); });
    }
  });
  std::thread syncThread([&] {
    for (int i = 0; i < kRounds; ++i) {
      const Lsn end = wal.append(toBytes("block")) + 5;
      wal.sync(end);
    }
  });
  asyncThread.join();
  syncThread.join();
  c.wait(kRounds);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_GE(wal.durableLsn(), wal.appendedLsn());
}

}  // namespace
}  // namespace freqdedup
