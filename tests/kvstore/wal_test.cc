#include "kvstore/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kvstore/crash_point.h"
#include "obs/metrics.h"

namespace freqdedup {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("wal_test_" +
              std::to_string(
                  ::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".wal"))
                .string();
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".new");
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".new");
  }

  std::string path_;
};

TEST_F(WalTest, AppendAssignsContiguousLsns) {
  Wal wal(path_);
  const Lsn a = wal.append(toBytes("aaaa"));
  const Lsn b = wal.append(toBytes("bb"));
  EXPECT_EQ(a, Wal::kFrameBytes);
  EXPECT_EQ(b, a + 4 + Wal::kFrameBytes);
  EXPECT_EQ(wal.appendedLsn(), b + 2);
  EXPECT_EQ(wal.tailBytes(), wal.appendedLsn());
}

TEST_F(WalTest, ReadAtServesBufferedAndDurableBytes) {
  Wal wal(path_);
  const Lsn a = wal.append(toBytes("hello"));
  EXPECT_EQ(wal.readAt(a, 5), toBytes("hello"));  // still buffered
  wal.syncAll();
  EXPECT_EQ(wal.readAt(a, 5), toBytes("hello"));  // now from the file
  const Lsn b = wal.append(toBytes("world"));
  EXPECT_EQ(wal.readAt(b, 5), toBytes("world"));
  EXPECT_EQ(wal.readAt(a, 5), toBytes("hello"));
  EXPECT_THROW(wal.readAt(wal.appendedLsn(), 1), std::runtime_error);
}

TEST_F(WalTest, SyncMakesPrefixDurableAndScanSeesIt) {
  std::vector<std::pair<Lsn, std::string>> written;
  {
    Wal wal(path_);
    for (int i = 0; i < 20; ++i) {
      const std::string payload = "record-" + std::to_string(i);
      written.emplace_back(wal.append(toBytes(payload)), payload);
    }
    wal.syncAll();
    EXPECT_EQ(wal.durableLsn(), wal.appendedLsn());
  }
  Wal reopened(path_);
  size_t i = 0;
  reopened.scan(0, [&](const Wal::Record& r) {
    EXPECT_EQ(r.payloadLsn, written[i].first);
    EXPECT_EQ(toString(r.payload), written[i].second);
    ++i;
    return true;
  });
  EXPECT_EQ(i, written.size());
}

TEST_F(WalTest, ScanTruncatesTornTail) {
  Lsn goodEnd = 0;
  {
    Wal wal(path_);
    wal.append(toBytes("good"));
    wal.syncAll();
    goodEnd = wal.appendedLsn();
  }
  {
    FILE* f = fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t garbage[] = {0xDE, 0xAD, 0xBE};
    fwrite(garbage, 1, sizeof(garbage), f);
    fclose(f);
  }
  Wal wal(path_);
  size_t records = 0;
  const Lsn end = wal.scan(0, [&](const Wal::Record&) {
    ++records;
    return true;
  });
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(end, goodEnd);
  EXPECT_EQ(wal.appendedLsn(), goodEnd);
  // Appends resume on the clean boundary.
  const Lsn next = wal.append(toBytes("after"));
  EXPECT_EQ(next, goodEnd + Wal::kFrameBytes);
}

TEST_F(WalTest, RotatePreservesLsnSpaceAcrossReopen) {
  Lsn watermark = 0;
  Lsn tailPayload = 0;
  {
    Wal wal(path_);
    wal.append(toBytes("pre-rotation"));
    wal.syncAll();
    watermark = wal.appendedLsn();
    wal.rotate(watermark);
    EXPECT_EQ(wal.baseLsn(), watermark);
    EXPECT_EQ(wal.tailBytes(), 0u);
    // LSNs keep counting in the same space.
    tailPayload = wal.append(toBytes("post-rotation"));
    EXPECT_EQ(tailPayload, watermark + Wal::kFrameBytes);
    wal.syncAll();
  }
  Wal reopened(path_);
  EXPECT_EQ(reopened.baseLsn(), watermark);
  size_t records = 0;
  reopened.scan(0, [&](const Wal::Record& r) {  // clamped to baseLsn
    EXPECT_EQ(r.payloadLsn, tailPayload);
    EXPECT_EQ(toString(r.payload), "post-rotation");
    ++records;
    return true;
  });
  EXPECT_EQ(records, 1u);
}

// The one sync path's contract: append() only buffers, and a record is
// durable once a sync() covering its end LSN returns.
TEST_F(WalTest, AppendIsDurableOnlyOnceASyncCoversIt) {
  Wal wal(path_);
  const Lsn first = wal.append(toBytes("one"));
  const Lsn firstEnd = first + 3;
  EXPECT_LT(wal.durableLsn(), firstEnd);
  wal.append(toBytes("two"));
  EXPECT_LT(wal.durableLsn(), firstEnd);
  wal.sync(firstEnd);
  EXPECT_GE(wal.durableLsn(), firstEnd);
  wal.syncAll();
  EXPECT_EQ(wal.durableLsn(), wal.appendedLsn());
}

TEST_F(WalTest, ConcurrentCommittersAllDurableWithGroupedSyncs) {
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 50;
  Wal wal(path_);
  obs::MetricsRegistry registry;
  wal.bindMetrics(registry);
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &commits, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        const Lsn payloadLsn = wal.append(toBytes(payload));
        wal.sync(payloadLsn + payload.size());
        // The commit contract: once sync returns, the record is durable.
        if (wal.durableLsn() >= payloadLsn + payload.size())
          commits.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(commits.load(), static_cast<uint64_t>(kThreads) *
                                static_cast<uint64_t>(kCommitsPerThread));
  EXPECT_EQ(wal.durableLsn(), wal.appendedLsn());

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("wal.appends"),
            static_cast<uint64_t>(kThreads) * kCommitsPerThread);
  // Group commit: the leader's fdatasync covers every waiter in the slot,
  // so the sync count cannot exceed the commit count, and every appended
  // record must be accounted to some group.
  EXPECT_GT(snap.counter("wal.syncs"), 0u);
  EXPECT_LE(snap.counter("wal.syncs"),
            static_cast<uint64_t>(kThreads) * kCommitsPerThread);
  EXPECT_EQ(snap.histogram("wal.group_records").sum,
            static_cast<uint64_t>(kThreads) * kCommitsPerThread);

  // Everything written survives a reopen.
  Wal reopened(path_);
  size_t records = 0;
  reopened.scan(0, [&](const Wal::Record&) {
    ++records;
    return true;
  });
  EXPECT_EQ(records, static_cast<size_t>(kThreads) * kCommitsPerThread);
}

// A record that spills the slot buffer to the file while a sync leads a
// group with nothing left to write (an earlier spill wrote it all) must not
// be overwritten by the next spill: every record stays readable, live and
// after a reopen. The spill runs inside the leader's write-to-sync window
// through the crash hook, which appends instead of crashing.
Wal* g_spillWal = nullptr;
ByteVec g_spillPayload;
bool appendDuringLeaderSync(const char* point) {
  if (std::string(point) == "wal.after_write" && g_spillWal != nullptr) {
    Wal* wal = std::exchange(g_spillWal, nullptr);
    wal->append(g_spillPayload);
  }
  return false;
}

TEST_F(WalTest, SpillDuringAnEmptyGroupSyncKeepsEveryRecord) {
  const size_t kBig = 1 << 20;  // the slot buffer's spill threshold
  const ByteVec first(kBig, 0x11);
  const ByteVec third(kBig, 0x33);
  g_spillPayload.assign(kBig, 0x22);
  std::vector<Lsn> lsns;
  {
    Wal wal(path_);
    lsns.push_back(wal.append(first));  // spills: written, not yet durable
    g_spillWal = &wal;
    kvcrash::setHook(appendDuringLeaderSync);
    wal.syncAll();  // the leader's group is empty; the hook spills the 2nd
    kvcrash::setHook(nullptr);
    ASSERT_EQ(g_spillWal, nullptr) << "hook never ran";
    lsns.push_back(wal.appendedLsn() - kBig);
    lsns.push_back(wal.append(third));  // spills again
    wal.syncAll();
    EXPECT_EQ(wal.readAt(lsns[0], kBig), first);
    EXPECT_EQ(wal.readAt(lsns[1], kBig), g_spillPayload);
    EXPECT_EQ(wal.readAt(lsns[2], kBig), third);
  }
  Wal reopened(path_);
  std::vector<ByteVec> seen;
  reopened.scan(0, [&seen](const Wal::Record& r) {
    seen.emplace_back(r.payload.begin(), r.payload.end());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<ByteVec>{first, g_spillPayload, third}));
}

TEST_F(WalTest, CreateWithBaseLsnStartsThere) {
  Wal wal(path_, /*createBaseLsn=*/12345);
  EXPECT_EQ(wal.baseLsn(), 12345u);
  EXPECT_EQ(wal.appendedLsn(), 12345u);
  const Lsn payload = wal.append(toBytes("x"));
  EXPECT_EQ(payload, 12345u + Wal::kFrameBytes);
  wal.syncAll();
  Wal reopened(path_);
  EXPECT_EQ(reopened.baseLsn(), 12345u);
}

}  // namespace
}  // namespace freqdedup
