#include "kvstore/logkv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/varint.h"
#include "obs/metrics.h"

namespace freqdedup {
namespace {

class LogKvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("logkv_test_" +
              std::to_string(
                  ::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".log"))
                .string();
    removeStoreFiles();
  }
  void TearDown() override { removeStoreFiles(); }

  /// The WAL plus every checkpoint sidecar a test may have produced.
  void removeStoreFiles() {
    for (const char* suffix :
         {"", ".new", ".ckpt", ".ckpt.tmp", ".ckpt.corrupt"})
      std::filesystem::remove(path_ + suffix);
  }

  std::string path_;
};

TEST_F(LogKvTest, PutGet) {
  LogKv kv(path_);
  kv.put(toBytes("key"), toBytes("value"));
  EXPECT_EQ(kv.get(toBytes("key")), toBytes("value"));
  EXPECT_EQ(kv.size(), 1u);
}

TEST_F(LogKvTest, MissingKey) {
  LogKv kv(path_);
  EXPECT_EQ(kv.get(toBytes("nope")), std::nullopt);
  EXPECT_FALSE(kv.contains(toBytes("nope")));
}

TEST_F(LogKvTest, OverwriteKeepsLatest) {
  LogKv kv(path_);
  kv.put(toBytes("k"), toBytes("v1"));
  kv.put(toBytes("k"), toBytes("v2"));
  EXPECT_EQ(kv.get(toBytes("k")), toBytes("v2"));
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_GT(kv.deadRecords(), 0u);
}

TEST_F(LogKvTest, PersistsAcrossReopen) {
  {
    LogKv kv(path_);
    kv.put(toBytes("alpha"), toBytes("1"));
    kv.put(toBytes("beta"), toBytes("2"));
    kv.erase(toBytes("alpha"));
    kv.flush();
  }
  LogKv reopened(path_);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.get(toBytes("beta")), toBytes("2"));
  EXPECT_FALSE(reopened.contains(toBytes("alpha")));
}

TEST_F(LogKvTest, ManyEntriesSurviveReopen) {
  Rng rng(1);
  std::vector<std::pair<ByteVec, ByteVec>> entries;
  {
    LogKv kv(path_);
    for (int i = 0; i < 500; ++i) {
      ByteVec key = kvKeyFromU64(rng.next());
      ByteVec value(static_cast<size_t>(rng.uniformInt(0, 64)));
      for (auto& b : value) b = static_cast<uint8_t>(rng.next());
      kv.put(key, value);
      entries.emplace_back(std::move(key), std::move(value));
    }
    kv.flush();
  }
  LogKv reopened(path_);
  EXPECT_EQ(reopened.size(), entries.size());
  for (const auto& [key, value] : entries)
    EXPECT_EQ(reopened.get(key), value);
}

TEST_F(LogKvTest, TornTailIsTruncatedOnRecovery) {
  {
    LogKv kv(path_);
    kv.put(toBytes("good"), toBytes("record"));
    kv.flush();
  }
  // Simulate a crash mid-append: add garbage half-record bytes.
  {
    FILE* f = fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t garbage[] = {0x12, 0x34, 0x56};
    fwrite(garbage, 1, sizeof(garbage), f);
    fclose(f);
  }
  LogKv recovered(path_);
  EXPECT_EQ(recovered.get(toBytes("good")), toBytes("record"));
  EXPECT_EQ(recovered.size(), 1u);
  // The torn bytes are gone; new appends work.
  recovered.put(toBytes("new"), toBytes("entry"));
  recovered.flush();
  LogKv again(path_);
  EXPECT_EQ(again.size(), 2u);
  EXPECT_EQ(again.get(toBytes("new")), toBytes("entry"));
}

TEST_F(LogKvTest, CorruptRecordStopsReplayAtTail) {
  {
    LogKv kv(path_);
    kv.put(toBytes("first"), toBytes("1"));
    kv.put(toBytes("second"), toBytes("2"));
    kv.flush();
  }
  // Flip a byte inside the second record's payload.
  {
    auto data = readFile(path_);
    data[data.size() - 2] ^= 0xFF;
    writeFile(path_, data);
  }
  LogKv recovered(path_);
  EXPECT_EQ(recovered.get(toBytes("first")), toBytes("1"));
  EXPECT_FALSE(recovered.contains(toBytes("second")));
}

TEST_F(LogKvTest, CompactionReclaimsDeadSpace) {
  LogKv kv(path_);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 20; ++i) {
      kv.put(kvKeyFromU64(static_cast<uint64_t>(i)),
             toBytes("value-" + std::to_string(round)));
    }
  }
  const uint64_t before = kv.logBytes();
  kv.compact();
  EXPECT_LT(kv.logBytes(), before / 4);
  EXPECT_EQ(kv.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(kv.get(kvKeyFromU64(static_cast<uint64_t>(i))),
              toBytes("value-19"));
  }
}

TEST_F(LogKvTest, CompactionSurvivesReopen) {
  {
    LogKv kv(path_);
    kv.put(toBytes("a"), toBytes("1"));
    kv.put(toBytes("b"), toBytes("2"));
    kv.erase(toBytes("a"));
    kv.compact();
  }
  LogKv reopened(path_);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.get(toBytes("b")), toBytes("2"));
  EXPECT_EQ(reopened.deadRecords(), 0u);
}

TEST_F(LogKvTest, EraseMissingReturnsFalse) {
  LogKv kv(path_);
  EXPECT_FALSE(kv.erase(toBytes("ghost")));
}

TEST_F(LogKvTest, EraseReportsWhetherTheKeyWasLiveAndSurvivesReopen) {
  {
    LogKv kv(path_);
    kv.put(toBytes("k"), toBytes("v"));
    EXPECT_TRUE(kv.contains(toBytes("k")));
    EXPECT_TRUE(kv.erase(toBytes("k")));
    EXPECT_FALSE(kv.erase(toBytes("k")));
    EXPECT_FALSE(kv.contains(toBytes("k")));
    kv.flush();
  }
  LogKv reopened(path_);
  EXPECT_FALSE(reopened.contains(toBytes("k")));
  EXPECT_FALSE(reopened.erase(toBytes("k")));
  EXPECT_EQ(reopened.size(), 0u);
}

TEST_F(LogKvTest, ForEachAfterReopenVisitsEveryLiveEntryWithItsValue) {
  std::map<std::string, std::string> expected;
  {
    LogKv kv(path_);
    for (int i = 0; i < 50; ++i) {
      const std::string key = "key" + std::to_string(i);
      kv.put(toBytes(key), toBytes("old"));
      kv.put(toBytes(key), toBytes("value" + std::to_string(i)));
      expected[key] = "value" + std::to_string(i);
    }
    for (int i = 0; i < 50; i += 5) {
      kv.erase(toBytes("key" + std::to_string(i)));
      expected.erase("key" + std::to_string(i));
    }
    kv.flush();
  }
  LogKv reopened(path_);
  std::map<std::string, std::string> seen;
  reopened.forEach([&seen](ByteView key, ByteView value) {
    EXPECT_TRUE(seen.emplace(toString(key), toString(value)).second)
        << "visited twice: " << toString(key);
  });
  EXPECT_EQ(seen, expected);
}

TEST_F(LogKvTest, ForEachVisitsLiveEntriesOnly) {
  LogKv kv(path_);
  kv.put(toBytes("keep"), toBytes("1"));
  kv.put(toBytes("drop"), toBytes("2"));
  kv.erase(toBytes("drop"));
  size_t count = 0;
  kv.forEach([&count](ByteView key, ByteView) {
    EXPECT_EQ(toString(key), "keep");
    ++count;
  });
  EXPECT_EQ(count, 1u);
}

TEST_F(LogKvTest, ForEachKeyVisitsTheLiveKeysAcrossCheckpointAndReopen) {
  auto keysOf = [](const LogKv& kv) {
    std::set<std::string> keys;
    kv.forEachKey([&keys](ByteView key) {
      EXPECT_TRUE(keys.insert(toString(key)).second)
          << "visited twice: " << toString(key);
    });
    return keys;
  };
  std::set<std::string> live;
  {
    LogKv kv(path_);
    // Checkpointed: puts, an overwrite and an erase.
    for (int i = 0; i < 20; ++i) {
      kv.put(toBytes("ck" + std::to_string(i)), toBytes("v"));
      live.insert("ck" + std::to_string(i));
    }
    kv.put(toBytes("ck3"), toBytes("overwritten"));
    kv.erase(toBytes("ck5"));
    live.erase("ck5");
    kv.checkpoint();
    // WAL tail: a new key, an overwrite of a checkpointed key, an erase of
    // a checkpointed key, and a key put and erased within the tail.
    kv.put(toBytes("tail"), toBytes("t"));
    kv.put(toBytes("ck7"), toBytes("again"));
    kv.erase(toBytes("ck9"));
    kv.put(toBytes("gone"), toBytes("g"));
    kv.erase(toBytes("gone"));
    live.insert("tail");
    live.erase("ck9");
    EXPECT_EQ(keysOf(kv), live);
    kv.flush();
  }
  const LogKv reopened(path_);
  EXPECT_EQ(keysOf(reopened), live);
  EXPECT_EQ(reopened.size(), live.size());
}

TEST_F(LogKvTest, EmptyValue) {
  LogKv kv(path_);
  kv.put(toBytes("k"), {});
  const auto value = kv.get(toBytes("k"));
  ASSERT_TRUE(value.has_value());
  EXPECT_TRUE(value->empty());
}

TEST_F(LogKvTest, BinaryKeysWithEmbeddedNullsSurviveReopen) {
  const ByteVec key{0x00, 0x01, 0x00, 0x02};
  {
    LogKv kv(path_);
    kv.put(key, toBytes("binary"));
    kv.flush();
  }
  LogKv reopened(path_);
  EXPECT_EQ(reopened.get(key), toBytes("binary"));
  EXPECT_FALSE(reopened.contains(ByteVec{0x00, 0x01}));
}

TEST(LogKvKeys, U64KeyHelpersRoundTrip) {
  const ByteVec key = kvKeyFromU64(0x1122334455667788ULL);
  EXPECT_EQ(key.size(), 8u);
  EXPECT_EQ(kvKeyToU64(key), 0x1122334455667788ULL);
}

TEST_F(LogKvTest, SyncAdvancesDurableLsn) {
  LogKv kv(path_);
  kv.put(toBytes("k"), toBytes("v"));
  const Lsn appended = kv.appendedLsn();
  EXPECT_GT(appended, 0u);
  kv.sync(appended);
  EXPECT_GE(kv.durableLsn(), appended);
  kv.flush();
  EXPECT_EQ(kv.durableLsn(), kv.appendedLsn());
}

// The acceptance invariant: after a checkpoint plus N tail commits, a
// reopen loads the checkpoint and replays exactly those N records.
TEST_F(LogKvTest, ReopenAfterCheckpointReplaysOnlyTheTail) {
  constexpr int kCheckpointed = 100;
  constexpr int kTail = 7;
  {
    LogKv kv(path_);
    for (int i = 0; i < kCheckpointed; ++i)
      kv.put(kvKeyFromU64(static_cast<uint64_t>(i)), toBytes("base"));
    kv.checkpoint();
    for (int i = 0; i < kTail; ++i)
      kv.put(kvKeyFromU64(static_cast<uint64_t>(1000 + i)), toBytes("tail"));
    kv.flush();
  }
  LogKv reopened(path_);
  EXPECT_EQ(reopened.checkpointRecordsLoaded(),
            static_cast<uint64_t>(kCheckpointed));
  EXPECT_EQ(reopened.tailRecordsReplayed(), static_cast<uint64_t>(kTail));
  EXPECT_GT(reopened.checkpointWatermark(), 0u);
  EXPECT_EQ(reopened.size(),
            static_cast<size_t>(kCheckpointed + kTail));
  // The same numbers must surface through the obs registry.
  obs::MetricsRegistry registry;
  reopened.bindMetrics(registry);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("wal.replay.records"),
            static_cast<uint64_t>(kTail));
  EXPECT_EQ(snap.counter("ckpt.loads"), 1u);
  EXPECT_EQ(snap.counter("ckpt.load_records"),
            static_cast<uint64_t>(kCheckpointed));
  // Values read back from both files.
  EXPECT_EQ(reopened.get(kvKeyFromU64(0)), toBytes("base"));
  EXPECT_EQ(reopened.get(kvKeyFromU64(1000)), toBytes("tail"));
}

// Pin for the dead-record accounting divergence: live mutations and replay
// must count identically, so the value is stable across any number of
// reopens (erase = erased put + tombstone = 2; overwrite = 1).
TEST_F(LogKvTest, DeadRecordsStableAcrossReopen) {
  uint64_t live = 0;
  {
    LogKv kv(path_);
    kv.put(toBytes("a"), toBytes("1"));
    kv.put(toBytes("a"), toBytes("2"));  // +1 (overwrite)
    kv.put(toBytes("b"), toBytes("1"));
    kv.erase(toBytes("b"));              // +2 (erased put + tombstone)
    kv.erase(toBytes("c"));              // no-op: key absent, nothing logged
    kv.put(toBytes("d"), toBytes("1"));
    kv.flush();
    live = kv.deadRecords();
    EXPECT_EQ(live, 3u);
  }
  uint64_t afterFirstReopen = 0;
  {
    LogKv kv(path_);
    afterFirstReopen = kv.deadRecords();
    EXPECT_EQ(afterFirstReopen, live);
  }
  LogKv kv(path_);
  EXPECT_EQ(kv.deadRecords(), afterFirstReopen);
}

TEST_F(LogKvTest, AutoCheckpointTriggersAtThreshold) {
  LogKvOptions options;
  options.checkpointBytes = 4096;
  LogKv kv(path_, options);
  const ByteVec value(128, 0x5A);
  for (int i = 0; i < 200; ++i)
    kv.put(kvKeyFromU64(static_cast<uint64_t>(i % 10)), value);
  // 200 x ~140-byte records against a 4 KiB threshold: checkpoints must
  // have fired, keeping the replayable tail bounded.
  EXPECT_LT(kv.logBytes(), options.checkpointBytes + 4096);
  EXPECT_TRUE(std::filesystem::exists(path_ + ".ckpt"));
  EXPECT_EQ(kv.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(kv.get(kvKeyFromU64(static_cast<uint64_t>(i))), value);
}

TEST_F(LogKvTest, CorruptCheckpointIsQuarantinedAndTailSurvives) {
  {
    LogKv kv(path_);
    kv.put(toBytes("ckpt-key"), toBytes("1"));
    kv.checkpoint();
    kv.put(toBytes("tail-key"), toBytes("2"));
    kv.flush();
  }
  {
    auto data = readFile(path_ + ".ckpt");
    data[data.size() - 1] ^= 0xFF;  // corrupt the checkpointed record
    writeFile(path_ + ".ckpt", data);
  }
  LogKv recovered(path_);
  // The checkpointed state is genuinely lost (the WAL was rotated past it);
  // recovery must quarantine the bad file, keep the store usable, and
  // still replay the tail.
  EXPECT_EQ(recovered.checkpointRecordsLoaded(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path_ + ".ckpt.corrupt"));
  EXPECT_EQ(recovered.get(toBytes("tail-key")), toBytes("2"));
  EXPECT_FALSE(recovered.contains(toBytes("ckpt-key")));
  recovered.put(toBytes("after"), toBytes("3"));
  recovered.flush();
  LogKv again(path_);
  EXPECT_EQ(again.get(toBytes("after")), toBytes("3"));
}

// Stores written before the WAL header existed (headerless frame stream,
// implicit base LSN 0) must stay readable, and a checkpoint migrates them
// to the current format.
TEST_F(LogKvTest, LegacyHeaderlessLogIsReadableAndMigrates) {
  {
    ByteVec file;
    const auto appendLegacyRecord = [&file](const std::string& key,
                                            const std::string& value) {
      ByteVec payload;
      payload.push_back(1);  // kPut
      putVarint(payload, key.size());
      appendBytes(payload, toBytes(key));
      putVarint(payload, value.size());
      appendBytes(payload, toBytes(value));
      putU32(file, crc32c(payload));
      putU32(file, static_cast<uint32_t>(payload.size()));
      appendBytes(file, payload);
    };
    appendLegacyRecord("old1", "v1");
    appendLegacyRecord("old2", "v2");
    writeFile(path_, file);
  }
  {
    LogKv kv(path_);
    EXPECT_EQ(kv.size(), 2u);
    EXPECT_EQ(kv.get(toBytes("old1")), toBytes("v1"));
    EXPECT_EQ(kv.tailRecordsReplayed(), 2u);
    kv.put(toBytes("new"), toBytes("v3"));
    kv.checkpoint();  // rotation writes the headered format
  }
  LogKv migrated(path_);
  EXPECT_EQ(migrated.size(), 3u);
  EXPECT_EQ(migrated.get(toBytes("old2")), toBytes("v2"));
  EXPECT_EQ(migrated.get(toBytes("new")), toBytes("v3"));
  EXPECT_EQ(migrated.checkpointRecordsLoaded(), 3u);
  EXPECT_EQ(migrated.tailRecordsReplayed(), 0u);
}

}  // namespace
}  // namespace freqdedup
