// LogKv batch records: one frame that replay applies all or nothing, whose
// operations apply in order, through checkpoints and reopens, with the same
// dead-record count live and replayed.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "kvstore/logkv.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

class LogKvBatchTest : public ::testing::Test {
 protected:
  const TempDir tmp_;
  const std::string path_ = tmp_.path() + "/kv.log";
};

// A batch cut at every byte of its frame, header included, applies neither
// of its operations, and recovery cuts the log back to the batch's start.
TEST_F(LogKvBatchTest, TornBatchAppliesNeitherOperation) {
  uint64_t batchStart = 0;
  {
    LogKv kv(path_);
    kv.put(toBytes("keep"), toBytes("1"));
    kv.put(toBytes("gone"), toBytes("2"));
    kv.flush();
    batchStart = std::filesystem::file_size(path_);
    LogKv::Batch batch;
    batch.put(toBytes("new"), toBytes("3"));
    batch.erase(toBytes("gone"));
    kv.write(batch);
    kv.flush();
  }
  const ByteVec whole = readFile(path_);
  ASSERT_GT(whole.size(), batchStart);
  const std::string cutPath = tmp_.path() + "/cut.log";
  for (uint64_t cut = batchStart; cut < whole.size(); ++cut) {
    SCOPED_TRACE("log cut at byte " + std::to_string(cut));
    writeFile(cutPath, ByteView(whole.data(), cut));
    {
      LogKv kv(cutPath);
      EXPECT_EQ(kv.get(toBytes("keep")), toBytes("1"));
      EXPECT_EQ(kv.get(toBytes("gone")), toBytes("2"));
      EXPECT_FALSE(kv.contains(toBytes("new")));
      EXPECT_EQ(kv.size(), 2u);
    }
    EXPECT_EQ(std::filesystem::file_size(cutPath), batchStart);
  }
  LogKv kv(path_);
  EXPECT_EQ(kv.get(toBytes("new")), toBytes("3"));
  EXPECT_FALSE(kv.contains(toBytes("gone")));
}

// A batch that puts one key and erases another survives a checkpoint (which
// holds only its puts) and a reopen, before and after the checkpoint.
TEST_F(LogKvBatchTest, PutAndEraseSurviveCheckpointAndReopen) {
  {
    LogKv kv(path_);
    kv.put(toBytes("a"), toBytes("1"));
    kv.put(toBytes("b"), toBytes("2"));
    LogKv::Batch batch;
    batch.put(toBytes("c"), toBytes("3"));
    batch.erase(toBytes("a"));
    kv.write(batch);
    kv.flush();
  }
  {
    LogKv kv(path_);
    EXPECT_EQ(kv.tailRecordsReplayed(), 3u);
    EXPECT_FALSE(kv.contains(toBytes("a")));
    EXPECT_EQ(kv.get(toBytes("c")), toBytes("3"));
    kv.checkpoint();
    LogKv::Batch batch;
    batch.put(toBytes("a"), toBytes("4"));
    batch.erase(toBytes("b"));
    kv.write(batch);
    kv.flush();
  }
  LogKv kv(path_);
  EXPECT_EQ(kv.checkpointRecordsLoaded(), 2u);
  EXPECT_EQ(kv.tailRecordsReplayed(), 1u);
  EXPECT_EQ(kv.get(toBytes("a")), toBytes("4"));
  EXPECT_FALSE(kv.contains(toBytes("b")));
  EXPECT_EQ(kv.get(toBytes("c")), toBytes("3"));
  EXPECT_EQ(kv.size(), 2u);
}

// Batch operations count dead records as put and erase do, live and on
// replay: an overwrite 1, a tombstone 1, and the put it erases 1.
TEST_F(LogKvBatchTest, DeadRecordsEqualLiveAndAfterReopen) {
  uint64_t live = 0;
  {
    LogKv kv(path_);
    kv.put(toBytes("a"), toBytes("1"));
    LogKv::Batch batch;
    batch.put(toBytes("a"), toBytes("2"));  // +1 (overwrite)
    batch.erase(toBytes("b"));              // +1 (tombstone of an absent key)
    batch.put(toBytes("c"), toBytes("1"));
    batch.erase(toBytes("c"));              // +2 (erased put + tombstone)
    kv.write(batch);
    kv.erase(toBytes("a"));                 // +2
    kv.flush();
    live = kv.deadRecords();
    EXPECT_EQ(live, 6u);
  }
  LogKv kv(path_);
  EXPECT_EQ(kv.deadRecords(), live);
}

// Operations on one key inside a batch apply in order, live and replayed.
TEST_F(LogKvBatchTest, OperationsOnOneKeyApplyInOrder) {
  const auto check = [](LogKv& kv) {
    EXPECT_FALSE(kv.contains(toBytes("put-then-erase")));
    EXPECT_EQ(kv.get(toBytes("erase-then-put")), toBytes("2"));
    EXPECT_EQ(kv.get(toBytes("put-twice")), toBytes("second"));
    EXPECT_EQ(kv.size(), 2u);
  };
  {
    LogKv kv(path_);
    kv.put(toBytes("erase-then-put"), toBytes("1"));
    LogKv::Batch batch;
    batch.put(toBytes("put-then-erase"), toBytes("1"));
    batch.erase(toBytes("put-then-erase"));
    batch.erase(toBytes("erase-then-put"));
    batch.put(toBytes("erase-then-put"), toBytes("2"));
    batch.put(toBytes("put-twice"), toBytes("first"));
    batch.put(toBytes("put-twice"), toBytes("second"));
    kv.write(batch);
    check(kv);
    kv.flush();
  }
  LogKv kv(path_);
  check(kv);
}

}  // namespace
}  // namespace freqdedup
