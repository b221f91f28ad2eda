// Temporary directories and stores for tests.
//
// TempDir is a fresh directory under the system temp dir, named after the
// running test, the process id and a per-process sequence number, so tests
// that ctest runs side by side never share one. It is removed, with
// everything under it, on destruction.
//
// TempStore is a FileBackupStore in its own TempDir. It is the store a test
// constructs when it needs one and nothing on disk afterwards:
//
//   TempStore store;                                  // default options
//   TempStore small({.containerBytes = 64 * 1024});   // any StoreOptions
//
// The directory is a base class declared before the store, so it exists
// before the store opens and outlives the store's closing flush.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

#include "storage/file_backup_store.h"

namespace freqdedup {

class TempDir {
 public:
  TempDir() : path_(uniquePath()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;  // teardown must not throw
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static std::string uniquePath() {
    static std::atomic<unsigned> sequence{0};
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr ? "setup"
                                       : std::string(info->test_suite_name()) +
                                             "." + info->name();
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    return (std::filesystem::temp_directory_path() /
            ("fdd-" + name + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(sequence++)))
        .string();
  }

  std::string path_;
};

class TempStore : public TempDir, public FileBackupStore {
 public:
  explicit TempStore(const StoreOptions& options = {})
      : FileBackupStore(path(), options) {}
};

}  // namespace freqdedup
