// The shared test helpers of temp_store.h: every store test relies on them
// for a private directory and for leaving nothing behind.
#include "temp_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace freqdedup {
namespace {

bool isEmptyDirectory(const std::string& path) {
  return std::filesystem::is_directory(path) &&
         std::filesystem::is_empty(path);
}

TEST(TempDir, EachInstanceIsFreshAndRemovedWithItsContents) {
  std::string firstPath;
  std::string secondPath;
  {
    const TempDir first;
    const TempDir second;
    firstPath = first.path();
    secondPath = second.path();
    EXPECT_NE(firstPath, secondPath);
    EXPECT_TRUE(isEmptyDirectory(firstPath));
    EXPECT_TRUE(isEmptyDirectory(secondPath));

    // Named after the test and the process, so concurrent runs never share.
    const std::string name =
        std::filesystem::path(firstPath).filename().string();
    EXPECT_NE(name.find("TempDir.EachInstanceIsFreshAndRemovedWithItsContents"),
              std::string::npos)
        << name;
    EXPECT_NE(name.find("-" + std::to_string(::getpid()) + "-"),
              std::string::npos)
        << name;

    std::filesystem::create_directories(firstPath + "/nested");
    std::ofstream(firstPath + "/nested/file") << "bytes";
  }
  EXPECT_FALSE(std::filesystem::exists(firstPath));
  EXPECT_FALSE(std::filesystem::exists(secondPath));
}

TEST(TempStore, IsAFileStoreWhoseDirectoryIsRemovedAtTeardown) {
  std::string path;
  const ByteVec bytes = toBytes("temp store chunk");
  const Fp fp = fpOfContent(bytes);
  {
    TempStore store({.containerBytes = 4 * 1024});
    path = store.path();
    EXPECT_TRUE(store.putChunk(fp, bytes));
    const std::vector<Fp> fps{fp};
    store.recordBackup("b", fps);
    store.flush();
    EXPECT_FALSE(std::filesystem::is_empty(path + "/containers"));
    EXPECT_EQ(store.getChunk(fp), bytes);
    EXPECT_TRUE(store.verify().ok());
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace freqdedup
