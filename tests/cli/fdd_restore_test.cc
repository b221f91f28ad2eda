// `fdd restore` against stores that the library wrote with hostile backup
// names. The names a restore writes come from the store, or from the daemon
// with --remote, and the provider is the paper's adversary: a name that is
// absolute or climbs out of the destination must fail the restore (exit 1)
// and write nothing outside the destination.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup {
namespace {

namespace fs = std::filesystem;

/// Commits one small backup named `name` into a new store at `dir`.
void commitNamed(const fs::path& dir, const std::string& name) {
  FileBackupStore store(dir.string());
  KeyManager keyManager(toBytes(kKeyManagerSecret));
  CdcChunker chunker;
  DedupClient client(store, keyManager, chunker, {});
  BackupSession session = client.beginBackup(name);
  const ByteVec data = toBytes("restored bytes");
  session.append(ByteView(data.data(), data.size()));
  Rng rng(1);
  client.commitBackup(name, session.finish(), userKeyFromPassphrase("pw"),
                      rng);
  store.flush();
}

/// Runs `fdd restore <store> <dest> pw`; returns its exit code and keeps
/// its stderr in `err`.
int fddRestore(const fs::path& store, const fs::path& dest, std::string& err) {
  const fs::path errFile = store.parent_path() / "stderr.txt";
  const std::string command = std::string(FDD_BINARY) + " restore '" +
                              store.string() + "' '" + dest.string() +
                              "' pw > /dev/null 2> '" + errFile.string() +
                              "'";
  const int status = std::system(command.c_str());
  std::ostringstream text;
  text << std::ifstream(errFile).rdbuf();
  err = text.str();
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(FddRestore, WritesARelativeNameUnderTheDestination) {
  TempDir dir;
  const fs::path root = dir.path();
  commitNamed(root / "store", "sub/kept.bin");
  std::string err;
  EXPECT_EQ(fddRestore(root / "store", root / "dest", err), 0) << err;
  EXPECT_TRUE(fs::is_regular_file(root / "dest" / "sub" / "kept.bin"));
}

TEST(FddRestore, RefusesANameOutsideTheDestination) {
  TempDir dir;
  const fs::path root = dir.path();
  // Each would land at <root>/escaped.bin if restored as named.
  const std::string names[] = {"../escaped.bin", "x/../../escaped.bin",
                               (root / "escaped.bin").string()};
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    fs::remove_all(root / "store");
    commitNamed(root / "store", name);
    std::string err;
    EXPECT_EQ(fddRestore(root / "store", root / "dest", err), 1);
    EXPECT_NE(err.find("refusing to restore"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(root / "escaped.bin"));
  }
}

}  // namespace
}  // namespace freqdedup
