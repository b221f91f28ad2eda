// backup_system: a miniature encrypted-deduplication backup tool over a real
// directory tree, using the persistent store (containers on disk + log-
// structured fingerprint index) and the combined MinHash + scrambling scheme.
//
// Built on the session-based streaming client: files are streamed through
// BackupSession / RestoreSession in fixed-size I/O buffers, so arbitrarily
// large files back up and restore in bounded memory.
//
// Usage:
//   backup_system backup  <store-dir> <source-dir> <passphrase>
//   backup_system restore <store-dir> <dest-dir>  <passphrase>
//   backup_system delete  <store-dir> <name>      # then `gc` to reclaim
//   backup_system gc      <store-dir>
//   backup_system verify  <store-dir>
//   backup_system list    <store-dir>
//   backup_system stats   <store-dir> [--json]
//   backup_system serve   <store-dir> <address>   # run the freqdedupd server
//   backup_system demo                      # self-contained tmp-dir demo
//
// Remote mode — the same operations against a running freqdedupd daemon
// (`--remote=<addr>` with an optional `--tenant=<id>`, default "default").
// The daemon authenticates every connection against the tenant's registered
// passphrase; subcommands without a positional passphrase take `--pass=`:
//   backup_system backup   <source-dir> <passphrase> --remote=<addr>
//   backup_system restore  <dest-dir>   <passphrase> --remote=<addr>
//   backup_system delete   <name>     --remote=<addr> [--pass=<passphrase>]
//   backup_system list                --remote=<addr> [--pass=<passphrase>]
//   backup_system stats               --remote=<addr> [--pass=<passphrase>]
//   backup_system shutdown            --remote=<addr> [--pass=<passphrase>]
//
// Every state-touching subcommand accepts a trailing `--stats` (human
// text) or `--stats=json` (one JSON object per line) flag that dumps the
// metrics registry — client/session counters plus the store's own
// instance registry — after the operation finishes.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "chunking/cdc_chunker.h"
#include "client/dedup_client.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "server/client_conn.h"
#include "server/server.h"
#include "storage/file_backup_store.h"

using namespace freqdedup;
namespace fs = std::filesystem;

namespace {

/// I/O buffer for streaming files through sessions — the largest piece of a
/// file this tool ever holds.
constexpr size_t kIoBufferBytes = 1 << 20;

BackupOptions defenseOptions() {
  BackupOptions options;
  options.scheme = EncryptionScheme::kMinHashScrambled;
  return options;
}

enum class StatsFlag { kNone, kText, kJson };

/// Consumes a trailing `--stats` / `--stats=json` anywhere in argv so the
/// positional arguments stay where each subcommand expects them.
StatsFlag extractStatsFlag(int& argc, char** argv) {
  StatsFlag flag = StatsFlag::kNone;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      flag = StatsFlag::kText;
    } else if (std::strcmp(argv[i], "--stats=json") == 0) {
      flag = StatsFlag::kJson;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return flag;
}

/// Consumes a trailing `--<name>=<value>` option anywhere in argv. Returns
/// the value, or the empty string when absent.
std::string extractOption(int& argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = argv[i] + prefix.size();
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return value;
}

/// Consumes a valueless `--<name>` flag anywhere in argv.
bool extractFlag(int& argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  bool present = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      present = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return present;
}

/// Store configuration shared by every local subcommand, parsed from the
/// trailing flags: --compress=<none|deflate>, --cache-bytes=<n[kmg]>,
/// --demote-on-gc, --hot-bytes=<n[kmg]>, --keep-hot=<n>. Reads always work
/// regardless of these flags (codecs and tier placement are discovered per
/// container); they only shape new writes, the block-cache budget, and GC
/// demotion.
StoreOptions g_storeOptions;

void extractStoreOptions(int& argc, char** argv) {
  if (const std::string codec = extractOption(argc, argv, "compress");
      !codec.empty()) {
    const auto parsed = codecFromName(codec);
    if (!parsed)
      throw std::invalid_argument("unknown codec '" + codec +
                                  "' (none|deflate)");
    g_storeOptions.codec = *parsed;
  }
  if (const std::string bytes = extractOption(argc, argv, "cache-bytes");
      !bytes.empty())
    g_storeOptions.blockCacheBytes = server::parseByteSize(bytes);
  if (extractFlag(argc, argv, "demote-on-gc"))
    g_storeOptions.coldTier.demoteOnGc = true;
  if (const std::string bytes = extractOption(argc, argv, "hot-bytes");
      !bytes.empty()) {
    g_storeOptions.coldTier.hotBytes = server::parseByteSize(bytes);
    g_storeOptions.coldTier.demoteOnGc = true;
  }
  if (const std::string keep = extractOption(argc, argv, "keep-hot");
      !keep.empty())
    g_storeOptions.coldTier.keepHotRecent =
        static_cast<uint32_t>(std::stoul(keep));
}

/// Dumps the process-wide registry (sessions, pipeline, chunking) merged
/// with the store's per-instance registry (cache, containers, GC).
void dumpStats(const FileBackupStore& store, StatsFlag flag) {
  if (flag == StatsFlag::kNone) return;
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  snapshot.merge(store.metricsSnapshot());
  if (flag == StatsFlag::kJson) {
    printf("%s\n", snapshot.toJson().c_str());
  } else {
    printf("--- stats ---\n%s", snapshot.toText().c_str());
  }
}

void printRecovery(const FileBackupStore& store) {
  const StoreRecoveryStats& rs = store.recoveryStats();
  if (rs.orphanContainersRemoved + rs.corruptContainers + rs.entriesDropped ==
      0)
    return;
  printf("recovery: %llu orphan containers removed, %llu corrupt containers "
         "quarantined, %llu index entries dropped\n",
         static_cast<unsigned long long>(rs.orphanContainersRemoved),
         static_cast<unsigned long long>(rs.corruptContainers),
         static_cast<unsigned long long>(rs.entriesDropped));
}

/// Streams one file from disk through a backup session in kIoBufferBytes
/// reads (never loads the file whole).
BackupOutcome backupFile(DedupClient& client, const std::string& name,
                         const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  BackupSession session = client.beginBackup(name);
  ByteVec buffer(kIoBufferBytes);
  while (in) {
    in.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    session.append(ByteView(buffer.data(), got));
  }
  // A mid-file read error must not be mistaken for EOF: committing a
  // silently truncated backup would be data loss.
  if (in.bad() || (in.fail() && !in.eof()))
    throw std::runtime_error("read error on " + path.string());
  return session.finish();
}

int doBackup(const std::string& storeDir, const std::string& sourceDir,
             const std::string& passphrase,
             StatsFlag stats = StatsFlag::kNone) {
  FileBackupStore store(storeDir, g_storeOptions);
  printRecovery(store);
  KeyManager keyManager(toBytes("backup-system-global-secret"));
  CdcChunker chunker;
  DedupClient client(store, keyManager, chunker, defenseOptions());
  const AesKey userKey = userKeyFromPassphrase(passphrase);
  // OS-entropy seed: this rng draws the recipe-sealing IVs, and a
  // deterministic seed (e.g. hashed paths) would replay the same AES-CTR
  // IV sequence on every run against the same store.
  Rng rng(secureSeed());

  size_t files = 0, newChunks = 0, dupChunks = 0;
  for (const auto& entry : fs::recursive_directory_iterator(sourceDir)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        fs::relative(entry.path(), sourceDir).generic_string();
    const BackupOutcome outcome = backupFile(client, rel, entry.path());
    client.commitBackup(rel, outcome, userKey, rng);
    ++files;
    newChunks += outcome.newChunks;
    dupChunks += outcome.duplicateChunks;
  }
  store.flush();
  printf("backed up %zu files: %zu new chunks, %zu duplicates "
         "(dedup ratio %.2fx, %zu containers)\n",
         files, newChunks, dupChunks, store.stats().dedupRatio(),
         store.containerCount());
  dumpStats(store, stats);
  return 0;
}

int doRestore(const std::string& storeDir, const std::string& destDir,
              const std::string& passphrase,
              StatsFlag stats = StatsFlag::kNone) {
  FileBackupStore store(storeDir, g_storeOptions);
  printRecovery(store);
  // Restore-only client (no chunker or key manager) on the batched engine:
  // parallel decrypt + container read-ahead, sized to the machine.
  RestoreOptions restoreOptions;
  restoreOptions.parallelism =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  restoreOptions.readAheadBatches = 4;
  DedupClient client(store, restoreOptions);
  const AesKey userKey = userKeyFromPassphrase(passphrase);

  size_t files = 0;
  for (const std::string& name : client.listBackups()) {
    RestoreSession session = client.beginRestore(name, userKey);
    const fs::path out = fs::path(destDir) / name;
    fs::create_directories(out.parent_path());
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("cannot create " + out.string());
    // Chunks stream straight to disk; the file never materializes in memory.
    session.streamTo([&file](ByteView bytes) {
      file.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
      if (!file) throw std::runtime_error("short write");
    });
    // Flush explicitly: destructor-time flush errors are swallowed and
    // would let a truncated restore count as success.
    file.close();
    if (file.fail())
      throw std::runtime_error("failed to finish writing " + out.string());
    ++files;
  }
  printf("restored %zu files into %s\n", files, destDir.c_str());
  dumpStats(store, stats);
  return 0;
}

int doDelete(const std::string& storeDir, const std::string& name,
             StatsFlag stats = StatsFlag::kNone) {
  FileBackupStore store(storeDir, g_storeOptions);
  DedupClient client(store);
  if (!client.deleteBackup(name)) {
    fprintf(stderr, "no backup named '%s'\n", name.c_str());
    return 1;
  }
  printf("deleted '%s'; run `backup_system gc %s` to reclaim space\n",
         name.c_str(), storeDir.c_str());
  dumpStats(store, stats);
  return 0;
}

int doGc(const std::string& storeDir, StatsFlag stats = StatsFlag::kNone) {
  FileBackupStore store(storeDir, g_storeOptions);
  const GcStats gc = store.collectGarbage();
  printf("gc: reclaimed %llu chunks (%.2f MB) from %llu containers, "
         "relocated %llu live chunks, demoted %llu containers\n",
         static_cast<unsigned long long>(gc.chunksReclaimed),
         static_cast<double>(gc.bytesReclaimed) / 1e6,
         static_cast<unsigned long long>(gc.containersCompacted),
         static_cast<unsigned long long>(gc.chunksRelocated),
         static_cast<unsigned long long>(gc.containersDemoted));
  dumpStats(store, stats);
  return 0;
}

int doVerify(const std::string& storeDir,
             StatsFlag stats = StatsFlag::kNone) {
  FileBackupStore store(storeDir, g_storeOptions);
  printRecovery(store);
  const StoreCheckReport report = store.verify();
  printf("verify: %llu chunks, %llu containers, %llu backups checked\n",
         static_cast<unsigned long long>(report.chunksChecked),
         static_cast<unsigned long long>(report.containersChecked),
         static_cast<unsigned long long>(report.backupsChecked));
  for (const std::string& error : report.errors)
    fprintf(stderr, "  error: %s\n", error.c_str());
  printf("%s\n", report.ok() ? "store is consistent" : "STORE IS DAMAGED");
  dumpStats(store, stats);
  return report.ok() ? 0 : 1;
}

int doList(const std::string& storeDir) {
  FileBackupStore store(storeDir, g_storeOptions);
  for (const std::string& name : store.listBackups())
    printf("%s\n", name.c_str());
  return 0;
}

int doStats(const std::string& storeDir,
            StatsFlag stats = StatsFlag::kText) {
  FileBackupStore store(storeDir, g_storeOptions);
  if (stats == StatsFlag::kJson) {
    dumpStats(store, stats);
    return 0;
  }
  printf("store %s: %llu unique chunks, %.2f MB stored, %zu containers, "
         "%zu backups\n",
         storeDir.c_str(),
         static_cast<unsigned long long>(store.stats().uniqueChunks),
         store.stats().storedBytes / 1e6, store.containerCount(),
         store.listBackups().size());
  dumpStats(store, stats);
  return 0;
}

// ---- Remote mode: the same operations through a freqdedupd daemon ----

using server::RemoteDedupClient;

/// Streams one file through a remote backup session in kIoBufferBytes
/// appends — the remote twin of backupFile().
server::RemoteBackupResult remoteBackupFile(RemoteDedupClient& client,
                                            const std::string& name,
                                            const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  const server::RemoteBackup backup = client.openBackup(name);
  ByteVec buffer(kIoBufferBytes);
  while (in) {
    in.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    client.append(backup, ByteView(buffer.data(), got));
  }
  if (in.bad() || (in.fail() && !in.eof())) {
    client.abortBackup(backup);
    throw std::runtime_error("read error on " + path.string());
  }
  return client.finishBackup(backup);
}

int doRemoteBackup(const std::string& address, const std::string& tenant,
                   const std::string& sourceDir,
                   const std::string& passphrase) {
  RemoteDedupClient client(address, tenant, passphrase);
  size_t files = 0, newChunks = 0, dupChunks = 0, crossTenant = 0;
  for (const auto& entry : fs::recursive_directory_iterator(sourceDir)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        fs::relative(entry.path(), sourceDir).generic_string();
    const server::RemoteBackupResult result =
        remoteBackupFile(client, rel, entry.path());
    ++files;
    newChunks += result.newChunks;
    dupChunks += result.duplicateChunks;
    crossTenant += result.crossTenantDuplicates;
  }
  printf("backed up %zu files as tenant '%s': %zu new chunks, %zu "
         "duplicates (%zu cross-tenant)\n",
         files, tenant.c_str(), newChunks, dupChunks, crossTenant);
  return 0;
}

int doRemoteRestore(const std::string& address, const std::string& tenant,
                    const std::string& destDir,
                    const std::string& passphrase) {
  RemoteDedupClient client(address, tenant, passphrase);
  size_t files = 0;
  for (const std::string& name : client.listBackups()) {
    const fs::path out = fs::path(destDir) / name;
    fs::create_directories(out.parent_path());
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("cannot create " + out.string());
    client.restore(name, [&file](ByteView bytes) {
      file.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
      if (!file) throw std::runtime_error("short write");
    });
    file.close();
    if (file.fail())
      throw std::runtime_error("failed to finish writing " + out.string());
    ++files;
  }
  printf("restored %zu files into %s\n", files, destDir.c_str());
  return 0;
}

int doRemoteDelete(const std::string& address, const std::string& tenant,
                   const std::string& passphrase, const std::string& name) {
  RemoteDedupClient client(address, tenant, passphrase);
  if (!client.deleteBackup(name)) {
    fprintf(stderr, "no backup named '%s'\n", name.c_str());
    return 1;
  }
  printf("deleted '%s' (tenant '%s')\n", name.c_str(), tenant.c_str());
  return 0;
}

int doRemoteList(const std::string& address, const std::string& tenant,
                 const std::string& passphrase) {
  RemoteDedupClient client(address, tenant, passphrase);
  for (const std::string& name : client.listBackups())
    printf("%s\n", name.c_str());
  return 0;
}

int doRemoteStats(const std::string& address, const std::string& tenant,
                  const std::string& passphrase) {
  RemoteDedupClient client(address, tenant, passphrase);
  printf("%s\n", client.statsJson().c_str());
  return 0;
}

int doRemoteShutdown(const std::string& address, const std::string& tenant,
                     const std::string& passphrase) {
  RemoteDedupClient client(address, tenant, passphrase);
  client.shutdownServer();
  printf("shutdown requested\n");
  return 0;
}

int doServe(const std::string& storeDir, const std::string& address) {
  server::ServerOptions options;
  options.address = address;
  options.store = g_storeOptions;
  server::FreqDedupServer srv(storeDir, options);
  srv.start();
  printf("freqdedupd listening on %s (store %s)\n",
         srv.boundAddress().str().c_str(), storeDir.c_str());
  fflush(stdout);
  srv.waitShutdownRequested();
  srv.stop();
  printf("freqdedupd stopped\n");
  return 0;
}

int doDemo() {
  const fs::path base = fs::temp_directory_path() / "fdd_backup_demo";
  fs::remove_all(base);
  const fs::path source = base / "source";
  const fs::path storeDir = base / "store";
  const fs::path restored = base / "restored";
  fs::create_directories(source / "docs");

  // A small synthetic tree with duplicated content across files.
  Rng rng(1);
  ByteVec shared(512 * 1024);
  for (auto& b : shared) b = static_cast<uint8_t>(rng.next());
  for (int i = 0; i < 5; ++i) {
    // Each file is the shared content with one clustered 4 KB edit, so
    // content-defined chunking deduplicates everything else across files.
    ByteVec content = shared;
    const size_t at = rng.pickIndex(content.size() - 4096);
    for (size_t k = 0; k < 4096; ++k) content[at + k] ^= 0xFF;
    writeFile((source / "docs" / ("file" + std::to_string(i) + ".bin"))
                  .string(),
              content);
  }

  doBackup(storeDir.string(), source.string(), "demo-pass");

  // Delete one backup, reclaim its unshared chunks, and verify the store
  // still checks out before restoring the survivors.
  doDelete(storeDir.string(), "docs/file0.bin");
  doGc(storeDir.string());
  bool ok = doVerify(storeDir.string()) == 0;
  fs::remove(source / "docs" / "file0.bin");

  doRestore(storeDir.string(), restored.string(), "demo-pass");

  // Verify every surviving file restored byte-for-byte.
  for (const auto& entry : fs::recursive_directory_iterator(source)) {
    if (!entry.is_regular_file()) continue;
    const auto rel = fs::relative(entry.path(), source);
    ok = ok && readFile(entry.path().string()) ==
                   readFile((restored / rel).string());
  }
  printf("verification: %s\n", ok ? "all files bit-exact" : "MISMATCH");
  doStats(storeDir.string());
  fs::remove_all(base);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  StatsFlag stats = extractStatsFlag(argc, argv);
  const std::string remote = extractOption(argc, argv, "remote");
  std::string tenant = extractOption(argc, argv, "tenant");
  if (tenant.empty()) tenant = "default";
  // Tenant credential for remote subcommands that take no positional
  // passphrase (the daemon authenticates every Hello against the tenant's
  // registered verifier).
  const std::string pass = extractOption(argc, argv, "pass");
  try {
    extractStoreOptions(argc, argv);
  } catch (const std::exception& e) {
    fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const std::string mode = argc > 1 ? argv[1] : "demo";
  try {
    if (!remote.empty()) {
      if (mode == "backup" && argc == 4)
        return doRemoteBackup(remote, tenant, argv[2], argv[3]);
      if (mode == "restore" && argc == 4)
        return doRemoteRestore(remote, tenant, argv[2], argv[3]);
      if (mode == "delete" && argc == 3)
        return doRemoteDelete(remote, tenant, pass, argv[2]);
      if (mode == "list" && argc == 2)
        return doRemoteList(remote, tenant, pass);
      if (mode == "stats" && argc == 2)
        return doRemoteStats(remote, tenant, pass);
      if (mode == "shutdown" && argc == 2)
        return doRemoteShutdown(remote, tenant, pass);
      fprintf(stderr,
              "usage (remote): backup_system backup <source> <passphrase> "
              "--remote=<addr> [--tenant=<id>]\n"
              "                backup_system restore <dest> <passphrase> "
              "--remote=<addr> [--tenant=<id>]\n"
              "                backup_system delete <name> --remote=<addr> "
              "[--pass=<passphrase>]\n"
              "                backup_system list|stats|shutdown "
              "--remote=<addr> [--pass=<passphrase>]\n");
      return 2;
    }
    if (mode == "serve" && argc == 4) return doServe(argv[2], argv[3]);
    if (mode == "backup" && argc == 5)
      return doBackup(argv[2], argv[3], argv[4], stats);
    if (mode == "restore" && argc == 5)
      return doRestore(argv[2], argv[3], argv[4], stats);
    if (mode == "delete" && argc == 4)
      return doDelete(argv[2], argv[3], stats);
    if (mode == "gc" && argc == 3) return doGc(argv[2], stats);
    if (mode == "verify" && argc == 3) return doVerify(argv[2], stats);
    if (mode == "list" && argc == 3) return doList(argv[2]);
    if (mode == "stats" && argc == 3)
      return doStats(argv[2],
                     stats == StatsFlag::kJson ? StatsFlag::kJson
                                               : StatsFlag::kText);
    if (mode == "demo") return doDemo();
  } catch (const std::exception& e) {
    fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  fprintf(stderr,
          "usage: backup_system backup <store> <source> <passphrase>\n"
          "       backup_system restore <store> <dest> <passphrase>\n"
          "       backup_system delete <store> <name>\n"
          "       backup_system gc <store>\n"
          "       backup_system verify <store>\n"
          "       backup_system list <store>\n"
          "       backup_system stats <store> [--stats=json]\n"
          "       backup_system serve <store> <address>\n"
          "       backup_system demo\n"
          "flags: --stats | --stats=json   dump the metrics registry after\n"
          "       any subcommand above\n"
          "       --remote=<addr> [--tenant=<id>]   run backup/restore/\n"
          "       delete/list/stats/shutdown against a freqdedupd daemon\n"
          "store: --compress=<none|deflate>  codec for new containers\n"
          "       --cache-bytes=<n[kmg]>  block-cache byte budget\n"
          "       --demote-on-gc          move cold containers to <store>/cold\n"
          "       --hot-bytes=<n[kmg]>    hot-tier target (implies demotion)\n"
          "       --keep-hot=<n>          newest containers never demoted\n");
  return 2;
}
