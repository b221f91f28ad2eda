// fdd: the operator CLI of the encrypted-deduplication store. Each
// subcommand either opens a store directory itself or talks to a running
// daemon over its socket (--remote), and `fdd serve` is that daemon. Backups
// use the paper's full defence: MinHash encryption plus scrambling.
//
// Usage: kUsage below, which `fdd` prints on a usage error. With --remote
// the daemon owns the store; delete, list, stats and shutdown authenticate
// with --pass=<passphrase>, and gc and verify run on the store directory
// once the daemon has stopped.
//
// `verify` cross-checks index, containers, manifests and reference counts;
// --deep additionally streams every backup through the batched restore
// engine and checks each chunk's fingerprints end to end, in bounded memory.
// `serve` drains gracefully on SIGINT/SIGTERM or a remote `shutdown`.
//
// Store flags: --compress=none|deflate (codec of new containers; backup, gc,
// serve), --cache-bytes=N[kmg] (block-cache budget; restore, gc, verify,
// serve), --demote-on-gc, --hot-bytes=N[kmg] (hot-tier target; implies
// --demote-on-gc) and --keep-hot=N (newest containers never demoted; these
// three on gc and serve). Reads work whatever these say. --stats or
// --stats=json dumps the metrics registry when a local subcommand other than
// list ends (`serve`: when the daemon stops).
//
// Exit codes: 0 ok, 1 damage found or the operation failed, 2 usage error
// (unknown or malformed flag, a flag the subcommand does not take, wrong
// arguments, or no store at <store>).
#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

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

constexpr const char* kUsage =
    "usage: fdd backup  <store> <source-dir> <passphrase>\n"
    "       fdd restore <store> <dest-dir> <passphrase>\n"
    "       fdd list    <store>\n"
    "       fdd delete  <store> <name>\n"
    "       fdd gc      <store>\n"
    "       fdd verify  <store> [--deep=<passphrase>] [--threads=N]\n"
    "       fdd stats   <store>\n"
    "       fdd serve   <store> <address> [--threads=N]\n"
    "                   [--quota-bytes=N[kmg]] [--quota-backups=N]\n"
    "                   [--no-shutdown]\n"
    "remote: fdd backup <source-dir> <passphrase> --remote=<addr>\n"
    "        fdd restore <dest-dir> <passphrase> --remote=<addr>\n"
    "        fdd delete <name> --remote=<addr>\n"
    "        fdd list|stats|shutdown --remote=<addr>\n"
    "        with [--tenant=<id>] [--pass=<passphrase>]\n"
    "  <address> = unix:<path> | tcp:<host>:<port> | <path>\n"
    "store: --compress=none|deflate (backup, gc, serve)\n"
    "       --cache-bytes=N[kmg] (restore, gc, verify, serve)\n"
    "       --demote-on-gc  --hot-bytes=N[kmg]  --keep-hot=N (gc, serve)\n"
    "stats: --stats | --stats=json  dump the metrics registry at the end\n"
    "       (local backup, restore, delete, gc, verify, stats, serve)\n"
    "exit:  0 ok, 1 damage or failure, 2 usage error\n";

/// I/O buffer for streaming files: the largest piece of a file fdd holds.
constexpr size_t kIoBufferBytes = 1 << 20;

/// A bad command line; main prints it with the usage and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What each flag takes. `--stats=json` is a flag of its own, beside the
/// bare `--stats`.
enum class Kind { kBare, kText, kCodec, kCount, kThreads, kByteSize };
const std::map<std::string, Kind, std::less<>> kFlags = {
    {"remote", Kind::kText},          {"tenant", Kind::kText},
    {"pass", Kind::kText},            {"deep", Kind::kText},
    {"compress", Kind::kCodec},       {"cache-bytes", Kind::kByteSize},
    {"hot-bytes", Kind::kByteSize},   {"quota-bytes", Kind::kByteSize},
    {"keep-hot", Kind::kCount},       {"quota-backups", Kind::kCount},
    {"threads", Kind::kThreads},      {"demote-on-gc", Kind::kBare},
    {"no-shutdown", Kind::kBare},     {"stats", Kind::kBare},
    {"stats=json", Kind::kBare}};

/// The command line, split into positionals and `--name[=value]` flags.
/// Every flag value is checked here, before any subcommand starts work, so
/// a malformed one is a usage error and never runs half a subcommand.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      std::string name = arg.substr(2);
      std::string value;
      if (const auto bare = kFlags.find(name);
          bare == kFlags.end() || bare->second != Kind::kBare) {
        const size_t eq = name.find('=');
        if (eq != std::string::npos) {
          value = name.substr(eq + 1);
          name.resize(eq);
        }
      }
      const auto flag = kFlags.find(name);
      if (flag == kFlags.end()) throw UsageError("unknown flag " + arg);
      if ((flag->second == Kind::kBare) != value.empty())
        throw UsageError("malformed flag " + arg);
      check(flag->second, name, value);
      flags_[name] = value;
    }
  }

  [[nodiscard]] size_t count() const { return positional_.size(); }
  [[nodiscard]] const std::string& at(size_t i) const {
    return positional_.at(i);
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return flags_.contains(name);
  }
  [[nodiscard]] const std::map<std::string, std::string, std::less<>>& flags()
      const {
    return flags_;
  }
  [[nodiscard]] std::string str(const std::string& name,
                                const std::string& fallback = "") const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }
  /// The value of a count, thread or byte-size flag.
  [[nodiscard]] uint64_t number(const std::string& name,
                                uint64_t fallback) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : parse(kFlags.at(name), it->second);
  }

 private:
  /// Throws UsageError unless `value` is well formed for `kind`.
  static void check(Kind kind, const std::string& name,
                    const std::string& value) {
    try {
      if (kind == Kind::kCodec && !codecFromName(value))
        throw std::invalid_argument("unknown codec (none|deflate)");
      parse(kind, value);
    } catch (const std::exception& e) {
      throw UsageError("--" + name + "=" + value + ": " + e.what());
    }
  }

  /// A count, a thread count or a byte size (decimal digits, then an
  /// optional k, m or g for KiB, MiB or GiB); 0 for the other kinds.
  static uint64_t parse(Kind kind, const std::string& value) {
    if (kind != Kind::kCount && kind != Kind::kThreads &&
        kind != Kind::kByteSize)
      return 0;
    uint64_t n = 0;
    const char* end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, n);
    uint64_t unit = 1;
    if (kind == Kind::kByteSize && ec == std::errc() && ptr + 1 == end) {
      const size_t power = std::string_view("kmg").find(
          static_cast<char>(std::tolower(static_cast<unsigned char>(*ptr))));
      if (power != std::string_view::npos) {
        unit = uint64_t{1} << (10 * (power + 1));
        ++ptr;
      }
    }
    const uint64_t max = kind == Kind::kThreads ? 1024
                         : kind == Kind::kCount ? UINT32_MAX
                                                : UINT64_MAX / unit;
    if (ec != std::errc() || ptr != end || n > max ||
        (kind == Kind::kThreads && n == 0))
      throw std::invalid_argument(
          kind == Kind::kThreads ? "wants a thread count in [1, 1024]"
          : kind == Kind::kCount ? "wants a count below 2^32"
                                 : "wants a size like 512, 64k, 8m or 1g");
    return n * unit;
  }

  std::vector<std::string> positional_;
  std::map<std::string, std::string, std::less<>> flags_;
};

/// Store configuration from the store flags. They shape new writes, the
/// block-cache budget and GC demotion; codecs and tier placement are found
/// per container on open, so any store opens under any of them.
StoreOptions storeOptions(const Args& args) {
  StoreOptions options;
  if (args.has("compress"))
    options.codec = *codecFromName(args.str("compress"));
  options.blockCacheBytes =
      args.number("cache-bytes", options.blockCacheBytes);
  options.coldTier.demoteOnGc =
      args.has("demote-on-gc") || args.has("hot-bytes");
  options.coldTier.hotBytes = args.number("hot-bytes", 0);
  options.coldTier.keepHotRecent = static_cast<uint32_t>(
      args.number("keep-hot", options.coldTier.keepHotRecent));
  return options;
}

/// The batched restore engine `restore` and `verify --deep` read through:
/// parallel decrypt on `parallelism` workers and container read-ahead.
RestoreOptions restoreOptions(uint32_t parallelism) {
  RestoreOptions options;
  options.parallelism = parallelism;
  options.readAheadBatches = 4;
  return options;
}

enum class StatsFlag { kNone, kText, kJson };

StatsFlag statsFlag(const Args& args, StatsFlag fallback = StatsFlag::kNone) {
  if (args.has("stats=json")) return StatsFlag::kJson;
  return args.has("stats") ? StatsFlag::kText : fallback;
}

/// Dumps the process-wide registry (sessions, chunking, server) merged with
/// the store's own (cache, containers, GC, WAL).
void dumpStats(const BackupStore& store, StatsFlag flag) {
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
  printf("recovery: %llu containers validated, %llu orphans removed, "
         "%llu corrupt quarantined, %llu index entries dropped\n",
         static_cast<unsigned long long>(rs.containersValidated),
         static_cast<unsigned long long>(rs.orphanContainersRemoved),
         static_cast<unsigned long long>(rs.corruptContainers),
         static_cast<unsigned long long>(rs.entriesDropped));
}

double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

using Sink = std::function<void(ByteView)>;

/// Calls `backup(name, path)` for every regular file under `dir`, named by
/// its path relative to `dir`. Returns the number of files.
size_t backupTree(
    const fs::path& dir,
    const std::function<void(const std::string&, const fs::path&)>& backup) {
  size_t files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    backup(fs::relative(entry.path(), dir).generic_string(), entry.path());
    ++files;
  }
  return files;
}

/// Streams a file into `sink` in kIoBufferBytes reads; never loads it whole.
void streamFile(const fs::path& path, const Sink& sink) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  ByteVec buffer(kIoBufferBytes);
  while (in) {
    in.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    sink(ByteView(buffer.data(), got));
  }
  // A mid-file read error must not pass for EOF: committing a silently
  // truncated backup would be data loss.
  if (in.bad() || (in.fail() && !in.eof()))
    throw std::runtime_error("read error on " + path.string());
}

/// Restores every backup in `names` to dest/<name>, streaming the bytes
/// `restore(name, sink)` produces straight to disk. The names come from the
/// store, or from the daemon with --remote, and the provider is the paper's
/// adversary: a name that is absolute or climbs out of `dest` is refused
/// before anything is written.
void restoreTree(const std::vector<std::string>& names, const fs::path& dest,
                const std::function<void(const std::string&, const Sink&)>&
                    restore) {
  for (const std::string& name : names) {
    const fs::path relative = fs::path(name).lexically_normal();
    if (relative.empty() || relative.has_root_path() ||
        *relative.begin() == ".." || relative == ".")
      throw std::runtime_error("refusing to restore backup '" + name +
                               "' outside " + dest.string());
  }
  for (const std::string& name : names) {
    const fs::path out = dest / name;
    fs::create_directories(out.parent_path());
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("cannot create " + out.string());
    restore(name, [&file](ByteView bytes) {
      file.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
      if (!file) throw std::runtime_error("short write");
    });
    // Close explicitly: a flush error in the destructor would be lost and
    // a truncated file would count as restored.
    file.close();
    if (file.fail())
      throw std::runtime_error("failed to finish writing " + out.string());
  }
  printf("restored %zu files into %s\n", names.size(), dest.c_str());
}

void printNames(const std::vector<std::string>& names) {
  for (const std::string& name : names) printf("%s\n", name.c_str());
}

/// A connection to the daemon as --tenant (default "default").
server::RemoteDedupClient connect(const Args& args,
                                  const std::string& passphrase) {
  return server::RemoteDedupClient(args.str("remote"),
                                   args.str("tenant", "default"), passphrase);
}

/// Bytes of the chunks a backup added to the store, each counted once.
uint64_t addedBytes(const BackupOutcome& outcome) {
  std::unordered_set<Fp> added(outcome.newChunkFps.begin(),
                               outcome.newChunkFps.end());
  uint64_t bytes = 0;
  for (const RecipeEntry& entry : outcome.fileRecipe.entries) {
    if (added.erase(entry.cipherFp) > 0) bytes += entry.size;
  }
  return bytes;
}

/// One run's dedup ratio, the bytes it backed up over the bytes it added:
/// "2.50x", or "inf" when it added nothing.
std::string dedupRatio(uint64_t logicalBytes, uint64_t added) {
  if (added == 0) return logicalBytes == 0 ? "1.00x" : "inf";
  char text[32];
  snprintf(text, sizeof text, "%.2fx",
           static_cast<double>(logicalBytes) / static_cast<double>(added));
  return text;
}

// ---- Subcommands. run() has checked the argument count, and that <store>
// exists for every local subcommand that does not create it. ----

int doBackup(const Args& args) {
  if (args.has("remote")) {
    auto client = connect(args, args.at(2));
    uint64_t newChunks = 0, dupChunks = 0, crossTenant = 0;
    const size_t files = backupTree(
        args.at(1), [&](const std::string& name, const fs::path& path) {
          const server::RemoteBackup backup = client.openBackup(name);
          try {
            streamFile(path,
                       [&](ByteView bytes) { client.append(backup, bytes); });
          } catch (...) {
            client.abortBackup(backup);
            throw;
          }
          const server::RemoteBackupResult result =
              client.finishBackup(backup);
          newChunks += result.newChunks;
          dupChunks += result.duplicateChunks;
          crossTenant += result.crossTenantDuplicates;
        });
    printf("backed up %zu files as tenant '%s': %llu new chunks, %llu "
           "duplicates (%llu cross-tenant)\n",
           files, client.tenant().c_str(),
           static_cast<unsigned long long>(newChunks),
           static_cast<unsigned long long>(dupChunks),
           static_cast<unsigned long long>(crossTenant));
    return 0;
  }
  FileBackupStore store(args.at(1), storeOptions(args));
  printRecovery(store);
  KeyManager keyManager(toBytes(kKeyManagerSecret));
  CdcChunker chunker;
  BackupOptions options;
  options.scheme = EncryptionScheme::kMinHashScrambled;
  DedupClient client(store, keyManager, chunker, options);
  const AesKey userKey = userKeyFromPassphrase(args.at(3));
  // OS-entropy seed: this rng draws the recipe-sealing IVs, and a
  // deterministic seed would replay the same AES-CTR IV sequence on every
  // run against the same store.
  Rng rng(secureSeed());
  uint64_t newChunks = 0, dupChunks = 0, logicalBytes = 0, newBytes = 0;
  const size_t files = backupTree(
      args.at(2), [&](const std::string& name, const fs::path& path) {
        BackupSession session = client.beginBackup(name);
        streamFile(path, [&](ByteView bytes) { session.append(bytes); });
        const BackupOutcome outcome = session.finish();
        client.commitBackup(name, outcome, userKey, rng);
        newChunks += outcome.newChunks;
        dupChunks += outcome.duplicateChunks;
        logicalBytes += outcome.fileRecipe.fileSize;
        newBytes += addedBytes(outcome);
      });
  store.flush();
  printf("backed up %zu files: %llu new chunks, %llu duplicates "
         "(dedup ratio %s, %zu containers)\n",
         files, static_cast<unsigned long long>(newChunks),
         static_cast<unsigned long long>(dupChunks),
         dedupRatio(logicalBytes, newBytes).c_str(), store.containerCount());
  dumpStats(store, statsFlag(args));
  return 0;
}

int doRestore(const Args& args) {
  if (args.has("remote")) {
    auto client = connect(args, args.at(2));
    restoreTree(client.listBackups(), args.at(1),
                [&](const std::string& name, const Sink& sink) {
                  client.restore(name, sink);
                });
    return 0;
  }
  FileBackupStore store(args.at(1), storeOptions(args));
  printRecovery(store);
  // Restore-only client: no chunker or key manager.
  DedupClient client(store,
                     restoreOptions(std::clamp(
                         std::thread::hardware_concurrency(), 1u, 8u)));
  const AesKey userKey = userKeyFromPassphrase(args.at(3));
  restoreTree(client.listBackups(), args.at(2),
              [&](const std::string& name, const Sink& sink) {
                client.beginRestore(name, userKey).streamTo(sink);
              });
  dumpStats(store, statsFlag(args));
  return 0;
}

int doList(const Args& args) {
  if (args.has("remote")) {
    printNames(connect(args, args.str("pass")).listBackups());
  } else {
    printNames(FileBackupStore(args.at(1)).listBackups());
  }
  return 0;
}

int doDelete(const Args& args) {
  if (args.has("remote")) {
    auto client = connect(args, args.str("pass"));
    if (!client.deleteBackup(args.at(1))) {
      fprintf(stderr, "no backup named '%s'\n", args.at(1).c_str());
      return 1;
    }
    printf("deleted '%s' (tenant '%s')\n", args.at(1).c_str(),
           client.tenant().c_str());
    return 0;
  }
  FileBackupStore store(args.at(1));
  if (!DedupClient(store).deleteBackup(args.at(2))) {
    fprintf(stderr, "no backup named '%s'\n", args.at(2).c_str());
    return 1;
  }
  printf("deleted '%s'; run `fdd gc %s` to reclaim space\n",
         args.at(2).c_str(), args.at(1).c_str());
  dumpStats(store, statsFlag(args));
  return 0;
}

int doGc(const Args& args) {
  FileBackupStore store(args.at(1), storeOptions(args));
  const auto start = std::chrono::steady_clock::now();
  const GcStats gc = store.collectGarbage();
  printf("gc: reclaimed %llu chunks (%.2f MB) from %llu containers, "
         "relocated %llu live chunks, demoted %llu containers in %.1f ms\n",
         static_cast<unsigned long long>(gc.chunksReclaimed),
         static_cast<double>(gc.bytesReclaimed) / 1e6,
         static_cast<unsigned long long>(gc.containersCompacted),
         static_cast<unsigned long long>(gc.chunksRelocated),
         static_cast<unsigned long long>(gc.containersDemoted),
         msSince(start));
  dumpStats(store, statsFlag(args));
  return 0;
}

/// Streams every committed backup through a counting sink; a fingerprint or
/// size mismatch is reported per backup. Returns the damaged count.
size_t deepVerify(FileBackupStore& store, const Args& args) {
  DedupClient client(store,
                     restoreOptions(static_cast<uint32_t>(args.number(
                         "threads",
                         std::max(std::thread::hardware_concurrency(), 1u)))));
  const AesKey userKey = userKeyFromPassphrase(args.str("deep"));
  size_t damaged = 0;
  for (const std::string& name : client.listBackups()) {
    try {
      RestoreSession session = client.beginRestore(name, userKey);
      const uint64_t bytes = session.streamTo([](ByteView) {});
      printf("deep: %s OK (%llu bytes, %zu chunks)\n", name.c_str(),
             static_cast<unsigned long long>(bytes), session.chunkCount());
    } catch (const std::exception& e) {
      fprintf(stderr, "deep: %s FAILED: %s\n", name.c_str(), e.what());
      ++damaged;
    }
  }
  return damaged;
}

int doVerify(const Args& args) {
  const bool deep = args.has("deep");
  auto start = std::chrono::steady_clock::now();
  FileBackupStore store(args.at(1), storeOptions(args));
  const double openMs = msSince(start);
  printRecovery(store);
  // How much of the index came from the checkpoint and how much from
  // replaying the WAL tail past its watermark.
  const obs::MetricsSnapshot open = store.metricsSnapshot();
  printf("index: checkpoint %s (%llu records), WAL tail replayed: "
         "%llu records (%llu bytes)\n",
         open.counter("ckpt.loads") > 0 ? "loaded" : "absent",
         static_cast<unsigned long long>(open.counter("ckpt.load_records")),
         static_cast<unsigned long long>(open.counter("wal.replay.records")),
         static_cast<unsigned long long>(open.counter("wal.replay.bytes")));

  start = std::chrono::steady_clock::now();
  const StoreCheckReport report = store.verify();
  const double verifyMs = msSince(start);
  printf("checked: %llu chunks, %llu containers, %llu backups\n",
         static_cast<unsigned long long>(report.chunksChecked),
         static_cast<unsigned long long>(report.containersChecked),
         static_cast<unsigned long long>(report.backupsChecked));
  for (const std::string& error : report.errors)
    fprintf(stderr, "error: %s\n", error.c_str());

  size_t deepDamaged = 0;
  double deepMs = 0;
  if (deep) {
    start = std::chrono::steady_clock::now();
    deepDamaged = deepVerify(store, args);
    deepMs = msSince(start);
  }
  printf("phases: open %.1f ms, verify %.1f ms", openMs, verifyMs);
  if (deep) printf(", deep %.1f ms", deepMs);
  printf("\n");
  if (deep) {
    // Read locality of the deep pass: container loads against cache hits
    // show how well backups shared containers across the sweep.
    const obs::MetricsSnapshot reads = store.metricsSnapshot();
    printf("deep reads: %llu container loads, %llu cache hits, "
           "%llu chunk reads in %llu batches\n",
           static_cast<unsigned long long>(
               reads.counter("store.container_loads")),
           static_cast<unsigned long long>(
               reads.counter("store.read_cache_hits")),
           static_cast<unsigned long long>(reads.counter("store.chunk_reads")),
           static_cast<unsigned long long>(reads.counter("store.batch_reads")));
  }
  dumpStats(store, statsFlag(args));
  const bool ok = report.ok() && deepDamaged == 0;
  printf("%s\n", ok ? "clean" : "DAMAGED");
  return ok ? 0 : 1;
}

int doStats(const Args& args) {
  if (args.has("remote")) {
    printf("%s\n", connect(args, args.str("pass")).statsJson().c_str());
    return 0;
  }
  const StatsFlag stats = statsFlag(args, StatsFlag::kText);
  FileBackupStore store(args.at(1));
  if (stats != StatsFlag::kJson) {
    printRecovery(store);
    printf("store %s: %llu unique chunks, %.2f MB stored, %zu containers, "
           "%zu backups\n",
           args.at(1).c_str(),
           static_cast<unsigned long long>(store.stats().uniqueChunks),
           static_cast<double>(store.stats().storedBytes) / 1e6,
           store.containerCount(), store.listBackups().size());
  }
  dumpStats(store, stats);
  return 0;
}

int doShutdown(const Args& args) {
  connect(args, args.str("pass")).shutdownServer();
  printf("shutdown requested\n");
  return 0;
}

server::FreqDedupServer* g_server = nullptr;

void onSignal(int) {
  // Async-signal-safe: requestShutdown is one atomic store, observed by
  // waitShutdownRequested's timed wait. The drain happens back in doServe.
  if (g_server != nullptr) g_server->requestShutdown();
  // Restore the defaults so a second signal stays lethal if the drain wedges.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
}

int doServe(const Args& args) {
  server::ServerOptions options;
  options.address = args.at(2);
  options.threads =
      static_cast<uint32_t>(args.number("threads", options.threads));
  options.quota.maxLogicalBytes = args.number("quota-bytes", 0);
  options.quota.maxBackups = args.number("quota-backups", 0);
  options.store = storeOptions(args);
  options.allowShutdown = !args.has("no-shutdown");
  server::FreqDedupServer server(args.at(1), options);
  server.start();
  g_server = &server;
  // The first SIGINT/SIGTERM drains gracefully; a second one kills.
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // Scripts wait for this exact line before connecting.
  printf("fdd serve: listening on %s (store %s)\n",
         server.boundAddress().str().c_str(), args.at(1).c_str());
  fflush(stdout);
  server.waitShutdownRequested();
  server.stop();
  g_server = nullptr;
  dumpStats(server.store(), statsFlag(args));
  printf("fdd serve: stopped\n");
  return 0;
}

struct Command {
  const char* name;
  int localArgs;   // positionals after the name on a local store; -1: none
  int remoteArgs;  // positionals after the name with --remote; -1: none
  bool createsStore;
  std::string_view localFlags;   // the flags it takes on a local store
  std::string_view remoteFlags;  // the flags it takes besides --remote
  int (*run)(const Args&);
};

constexpr Command kCommands[] = {
    {"backup", 3, 2, true, "compress stats stats=json", "tenant", doBackup},
    {"restore", 3, 2, false, "cache-bytes stats stats=json", "tenant",
     doRestore},
    {"list", 1, 0, false, "", "tenant pass", doList},
    {"delete", 2, 1, false, "stats stats=json", "tenant pass", doDelete},
    {"gc", 1, -1, false,
     "compress cache-bytes demote-on-gc hot-bytes keep-hot stats stats=json",
     "", doGc},
    {"verify", 1, -1, false, "deep threads cache-bytes stats stats=json", "",
     doVerify},
    {"stats", 1, 0, false, "stats stats=json", "tenant pass", doStats},
    {"serve", 2, -1, true,
     "compress cache-bytes demote-on-gc hot-bytes keep-hot threads "
     "quota-bytes quota-backups no-shutdown stats stats=json",
     "", doServe},
    {"shutdown", -1, 0, false, "", "tenant pass", doShutdown},
};

int run(const Args& args) {
  if (args.count() == 0) throw UsageError("missing subcommand");
  const auto* command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return args.at(0) == c.name; });
  if (command == std::end(kCommands))
    throw UsageError("unknown subcommand '" + args.at(0) + "'");
  const bool remote = args.has("remote");
  const int want = remote ? command->remoteArgs : command->localArgs;
  if (want < 0)
    throw UsageError(args.at(0) + (remote ? " does not take --remote"
                                          : " needs --remote=<addr>"));
  if (args.count() != static_cast<size_t>(want) + 1)
    throw UsageError("wrong number of arguments for " + args.at(0));
  const std::string takes =
      " " + std::string(remote ? command->remoteFlags : command->localFlags) +
      " remote ";
  for (const auto& flag : args.flags()) {
    if (takes.find(" " + flag.first + " ") == std::string::npos)
      throw UsageError(args.at(0) + " does not take --" + flag.first);
  }
  // Opening a missing directory would create an empty store there and
  // report on it, so a mistyped path would look like an empty store.
  if (!remote && !command->createsStore && !fs::is_directory(args.at(1)))
    throw UsageError("no store at " + args.at(1));
  return command->run(args);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Args(argc, argv));
  } catch (const UsageError& e) {
    fprintf(stderr, "fdd: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    fprintf(stderr, "fdd: %s\n", e.what());
    return 1;
  }
}
