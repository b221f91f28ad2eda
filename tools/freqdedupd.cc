// freqdedupd: the dedup server daemon.
//
// Serves the wire protocol (src/server/wire.h) over a Unix or TCP socket on
// top of one persistent store, multiplexing any number of concurrent tenant
// connections. Runs in the foreground; stop it with SIGINT/SIGTERM or a
// remote Shutdown request (`backup_system shutdown --remote=<addr>`).
//
// Usage:
//   freqdedupd <store-dir> <address> [options]
//     <address>               unix:<path> | tcp:<host>:<port> | <path>
//   options:
//     --threads=<n>           request worker threads (default 4)
//     --quota-bytes=<n[kmg]>  per-tenant logical-byte quota (default: none)
//     --quota-backups=<n>     per-tenant backup-count quota (default: none)
//     --compress=<codec>      codec for new containers: none|deflate
//     --cache-bytes=<n[kmg]>  block-cache byte budget (default 64m)
//     --demote-on-gc          demote cold containers during GC
//     --hot-bytes=<n[kmg]>    hot-tier byte target (implies --demote-on-gc)
//     --keep-hot=<n>          newest containers never demoted (default 1)
//     --no-shutdown           ignore remote Shutdown requests
//     --stats=json            dump the metrics registry on exit
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/metrics.h"
#include "server/server.h"

using namespace freqdedup;
using namespace freqdedup::server;

namespace {

FreqDedupServer* g_server = nullptr;

void onSignal(int) {
  // Async-signal-safe: requestShutdown is one atomic store, observed by
  // waitShutdownRequested's timed wait. Cleanup happens back in main().
  if (g_server != nullptr) g_server->requestShutdown();
  // Restore defaults so a second signal stays lethal if the drain wedges.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  std::string storeDir, address;
  ServerOptions options;
  bool statsJson = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      options.threads =
          static_cast<uint32_t>(std::stoul(arg.substr(strlen("--threads="))));
    } else if (arg.rfind("--quota-bytes=", 0) == 0) {
      options.quota.maxLogicalBytes =
          parseByteSize(arg.substr(strlen("--quota-bytes=")));
    } else if (arg.rfind("--quota-backups=", 0) == 0) {
      options.quota.maxBackups =
          std::stoull(arg.substr(strlen("--quota-backups=")));
    } else if (arg.rfind("--compress=", 0) == 0) {
      const std::string name = arg.substr(strlen("--compress="));
      const auto codec = codecFromName(name);
      if (!codec) {
        fprintf(stderr, "unknown codec '%s' (none|deflate)\n",
                name.c_str());
        return 2;
      }
      options.store.codec = *codec;
    } else if (arg.rfind("--cache-bytes=", 0) == 0) {
      options.store.blockCacheBytes =
          parseByteSize(arg.substr(strlen("--cache-bytes=")));
    } else if (arg == "--demote-on-gc") {
      options.store.coldTier.demoteOnGc = true;
    } else if (arg.rfind("--hot-bytes=", 0) == 0) {
      options.store.coldTier.hotBytes =
          parseByteSize(arg.substr(strlen("--hot-bytes=")));
      options.store.coldTier.demoteOnGc = true;
    } else if (arg.rfind("--keep-hot=", 0) == 0) {
      options.store.coldTier.keepHotRecent =
          static_cast<uint32_t>(std::stoul(arg.substr(strlen("--keep-hot="))));
    } else if (arg == "--no-shutdown") {
      options.allowShutdown = false;
    } else if (arg == "--stats=json") {
      statsJson = true;
    } else if (storeDir.empty()) {
      storeDir = arg;
    } else if (address.empty()) {
      address = arg;
    } else {
      fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (storeDir.empty() || address.empty()) {
    fprintf(stderr,
            "usage: freqdedupd <store-dir> <address> [--threads=N]\n"
            "                  [--quota-bytes=N[kmg]] [--quota-backups=N]\n"
            "                  [--compress=none|deflate]\n"
            "                  [--cache-bytes=N[kmg]] [--demote-on-gc]\n"
            "                  [--hot-bytes=N[kmg]] [--keep-hot=N]\n"
            "                  [--no-shutdown] [--stats=json]\n"
            "  <address> = unix:<path> | tcp:<host>:<port> | <path>\n");
    return 2;
  }

  options.address = address;
  try {
    FreqDedupServer server(storeDir, options);
    server.start();
    g_server = &server;
    // First SIGINT/SIGTERM drains gracefully; a second one kills outright.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    // Scripts wait for this exact line before connecting.
    printf("freqdedupd listening on %s (store %s)\n",
           server.boundAddress().str().c_str(), storeDir.c_str());
    fflush(stdout);
    server.waitShutdownRequested();
    server.stop();
    g_server = nullptr;
    if (statsJson) {
      obs::MetricsSnapshot snapshot =
          obs::MetricsRegistry::global().snapshot();
      snapshot.merge(server.store().metricsSnapshot());
      printf("%s\n", snapshot.toJson().c_str());
    }
    printf("freqdedupd stopped\n");
    return 0;
  } catch (const std::exception& e) {
    fprintf(stderr, "freqdedupd: %s\n", e.what());
    return 1;
  }
}
