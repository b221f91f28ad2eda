// daemon-mixed: an in-process FreqDedupServer (4 workers, MinHash +
// scrambling, default store options) on a unix socket. min(4, nproc)
// RemoteDedupClient tenants run a closed loop with no think time; each step
// backs up the next version of the tenant's 1 MiB object and waits for the
// durable finish, then restores a randomly chosen earlier version and
// byte-compares it. Version i is version i-1 with ~5 % of its 4 KiB pages
// rewritten, and 25 % of pages come from a pool all tenants share. Reads
// and writes hit one store together through the wire protocol, socket,
// worker pool, tenant accounting and WAL group commit; each restored object
// fits in the block cache (the stored versions together do not). The loop
// is closed because each backup agent waits for its reply (an open-loop
// rate sweep is out of scope).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

#include "common/rng.h"
#include "fddbench.h"
#include "server/client_conn.h"
#include "server/server.h"

namespace fddbench {
namespace {

using freqdedup::Rng;
using freqdedup::server::FreqDedupServer;
using freqdedup::server::RemoteDedupClient;

constexpr const char* kStoreDir = "daemon-store";
constexpr const char* kAddress = "unix:daemon.sock";
constexpr size_t kPageBytes = 4096;
constexpr size_t kPoolPages = 1024;
constexpr double kRewriteProb = 0.05;
constexpr double kPoolProb = 0.25;
/// Object contents are the same for every seed: under MinHash a version
/// whose changed pages move its segment's minimum fingerprint stores the
/// whole segment again, and how often that happens would swing the bytes
/// stored between seeds. The seed drives which versions the restores read.
constexpr uint64_t kContentSeed = 0;

size_t objectBytes(bool quick) { return quick ? 64u << 10 : 1u << 20; }

struct DaemonSetup {
  std::unique_ptr<FreqDedupServer> server;
  std::vector<std::unique_ptr<RemoteDedupClient>> clients;  // one per tenant
  std::vector<uint64_t> pool;  // page seeds shared by all tenants
};

std::string tenantName(size_t t) { return "tenant" + std::to_string(t); }

std::string versionName(size_t version) {
  std::string name = "v";  // appended, not operator+: GCC 12 -Wrestrict
  return name += std::to_string(version);
}

DaemonSetup setUp(const Options& options) {
  DaemonSetup setup;
  std::filesystem::remove_all(kStoreDir);
  freqdedup::server::ServerOptions server;
  server.address = kAddress;
  server.threads = 4;
  server.allowShutdown = false;
  server.backupOptions.scheme = freqdedup::EncryptionScheme::kMinHashScrambled;
  setup.server = std::make_unique<FreqDedupServer>(kStoreDir, server);
  setup.server->start();
  for (size_t t = 0; t < options.threads; ++t)
    setup.clients.push_back(std::make_unique<RemoteDedupClient>(
        kAddress, tenantName(t), "pass-" + tenantName(t)));
  Rng rng(subSeed(kContentSeed, 1));
  for (size_t i = 0; i < kPoolPages; ++i) setup.pool.push_back(rng.next());
  return setup;
}

std::string setupFingerprint(const DaemonSetup& setup) {
  uint64_t h = setup.clients.size();
  for (const uint64_t seed : setup.pool) h = freqdedup::mix64(h ^ seed);
  return std::to_string(h);
}

/// An object version as the seeds of its pages.
using Version = std::vector<uint64_t>;

uint64_t drawPage(Rng& rng, const std::vector<uint64_t>& pool) {
  return rng.bernoulli(kPoolProb) ? pool[rng.pickIndex(pool.size())]
                                  : rng.next();
}

ByteVec materialize(const Version& pages) {
  ByteVec out(pages.size() * kPageBytes);
  for (size_t p = 0; p < pages.size(); ++p) {
    Rng rng(pages[p]);
    for (size_t w = 0; w < kPageBytes / 8; ++w) {
      const uint64_t word = rng.next();
      std::memcpy(out.data() + p * kPageBytes + w * 8, &word, 8);
    }
  }
  return out;
}

/// Per-request-type client-side latencies (ms) of one tenant.
struct Samples {
  std::vector<double> step, open, append, finish, restore;
  /// (completion time, bytes backed up + restored) of every step.
  std::vector<std::pair<double, uint64_t>> done;

  void merge(const Samples& o) {
    for (auto [to, from] :
         {std::pair{&step, &o.step}, std::pair{&open, &o.open},
          std::pair{&append, &o.append}, std::pair{&finish, &o.finish},
          std::pair{&restore, &o.restore}})
      to->insert(to->end(), from->begin(), from->end());
    done.insert(done.end(), o.done.begin(), o.done.end());
  }
};

/// Per-tenant object history.
struct Tenant {
  Rng versionRng{0};
  Rng pickRng{0};
  std::vector<Version> versions;
};

/// One tenant's closed loop until the deadline. In a traced run the
/// tenant's steps alternate between untraced and traced; `out` is indexed
/// by whether the step was traced.
void tenantLoop(RemoteDedupClient& client, Tenant& tenant,
                const std::vector<uint64_t>& pool, size_t pages,
                double deadline, Tracers& tracers, Report& report,
                std::array<Samples, 2>& out) {
  ByteVec restored;
  while (nowSeconds() < deadline) {
    Tracer& tracer = tracers.forRepetition(tenant.versions.size());
    Samples& samples = out[tracer.enabled()];
    Version next;
    if (tenant.versions.empty()) {
      for (size_t p = 0; p < pages; ++p)
        next.push_back(drawPage(tenant.versionRng, pool));
    } else {
      next = tenant.versions.back();
      for (uint64_t& page : next)
        if (tenant.versionRng.bernoulli(kRewriteProb))
          page = drawPage(tenant.versionRng, pool);
    }
    tenant.versions.push_back(std::move(next));
    const size_t i = tenant.versions.size() - 1;
    const ByteVec content = materialize(tenant.versions[i]);
    const std::string name = versionName(i);
    const size_t pick = static_cast<size_t>(tenant.pickRng.uniformInt(0, i));
    restored.clear();
    try {
      tracer.beginRequest(name);
      Tracer::Span step(tracer, Layer::kStep);
      const double t0 = nowSeconds();
      freqdedup::server::RemoteBackup backup;
      {
        Tracer::Span span(tracer, Layer::kOpen);
        backup = client.openBackup(name);
      }
      const double t1 = nowSeconds();
      {
        Tracer::Span span(tracer, Layer::kAppend);
        client.append(backup, content);
      }
      const double t2 = nowSeconds();
      {
        Tracer::Span span(tracer, Layer::kFinish);
        client.finishBackup(backup);
      }
      const double t3 = nowSeconds();
      report.op(true);
      {
        Tracer::Span span(tracer, Layer::kRemoteRestore);
        client.restore(versionName(pick), [&](ByteView b) {
          restored.insert(restored.end(), b.begin(), b.end());
        });
      }
      const double t4 = nowSeconds();
      step.end();
      samples.step.push_back((t4 - t0) * 1e3);
      samples.open.push_back((t1 - t0) * 1e3);
      samples.append.push_back((t2 - t1) * 1e3);
      samples.finish.push_back((t3 - t2) * 1e3);
      samples.restore.push_back((t4 - t3) * 1e3);
      samples.done.emplace_back(t4, content.size() + restored.size());
      report.op(restored == materialize(tenant.versions[pick]),
                client.tenant() + " " + name + ": restored bytes differ");
    } catch (const std::exception& e) {
      report.op(false, client.tenant() + " " + name + ": " + e.what());
    }
  }
}

/// Counters of a statsJson() snapshot ({"counters":{"name":n,...},...}).
std::map<std::string, uint64_t> parseCounters(const std::string& json) {
  std::map<std::string, uint64_t> out;
  const std::string key = "\"counters\":{";
  size_t p = json.find(key);
  if (p == std::string::npos) return out;
  p += key.size();
  while (p < json.size() && json[p] == '"') {
    const size_t close = json.find('"', p + 1);
    if (close == std::string::npos || close + 1 >= json.size()) break;
    const std::string name = json.substr(p + 1, close - p - 1);
    char* end = nullptr;
    out[name] = std::strtoull(json.c_str() + close + 2, &end, 10);
    p = static_cast<size_t>(end - json.c_str());
    if (p < json.size() && json[p] == ',') ++p;
  }
  return out;
}

struct Phase {
  double start = 0;
  double seconds = 0;  // until the deadline; steps in flight then finish
  std::array<Samples, 2> samples;  // [traced]
  std::map<std::string, uint64_t> counters;  // statsJson delta
};

/// Throughput of an untraced run over twenty equal windows of the phase —
/// bytes moved by the steps completing in each — as their interquartile
/// mean, so a burst of interference from outside the process moves a few
/// windows, not the result.
double rateOf(const Phase& phase) {
  constexpr size_t kWindows = 20;
  const double width = phase.seconds / kWindows;
  std::vector<double> bytes(kWindows, 0.0);
  for (const auto& [at, moved] : phase.samples[0].done) {
    const double w = std::floor((at - phase.start) / width);
    if (w >= 0 && w < kWindows) bytes[static_cast<size_t>(w)] += moved;
  }
  std::sort(bytes.begin(), bytes.end());
  double sum = 0;
  for (size_t w = kWindows / 4; w < kWindows - kWindows / 4; ++w)
    sum += bytes[w];
  return sum / static_cast<double>(kWindows - 2 * (kWindows / 4)) / 1e6 /
         width;
}

Phase runPhase(const Options& options, DaemonSetup& setup,
               std::vector<Tenant>& tenants, size_t pages, Tracers& tracers,
               Report& report, PeakMemory& peak) {
  Phase phase;
  const auto before = parseCounters(setup.clients.front()->statsJson());
  std::vector<std::array<Samples, 2>> samples(tenants.size());
  phase.start = nowSeconds();
  phase.seconds = options.seconds;
  const double deadline = phase.start + options.seconds;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < tenants.size(); ++t)
    threads.emplace_back([&, t] {
      tenantLoop(*setup.clients[t], tenants[t], setup.pool, pages, deadline,
                 tracers, report, samples[t]);
    });
  for (std::thread& th : threads) th.join();
  peak.capture();
  for (const auto& tenant : samples)
    for (size_t traced = 0; traced < 2; ++traced)
      phase.samples[traced].merge(tenant[traced]);
  for (const auto& [name, value] :
       parseCounters(setup.clients.front()->statsJson())) {
    const auto it = before.find(name);
    const uint64_t old = it == before.end() ? 0 : it->second;
    phase.counters[name] = value > old ? value - old : 0;
  }
  return phase;
}

}  // namespace

void runDaemonMixed(const Options& options, Report& report) {
  const size_t pages = objectBytes(options.quick) / kPageBytes;
  report.header("sizes.tenants", static_cast<double>(options.threads));
  report.header("sizes.object_bytes",
                static_cast<double>(objectBytes(options.quick)));
  report.header("sizes.page_bytes", static_cast<double>(kPageBytes));
  report.header("sizes.shared_pool_pages", static_cast<double>(kPoolPages));
  report.header("server.threads", 4);
  report.header("store.block_cache_bytes",
                static_cast<double>(freqdedup::kDefaultBlockCacheBytes));

  DaemonSetup setup = timedSetup<DaemonSetup>(
      options, report, [&] { return setUp(options); }, setupFingerprint);
  std::vector<Tenant> tenants(options.threads);
  for (size_t t = 0; t < tenants.size(); ++t) {
    tenants[t].versionRng.reseed(subSeed(kContentSeed, 300 + t));
    tenants[t].pickRng.reseed(subSeed(options.seed, 400 + t));
  }

  PeakMemory peak;
  Tracers tracers(options.traced());
  const Phase phase =
      runPhase(options, setup, tenants, pages, tracers, report, peak);
  report.header("steps", static_cast<double>(phase.samples[0].step.size() +
                                             phase.samples[1].step.size()));
  setup.clients.clear();
  setup.server.reset();  // flushes the store

  if (!options.traced()) {
    const Samples& s = phase.samples[0];
    const uint64_t backupBytes = s.finish.size() * pages * kPageBytes;
    const uint64_t stored = directoryBytes(
        (std::filesystem::path(kStoreDir) / "containers").string());
    report.header("latency_samples", static_cast<double>(s.step.size()));
    report.metric("mb_per_s", rateOf(phase), "MB/s");
    report.metric("p50_ms", percentile(s.step, 0.50), "ms");
    report.metric("p90_ms", percentile(s.step, 0.90), "ms");
    report.metric("stored_bytes_per_logical_byte",
                  backupBytes == 0 ? 0.0
                                   : static_cast<double>(stored) /
                                         static_cast<double>(backupBytes),
                  "ratio");
    peak.report(report);
    std::filesystem::remove_all(kStoreDir);
    return;
  }

  Tracer& tracer = tracers.traced();
  reportLayerDefaults(report, tracer);
  const Samples& s = phase.samples[1];
  report.metric("server.open_ms.p50", percentile(s.open, 0.50), "ms");
  report.metric("server.append_ms.p50", percentile(s.append, 0.50), "ms");
  report.metric("server.append_ms.p99", percentile(s.append, 0.99), "ms");
  report.metric("server.finish_ms.p50", percentile(s.finish, 0.50), "ms");
  report.metric("server.finish_ms.p99", percentile(s.finish, 0.99), "ms");
  report.metric("server.restore_ms.p50", percentile(s.restore, 0.50), "ms");
  report.metric("server.restore_ms.p99", percentile(s.restore, 0.99), "ms");
  const auto counter = [&](const std::string& name) {
    const auto it = phase.counters.find(name);
    return it == phase.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  double crossTenant = 0;
  for (size_t t = 0; t < tenants.size(); ++t)
    crossTenant +=
        counter("tenant." + tenantName(t) + ".cross_tenant_dedup_hits");
  report.metric("server.request_errors", counter("server.request_errors"),
                "count");
  report.metric("server.cross_tenant_dedup_hits", crossTenant, "count");
  const double syncs = counter("wal.syncs");
  report.metric("kvstore.wal_syncs", syncs, "count");
  report.metric("kvstore.records_per_sync",
                syncs == 0 ? 0.0 : counter("wal.appends") / syncs, "count");
  report.metric("trace.overhead_pct",
                overheadPct(phase.samples[0].step, phase.samples[1].step), "%");
  tracer.writeChromeTrace(options.tracePath);
  std::filesystem::remove_all(kStoreDir);
}

}  // namespace fddbench
