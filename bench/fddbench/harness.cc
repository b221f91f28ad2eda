#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/fingerprint.h"
#include "fddbench.h"

namespace fddbench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t subSeed(uint64_t seed, uint64_t stream) {
  return freqdedup::mix64(freqdedup::mix64(seed) ^
                          (stream * 0x9e3779b97f4a7c15ULL));
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Digest digestOf(const std::vector<ByteView>& parts) {
  freqdedup::Sha256Stream stream;
  for (const ByteView part : parts) stream.update(part);
  return stream.finish();
}

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer

namespace {

const char* layerName(Layer layer) {
  static constexpr const char* kNames[] = {
      "session",        "chunking",          "hash.fp",
      "crypto.key",     "crypto.encrypt",    "storage.put_wait",
      "storage.put",    "storage.commit",    "restore",
      "storage.locate", "storage.get",       "crypto.decrypt",
      "attack",         "analysis.intern",   "analysis.count",
      "analysis.neighbor", "analysis.walk",  "analysis.basic",
      "daemon.step",    "server.open",       "server.append",
      "server.finish",  "server.restore"};
  static_assert(std::size(kNames) == static_cast<size_t>(Layer::kLayerCount));
  return kNames[static_cast<size_t>(layer)];
}

std::atomic<uint64_t> gNextGeneration{1};

/// Per-thread tracing state; belongs to the tracer whose generation it
/// carries and is reset lazily when another tracer is used.
struct ThreadState {
  struct Frame {
    uint64_t id;
    double childSeconds;
  };
  uint64_t generation = 0;
  void* log = nullptr;
  uint32_t request = 0;
  std::vector<Frame> stack;
};

thread_local ThreadState tState;

ThreadState& stateFor(uint64_t generation) {
  if (tState.generation != generation) {
    tState.generation = generation;
    tState.log = nullptr;
    tState.request = 0;
    tState.stack.clear();
  }
  return tState;
}

uint64_t toNanos(double seconds) {
  return seconds <= 0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      generation_(gNextGeneration.fetch_add(1)),
      origin_(nowSeconds()) {}

Tracer::~Tracer() = default;

void Tracer::beginRequest(const std::string& name) {
  if (!enabled_) return;
  uint32_t id = 0;
  {
    std::lock_guard lock(mu_);
    requests_.push_back(name);
    id = static_cast<uint32_t>(requests_.size());
  }
  stateFor(generation_).request = id;
}

Tracer::Context Tracer::currentContext() const {
  if (!enabled_) return {};
  const ThreadState& ts = stateFor(generation_);
  return {ts.stack.empty() ? 0 : ts.stack.back().id, ts.request};
}

Tracer::ThreadLog& Tracer::threadLog() {
  ThreadState& ts = stateFor(generation_);
  if (ts.log == nullptr) {
    std::lock_guard lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->tid = static_cast<uint32_t>(logs_.size());
    ts.log = logs_.back().get();
  }
  return *static_cast<ThreadLog*>(ts.log);
}

Tracer::Span::Span(Tracer& tracer, Layer layer) : layer_(layer) {
  if (!tracer.enabled_) return;
  ThreadState& ts = stateFor(tracer.generation_);
  tracer_ = &tracer;
  id_ = tracer.nextId_.fetch_add(1, std::memory_order_relaxed);
  parent_ = ts.stack.empty() ? 0 : ts.stack.back().id;
  request_ = ts.request;
  ts.stack.push_back({id_, 0.0});
  start_ = nowSeconds();
}

Tracer::Span::Span(Tracer& tracer, Layer layer, Context context)
    : layer_(layer) {
  if (!tracer.enabled_) return;
  ThreadState& ts = stateFor(tracer.generation_);
  tracer_ = &tracer;
  id_ = tracer.nextId_.fetch_add(1, std::memory_order_relaxed);
  parent_ = context.parent;
  request_ = context.request;
  ts.stack.push_back({id_, 0.0});
  start_ = nowSeconds();
}

void Tracer::Span::end() {
  if (tracer_ == nullptr) return;
  const double end = nowSeconds();
  double childSeconds = 0;
  ThreadState& ts = stateFor(tracer_->generation_);
  // Spans end innermost first; the search only guards against misuse.
  for (size_t i = ts.stack.size(); i-- > 0;) {
    if (ts.stack[i].id != id_) continue;
    childSeconds = ts.stack[i].childSeconds;
    ts.stack.erase(ts.stack.begin() + static_cast<ptrdiff_t>(i));
    // Only same-thread nesting counts as the enclosing span's child time.
    if (i > 0) ts.stack[i - 1].childSeconds += end - start_;
    break;
  }
  tracer_->finish(*this, end, childSeconds);
  tracer_ = nullptr;
}

void Tracer::finish(const Span& span, double end, double childSeconds) {
  const size_t l = static_cast<size_t>(span.layer_);
  const double duration = end - span.start_;
  busyNanos_[l].fetch_add(toNanos(duration), std::memory_order_relaxed);
  selfNanos_[l].fetch_add(toNanos(duration - childSeconds),
                          std::memory_order_relaxed);
  counts_[l].fetch_add(1, std::memory_order_relaxed);
  ThreadLog& log = threadLog();
  if (kept_.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) {
    log.records.push_back({span.id_, span.parent_, span.start_, end,
                           span.request_, span.layer_});
  } else {
    ++log.dropped;
  }
}

double Tracer::busySeconds(Layer layer) const {
  return static_cast<double>(busyNanos_[static_cast<size_t>(layer)].load()) *
         1e-9;
}

double Tracer::selfSeconds(Layer layer) const {
  return static_cast<double>(selfNanos_[static_cast<size_t>(layer)].load()) *
         1e-9;
}

uint64_t Tracer::spanCount(Layer layer) const {
  return counts_[static_cast<size_t>(layer)].load();
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  uint64_t dropped = 0;
  for (const auto& log : logs_) {
    dropped += log->dropped;
    for (const Record& r : log->records) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":\"" << layerName(r.layer)
          << "\",\"cat\":\"fddbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << log->tid << ",\"ts\":" << jsonNumber((r.start - origin_) * 1e6)
          << ",\"dur\":" << jsonNumber((r.end - r.start) * 1e6)
          << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
          << ",\"request\":"
          << jsonString(r.request == 0 ? std::string()
                                       : requests_[r.request - 1])
          << "}}";
    }
  }
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
      << dropped << "}}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

// ---------------------------------------------------------------------------
// Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard lock(mu_);
  if (!std::isfinite(value)) {
    ++attempted_;
    ++failed_;
    failures_.push_back("metric " + name + " is not finite");
    value = 0;
  }
  metrics_[name] = {value, unit};
}

void Report::op(bool ok, const std::string& what) {
  std::lock_guard lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  // Keep the report bounded when one check fails thousands of times.
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::header(const std::string& key, const std::string& value) {
  std::lock_guard lock(mu_);
  header_[key] = jsonString(value);
}

void Report::header(const std::string& key, double value) {
  std::lock_guard lock(mu_);
  header_[key] = std::isfinite(value) ? jsonNumber(value) : "null";
}

void Report::write(const std::string& path, bool traced) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n  \"header\": {";
  bool first = true;
  for (const auto& [key, value] : header_) {
    out << (first ? "\n" : ",\n") << "    " << jsonString(key) << ": "
        << value;
    first = false;
  }
  const uint64_t attempted = std::max<uint64_t>(attempted_, 1);
  out << "\n  },\n  \"traced\": " << (traced ? "true" : "false")
      << ",\n  \"correct\": " << (failed_ == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed_
      << ",\n  \"error_pct\": "
      << jsonNumber(100.0 * static_cast<double>(failed_) /
                    static_cast<double>(attempted))
      << ",\n  \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i)
    out << (i ? ", " : "") << jsonString(failures_[i]);
  out << "],\n  \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "\n" : ",\n") << "    " << jsonString(name)
        << ": {\"value\": " << jsonNumber(m.value)
        << ", \"unit\": " << jsonString(m.unit) << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

double overheadPct(const std::vector<double>& untracedSeconds,
                   const std::vector<double>& tracedSeconds) {
  const double untraced = median(untracedSeconds);
  return untraced > 0 ? 100.0 * (median(tracedSeconds) / untraced - 1) : 0.0;
}

void reportLayerDefaults(Report& report, const Tracer& tracer) {
  const auto busy = [&](const char* name, Layer layer) {
    report.metric(name, tracer.busySeconds(layer), "s");
  };
  const auto zero = [&](const char* name, const char* unit) {
    report.metric(name, 0, unit);
  };
  report.metric("chunking.busy_s", tracer.selfSeconds(Layer::kChunking), "s");
  zero("chunking.chunks", "count");
  busy("hash.fp_busy_s", Layer::kFingerprint);
  busy("crypto.key_busy_s", Layer::kKeyDerive);
  report.metric("crypto.key_requests",
                static_cast<double>(tracer.spanCount(Layer::kKeyDerive)),
                "count");
  busy("crypto.encrypt_busy_s", Layer::kEncrypt);
  busy("crypto.decrypt_busy_s", Layer::kDecrypt);
  busy("storage.put_busy_s", Layer::kPut);
  busy("storage.put_wait_s", Layer::kPutWait);
  zero("storage.dedup_hit_ratio", "ratio");
  busy("storage.commit_busy_s", Layer::kCommit);
  busy("storage.locate_busy_s", Layer::kLocate);
  busy("storage.get_busy_s", Layer::kGet);
  zero("storage.container_loads", "count");
  zero("storage.cache_hit_ratio", "ratio");
  zero("storage.cache_evictions", "count");
  zero("storage.read_amplification", "ratio");
  zero("kvstore.wal_syncs", "count");
  zero("kvstore.records_per_sync", "count");
  zero("client.unattributed_pct", "%");
  for (const char* name :
       {"server.open_ms.p50", "server.append_ms.p50", "server.append_ms.p99",
        "server.finish_ms.p50", "server.finish_ms.p99",
        "server.restore_ms.p50", "server.restore_ms.p99"})
    zero(name, "ms");
  zero("server.request_errors", "count");
  zero("server.cross_tenant_dedup_hits", "count");
  busy("analysis.intern_s", Layer::kIntern);
  busy("analysis.count_s", Layer::kCount);
  busy("analysis.neighbor_s", Layer::kNeighbor);
  busy("analysis.walk_s", Layer::kWalk);
  busy("analysis.basic_s", Layer::kBasic);
  zero("analysis.processed_pairs", "count");
  zero("analysis.leak_pct", "%");
  zero("analysis.mle_leak_pct", "%");
  zero("core.defense_encrypt_s", "s");
  zero("trace.overhead_pct", "%");
}

uint64_t directoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Memory

namespace {

uint64_t statusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0)
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
  }
  return 0;
}

/// Returns freed heap to the OS, resets the peak-RSS mark (VmHWM) to the
/// current RSS and returns that RSS in kB.
uint64_t resetPeakRss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS (proc(5), /proc/pid/clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
  return statusKb("VmRSS");
}

}  // namespace

PeakMemory::PeakMemory() : baseKb_(resetPeakRss()) {}

void PeakMemory::capture() {
  if (peakMb_ >= 0) return;
  const uint64_t peak = statusKb("VmHWM");
  const uint64_t grown = peak > baseKb_ ? peak - baseKb_ : 0;
  peakMb_ = static_cast<double>(grown) * 1024.0 / 1e6;
}

void PeakMemory::report(Report& report) const {
  report.metric("peak_mem_mb", std::max(peakMb_, 0.0), "MB");
  report.header("rss_after_setup_mb",
                static_cast<double>(baseKb_) * 1024.0 / 1e6);
}

}  // namespace fddbench
