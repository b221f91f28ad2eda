#include "server/tenant.h"

#include "common/hash.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "server/wire.h"  // kMaxTenantBytes

namespace freqdedup::server {

namespace {

constexpr char kScopedPrefix[] = "t/";
constexpr char kAuthPrefix[] = "tenanta:";

constexpr size_t kAuthSaltBytes = 16;
constexpr size_t kAuthDigestBytes = 32;
/// Iterated-HMAC stretching: ~milliseconds per Hello, chosen so the KDF is
/// an annoyance for online guessing without making tests crawl.
constexpr int kAuthKdfIterations = 10000;

Digest authDigest(ByteView salt, const std::string& passphrase) {
  Digest d = hmacSha256(salt, toBytes("tenant-auth:" + passphrase));
  for (int i = 1; i < kAuthKdfIterations; ++i) d = hmacSha256(salt, d.view());
  return d;
}

}  // namespace

bool validTenantId(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > kMaxTenantBytes) return false;
  for (const char c : tenant)
    if (c == '/' || c == '\0') return false;
  return true;
}

std::string scopedBackupName(const std::string& tenant,
                             const std::string& name) {
  return kScopedPrefix + tenant + "/" + name;
}

std::string authBlobName(const std::string& tenant) {
  return kAuthPrefix + tenant;
}

ByteVec makeAuthVerifier(const std::string& passphrase) {
  ByteVec record(kAuthSaltBytes);
  secureRandomBytes(record.data(), kAuthSaltBytes);
  const Digest d =
      authDigest(ByteView(record.data(), kAuthSaltBytes), passphrase);
  appendBytes(record, d.view());
  return record;
}

bool checkAuthVerifier(ByteView record, const std::string& passphrase) {
  if (record.size() != kAuthSaltBytes + kAuthDigestBytes) return false;
  const Digest d =
      authDigest(record.subspan(0, kAuthSaltBytes), passphrase);
  if (d.size != kAuthDigestBytes) return false;
  // Constant-time comparison: accumulate every byte difference so the
  // branch depends only on the final OR, never on a prefix match.
  uint8_t diff = 0;
  for (size_t i = 0; i < kAuthDigestBytes; ++i)
    diff |= static_cast<uint8_t>(record[kAuthSaltBytes + i] ^ d.bytes[i]);
  return diff == 0;
}

void TenantRegistry::loadFrom(BackupStore& store) {
  std::lock_guard lock(mu_);
  for (const std::string& scoped : store.listBackups()) {
    if (scoped.rfind(kScopedPrefix, 0) != 0) continue;  // unscoped legacy name
    const size_t slash = scoped.find('/', sizeof(kScopedPrefix) - 1);
    if (slash == std::string::npos) continue;
    const std::string tenant =
        scoped.substr(sizeof(kScopedPrefix) - 1,
                      slash - (sizeof(kScopedPrefix) - 1));
    Tenant& t = tenantLocked(tenant);
    uint64_t bytes = 0;
    if (const auto refs = store.backupRefs(scoped)) {
      for (const Fp fp : *refs) t.seen.add(fp);
      for (const auto& placement : store.chunkLocator(*refs))
        if (placement) bytes += placement->size;
    }
    t.backupBytes[scoped] = bytes;
    t.logicalBytes += bytes;
  }
  for (const auto& [tenant, t] : tenants_) setUsageGauges(tenant, *t);
}

std::optional<std::string> TenantRegistry::checkQuota(
    const std::string& tenant, const std::string& scoped,
    uint64_t logicalBytes) {
  std::lock_guard lock(mu_);
  Tenant& t = tenantLocked(tenant);
  const auto old = t.backupBytes.find(scoped);
  const bool replaces = old != t.backupBytes.end();
  if (quota_.maxBackups != 0 && !replaces &&
      t.backupBytes.size() + 1 > quota_.maxBackups)
    return "tenant backup quota exceeded (" + std::to_string(quota_.maxBackups) +
           " backups)";
  const uint64_t credit = replaces ? old->second : 0;
  if (quota_.maxLogicalBytes != 0 &&
      t.logicalBytes - credit + logicalBytes > quota_.maxLogicalBytes)
    return "tenant logical-byte quota exceeded (" +
           std::to_string(quota_.maxLogicalBytes) + " bytes)";
  return std::nullopt;
}

DedupClassification TenantRegistry::recordCommit(
    const std::string& tenant, const std::string& scoped,
    std::span<const Fp> newFps, std::span<const Fp> duplicateFps,
    uint64_t logicalBytes) {
  DedupClassification out;
  out.newChunks = newFps.size();
  {
    std::lock_guard lock(mu_);
    Tenant& t = tenantLocked(tenant);
    for (const Fp fp : duplicateFps) {
      if (t.seen.maybeContains(fp))
        out.intraTenantDuplicates++;
      else
        out.crossTenantDuplicates++;
    }
    for (const Fp fp : newFps) t.seen.add(fp);
    for (const Fp fp : duplicateFps) t.seen.add(fp);
    uint64_t& bytes = t.backupBytes[scoped];  // 0 for a new name
    t.logicalBytes = t.logicalBytes - bytes + logicalBytes;
    bytes = logicalBytes;
    setUsageGauges(tenant, t);
  }
  bumpCounter(tenant, "chunks", newFps.size() + duplicateFps.size());
  bumpCounter(tenant, "dedup_hits", duplicateFps.size());
  bumpCounter(tenant, "cross_tenant_dedup_hits", out.crossTenantDuplicates);
  bumpCounter(tenant, "backups_committed", 1);
  return out;
}

void TenantRegistry::recordDelete(const std::string& tenant,
                                  const std::string& scoped) {
  {
    std::lock_guard lock(mu_);
    Tenant& t = tenantLocked(tenant);
    const auto it = t.backupBytes.find(scoped);
    if (it != t.backupBytes.end()) {
      t.logicalBytes -= it->second;
      t.backupBytes.erase(it);
    }
    setUsageGauges(tenant, t);
  }
  bumpCounter(tenant, "backups_deleted", 1);
}

void TenantRegistry::recordRestore(const std::string& tenant) {
  bumpCounter(tenant, "restores", 1);
}

void TenantRegistry::recordQuotaReject(const std::string& tenant) {
  bumpCounter(tenant, "quota_rejects", 1);
}

bool TenantRegistry::hasBackup(const std::string& tenant,
                               const std::string& scoped) {
  std::lock_guard lock(mu_);
  return tenantLocked(tenant).backupBytes.contains(scoped);
}

void TenantRegistry::forEachBackupAfter(
    const std::string& tenant, const std::string& startAfter,
    const std::function<bool(std::string_view)>& fn) {
  // Every key is scopedBackupName(tenant, bare): one prefix strips them all.
  const size_t prefixBytes = scopedBackupName(tenant, "").size();
  std::lock_guard lock(mu_);
  const auto& names = tenantLocked(tenant).backupBytes;
  for (auto it = names.upper_bound(scopedBackupName(tenant, startAfter));
       it != names.end(); ++it)
    if (!fn(std::string_view(it->first).substr(prefixBytes))) return;
}

uint64_t TenantRegistry::logicalBytes(const std::string& tenant) {
  std::lock_guard lock(mu_);
  return tenantLocked(tenant).logicalBytes;
}

uint64_t TenantRegistry::backupCount(const std::string& tenant) {
  std::lock_guard lock(mu_);
  return tenantLocked(tenant).backupBytes.size();
}

TenantRegistry::Tenant& TenantRegistry::tenantLocked(
    const std::string& tenant) {
  auto& slot = tenants_[tenant];
  if (!slot) slot = std::make_unique<Tenant>();
  return *slot;
}

void TenantRegistry::bumpCounter(const std::string& tenant, const char* name,
                                 uint64_t n) {
  if (n == 0) return;
  obs::MetricsRegistry::global()
      .counter("tenant." + tenant + "." + name)
      .add(n);
}

void TenantRegistry::setUsageGauges(const std::string& tenant,
                                    const Tenant& t) {
  // Gauges are sharded adders, not settable levels: track the level by
  // applying the delta from the last published value.
  auto& reg = obs::MetricsRegistry::global();
  auto publish = [&](const char* name, int64_t value) {
    auto& g = reg.gauge("tenant." + tenant + "." + name);
    g.add(value - g.value());
  };
  publish("logical_bytes", static_cast<int64_t>(t.logicalBytes));
  publish("backups", static_cast<int64_t>(t.backupBytes.size()));
}

}  // namespace freqdedup::server
