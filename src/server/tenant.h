// Multi-tenant namespacing over one shared dedup store.
//
// The paper's multi-tenant threat model (Section 2) has many clients writing
// into ONE deduplicated store — that sharing is exactly what makes frequency
// analysis a cross-user attack, and exactly what an operator deploys for
// space savings. The daemon therefore keeps a single chunk store (chunks
// dedup across all tenants) but namespaces everything nameable:
//
//  - backup names: tenant "acme" backup "vm.img" lives under the scoped
//    name "t/acme/vm.img", which flows into manifest keys and recipe blob
//    names, so list/restore/delete can only ever see the caller's tenant;
//  - quotas: per-tenant logical-byte and backup-count budgets, enforced at
//    backup finish. A backup's usage is the sum of its manifest's chunk
//    sizes (AES-CTR keeps length), derived from the store at startup and
//    kept in memory after each staged commit and delete, so accounting
//    has no second copy on disk to drift from the manifests;
//  - observability: per-tenant tenant.<id>.* counters in the global
//    MetricsRegistry — including dedup_hits and cross_tenant_dedup_hits,
//    the store-side measure of how much of a tenant's data deduplicated
//    against OTHER tenants' chunks, i.e. the leakage surface the paper's
//    attacker exploits.
//
// Cross-tenant classification uses a per-tenant Bloom filter of chunk
// fingerprints the tenant has stored before: a duplicate chunk whose
// fingerprint is not in the writer's own filter was first stored by someone
// else. Bloom false positives misclassify a few cross-tenant hits as
// intra-tenant, so cross_tenant_dedup_hits is a slight undercount —
// acceptable for a leakage-surface gauge, and the filters cost O(bytes) not
// O(store).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bloom_filter.h"
#include "common/fingerprint.h"
#include "storage/backup_store.h"

namespace freqdedup::server {

/// Per-tenant budget; 0 means unlimited.
struct TenantQuota {
  uint64_t maxLogicalBytes = 0;
  uint64_t maxBackups = 0;
};

/// Rejects empty ids, ids over kMaxTenantBytes, and ids containing '/' or
/// NUL (both would break the scoped-name encoding).
bool validTenantId(const std::string& tenant);

/// "t/<tenant>/<name>" — the store-side name of a tenant's backup. Assumes
/// a valid tenant id; names may contain anything.
std::string scopedBackupName(const std::string& tenant,
                             const std::string& name);

/// Inverse of scopedBackupName for one tenant's prefix: returns the bare
/// name, or nullopt when `scoped` belongs to a different tenant.
std::optional<std::string> unscopeBackupName(const std::string& tenant,
                                             const std::string& scoped);

// ---- Tenant authentication ----
//
// A tenant id is only trusted once its Hello passphrase matches a verifier
// persisted in the store ("tenanta:<tenant>" blob, created on the tenant's
// FIRST Hello — first-connect-wins registration). The verifier is
// [salt 16][digest 32] with digest = HMAC-SHA-256(salt, passphrase)
// iterated kAuthKdfIterations times; comparison is constant-time. The KDF
// is iterated-HMAC, not memory-hard — operators should hand tenants
// high-entropy passphrases, not human-memorable ones.

/// Store blob that persists one tenant's passphrase verifier.
std::string authBlobName(const std::string& tenant);

/// Builds a fresh verifier record (OS-entropy salt) for a passphrase.
ByteVec makeAuthVerifier(const std::string& passphrase);

/// Constant-time check of a passphrase against a stored verifier record.
/// A malformed record never verifies.
bool checkAuthVerifier(ByteView record, const std::string& passphrase);

/// How one committed backup deduplicated, as classified against the
/// writer's own prior chunks.
struct DedupClassification {
  uint64_t newChunks = 0;
  uint64_t intraTenantDuplicates = 0;
  uint64_t crossTenantDuplicates = 0;
};

/// Tracks per-tenant usage, quotas, Bloom filters and metrics. Thread-safe;
/// one instance per server, shared by all connections. The server calls
/// recordCommit/recordDelete in the store's commit order (under its commit
/// lock), so the per-backup map names exactly the store's scoped manifests.
class TenantRegistry {
 public:
  explicit TenantRegistry(TenantQuota quota) : quota_(quota) {}

  /// Rebuilds accounting and Bloom filters from a (re)opened store: each
  /// scoped manifest is one backup whose size is the sum of its chunks'
  /// stored sizes (a chunk with no placement counts 0, so a lost chunk only
  /// under-counts), and its fingerprints seed the tenant's filter. The
  /// per-backup usage blobs that older daemons wrote are ignored. Call once
  /// at server startup, before serving.
  void loadFrom(BackupStore& store);

  /// Quota check for committing `logicalBytes` under `scoped`: replacing an
  /// existing backup counts only the delta and adds no backup. Returns an
  /// error description, or nullopt when the backup fits.
  [[nodiscard]] std::optional<std::string> checkQuota(
      const std::string& tenant, const std::string& scoped,
      uint64_t logicalBytes);

  /// Accounts a staged commit of `scoped` (new or replacing): classifies
  /// its chunks against the tenant's own filter (then adds them to it) and
  /// updates usage and tenant.* counters. `duplicateFps` must hold exactly
  /// the chunks the store deduplicated.
  DedupClassification recordCommit(const std::string& tenant,
                                   const std::string& scoped,
                                   std::span<const Fp> newFps,
                                   std::span<const Fp> duplicateFps,
                                   uint64_t logicalBytes);

  /// Accounts a deleted backup.
  void recordDelete(const std::string& tenant, const std::string& scoped);

  void recordRestore(const std::string& tenant);
  void recordQuotaReject(const std::string& tenant);

  [[nodiscard]] bool hasBackup(const std::string& tenant,
                               const std::string& scoped);
  [[nodiscard]] uint64_t logicalBytes(const std::string& tenant);
  [[nodiscard]] uint64_t backupCount(const std::string& tenant);

  [[nodiscard]] const TenantQuota& quota() const { return quota_; }

 private:
  struct Tenant {
    uint64_t logicalBytes = 0;  // sum of backupBytes' values
    /// Logical bytes of each committed backup, by scoped name.
    std::unordered_map<std::string, uint64_t> backupBytes;
    /// Fingerprints this tenant has stored before (approximate set).
    BloomFilter seen{1u << 18, 0.01};
  };

  Tenant& tenantLocked(const std::string& tenant);
  void bumpCounter(const std::string& tenant, const char* name, uint64_t n);
  void setUsageGauges(const std::string& tenant, const Tenant& t);

  TenantQuota quota_;
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace freqdedup::server
