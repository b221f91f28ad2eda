// Container tiers: where a store's sealed containers live.
//
// Every sealed container is one CRC-framed object in one of two tiers, both
// flat object directories under the store directory:
//
//   <dir>/containers/NNNNNNNN.fdc   hot tier: new containers, promotions
//   <dir>/cold/NNNNNNNN.fdc         cold tier: containers GC demoted
//
// A frame moves between tiers verbatim (same codec, same CRC). Demotion
// happens during collectGarbage() when ColdTierOptions::demoteOnGc is set;
// a read that the cold tier serves promotes the container back to hot. The
// tier assignment is never persisted: recover() discovers it by listing both
// tiers, so a store reopened with other options (or none) still finds every
// container.
//
// Locking: the placement map (which tier holds each container and its
// physical bytes) is guarded by the owning store's metadata mutex, which the
// caller of every placement method holds. The read path (load, noteRead)
// takes no store lock: load() reads the directories only, and the read
// recency that orders demotion has its own mutex.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "obs/metrics.h"
#include "storage/backup_store.h"
#include "storage/container.h"

namespace freqdedup {

/// A flat directory of named objects. put() is atomic (tmp + rename), so a
/// reader never sees a partial object, and opening the directory removes the
/// .tmp files that torn puts left behind.
class ObjectDir {
 public:
  /// Creates `dir` if missing and removes stray *.tmp files.
  explicit ObjectDir(std::string dir);

  void put(const std::string& key, ByteView bytes) const;
  /// Throws std::runtime_error when the object is absent or unreadable.
  [[nodiscard]] ByteVec get(const std::string& key) const;
  [[nodiscard]] bool exists(const std::string& key) const;
  /// False when the object was already absent.
  bool remove(const std::string& key) const;
  /// Throws std::runtime_error when the source is absent.
  void rename(const std::string& key, const std::string& newKey) const;
  /// Every object but the .tmp files.
  [[nodiscard]] std::vector<std::string> list() const;
  [[nodiscard]] std::string path(const std::string& key) const {
    return dir_ + "/" + key;
  }

 private:
  std::string dir_;
};

enum class Tier : uint8_t { kHot = 0, kCold = 1 };

class ContainerTiers {
 public:
  /// Opens both tier directories under `storeDir` (creating them and
  /// sweeping torn puts) and registers the tier.* and store.container_*
  /// metrics in `registry`. New containers are written with `codec`.
  ContainerTiers(const std::string& storeDir, ContainerCodec codec,
                 obs::MetricsRegistry& registry);

  /// Object name of a container, the same in both tiers.
  [[nodiscard]] static std::string keyOf(uint32_t id);

  // Placement. The caller holds the store's metadata mutex.

  /// Serializes the container with the codec and puts it in the hot tier.
  void write(const Container& container);
  /// True while the container is live (written or recovered, not dropped).
  [[nodiscard]] bool contains(uint32_t id) const {
    return placement_.contains(id);
  }
  [[nodiscard]] size_t count() const { return placement_.size(); }
  /// Moves a live container from one tier to the other: the new copy lands
  /// before the old one is removed, so a crash or a concurrent reader at any
  /// instant finds one complete copy. `frame` is the container's verbatim
  /// bytes when the caller already holds them; empty reads them from
  /// `from`. A no-op when the container is not live in `from`.
  void move(uint32_t id, Tier from, Tier to, ByteView frame = {});
  /// Removes a container's object from its tier and forgets it.
  void drop(uint32_t id);
  /// GC's demotion pass: moves hot containers to cold, oldest-unread first
  /// (lowest id breaks ties), until the hot tier's physical bytes reach
  /// policy.hotBytes. The policy.keepHotRecent newest ids stay hot. Returns
  /// the number demoted.
  uint64_t demote(const ColdTierOptions& policy);
  /// Open-time discovery. Every container object on disk that `indexed`
  /// rejects is removed as an orphan. Of the others, the hot copy is
  /// preferred: a valid hot copy makes a cold one a stale duplicate (both
  /// moves complete the new copy before removing the old), and a copy that
  /// fails validation (full CRC, structure and codec parse) is renamed to
  /// *.corrupt. Fills the container counts of `rs` and returns one past the
  /// highest id found on disk.
  uint32_t recover(const std::function<bool(uint32_t)>& indexed,
                   StoreRecoveryStats& rs);
  /// Paths of the container objects, in either tier, that `indexed`
  /// rejects.
  [[nodiscard]] std::vector<std::string> orphans(
      const std::function<bool(uint32_t)>& indexed) const;

  // Read path; no store lock.

  /// A parsed container and, when the cold tier served it, its verbatim
  /// frame (for promotion; empty when the hot tier served it).
  struct Loaded {
    std::shared_ptr<const Container> container;
    ByteVec coldFrame;
  };
  /// Reads and parses a container from whichever tier holds it and checks
  /// its id. Tries hot, then cold, then hot again: one complete copy exists
  /// at every instant of a move, and the retry covers a read that races a
  /// promotion. Throws std::runtime_error when every attempt fails.
  [[nodiscard]] Loaded load(uint32_t id) const;
  /// Records a read for demotion ordering.
  void noteRead(uint32_t id);

  [[nodiscard]] uint64_t coldReads() const { return coldReads_.value(); }
  [[nodiscard]] uint64_t promotions() const { return promotions_.value(); }

 private:
  struct Placement {
    Tier tier = Tier::kHot;
    uint64_t physical = 0;  // on-disk frame bytes
  };

  void place(uint32_t id, Tier tier, uint64_t physical);
  /// Container ids on disk and which tiers hold a copy.
  [[nodiscard]] std::unordered_map<uint32_t, std::array<bool, 2>> scan() const;

  std::array<ObjectDir, 2> dirs_;  // indexed by Tier
  ContainerCodec codec_;
  std::unordered_map<uint32_t, Placement> placement_;

  obs::Counter& compressedContainers_;
  obs::Counter& containerRawBytes_;
  obs::Counter& containerPhysicalBytes_;
  obs::Counter& coldReads_;
  obs::Counter& coldReadBytes_;
  obs::Counter& coldWriteBytes_;
  obs::Counter& demotions_;
  obs::Counter& promotions_;
  std::array<obs::Gauge*, 2> containers_;  // tier.{hot,cold}_containers
  std::array<obs::Gauge*, 2> bytes_;       // tier.{hot,cold}_bytes

  /// Read recency: container id -> last read generation. Its own mutex, so
  /// the read path never takes the store's metadata mutex to record a read.
  std::mutex recencyMu_;
  std::unordered_map<uint32_t, uint64_t> lastReadGen_;
  uint64_t readGen_ = 0;
};

}  // namespace freqdedup
