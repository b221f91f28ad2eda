#include "storage/container_tier.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/check.h"

namespace freqdedup {

namespace fs = std::filesystem;

namespace {

constexpr std::array<Tier, 2> kTiers = {Tier::kHot, Tier::kCold};

size_t at(Tier tier) { return static_cast<size_t>(tier); }

/// Container id of an object name; names that are not <digits>.fdc (the
/// quarantined *.corrupt objects among them) have none.
std::optional<uint32_t> idOfKey(const std::string& key) {
  const fs::path p(key);
  if (p.extension() != ".fdc") return std::nullopt;
  const std::string stem = p.stem().string();
  if (stem.empty() || stem.size() > 10) return std::nullopt;
  uint64_t id = 0;
  for (const char c : stem) {
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  if (id > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(id);
}

const std::string& checkedStoreDir(const std::string& dir) {
  FDD_CHECK_MSG(!dir.empty(), "FileBackupStore needs a directory");
  return dir;
}

}  // namespace

ObjectDir::ObjectDir(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".tmp") fs::remove(entry.path());
  }
}

void ObjectDir::put(const std::string& key, ByteView bytes) const {
  const std::string target = path(key);
  writeFile(target + ".tmp", bytes);
  fs::rename(target + ".tmp", target);
}

ByteVec ObjectDir::get(const std::string& key) const {
  return readFile(path(key));
}

bool ObjectDir::exists(const std::string& key) const {
  return fs::exists(path(key));
}

bool ObjectDir::remove(const std::string& key) const {
  return fs::remove(path(key));
}

void ObjectDir::rename(const std::string& key,
                       const std::string& newKey) const {
  std::error_code ec;
  fs::rename(path(key), path(newKey), ec);
  if (ec)
    throw std::runtime_error("object dir: rename failed for " + path(key) +
                             ": " + ec.message());
}

std::vector<std::string> ObjectDir::list() const {
  std::vector<std::string> keys;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.is_regular_file() && entry.path().extension() != ".tmp")
      keys.push_back(entry.path().filename().string());
  }
  return keys;
}

ContainerTiers::ContainerTiers(const std::string& storeDir,
                               ContainerCodec codec,
                               obs::MetricsRegistry& registry)
    : dirs_{ObjectDir(checkedStoreDir(storeDir) + "/containers"),
            ObjectDir(storeDir + "/cold")},
      codec_(codec),
      compressedContainers_(registry.counter("store.compressed_containers")),
      containerRawBytes_(registry.counter("store.container_raw_bytes")),
      containerPhysicalBytes_(
          registry.counter("store.container_physical_bytes")),
      coldReads_(registry.counter("tier.cold_reads")),
      coldReadBytes_(registry.counter("tier.cold_read_bytes")),
      coldWriteBytes_(registry.counter("tier.cold_write_bytes")),
      demotions_(registry.counter("tier.demotions")),
      promotions_(registry.counter("tier.promotions")),
      containers_{&registry.gauge("tier.hot_containers"),
                  &registry.gauge("tier.cold_containers")},
      bytes_{&registry.gauge("tier.hot_bytes"),
             &registry.gauge("tier.cold_bytes")} {}

std::string ContainerTiers::keyOf(uint32_t id) {
  char name[32];
  snprintf(name, sizeof(name), "%08u.fdc", id);
  return name;
}

void ContainerTiers::place(uint32_t id, Tier tier, uint64_t physical) {
  placement_[id] = Placement{tier, physical};
  containers_[at(tier)]->add(1);
  bytes_[at(tier)]->add(static_cast<int64_t>(physical));
}

void ContainerTiers::write(const Container& container) {
  // The frame becomes visible under its final name only once fully
  // written, so a torn write never masquerades as a container.
  const ByteVec frame = serializeContainer(container, codec_);
  if (!frame.empty() && getU32(frame, 0) == kContainerMagicV2)
    compressedContainers_.add();
  containerRawBytes_.add(container.data.size());
  containerPhysicalBytes_.add(frame.size());
  dirs_[at(Tier::kHot)].put(keyOf(container.id), frame);
  place(container.id, Tier::kHot, frame.size());
}

void ContainerTiers::move(uint32_t id, Tier from, Tier to, ByteView frame) {
  const auto it = placement_.find(id);
  if (it == placement_.end() || it->second.tier != from) return;
  const std::string key = keyOf(id);
  ByteVec read;
  if (frame.empty()) {
    read = dirs_[at(from)].get(key);
    frame = read;
  }
  dirs_[at(to)].put(key, frame);
  dirs_[at(from)].remove(key);
  containers_[at(from)]->sub(1);
  bytes_[at(from)]->sub(static_cast<int64_t>(it->second.physical));
  placement_.erase(it);
  place(id, to, frame.size());
  if (to == Tier::kCold) {
    demotions_.add();
    coldWriteBytes_.add(frame.size());
  } else {
    promotions_.add();
  }
}

void ContainerTiers::drop(uint32_t id) {
  const auto it = placement_.find(id);
  if (it != placement_.end()) {
    const Tier tier = it->second.tier;
    dirs_[at(tier)].remove(keyOf(id));
    containers_[at(tier)]->sub(1);
    bytes_[at(tier)]->sub(static_cast<int64_t>(it->second.physical));
    placement_.erase(it);
  }
  std::lock_guard lock(recencyMu_);
  lastReadGen_.erase(id);
}

uint64_t ContainerTiers::demote(const ColdTierOptions& policy) {
  std::unordered_map<uint32_t, uint64_t> readGen;
  {
    std::lock_guard lock(recencyMu_);
    readGen = lastReadGen_;
  }
  std::vector<uint32_t> hot;
  uint64_t hotPhysical = 0;
  for (const auto& [id, p] : placement_) {
    if (p.tier != Tier::kHot) continue;
    hot.push_back(id);
    hotPhysical += p.physical;
  }
  std::sort(hot.begin(), hot.end());
  const size_t keep = std::min<size_t>(hot.size(), policy.keepHotRecent);
  hot.resize(hot.size() - keep);  // newest ids are never demoted
  const auto gen = [&readGen](uint32_t id) {
    const auto it = readGen.find(id);
    return it == readGen.end() ? uint64_t{0} : it->second;
  };
  std::stable_sort(hot.begin(), hot.end(), [&gen](uint32_t a, uint32_t b) {
    return gen(a) != gen(b) ? gen(a) < gen(b) : a < b;
  });
  uint64_t demoted = 0;
  for (const uint32_t id : hot) {
    if (hotPhysical <= policy.hotBytes) break;
    hotPhysical -= placement_.at(id).physical;
    move(id, Tier::kHot, Tier::kCold);
    ++demoted;
  }
  return demoted;
}

std::unordered_map<uint32_t, std::array<bool, 2>> ContainerTiers::scan()
    const {
  std::unordered_map<uint32_t, std::array<bool, 2>> onDisk;
  for (const Tier tier : kTiers) {
    for (const std::string& key : dirs_[at(tier)].list()) {
      if (const auto id = idOfKey(key)) onDisk[*id][at(tier)] = true;
    }
  }
  return onDisk;
}

uint32_t ContainerTiers::recover(
    const std::function<bool(uint32_t)>& indexed, StoreRecoveryStats& rs) {
  uint32_t nextId = 0;
  for (const auto& [id, held] : scan()) {
    nextId = std::max(nextId, id + 1);
    const std::string key = keyOf(id);
    if (!indexed(id)) {
      // No index entry references it: a crash landed between the container
      // write and its index puts, or mid-GC after relocation.
      for (const Tier tier : kTiers)
        if (held[at(tier)]) dirs_[at(tier)].remove(key);
      ++rs.orphanContainersRemoved;
      continue;
    }
    // Valid containers are deliberately not admitted to the block cache: a
    // freshly opened store starts with a cold cache, so read-count
    // accounting and cold-cache benchmarks measure the read path, not this
    // validation pass.
    bool valid = false;
    for (const Tier tier : kTiers) {  // hot first
      if (!held[at(tier)]) continue;
      if (valid) {
        dirs_[at(tier)].remove(key);  // stale duplicate of a valid copy
        continue;
      }
      uint64_t physical = 0;
      try {
        ByteVec frame = dirs_[at(tier)].get(key);
        physical = frame.size();
        valid = parseContainer(std::move(frame)).id == id;
      } catch (const std::exception&) {
      }
      if (valid) {
        place(id, tier, physical);
      } else {
        ++rs.corruptContainers;
        // Keep the bytes for forensics, but out of the recovery path.
        dirs_[at(tier)].rename(key, key + ".corrupt");
      }
    }
    if (valid) ++rs.containersValidated;
  }
  return nextId;
}

std::vector<std::string> ContainerTiers::orphans(
    const std::function<bool(uint32_t)>& indexed) const {
  std::vector<std::string> paths;
  for (const auto& [id, held] : scan()) {
    if (indexed(id)) continue;
    for (const Tier tier : kTiers)
      if (held[at(tier)]) paths.push_back(dirs_[at(tier)].path(keyOf(id)));
  }
  return paths;
}

ContainerTiers::Loaded ContainerTiers::load(uint32_t id) const {
  const std::string key = keyOf(id);
  ByteVec frame;
  bool fromCold = false;
  try {
    frame = dirs_[at(Tier::kHot)].get(key);
  } catch (const std::exception&) {
    try {
      frame = dirs_[at(Tier::kCold)].get(key);
      fromCold = true;
      coldReads_.add();
      coldReadBytes_.add(frame.size());
    } catch (const std::exception&) {
      // A promotion may have moved it back to hot in between; this last
      // attempt's failure is the error the caller sees.
      frame = dirs_[at(Tier::kHot)].get(key);
    }
  }
  // A hot frame is parsed in place; a cold one from a view, because its
  // promotion needs the verbatim bytes.
  Loaded loaded{std::make_shared<const Container>(
                    fromCold ? parseContainer(frame)
                             : parseContainer(std::move(frame))),
                {}};
  if (loaded.container->id != id)
    throw std::runtime_error("BackupStore: container id mismatch in " + key);
  if (fromCold) loaded.coldFrame = std::move(frame);
  return loaded;
}

void ContainerTiers::noteRead(uint32_t id) {
  std::lock_guard lock(recencyMu_);
  lastReadGen_[id] = ++readGen_;
}

}  // namespace freqdedup
