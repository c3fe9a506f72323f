// OakConfig and its nested knob groups (memory, durability, maintenance).
// Shared by OakCoreMap, the sharded front end and the durability lifecycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/env.hpp"
#include "dur/wal.hpp"
#include "maint/maintenance.hpp"
#include "mem/block_pool.hpp"
#include "mheap/managed_heap.hpp"
#include "oak/snapshot.hpp"
#include "oak/value.hpp"

namespace oak {

/// Memory knob group nested inside OakConfig.  Knobs with an environment
/// rung are optionals: unset defers to the env variable, then the
/// compiled default.  All setters are fluent.
struct MemConfig {
  mheap::ManagedHeap* metaHeap = nullptr;  ///< on-heap metadata; default: unlimited
  mem::BlockPool* pool = nullptr;          ///< off-heap arena pool; default: global
  /// Value-header reclamation (§3.3): the paper's evaluated default keeps
  /// headers immortal; Generational recycles them through a versioned pool.
  ValueReclaim reclaim = ValueReclaim::KeepHeaders;
  /// Bytes withheld from the arena as an emergency reserve for the
  /// non-throwing tryPut/tryCompute degraded path (0 = no reserve).  See
  /// DESIGN.md "Failure model & degraded operation" for sizing guidance.
  std::size_t emergencyReserveBytes = 0;
  /// Size-class magazine layer for this instance's allocator.  Unset defers
  /// to the OAK_MAGAZINES environment gate (default on).
  std::optional<bool> magazines;
  /// Background arena evacuation (slice relocation + compaction).  Unset
  /// defers to the OAK_COMPACTION environment gate (default off — opt-in;
  /// compactNow() always works regardless).
  std::optional<bool> compaction;
  /// Occupancy threshold for victim selection: an arena whose live bytes
  /// are at or below this fraction of the block is evacuation-eligible.
  /// Unset defers to OAK_COMPACTION_OCCUPANCY (percent), then 25%.
  std::optional<double> compactionOccupancy;
  /// Storage directory for durability (DESIGN.md §12).  Set → the map is
  /// durable: file-backed arenas under <dir>/arenas, a WAL, checkpoints and
  /// crash recovery in <dir>.  One map per directory.  Unset defers to
  /// OAK_STORAGE_DIR; an explicit empty string disables durability even
  /// when the environment variable is set.
  std::optional<std::string> storageDir;

  MemConfig& withMetaHeap(mheap::ManagedHeap* h) { metaHeap = h; return *this; }
  MemConfig& withPool(mem::BlockPool* p) { pool = p; return *this; }
  MemConfig& withReclaim(ValueReclaim r) { reclaim = r; return *this; }
  MemConfig& withEmergencyReserve(std::size_t bytes) {
    emergencyReserveBytes = bytes;
    return *this;
  }
  MemConfig& withMagazines(bool on) { magazines = on; return *this; }
  MemConfig& withCompaction(bool on) { compaction = on; return *this; }
  MemConfig& withCompactionOccupancy(double frac) {
    compactionOccupancy = frac;
    return *this;
  }
  MemConfig& withStorageDir(std::string dir) {
    storageDir = std::move(dir);
    return *this;
  }
};

/// Durability knob group nested inside OakConfig (active only when a
/// storage directory is configured — see MemConfig::storageDir).
struct DurConfig {
  /// WAL fsync policy.  Unset defers to OAK_FSYNC_POLICY, then Interval.
  std::optional<dur::FsyncPolicy> fsyncPolicy;
  /// Interval policy's window: at most one fdatasync per this many ms.
  std::uint32_t fsyncIntervalMs = 50;
  /// WAL bytes that trigger an automatic checkpoint.  Unset defers to
  /// OAK_WAL_BYTES, then 64 MiB.
  std::optional<std::size_t> walBytes;

  DurConfig& withFsyncPolicy(dur::FsyncPolicy p) { fsyncPolicy = p; return *this; }
  DurConfig& withFsyncIntervalMs(std::uint32_t ms) { fsyncIntervalMs = ms; return *this; }
  DurConfig& withWalBytes(std::size_t b) { walBytes = b; return *this; }
};

/// Map configuration: structure knobs at the top level, memory and
/// maintenance grouped into nested configs, all composable through fluent
/// setters:
///
///   auto cfg = OakConfig{}
///                  .withChunkCapacity(256)
///                  .withMem(MemConfig{}.withMetaHeap(&heap).withPool(&pool))
///                  .withMaintenance(MaintenanceConfig{}.withThreads(2));
///
/// Every knob resolves with one precedence rule: explicit config > oak::env
/// environment variable > compiled default (see common/env.hpp for the
/// recognized variables).  The effective*() accessors below implement it.
struct OakConfig {
  std::int32_t chunkCapacity = 2048;    ///< paper: 4K entries per chunk
  double maxUnsortedRatio = 0.5;        ///< rebalance when bypasses exceed this
  std::size_t ephemeralViewBytes = 48;  ///< modelled size of a Java buffer view

  /// Memory knobs (arena, managed heap, reclamation, magazines, storage).
  MemConfig mem;
  /// Durability knobs (WAL fsync policy, checkpoint trigger); only
  /// meaningful when mem.storageDir (or OAK_STORAGE_DIR) is set.
  DurConfig dur;
  /// Background maintenance pool + online shard management thresholds
  /// (maint/maintenance.hpp).  Default: no workers — rebalance runs inline
  /// on the mutator, exactly the paper's (and the seed's) behavior.
  maint::MaintenanceConfig maintenance;
  /// Shared MVCC clock/pin table for snapshot scans (snapshot.hpp).  The
  /// sharded map injects one domain into every shard so a merged cross-shard
  /// scan pins a single version; a plain map left null owns a private one.
  SnapshotDomain* snapshotDomain = nullptr;

  // ---- effective values (explicit > env > default) ---------------------
  bool effectiveMagazines() const noexcept {
    if (mem.magazines.has_value()) return *mem.magazines;
    return env::flag("OAK_MAGAZINES", true);
  }
  bool effectiveCompaction() const noexcept {
    if (mem.compaction.has_value()) return *mem.compaction;
    return env::flag("OAK_COMPACTION", false);
  }
  double effectiveCompactionOccupancy() const noexcept {
    if (mem.compactionOccupancy.has_value()) return *mem.compactionOccupancy;
    return static_cast<double>(env::u64("OAK_COMPACTION_OCCUPANCY", 25)) / 100.0;
  }
  /// Resolved storage directory; nullopt = in-memory map.  An explicitly
  /// set empty string disables durability, overriding OAK_STORAGE_DIR.
  std::optional<std::string> effectiveStorageDir() const {
    if (mem.storageDir.has_value()) {
      if (mem.storageDir->empty()) return std::nullopt;
      return mem.storageDir;
    }
    auto e = env::str("OAK_STORAGE_DIR");
    if (e.has_value() && !e->empty()) return e;
    return std::nullopt;
  }
  dur::FsyncPolicy effectiveFsyncPolicy() const {
    if (dur.fsyncPolicy.has_value()) return *dur.fsyncPolicy;
    if (auto s = env::str("OAK_FSYNC_POLICY")) {
      if (auto p = dur::parseFsyncPolicy(*s)) return *p;
    }
    return dur::FsyncPolicy::Interval;
  }
  std::size_t effectiveWalBytes() const {
    if (dur.walBytes.has_value()) return *dur.walBytes;
    return static_cast<std::size_t>(env::u64("OAK_WAL_BYTES", 64u << 20));
  }

  // ---- fluent setters --------------------------------------------------
  OakConfig& withChunkCapacity(std::int32_t c) { chunkCapacity = c; return *this; }
  OakConfig& withMaxUnsortedRatio(double r) { maxUnsortedRatio = r; return *this; }
  OakConfig& withEphemeralViewBytes(std::size_t b) {
    ephemeralViewBytes = b;
    return *this;
  }
  OakConfig& withMem(MemConfig m) { mem = std::move(m); return *this; }
  OakConfig& withDur(DurConfig d) { dur = std::move(d); return *this; }
  /// Convenience: durability in one call (same as mem.withStorageDir).
  OakConfig& withStorageDir(std::string dir) {
    mem.storageDir = std::move(dir);
    return *this;
  }
  OakConfig& withMaintenance(maint::MaintenanceConfig m) {
    maintenance = std::move(m);
    return *this;
  }
  OakConfig& withSnapshotDomain(SnapshotDomain* d) {
    snapshotDomain = d;
    return *this;
  }
};

}  // namespace oak
