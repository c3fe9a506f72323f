// The durability lifecycle (DESIGN.md §12), written once for both map front
// ends: WAL hooks, the auto-checkpoint trigger, rotate-then-pin checkpoints,
// recovery and the durability gauges.  OakCoreMap and ShardedOakCoreMap each
// hold one Durability and differ only in what they hand it: the map whose
// ascend() is the checkpoint scan (a chunk walk or a k-way merge), their
// shard bounds for the manifest (none, or the router's), and how recovery
// loads and applies (bulkLoadSorted and doPut/doIfPresent, or per-shard
// routing and the routed put/remove).  Only this file and src/dur/ drive the
// WAL, checkpoint and manifest types (oaklint R8).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/mutex.hpp"
#include "dur/checkpoint.hpp"
#include "dur/wal.hpp"
#include "maint/maintenance.hpp"
#include "mem/block_pool.hpp"
#include "oak/config.hpp"
#include "oak/scan_options.hpp"
#include "oak/snapshot.hpp"
#include "obs/metrics.hpp"

namespace oak::detail {

/// The arena pool a map allocates from: the injected one, else a
/// file-backed pool under <storage dir>/arenas owned through `owned`
/// (durable maps), else the process-wide anonymous pool.
inline mem::BlockPool& resolvePool(const OakConfig& cfg,
                                   std::unique_ptr<mem::BlockPool>& owned) {
  if (cfg.mem.pool != nullptr) return *cfg.mem.pool;
  if (auto dir = cfg.effectiveStorageDir()) {
    owned = std::make_unique<mem::BlockPool>(
        mem::BlockPool::Config{.storageDir = *dir + "/arenas"});
    return *owned;
  }
  return mem::BlockPool::global();
}

class Durability {
 public:
  /// Manifest shard bounds of a single-core map: none.
  struct NoBounds {
    std::vector<ByteVec> operator()() const { return {}; }
  };

  /// Without a storage directory every hook below is a no-op.  With one,
  /// creates the directory and plans recovery, so a front end can rebuild
  /// its crash-time layout (recoveredShardBounds) before recover().
  explicit Durability(const OakConfig& cfg) : dir_(cfg.effectiveStorageDir()) {
    if (!dir_.has_value()) return;
    t0_ = std::chrono::steady_clock::now();
    std::filesystem::create_directories(*dir_);
    plan_ = dur::planRecovery(*dir_);
    walOpts_ = {.policy = cfg.effectiveFsyncPolicy(),
                .intervalMs = cfg.dur.fsyncIntervalMs};
    walBytesBudget_ = cfg.effectiveWalBytes();
  }

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  bool durable() const noexcept { return wal_ != nullptr; }
  const std::vector<ByteVec>& recoveredShardBounds() const noexcept {
    return plan_.shardBounds;
  }

  /// WAL hooks, called from the front end's mutation wrappers after the
  /// operation's in-memory linearization (and version stamp) but before
  /// the call returns — the append IS the commit point.  Appends are
  /// serialized by the WAL mutex, so two non-concurrent same-key ops log
  /// in linearization order; truly concurrent same-key writes may log in
  /// either order, both valid linearizations (DESIGN.md §12.1).  No-ops on
  /// non-durable maps and during recovery replay (wal_ still null).
  void logPut(ByteSpan key, ByteSpan value) {
    if (wal_ == nullptr) return;
    wal_->appendPut(key, value);
    maybeCheckpoint();
  }
  void logRemove(ByteSpan key) {
    if (wal_ == nullptr) return;
    wal_->appendRemove(key);
    maybeCheckpoint();
  }
  /// Compute-style ops mutate in place, so the record is the post-image
  /// read back after the fact.  A racing writer can interleave between the
  /// compute and this read; the record then carries the racer's bytes —
  /// a later, equally valid state for this key (and the racer logs its own
  /// record too).  A read finding the key gone means a concurrent remove
  /// won; its remove record covers the key, so logging nothing is exact.
  template <class Map>
  void logPostImage(Map& map, ByteSpan key) {
    if (wal_ == nullptr) return;
    if (auto v = map.getCopy(key)) {
      wal_->appendPut(key, asBytes(*v));
      maybeCheckpoint();
    }
  }

  /// Synchronous checkpoint (§12.3): rotates the WAL while pinning a
  /// snapshot, streams `map.ascend()` at that version into a new checkpoint
  /// file, commits a manifest that records `bounds()`, and purges what the
  /// two-generation policy no longer needs.  Concurrent mutations proceed
  /// (only the rotation instant serializes with appends).  Returns the pair
  /// count written, or 0 on a non-durable map.
  template <class Map, class Bounds = NoBounds>
  std::uint64_t checkpoint(Map& map, Bounds bounds = {}) {
    if (wal_ == nullptr) return 0;
    MutexLock lk(cpMu_);
    // Rotate-and-pin under the WAL append mutex: every record already in
    // the closed segments was appended — hence version-stamped — before
    // the snapshot opened, so its effect is at or below V and lands in the
    // checkpoint.  Anything after the rotation goes to the new segment and
    // replays on top.
    std::optional<Snapshot> snap;
    const std::uint64_t newWalSeq =
        wal_->rotate([&] { snap.emplace(map.snapshotDomain()); });
    const std::uint64_t v = snap->version();
    const std::uint64_t newCpSeq = std::max(cpSeq_, prevCpSeq_) + 1;
    dur::CheckpointWriter w(*dir_, newCpSeq, v);
    for (auto it = map.ascend(std::nullopt, std::nullopt, ScanOptions::snapshotAt(v));
         it.valid(); it.next()) {
      auto e = it.entry();
      e.readValue([&](ByteSpan val) { w.append(e.key, val); });
    }
    dur::Manifest m;
    m.cpSeq = newCpSeq;
    m.cpVersion = v;
    m.walStart = newWalSeq;
    m.pairs = w.finish();
    m.shardBounds = bounds();
    m.prevCpSeq = cpSeq_;
    m.prevWalStart = walStartSeq_;
    m.store(*dir_);
    dur::purgeObsolete(*dir_, m);
    cpSeq_ = newCpSeq;
    walStartSeq_ = newWalSeq;
    prevCpSeq_ = m.prevCpSeq;
    prevWalStart_ = m.prevWalStart;
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    return m.pairs;
  }

  /// Recovery (§12.4): bulk-loads the planned checkpoint through
  /// `bulkLoad(source)` — `source(key, value)` yields its pairs in
  /// ascending order and returns false when exhausted — and replays the WAL
  /// tail through `apply(key, value)`, a nullopt value meaning remove.  The
  /// WAL is created only after replay, so replayed operations do not log
  /// themselves; old segments stay on disk until the next checkpoint.  A
  /// first open commits an empty-checkpoint manifest (with `bounds()`), so
  /// a crash before the first checkpoint still finds its WAL start.  Binds
  /// `map` as the target of the auto-checkpoint.
  template <class Map, class BulkLoad, class Apply, class Bounds = NoBounds>
  void recover(Map& map, BulkLoad&& bulkLoad, Apply&& apply, Bounds bounds = {}) {
    if (!dir_.has_value()) return;
    svc_ = map.maintenanceService();
    checkpointMap_ = [&map] { map.checkpointNow(); };
    if (plan_.cpSeq != 0) {
      auto reader = dur::CheckpointReader::open(*dir_, plan_.cpSeq);
      if (reader.has_value()) {
        bulkLoad([&](ByteSpan& k, ByteSpan& v) { return reader->next(k, v); });
      }
    }
    std::uint64_t replayed = 0;
    for (const std::uint64_t seq : plan_.walSegments) {
      const auto st = dur::replayWalSegment(
          dur::walSegmentPath(*dir_, seq),
          [&](std::uint8_t type, ByteSpan k, ByteSpan v) {
            if (type == dur::kWalPut) {
              apply(k, std::optional<ByteSpan>(v));
            } else if (type == dur::kWalRemove) {
              apply(k, std::optional<ByteSpan>());
            }
          });
      if (st.has_value()) replayed += st->records;
    }
    recoveryReplayed_.store(replayed, std::memory_order_relaxed);
    {
      MutexLock lk(cpMu_);
      cpSeq_ = plan_.cpSeq;
      walStartSeq_ = plan_.walSegments.empty() ? plan_.nextWalSeq
                                               : plan_.walSegments.front();
    }
    wal_ = std::make_unique<dur::Wal>(*dir_, plan_.nextWalSeq, walOpts_);
    if (!plan_.haveManifest) {
      MutexLock lk(cpMu_);
      dur::Manifest m;
      m.cpSeq = 0;
      m.walStart = plan_.nextWalSeq;
      m.shardBounds = bounds();
      m.store(*dir_);
    }
    recoveryMs_.store(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0_)
                .count()),
        std::memory_order_relaxed);
  }

  /// Cancels a queued auto-checkpoint and waits out a running one.  The
  /// front end calls this first in its destructor: the job scans the map.
  void detach() {
    if (svc_ != nullptr) svc_->detach(this);
  }

  /// Forces everything appended to the WAL so far onto disk (used by tests
  /// and by callers that batch under FsyncPolicy::Never/Interval).
  void syncWal() {
    if (wal_ != nullptr) wal_->sync();
  }

  /// Records replayed from the WAL tail by the last open (0 = none).
  std::uint64_t recoveryReplayedRecords() const noexcept {
    return recoveryReplayed_.load(std::memory_order_relaxed);
  }
  std::uint64_t recoveryMillis() const noexcept {
    return recoveryMs_.load(std::memory_order_relaxed);
  }

  /// Fills the durability gauges of a map's Metrics snapshot.
  void addTo(obs::Metrics& m) const {
    if (wal_ != nullptr) {
      const dur::WalStats ws = wal_->stats();
      m.durable = true;
      m.walAppends = ws.appends;
      m.walFsyncs = ws.fsyncs;
      m.walBytes = ws.bytes;
      m.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    }
    m.recoveryReplayed = recoveryReplayed_.load(std::memory_order_relaxed);
    m.recoveryMs = recoveryMs_.load(std::memory_order_relaxed);
  }

 private:
  /// Auto-checkpoint trigger: once the current WAL segment outgrows the
  /// budget, hand one checkpoint job to the maintenance service, or run it
  /// inline without one.  The put path pays only the lock-free probe.
  void maybeCheckpoint() {
    if (wal_->bytesSinceRotate() < walBytesBudget_) return;
    maint::CoalescedJob::trigger<&Durability::cpJob_, &Durability::runCheckpoint>(
        svc_, this, std::byte{1}, 1u << 20);
  }
  void runCheckpoint() { checkpointMap_(); }

  std::optional<std::string> dir_;  // storage dir; engaged = durable
  std::chrono::steady_clock::time_point t0_;  // recovery clock start
  dur::RecoveryPlan plan_;
  dur::Wal::Options walOpts_;
  std::size_t walBytesBudget_ = 64u << 20;
  std::unique_ptr<dur::Wal> wal_;  // created after recovery replay
  maint::MaintenanceService* svc_ = nullptr;  // the map's; null = inline
  std::function<void()> checkpointMap_;       // the map's checkpointNow()
  maint::CoalescedJob cpJob_;
  Mutex cpMu_;  // serializes checkpoints and the manifest generation state
  std::uint64_t cpSeq_ OAK_GUARDED_BY(cpMu_) = 0;
  std::uint64_t walStartSeq_ OAK_GUARDED_BY(cpMu_) = 1;
  std::uint64_t prevCpSeq_ OAK_GUARDED_BY(cpMu_) = 0;
  std::uint64_t prevWalStart_ OAK_GUARDED_BY(cpMu_) = 0;
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> recoveryReplayed_{0};
  std::atomic<std::uint64_t> recoveryMs_{0};
};

}  // namespace oak::detail
