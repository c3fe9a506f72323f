// ShardedOakCoreMap — a range-partitioned front-end over N independent
// OakCoreMap instances, with *online* shard management.
//
// Each shard is a full Oak core: its own chunk list, skiplist index, its
// own MemoryManager arena region (carved from the shared BlockPool), and
// its own EBR domain.  Rebalance serialization, allocator free lists, and
// epoch advancement therefore stay local to a shard — contention and GC
// pressure do not cross shard boundaries.
//
//   * Point operations route by key through a ShardRouter binary search
//     and keep the exact single-map linearization points (§4.5): one op
//     touches exactly one shard, so per-shard linearizability composes to
//     whole-map linearizability for point ops.
//   * Ordered scans run a k-way merge over per-shard iterators, each
//     clamped to its shard's owned range, so cross-shard output is totally
//     ordered and free of duplicates even after splits (see "migration
//     leftovers" below).  The scan keeps the paper's non-atomic §4.2
//     guarantees, exactly as a single-shard scan does.
//
// Online shard management (split/merge) follows the paper's publish/freeze
// discipline (§4.1), lifted from chunks to shards:
//
//   The routing state lives in an immutable, epoch-published Table
//   {version, router, cores, sealed-range}.  Every operation pins the
//   current table through a per-thread hazard slot (store-then-recheck, the
//   same shape as Chunk's publish array); the management thread publishes a
//   new table and waits until no slot references an older one before it
//   frees it.  Point ops therefore never block on a split or merge — at
//   worst a *writer* into the sealed range spins for the copy window.
//
//   SPLIT(i) at key M:   v+1 publishes the same layout with [M, hi_i)
//   sealed (writers to that range spin; readers proceed).  After the seal
//   is quiescent the range is write-quiescent, so its entries are copied
//   into a fresh core without locks.  v+2 publishes boundary M with the
//   fresh core owning [M, hi_i).  The source core keeps the migrated
//   entries as inert "migration leftovers": range clamping hides them from
//   every post-split operation, and in-flight pre-split readers observing
//   them is exactly the stale-read §4.2 already allows.  Leftovers are
//   reclaimed with the core.
//
//   MERGE(i):   shard i is absorbed into shard i+1 (always leftward, so a
//   core never receives keys below its owned range — that direction is
//   what keeps leftovers from ever aliasing live entries).  v+1 seals
//   shard i's whole range, the copy lands in shard i+1, and v+2 drops the
//   boundary.  The absorbed core moves to a zombie list so outstanding
//   zero-copy views (OakRBuffer) stay valid for the map's lifetime.
//
// Hot/cold detection (manageShardsOnce) compares per-shard op-count deltas
// from the obs registries; with autoShardManage the check is submitted to
// the shared MaintenanceService, so splits and merges run on background
// workers, deduplicated like any other maintenance job.
//
// The typed facade is oak::ShardedOakMap<K, V, ...> (oak/map.hpp), the
// same BasicOakMap body the plain OakMap uses — only the core differs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/spin.hpp"
#include "common/thread_registry.hpp"
#include "maint/maintenance.hpp"
#include "oak/core_map.hpp"
#include "oak/durability.hpp"
#include "oak/shard_router.hpp"

namespace oak {

struct ShardedOakConfig {
  /// Shard count used with the default splitter.  Ignored when `layout`
  /// carries explicit boundaries (then layout.shards() wins).
  std::size_t shards = 1;
  /// Per-shard core configuration (every shard gets an identical copy; the
  /// BlockPool inside is shared, the arena regions are not).  Its nested
  /// `maintenance` group also configures the *shared* service and the
  /// shard-management policy (split/merge thresholds, autoShardManage).
  OakConfig shard;
  /// Boundary keys; empty => ShardLayout::uniformU64(shards).
  ShardLayout layout;

  // ---- fluent setters (mirror OakConfig's builder style) ----
  ShardedOakConfig& withShards(std::size_t n) { shards = n; return *this; }
  ShardedOakConfig& withShard(OakConfig c) { shard = std::move(c); return *this; }
  ShardedOakConfig& withLayout(ShardLayout l) { layout = std::move(l); return *this; }
  /// Durability in one call (DESIGN.md §12).  The sharded map logs through
  /// ONE WAL and one checkpoint stream at the front-end level; the per-core
  /// durability machinery stays disabled.
  ShardedOakConfig& withStorageDir(std::string dir) {
    shard.mem.storageDir = std::move(dir);
    return *this;
  }
};

template <class Compare = BytesComparator>
class ShardedOakCoreMap {
  using Core = OakCoreMap<Compare>;

 public:
  using Config = ShardedOakConfig;
  using KeyedEntry = typename Core::KeyedEntry;
  using EntryView = typename Core::EntryView;

  explicit ShardedOakCoreMap(ShardedOakConfig cfg = ShardedOakConfig{},
                             Compare cmp = Compare{})
      : cmp_(cmp), dur_(cfg.shard) {
    ShardLayout layout = cfg.layout.boundaries.empty()
                             ? ShardLayout::uniformU64(cfg.shards < 1 ? 1 : cfg.shards)
                             : std::move(cfg.layout);
    shardCfg_ = cfg.shard;
    // Durability lives at the front-end: one WAL, one checkpoint stream,
    // one manifest (which also records the shard boundaries).  The cores
    // are built explicitly in-memory — mem.storageDir = "" overrides any
    // OAK_STORAGE_DIR — and share one file-backed pool when no explicit
    // pool was injected.
    shardCfg_.mem.pool = &detail::resolvePool(shardCfg_, ownedPool_);
    shardCfg_.mem.storageDir = std::string{};
    if (!dur_.recoveredShardBounds().empty()) {
      // The manifest's boundaries are the crash-time layout: rebuilding
      // under them keeps each shard's checkpoint slice in its owner and
      // preserves any online splits/merges that happened before the stop.
      layout = ShardLayout::at(dur_.recoveredShardBounds());
    }
    // One maintenance service for every shard (and for our own
    // shard-management jobs): adopt the caller's, or own a pool when the
    // config (or OAK_MAINT_THREADS) asks for workers.
    svc_ = shardCfg_.maintenance.service;
    if (svc_ == nullptr) {
      const unsigned t = shardCfg_.maintenance.effectiveThreads();
      if (t > 0) {
        ownedSvc_ = std::make_unique<maint::MaintenanceService>(
            t, shardCfg_.maintenance.rateLimitBytesPerSec,
            shardCfg_.maintenance.queueDepth);
        svc_ = ownedSvc_.get();
      }
    }
    shardCfg_.maintenance.service = svc_;
    // One snapshot domain shared by every shard (adopt the caller's when
    // injected): a merged cross-shard scan then pins a single read version
    // that is consistent across the whole key space, and writers on any
    // shard stamp against the same clock.
    snapDomain_ = shardCfg_.snapshotDomain;
    if (snapDomain_ == nullptr) {
      ownedSnapDomain_ = std::make_unique<SnapshotDomain>();
      snapDomain_ = ownedSnapDomain_.get();
    }
    shardCfg_.snapshotDomain = snapDomain_;
    autoManage_ = shardCfg_.maintenance.autoShardManage;
    checkOps_ = shardCfg_.maintenance.manageCheckOps < 1
                    ? 1
                    : shardCfg_.maintenance.manageCheckOps;
    gate_ = std::make_unique<GateSlot[]>(kMaxThreads);
    opTick_ = std::make_unique<OpTick[]>(kMaxThreads);

    auto t0 = std::make_unique<Table>(ShardRouter<Compare>(std::move(layout), cmp_));
    t0->cores.reserve(t0->router.shards());
    for (std::size_t i = 0; i < t0->router.shards(); ++i) {
      t0->cores.push_back(std::make_shared<Core>(shardCfg_, cmp_));
    }
    {
      MutexLock lk(mgmtMu_);
      publishLocked(std::move(t0));
    }
    dur_.recover(
        *this, [this](auto&& source) { bulkLoadRouted(source); },
        [this](ByteSpan k, std::optional<ByteSpan> v) {
          if (v.has_value()) {
            put(k, *v);
          } else {
            remove(k);
          }
        },
        [this] { return currentBounds(); });
  }

  ~ShardedOakCoreMap() {
    // Cancel queued shard-management and checkpoint jobs and wait out
    // in-flight ones; each core then detaches itself in its own destructor.
    if (svc_ != nullptr) svc_->detach(this);
    dur_.detach();
  }

  ShardedOakCoreMap(const ShardedOakCoreMap&) = delete;
  ShardedOakCoreMap& operator=(const ShardedOakCoreMap&) = delete;

  // ================================================= shard accessors ==
  // These read the current table without pinning it: the returned
  // references are stable only while no concurrent shard management runs
  // (tests and tooling call them at quiescent points; the data path never
  // does).
  std::size_t shardCount() const noexcept {
    return table_.load(std::memory_order_acquire)->cores.size();
  }
  Core& shard(std::size_t i) noexcept {
    return *table_.load(std::memory_order_acquire)->cores[i];
  }
  const Core& shard(std::size_t i) const noexcept {
    return *table_.load(std::memory_order_acquire)->cores[i];
  }
  const ShardRouter<Compare>& router() const noexcept {
    return table_.load(std::memory_order_acquire)->router;
  }
  const Compare& comparator() const noexcept { return cmp_; }

  /// Shard a key routes to (exposed for tests and placement-aware callers).
  std::size_t shardFor(ByteSpan key) const noexcept {
    return table_.load(std::memory_order_acquire)->router.shardFor(key);
  }

  // ====================================================== point ops ==
  // Exactly the OakCoreMap surface; each call pins the current table,
  // routes to one shard, and (for writes) spins out of a sealed range.
  std::optional<OakRBuffer> get(ByteSpan key) {
    return readOp(key, [&](Core& c) { return c.get(key); });
  }
  std::optional<ByteVec> getCopy(ByteSpan key) {
    return readOp(key, [&](Core& c) { return c.getCopy(key); });
  }
  bool containsKey(ByteSpan key) {
    return readOp(key, [&](Core& c) { return c.containsKey(key); });
  }

  // The WAL hooks fire at this level (the cores are built in-memory; see
  // the constructor) after the routed operation linearizes, before the call
  // returns.  All are no-ops on in-memory maps and during recovery replay.
  bool put(ByteSpan key, ByteSpan value, ByteVec* old = nullptr) {
    const bool replaced = writeOp(key, [&](Core& c) { return c.put(key, value, old); });
    dur_.logPut(key, value);
    return replaced;
  }
  bool putIfAbsent(ByteSpan key, ByteSpan value) {
    const bool ok = writeOp(key, [&](Core& c) { return c.putIfAbsent(key, value); });
    if (ok) dur_.logPut(key, value);
    return ok;
  }
  template <class F>
  void putIfAbsentComputeIfPresent(ByteSpan key, ByteSpan value, F&& func) {
    writeOp(key, [&](Core& c) {
      c.putIfAbsentComputeIfPresent(key, value, std::forward<F>(func));
      return true;
    });
    dur_.logPostImage(*this, key);
  }
  template <class F>
  bool computeIfPresent(ByteSpan key, F&& func) {
    const bool ok = writeOp(key, [&](Core& c) {
      return c.computeIfPresent(key, std::forward<F>(func));
    });
    if (ok) dur_.logPostImage(*this, key);
    return ok;
  }
  bool remove(ByteSpan key, ByteVec* old = nullptr) {
    const bool ok = writeOp(key, [&](Core& c) { return c.remove(key, old); });
    if (ok) dur_.logRemove(key);
    return ok;
  }
  bool replace(ByteSpan key, ByteSpan value, ByteVec* old = nullptr) {
    const bool ok =
        writeOp(key, [&](Core& c) { return c.replace(key, value, old); });
    if (ok) dur_.logPut(key, value);
    return ok;
  }
  bool replaceIf(ByteSpan key, ByteSpan expected, ByteSpan desired) {
    const bool ok =
        writeOp(key, [&](Core& c) { return c.replaceIf(key, expected, desired); });
    if (ok) dur_.logPut(key, desired);
    return ok;
  }

  /// Degraded-path ops (Status instead of OOM exceptions); one shard each,
  /// so the retry ladder and emergency reserve are the owning shard's.
  Status tryPut(ByteSpan key, ByteSpan value) {
    const Status s = writeOp(key, [&](Core& c) { return c.tryPut(key, value); });
    if (s == Status::Ok) dur_.logPut(key, value);
    return s;
  }
  template <class F>
  Status tryCompute(ByteSpan key, F&& func, bool* computed = nullptr) {
    bool ran = false;
    const Status s = writeOp(key, [&](Core& c) {
      return c.tryCompute(key, std::forward<F>(func), &ran);
    });
    if (computed != nullptr) *computed = ran;
    if (s == Status::Ok && ran) dur_.logPostImage(*this, key);
    return s;
  }

  // ==================================================== navigation ==
  // Expressed through the clamped merged scans, exactly like the plain
  // core expresses them through its own iterators — which makes range
  // clamping (migration leftovers!) a single-point concern.
  std::optional<KeyedEntry> firstEntry() {
    AscendIter it = ascend();
    return takeFirst(it);
  }
  std::optional<KeyedEntry> lastEntry() {
    DescendIter it = descend();
    return takeFirst(it);
  }
  std::optional<KeyedEntry> ceilingEntry(ByteSpan key) {
    AscendIter it = ascend(toVec(key));
    return takeFirst(it);
  }
  std::optional<KeyedEntry> higherEntry(ByteSpan key) {
    AscendIter it = ascend(toVec(key));
    if (it.valid() && bytesEqual(it.entry().key, key)) it.next();
    return takeFirst(it);
  }
  std::optional<KeyedEntry> floorEntry(ByteSpan key) {
    // Exact hit, else lowerEntry: "below probe + 0x00" is byte order only.
    AscendIter at = ascend(toVec(key));
    if (at.valid() && cmp_(at.entry().key, key) == 0) return takeFirst(at);
    return lowerEntry(key);
  }
  std::optional<KeyedEntry> lowerEntry(ByteSpan key) {
    DescendIter it = descend(std::nullopt, toVec(key));
    return takeFirst(it);
  }

  // =================================================== merged scans ==
  /// Ascending k-way merge over per-shard stream iterators, each clamped
  /// to [shard lower bound, shard upper bound) so migration leftovers in a
  /// split source core never surface.  Iterators hold shared ownership of
  /// the cores they read: a concurrent merge retiring a core never
  /// invalidates a running scan.
  class AscendIter {
   public:
    AscendIter(ShardedOakCoreMap& m, std::optional<ByteVec> lo,
               std::optional<ByteVec> hi, ScanOptions opts)
        : map_(&m) {
      if (opts.isSnapshot() && opts.snapshotVersion == 0) {
        // ONE pin for all shards: the merged scan observes a single version
        // consistent across the whole key space; per-shard iterators reuse
        // it through opts.snapshotVersion instead of pinning their own.
        snap_ = Snapshot(*m.snapDomain_);
        opts.snapshotVersion = snap_.version();
      }
      snapV_ = opts.isSnapshot() ? opts.snapshotVersion : 0;
      const auto build = [&](const ShardRouter<Compare>& router,
                             const std::vector<std::shared_ptr<Core>>& cores) {
        if (snap_.valid() && !cores.empty()) cores.front()->noteSnapshotOpened();
        const std::size_t n = cores.size();
        const std::size_t first = router.lowerShard(lo);
        const std::size_t last = std::min(router.upperShard(hi), n - 1);
        for (std::size_t i = first; i <= last; ++i) {
          std::optional<ByteVec> effLo = lo;
          if (i > 0) {
            // Clamp below as well as above: during a merge the absorbing
            // core transiently holds keys under its published lower
            // boundary, and an unclamped iterator would yield them from
            // both shards.
            ByteVec lb = toVec(router.boundary(i - 1));
            if (!effLo || m.cmp_(asBytes(lb), asBytes(*effLo)) > 0) effLo = std::move(lb);
          }
          std::optional<ByteVec> effHi = hi;
          if (i + 1 < n) {
            ByteVec ub = toVec(router.boundary(i));
            if (!effHi || m.cmp_(asBytes(ub), asBytes(*effHi)) < 0) effHi = std::move(ub);
          }
          cores_.push_back(cores[i]);
          iters_.push_back(std::make_unique<typename Core::AscendIter>(
              *cores[i], std::move(effLo), std::move(effHi), opts));
        }
      };
      // Snapshot scans must route through the layout that was current AT
      // the read version: shard migration restamps moved values, so the
      // published layout may not serve versions older than the last
      // split/merge (the originals survive as sealed leftovers in the
      // pre-migration cores).  When no superseded table is retained the
      // published layout serves every pinned version, so the common path
      // stays the plain hazard pin; the flag re-check AFTER pinning closes
      // the race with a concurrent migration publish (see historyRetained_).
      bool useHistory = snapV_ != 0 && m.historyRetained();
      if (!useHistory) {
        TableRef tr(m);
        if (snapV_ != 0 && m.historyRetained()) {
          useHistory = true;  // raced a migration; drop the pin, use history
        } else {
          build(tr->router, tr->cores);
        }
      }
      if (useHistory) {
        // Taken WITHOUT a hazard pin held: snapshotScanView takes
        // histMu_, which pruneLocked holds right after awaiting hazard
        // quiescence.
        const auto view = m.snapshotScanView(snapV_);
        build(view.router, view.cores);
      }
      pick();
    }

    bool valid() const noexcept { return cur_ != kNoneIdx; }
    std::uint64_t snapshotVersion() const noexcept { return snapV_; }
    EntryView entry() const { return iters_[cur_]->entry(); }
    void next() {
      iters_[cur_]->next();
      pick();
    }

   private:
    static constexpr std::size_t kNoneIdx = ~std::size_t{0};

    void pick() noexcept {
      cur_ = kNoneIdx;
      for (std::size_t i = 0; i < iters_.size(); ++i) {
        if (!iters_[i]->valid()) continue;
        if (cur_ == kNoneIdx ||
            map_->cmp_(iters_[i]->entry().key, iters_[cur_]->entry().key) < 0) {
          cur_ = i;
        }
      }
    }

    ShardedOakCoreMap* map_;
    Snapshot snap_;  ///< the one cross-shard pin (snapshot mode only)
    std::uint64_t snapV_ = 0;
    std::vector<std::shared_ptr<Core>> cores_;  // keepalive across merges
    std::vector<std::unique_ptr<typename Core::AscendIter>> iters_;
    std::size_t cur_ = kNoneIdx;
  };

  /// Descending k-way merge: picks the globally greatest key next.  Same
  /// clamping and core keepalive as AscendIter.
  class DescendIter {
   public:
    DescendIter(ShardedOakCoreMap& m, std::optional<ByteVec> lo,
                std::optional<ByteVec> hi, ScanOptions opts)
        : map_(&m) {
      if (opts.isSnapshot() && opts.snapshotVersion == 0) {
        // Same single-pin protocol as the merged AscendIter.
        snap_ = Snapshot(*m.snapDomain_);
        opts.snapshotVersion = snap_.version();
      }
      snapV_ = opts.isSnapshot() ? opts.snapshotVersion : 0;
      const auto build = [&](const ShardRouter<Compare>& router,
                             const std::vector<std::shared_ptr<Core>>& cores) {
        if (snap_.valid() && !cores.empty()) cores.front()->noteSnapshotOpened();
        const std::size_t n = cores.size();
        const std::size_t first = router.lowerShard(lo);
        const std::size_t last = std::min(router.upperShard(hi), n - 1);
        for (std::size_t i = first; i <= last; ++i) {
          std::optional<ByteVec> effLo = lo;
          if (i > 0) {
            // Same lower-bound clamp as AscendIter: merge leftovers below
            // the shard's published range must not surface twice.
            ByteVec lb = toVec(router.boundary(i - 1));
            if (!effLo || m.cmp_(asBytes(lb), asBytes(*effLo)) > 0) effLo = std::move(lb);
          }
          std::optional<ByteVec> effHi = hi;
          if (i + 1 < n) {
            ByteVec ub = toVec(router.boundary(i));
            if (!effHi || m.cmp_(asBytes(ub), asBytes(*effHi)) < 0) effHi = std::move(ub);
          }
          cores_.push_back(cores[i]);
          iters_.push_back(std::make_unique<typename Core::DescendIter>(
              *cores[i], std::move(effLo), std::move(effHi), opts));
        }
      };
      // Same version-resolved layout selection as the merged AscendIter:
      // hazard-pin fast path unless superseded tables are retained, flag
      // re-checked after pinning, history path entered with no pin held.
      bool useHistory = snapV_ != 0 && m.historyRetained();
      if (!useHistory) {
        TableRef tr(m);
        if (snapV_ != 0 && m.historyRetained()) {
          useHistory = true;
        } else {
          build(tr->router, tr->cores);
        }
      }
      if (useHistory) {
        const auto view = m.snapshotScanView(snapV_);
        build(view.router, view.cores);
      }
      pick();
    }

    bool valid() const noexcept { return cur_ != kNoneIdx; }
    std::uint64_t snapshotVersion() const noexcept { return snapV_; }
    EntryView entry() const { return iters_[cur_]->entry(); }
    void next() {
      iters_[cur_]->next();
      pick();
    }

   private:
    static constexpr std::size_t kNoneIdx = ~std::size_t{0};

    void pick() noexcept {
      cur_ = kNoneIdx;
      for (std::size_t i = 0; i < iters_.size(); ++i) {
        if (!iters_[i]->valid()) continue;
        if (cur_ == kNoneIdx ||
            map_->cmp_(iters_[i]->entry().key, iters_[cur_]->entry().key) > 0) {
          cur_ = i;
        }
      }
    }

    ShardedOakCoreMap* map_;
    Snapshot snap_;  ///< the one cross-shard pin (snapshot mode only)
    std::uint64_t snapV_ = 0;
    std::vector<std::shared_ptr<Core>> cores_;
    std::vector<std::unique_ptr<typename Core::DescendIter>> iters_;
    std::size_t cur_ = kNoneIdx;
  };

  AscendIter ascend(std::optional<ByteVec> lo = std::nullopt,
                    std::optional<ByteVec> hi = std::nullopt,
                    ScanOptions opts = {}) {
    return AscendIter(*this, std::move(lo), std::move(hi), opts);
  }
  DescendIter descend(std::optional<ByteVec> lo = std::nullopt,
                      std::optional<ByteVec> hi = std::nullopt,
                      ScanOptions opts = {}) {
    return DescendIter(*this, std::move(lo), std::move(hi), opts);
  }

  // ============================================ online shard management ==
  /// Splits shard `idx` at the median of its owned range.  Returns false
  /// when the shard is too small to pick a split key (or `idx` is out of
  /// range, or the copy hit OOM and rolled back).
  bool splitShard(std::size_t idx) {
    MutexLock lk(mgmtMu_);
    return splitLocked(idx, ByteVec{});
  }
  /// Splits shard `idx` at an explicit key, which must lie strictly inside
  /// the shard's owned range.
  bool splitShardAt(std::size_t idx, ByteVec midKey) {
    MutexLock lk(mgmtMu_);
    return splitLocked(idx, std::move(midKey));
  }
  /// Merges shard `idx` into its right neighbor `idx + 1` (the absorbed
  /// core is kept as a zombie so outstanding views stay valid).
  bool mergeShards(std::size_t idx) {
    MutexLock lk(mgmtMu_);
    return mergeLocked(idx);
  }

  /// One hot/cold policy check: splits the hottest shard when its share of
  /// recent point ops exceeds splitLoadFactor times an even share (and it
  /// has at least minSplitChunks chunks), else merges the coldest adjacent
  /// pair when their combined share falls below mergeLoadFactor of even.
  /// Reads per-shard op counts from the obs registries, so with OAK_STATS=0
  /// it is a no-op.  Returns true iff a layout change was published.
  bool manageShardsOnce() {
    MutexLock lk(mgmtMu_);
    return manageLocked();
  }

  // ==================================================== maintenance ==
  void pauseMaintenance() {
    if (svc_ != nullptr) svc_->pause();
  }
  void resumeMaintenance() {
    if (svc_ != nullptr) svc_->resume();
  }
  void drainMaintenance() {
    if (svc_ != nullptr) svc_->drain();
  }
  maint::MaintenanceStats maintenanceStats() const {
    return svc_ != nullptr ? svc_->stats() : maint::MaintenanceStats{};
  }
  maint::MaintenanceService* maintenanceService() noexcept { return svc_; }

  /// Evacuates sparse arenas in every shard (core_map.hpp compactNow);
  /// returns the total arenas retired to the pool.
  std::size_t compactNow() {
    MutexLock lk(mgmtMu_);
    std::size_t n = 0;
    forEachCoreLocked([&](const Core& c) { n += const_cast<Core&>(c).compactNow(); });
    return n;
  }

  // ====================================================== snapshots ==
  /// The version clock + pin table every shard stamps against.
  SnapshotDomain& snapshotDomain() noexcept { return *snapDomain_; }
  /// Pins the current map state; scans opened with
  /// `ScanOptions::snapshot()` pin their own version automatically.
  Snapshot openSnapshot() { return Snapshot(*snapDomain_); }
  /// Drains every shard's version-GC feed once (tests / quiescent points).
  /// Returns the number of version-chain nodes and tombstones retired.
  std::uint64_t collectVersionsNow() {
    MutexLock lk(mgmtMu_);
    std::uint64_t n = 0;
    forEachCoreLocked(
        [&](const Core& c) { n += const_cast<Core&>(c).collectVersionsNow(); });
    return n;
  }

  // ===================================================== durability ==
  // The lifecycle lives in detail::Durability (oak/durability.hpp); this
  // front end contributes its merged snapshot scan, its shard bounds and
  // its routed recovery paths.
  /// True when this map persists to a storage directory (DESIGN.md §12).
  bool durable() const noexcept { return dur_.durable(); }
  /// Synchronous whole-map checkpoint of the merged cross-shard scan; the
  /// manifest also records the current shard boundaries.  Returns pairs
  /// written (0 on in-memory maps).
  std::uint64_t checkpointNow() {
    // Boundaries may drift between the scan and their capture; recovery
    // routing is self-consistent under ANY sorted boundary set, so a
    // racing split/merge costs nothing but a different initial layout.
    return dur_.checkpoint(*this, [this] { return currentBounds(); });
  }
  /// Forces everything appended to the WAL so far onto disk.
  void syncWal() { dur_.syncWal(); }
  std::uint64_t recoveryReplayedRecords() const noexcept {
    return dur_.recoveryReplayedRecords();
  }
  std::uint64_t recoveryMillis() const noexcept { return dur_.recoveryMillis(); }

  // ========================================================= stats ==
  std::size_t sizeSlow() {
    std::size_t n = 0;
    for (AscendIter it = ascend(); it.valid(); it.next()) ++n;
    return n;
  }
  std::size_t offHeapFootprintBytes() const {
    MutexLock lk(mgmtMu_);
    std::size_t n = 0;
    forEachCoreLocked([&](const Core& c) { n += c.offHeapFootprintBytes(); });
    return n;
  }
  std::size_t offHeapAllocatedBytes() const {
    MutexLock lk(mgmtMu_);
    std::size_t n = 0;
    forEachCoreLocked([&](const Core& c) { n += c.offHeapAllocatedBytes(); });
    return n;
  }
  std::size_t chunkCount() const {
    MutexLock lk(mgmtMu_);
    std::size_t n = 0;
    forEachCoreLocked([&](const Core& c) { n += c.chunkCount(); });
    return n;
  }
  /// Rebalances across current shards *and* zombies — monotone across
  /// merges, and includes background-executed rebalances (the core's
  /// counter does not care who ran the protocol).
  std::uint64_t rebalanceCount() const {
    MutexLock lk(mgmtMu_);
    std::uint64_t n = 0;
    forEachCoreLocked([&](const Core& c) { n += c.rebalanceCount(); });
    return n;
  }

  /// Whole-map observability snapshot: per-shard Metrics folded into one
  /// (counter/gauge sums, max EBR lag, maintenance gauges absorbed with
  /// max since every shard reports the same shared service).  Zombie cores
  /// are folded in too, so op and rebalance counters never step backwards
  /// across a merge — but only live shards count toward `shards`.
  obs::Metrics stats() const {
    MutexLock lk(mgmtMu_);
    const Table* t = table_.load(std::memory_order_acquire);
    std::vector<obs::Metrics> per;
    per.reserve(t->cores.size() + zombies_.size());
    for (const auto& c : t->cores) per.push_back(c->stats());
    for (const auto& z : zombies_) per.push_back(z->stats());
    obs::Metrics m = obs::Metrics::aggregate(per);
    m.shards = t->cores.size();
    // Durability gauges live at the front-end (the cores run in-memory and
    // contribute zeros above).
    dur_.addTo(m);
    return m;
  }
  /// Per-shard snapshots (one oak::Metrics per live shard, unaggregated).
  std::vector<obs::Metrics> shardStats() const {
    MutexLock lk(mgmtMu_);
    const Table* t = table_.load(std::memory_order_acquire);
    std::vector<obs::Metrics> per;
    per.reserve(t->cores.size());
    for (const auto& c : t->cores) per.push_back(c->stats());
    return per;
  }

  /// Drains deferred reclamation in every shard's EBR domain.
  void quiesce() {
    MutexLock lk(mgmtMu_);
    forEachCoreLocked([&](const Core& c) { const_cast<Core&>(c).quiesce(); });
  }

 private:
  // ------------------------------------------------- published tables --
  // Immutable routing state.  A new Table is built off-path under mgmtMu_,
  // published with one seq_cst store, and freed only after every hazard
  // slot has moved past it.
  struct Table {
    std::uint64_t version = 0;
    /// Snapshot-clock value when this table was published.  Shard migration
    /// restamps moved values at copy time, so a snapshot pinned at V must
    /// route through the layout that was current at V: the last table with
    /// born <= V (see snapshotScanView).  Monotone in publish order because
    /// the clock never goes backwards.
    std::uint64_t born = 0;
    ShardRouter<Compare> router;
    std::vector<std::shared_ptr<Core>> cores;
    // Sealed write range [sealLo, sealHi) — writers spin, readers proceed.
    // nullopt bounds mean -inf / +inf.
    bool sealed = false;
    std::optional<ByteVec> sealLo;
    std::optional<ByteVec> sealHi;

    explicit Table(ShardRouter<Compare> r) : router(std::move(r)) {}
  };

  struct alignas(64) GateSlot {
    std::atomic<Table*> t{nullptr};
    std::atomic<std::uint32_t> depth{0};
  };
  struct alignas(64) OpTick {
    std::atomic<std::uint64_t> n{0};
  };

  /// Hazard-slot pin on the current table (store-then-recheck, the same
  /// shape as Chunk's publish array and classic hazard pointers).  Nested
  /// acquisitions on one thread reuse the outer pin.
  class TableRef {
   public:
    explicit TableRef(const ShardedOakCoreMap& m)
        : m_(&m), tid_(ThreadRegistry::id()) {
      GateSlot& s = m.gate_[tid_];
      const std::uint32_t d = s.depth.load(std::memory_order_relaxed);
      s.depth.store(d + 1, std::memory_order_relaxed);
      if (d > 0) {
        t_ = s.t.load(std::memory_order_relaxed);
        return;
      }
      for (;;) {
        Table* t = m.table_.load(std::memory_order_acquire);
        s.t.store(t, std::memory_order_seq_cst);
        if (m.table_.load(std::memory_order_seq_cst) == t) {
          t_ = t;
          return;
        }
      }
    }
    ~TableRef() {
      GateSlot& s = m_->gate_[tid_];
      const std::uint32_t d = s.depth.load(std::memory_order_relaxed) - 1;
      s.depth.store(d, std::memory_order_relaxed);
      if (d == 0) s.t.store(nullptr, std::memory_order_release);
    }
    TableRef(const TableRef&) = delete;
    TableRef& operator=(const TableRef&) = delete;

    Table& operator*() const noexcept { return *t_; }
    Table* operator->() const noexcept { return t_; }

   private:
    const ShardedOakCoreMap* m_;
    std::uint32_t tid_;
    Table* t_;
  };
  friend class TableRef;

  bool writeSealed(const Table& t, ByteSpan key) const {
    if (!t.sealed) return false;
    if (t.sealLo && cmp_(key, asBytes(*t.sealLo)) < 0) return false;
    if (t.sealHi && cmp_(key, asBytes(*t.sealHi)) >= 0) return false;
    return true;
  }

  template <class F>
  auto readOp(ByteSpan key, F&& f) {
    noteOp();
    TableRef t(*this);
    return f(*t->cores[t->router.shardFor(key)]);
  }

  template <class F>
  auto writeOp(ByteSpan key, F&& f) {
    noteOp();
    Backoff b;
    for (;;) {
      {
        TableRef t(*this);
        if (!writeSealed(*t, key)) {
          return f(*t->cores[t->router.shardFor(key)]);
        }
      }  // release the pin while spinning: the publisher must make progress
      b.pause();
    }
  }

  template <class It>
  std::optional<KeyedEntry> takeFirst(It& it) {
    if (!it.valid()) return std::nullopt;
    auto e = it.entry();
    return KeyedEntry{toVec(e.key), OakRBuffer::forValue(e.value)};
  }

  // -------------------------------------------------- publish / prune --
  Table* publishLocked(std::unique_ptr<Table> t) OAK_REQUIRES(mgmtMu_) {
    MutexLock hk(histMu_);
    t->version = tables_.empty()
                     ? 1
                     : table_.load(std::memory_order_relaxed)->version + 1;
    t->born = snapDomain_->now();
    // Raise the history flag BEFORE the new table becomes reachable: a
    // snapshot scan that hazard-pins the new table and then loads the flag
    // (both seq_cst) is therefore guaranteed to see it raised and divert to
    // the version-resolved path while superseded layouts may still matter.
    if (!tables_.empty()) {
      historyRetained_.store(true, std::memory_order_seq_cst);
    }
    Table* p = t.get();
    tables_.push_back(std::move(t));
    table_.store(p, std::memory_order_seq_cst);
    return p;
  }

  /// Waits until no hazard slot references a table other than `current`.
  /// Transient older stores from the acquire loop retract on their own
  /// (the re-check fails once table_ has moved), so this terminates.
  void awaitQuiescentLocked(const Table* current) const OAK_REQUIRES(mgmtMu_) {
    for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
      Backoff b;
      for (;;) {
        Table* t = gate_[i].t.load(std::memory_order_seq_cst);
        if (t == nullptr || t == current) break;
        b.pause();
      }
    }
  }

  /// Frees superseded tables; cores that left the layout move to the
  /// zombie list so outstanding OakRBuffer views stay valid for the map's
  /// lifetime (scans hold their own shared_ptr and do not need this).
  ///
  /// Superseded tables are NOT freed while a snapshot pin may still resolve
  /// to them: table T's validity window is [T.born, successor.born), so T
  /// stays until successor.born <= minPinned() — i.e. every open snapshot
  /// already reads a version the successor layout serves correctly.  The
  /// freed set is always a prefix of `tables_` (born is monotone in publish
  /// order), so the publish-ordered vector survives intact.
  void pruneLocked() OAK_REQUIRES(mgmtMu_) {
    Table* cur = table_.load(std::memory_order_relaxed);
    awaitQuiescentLocked(cur);
    MutexLock hk(histMu_);
    for (const auto& up : tables_) {
      if (up.get() == cur) continue;
      for (const auto& c : up->cores) {
        bool live = false;
        for (const auto& cc : cur->cores) {
          if (cc == c) { live = true; break; }
        }
        if (live) continue;
        bool seen = false;
        for (const auto& z : zombies_) {
          if (z == c) { seen = true; break; }
        }
        if (!seen) zombies_.push_back(c);
      }
    }
    const std::uint64_t minPin = snapDomain_->minPinned();
    std::size_t freeUpTo = 0;  // exclusive end of the freeable prefix
    while (freeUpTo + 1 < tables_.size() &&
           tables_[freeUpTo + 1]->born <= minPin) {
      ++freeUpTo;
    }
    tables_.erase(tables_.begin(),
                  tables_.begin() + static_cast<std::ptrdiff_t>(freeUpTo));
    // Safe to drop the flag once only the published table remains: every
    // pin that still needed an older layout kept it retained (minPinned
    // gate above), so reaching size 1 means all open pins — and any pin
    // opened from here on, whose version is at least the survivor's born —
    // resolve to the published table.
    if (tables_.size() == 1) {
      historyRetained_.store(false, std::memory_order_seq_cst);
    }
  }

  // ------------------------------------------------------ scan views --
  /// Value-copy of one table's routing state: the merged iterators build
  /// from this so they never dangle on a pruned Table (cores stay alive via
  /// the shared_ptrs, boundaries via the router copy).
  struct ScanTableView {
    ShardRouter<Compare> router;
    std::vector<std::shared_ptr<Core>> cores;
  };

  /// True while a superseded table is retained for open snapshot pins.
  /// Snapshot scan opens check this (seq_cst) after hazard-pinning the
  /// published table; false means the published layout serves every pinned
  /// version, so the open avoids histMu_ and the view copies entirely.
  bool historyRetained() const noexcept {
    return historyRetained_.load(std::memory_order_seq_cst);
  }

  /// The layout that was current at snapshot version `v`.  Shard migration
  /// (split/merge) restamps moved values at copy time, which makes them
  /// invisible to pins older than the migration — those pins must keep
  /// routing through the pre-migration layout, whose cores retain the
  /// originals as sealed leftovers.  pruneLocked() retains superseded
  /// tables exactly as long as a pin can resolve to them.  Takes histMu_
  /// only, never mgmtMu_: a split/merge holds mgmtMu_ across its copy and
  /// its quiescence waits, and a snapshot open queued behind it would keep
  /// its pin — and every table and core published since — alive meanwhile.
  ScanTableView snapshotScanView(std::uint64_t v) const {
    MutexLock hk(histMu_);
    const Table* best = nullptr;
    for (const auto& up : tables_) {  // publish order, born monotone
      if (up->born <= v) best = up.get();
    }
    // A pin older than every retained table can only happen when the
    // caller broke the snapshotAt contract (pin released); the oldest
    // retained layout is the best remaining approximation.
    if (best == nullptr) best = tables_.front().get();
    return ScanTableView{best->router, best->cores};
  }

  // --------------------------------------------------- owned ranges --
  static std::optional<ByteVec> ownedLower(const Table& t, std::size_t i) {
    if (i == 0) return std::nullopt;
    return toVec(t.router.boundary(i - 1));
  }
  static std::optional<ByteVec> ownedUpper(const Table& t, std::size_t i) {
    if (i + 1 >= t.cores.size()) return std::nullopt;
    return toVec(t.router.boundary(i));
  }
  static std::vector<ByteVec> boundsOf(const Table& t) {
    std::vector<ByteVec> b;
    b.reserve(t.router.shards() - 1);
    for (std::size_t i = 0; i + 1 < t.router.shards(); ++i) {
      b.push_back(toVec(t.router.boundary(i)));
    }
    return b;
  }

  template <class F>
  void forEachCoreLocked(F&& f) const OAK_REQUIRES(mgmtMu_) {
    const Table* t = table_.load(std::memory_order_acquire);
    for (const auto& c : t->cores) f(*c);
    for (const auto& z : zombies_) f(*z);
  }

  // ---------------------------------------------------- split / merge --
  /// Median key of the shard's *owned* range (leftovers excluded), via two
  /// clamped passes.  Empty result: too few live entries to split.
  ByteVec pickSplitKey(Core& src, const std::optional<ByteVec>& lo,
                       const std::optional<ByteVec>& hi) {
    std::size_t n = 0;
    for (auto it = src.ascend(lo, hi); it.valid(); it.next()) ++n;
    if (n < 2) return ByteVec{};
    auto it = src.ascend(lo, hi);
    for (std::size_t i = 0; i < n / 2; ++i) it.next();
    return toVec(it.entry().key);
  }

  bool splitLocked(std::size_t idx, ByteVec mid) OAK_REQUIRES(mgmtMu_) {
    Table& cur = *table_.load(std::memory_order_relaxed);
    const std::size_t n = cur.cores.size();
    if (idx >= n) return false;
    const std::optional<ByteVec> lo = ownedLower(cur, idx);
    const std::optional<ByteVec> hi = ownedUpper(cur, idx);
    if (mid.empty()) mid = pickSplitKey(*cur.cores[idx], lo, hi);
    if (mid.empty()) return false;
    if (lo && cmp_(asBytes(mid), asBytes(*lo)) <= 0) return false;
    if (hi && cmp_(asBytes(mid), asBytes(*hi)) >= 0) return false;

    std::shared_ptr<Core> src = cur.cores[idx];

    // Phase 1: seal [mid, hi) for writers and wait until every thread sees
    // the seal — after that the range is write-quiescent in `src`.
    {
      auto v = std::make_unique<Table>(cur.router);
      v->cores = cur.cores;
      v->sealed = true;
      v->sealLo = mid;
      v->sealHi = hi;
      awaitQuiescentLocked(publishLocked(std::move(v)));
    }

    // Phase 2: copy the sealed range into a fresh core.  Values are
    // write-quiescent, so plain reads + puts are a consistent snapshot.
    std::shared_ptr<Core> fresh;
    try {
      fresh = std::make_shared<Core>(shardCfg_, cmp_);
      ByteVec val;
      for (auto it = src->ascend(mid, hi); it.valid(); it.next()) {
        auto e = it.entry();
        val.clear();
        if (!e.value.read([&](ByteSpan s) { val.assign(s.begin(), s.end()); })) {
          continue;  // deleted-but-linked: nothing to migrate
        }
        fresh->put(e.key, asBytes(val));
      }
    } catch (const std::bad_alloc&) {
      // Roll back: unseal under the old layout; the split never happened.
      auto v = std::make_unique<Table>(cur.router);
      v->cores = cur.cores;
      publishLocked(std::move(v));
      pruneLocked();
      return false;
    }

    // Phase 3: publish boundary `mid` with the fresh core owning [mid, hi).
    // `src` keeps the migrated entries as inert leftovers (see file header).
    std::vector<ByteVec> bounds = boundsOf(cur);
    bounds.insert(bounds.begin() + static_cast<std::ptrdiff_t>(idx), mid);
    auto v = std::make_unique<Table>(
        ShardRouter<Compare>(ShardLayout::at(std::move(bounds)), cmp_));
    v->cores = cur.cores;
    v->cores.insert(v->cores.begin() + static_cast<std::ptrdiff_t>(idx) + 1, fresh);
    publishLocked(std::move(v));
    pruneLocked();
    src->statsRegistry().incCounter(obs::Counter::ShardSplit);
    return true;
  }

  bool mergeLocked(std::size_t idx) OAK_REQUIRES(mgmtMu_) {
    Table& cur = *table_.load(std::memory_order_relaxed);
    const std::size_t n = cur.cores.size();
    if (n < 2 || idx + 1 >= n) return false;
    const std::optional<ByteVec> lo = ownedLower(cur, idx);
    const ByteVec b = toVec(cur.router.boundary(idx));
    std::shared_ptr<Core> absorbed = cur.cores[idx];
    std::shared_ptr<Core> into = cur.cores[idx + 1];

    // Phase 1: seal the absorbed shard's whole range [lo, b).
    {
      auto v = std::make_unique<Table>(cur.router);
      v->cores = cur.cores;
      v->sealed = true;
      v->sealLo = lo;
      v->sealHi = b;
      awaitQuiescentLocked(publishLocked(std::move(v)));
    }

    // Phase 2: copy into the right neighbor.  Leftward absorption only:
    // `into` never held keys below its owned range, so these puts cannot
    // alias stale leftovers (which sit *above* a core's owned range).
    try {
      ByteVec val;
      for (auto it = absorbed->ascend(lo, b); it.valid(); it.next()) {
        auto e = it.entry();
        val.clear();
        if (!e.value.read([&](ByteSpan s) { val.assign(s.begin(), s.end()); })) {
          continue;
        }
        into->put(e.key, asBytes(val));
      }
    } catch (const std::bad_alloc&) {
      auto v = std::make_unique<Table>(cur.router);
      v->cores = cur.cores;
      publishLocked(std::move(v));
      pruneLocked();
      return false;
    }

    // Phase 3: drop boundary idx; the absorbed core becomes a zombie.
    std::vector<ByteVec> bounds = boundsOf(cur);
    bounds.erase(bounds.begin() + static_cast<std::ptrdiff_t>(idx));
    auto v = std::make_unique<Table>(
        ShardRouter<Compare>(ShardLayout::at(std::move(bounds)), cmp_));
    v->cores = cur.cores;
    v->cores.erase(v->cores.begin() + static_cast<std::ptrdiff_t>(idx));
    publishLocked(std::move(v));
    pruneLocked();
    into->statsRegistry().incCounter(obs::Counter::ShardMerge);
    return true;
  }

  // ---------------------------------------------------- hot/cold policy --
  static constexpr std::uint64_t kManageMinOps = 1024;

  bool manageLocked() OAK_REQUIRES(mgmtMu_) {
    const Table* t = table_.load(std::memory_order_relaxed);
    const std::size_t n = t->cores.size();
    const maint::MaintenanceConfig& mc = shardCfg_.maintenance;

    // Per-shard point-op deltas since the last check (counters are
    // monotone; cores are keyed by address so fresh cores start at 0).
    std::vector<std::uint64_t> load(n, 0);
    std::uint64_t total = 0;
    std::map<const void*, std::uint64_t> now;
    for (std::size_t i = 0; i < n; ++i) {
      const obs::RegistrySnapshot s = t->cores[i]->statsRegistry().snapshot();
      std::uint64_t ops = 0;
      for (const obs::Op o :
           {obs::Op::Get, obs::Op::GetCopy, obs::Op::Put, obs::Op::PutIfAbsent,
            obs::Op::PutIfAbsentCompute, obs::Op::Compute, obs::Op::Remove}) {
        ops += s.op(o).count;
      }
      const void* key = t->cores[i].get();
      const auto prev = lastOps_.find(key);
      load[i] = ops - (prev != lastOps_.end() ? prev->second : 0);
      total += load[i];
      now[key] = ops;
    }
    lastOps_.swap(now);
    if (total < kManageMinOps) return false;

    std::size_t hot = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (load[i] > load[hot]) hot = i;
    }
    if (n < mc.maxShards &&
        static_cast<double>(load[hot]) * static_cast<double>(n) >
            mc.splitLoadFactor * static_cast<double>(total) &&
        t->cores[hot]->chunkCount() >= mc.minSplitChunks) {
      if (splitLocked(hot, ByteVec{})) return true;
    }

    if (n >= 2) {
      std::size_t cold = 0;
      std::uint64_t best = ~std::uint64_t{0};
      for (std::size_t i = 0; i + 1 < n; ++i) {
        if (load[i] + load[i + 1] < best) {
          best = load[i] + load[i + 1];
          cold = i;
        }
      }
      if (static_cast<double>(best) * static_cast<double>(n) <
          mc.mergeLoadFactor * static_cast<double>(total)) {
        return mergeLocked(cold);
      }
    }
    return false;
  }

  // ----------------------------------------------------- durability --
  /// Current shard boundaries, as the manifest records them.
  std::vector<ByteVec> currentBounds() const {
    MutexLock lk(mgmtMu_);
    return boundsOf(*table_.load(std::memory_order_acquire));
  }

  /// Recovery bulk load: routes the checkpoint's globally sorted pair
  /// stream into each shard's bulk loader (a shard consumes until its upper
  /// boundary).
  template <class Source>
  void bulkLoadRouted(Source& source) {
    Table* t = table_.load(std::memory_order_acquire);
    ByteSpan pk, pv;
    bool pending = source(pk, pv);
    for (std::size_t i = 0; i < t->cores.size() && pending; ++i) {
      const std::optional<ByteVec> ub = ownedUpper(*t, i);
      t->cores[i]->bulkLoadSorted([&](ByteSpan& key, ByteSpan& value) {
        if (!pending) return false;
        if (ub && cmp_(pk, asBytes(*ub)) >= 0) return false;
        key = pk;
        value = pv;
        // Advancing is safe before the consumer copies: the checkpoint
        // reader hands out spans into its whole-file buffer, so the
        // previous pair's bytes stay put.
        pending = source(pk, pv);
        return true;
      });
    }
  }

  void noteOp() {
    if (!autoManage_) return;
    OpTick& slot = opTick_[ThreadRegistry::id()];
    const std::uint64_t k = slot.n.load(std::memory_order_relaxed) + 1;
    slot.n.store(k, std::memory_order_relaxed);
    if (k % checkOps_ != 0) return;
    if (svc_ != nullptr) {
      // Deduped like any chunk job; the empty key tags "shard management".
      svc_->submit(this, ByteVec{}, 0, [](void* self, const ByteVec&) {
        static_cast<ShardedOakCoreMap*>(self)->manageShardsOnce();
      });
    } else {
      manageShardsOnce();
    }
  }

  // Declaration order is destruction-critical: tables_/zombies_ (the
  // cores) must be destroyed before ownedSvc_ — each core's destructor
  // detaches from the service.
  Compare cmp_;
  OakConfig shardCfg_;  // per-core config with the shared service injected
  /// File-backed arena substrate for durable maps (declared before the
  /// tables so every core is destroyed before its arenas unmap).
  std::unique_ptr<mem::BlockPool> ownedPool_;
  std::unique_ptr<maint::MaintenanceService> ownedSvc_;
  maint::MaintenanceService* svc_ = nullptr;
  // Likewise declared before the cores: a shard's version GC reads the
  // domain's pin floor, so the shared SnapshotDomain must outlive them.
  std::unique_ptr<SnapshotDomain> ownedSnapDomain_;
  SnapshotDomain* snapDomain_ = nullptr;

  /// Serializes split/merge/manage and the whole-map walks over zombies_.
  /// Acquired before histMu_.
  mutable Mutex mgmtMu_;
  /// Guards only the table history: held by publish, prune and
  /// snapshotScanView, never across a copy or a quiescence wait, so a
  /// snapshot open never waits behind a split or merge.
  mutable Mutex histMu_;
  std::vector<std::unique_ptr<Table>> tables_
      OAK_GUARDED_BY(histMu_);  // current + not-yet-pruned
  std::vector<std::shared_ptr<Core>> zombies_
      OAK_GUARDED_BY(mgmtMu_);  // merged-away cores
  std::atomic<Table*> table_{nullptr};
  /// Raised (before publish) whenever a publish supersedes a table, lowered
  /// by pruneLocked once history is down to the published table alone.
  /// seq_cst pairs with the pin-then-check in the merged iterator ctors.
  std::atomic<bool> historyRetained_{false};
  mutable std::unique_ptr<GateSlot[]> gate_;

  bool autoManage_ = false;
  std::uint64_t checkOps_ = 1 << 16;
  std::unique_ptr<OpTick[]> opTick_;
  std::map<const void*, std::uint64_t> lastOps_;  // op counts at last check

  // Durability (DESIGN.md §12): one WAL and one checkpoint stream for the
  // whole map, whatever the shard count; inert for in-memory maps.
  detail::Durability dur_;
};

}  // namespace oak
