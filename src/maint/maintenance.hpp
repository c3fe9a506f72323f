// Background maintenance service (ROADMAP item 1).
//
// The paper treats chunk rebalance (§3) as maintenance, yet the seed ran it
// inline on whichever mutator tripped the policy — writers paid the
// freeze/migrate/publish latency, and a hot chunk serialized its writers
// behind the rebalance mutex.  MaintenanceService moves that work off the
// hot path, RocksDB-compaction-style: mutators *enqueue* a request and keep
// going; a small worker pool executes the freeze/migrate/publish protocol
// under the owning map's usual EBR + fault-injection discipline.
//
// Shape of the service:
//
//   * submit(owner, key, cost, fn) — O(log q) enqueue, deduplicated per
//     (owner, key): a chunk that trips the policy on every insert queues
//     one job, not hundreds.  Returns false when the queue is at depth —
//     the caller then decides (inline fallback or drop).
//   * Jobs name work by *key*, never by pointer: a queued chunk can be
//     retired by a racing inline rebalance before the worker runs, so the
//     worker re-locates by key under an epoch guard and re-checks policy.
//   * A token-bucket rate limiter (rateLimitBytesPerSec, 1-second burst)
//     meters workers by the job's declared cost in bytes, so maintenance
//     cannot monopolize memory bandwidth under churn.
//   * pause()/resume() gate the workers; drain() is a deterministic
//     barrier — it runs every queued job on the *calling* thread (rate
//     limit bypassed, works while paused) and then waits for in-flight
//     workers, giving tests and benchmarks a fixed point.
//   * detach(owner) cancels an owner's queued jobs and waits out its
//     in-flight ones — the map destructor's first move.
//
// One service can serve many maps: ShardedOakCoreMap shares a single pool
// across all shards (and its own shard-management jobs) by passing itself
// via MaintenanceConfig::service.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/env.hpp"
#include "common/mutex.hpp"

namespace oak::maint {

class MaintenanceService;

/// Maintenance knob group nested inside OakConfig (see core_map.hpp for the
/// full configuration story).  All setters are fluent:
///
///   MaintenanceConfig{}.withThreads(2).withRateLimit(64 << 20)
struct MaintenanceConfig {
  /// Background worker threads.  -1 (default) resolves through the standard
  /// precedence: explicit config > OAK_MAINT_THREADS > 0.  With 0 threads
  /// the map behaves exactly like the seed: rebalance runs inline on the
  /// mutator.
  int threads = -1;
  /// Token-bucket refill rate for worker-executed jobs, in bytes of chunk
  /// footprint per second.  0 = unthrottled.
  std::size_t rateLimitBytesPerSec = 0;
  /// Queue capacity; submissions beyond it are rejected (see inlineFallback).
  std::size_t queueDepth = 256;
  /// When the queue rejects a rebalance request, run it inline on the
  /// mutator (true, default — the seed's behavior) or drop it and let the
  /// next insert re-trigger (false).
  bool inlineFallback = true;

  // ---- online shard management (ShardedOakMap only) ----
  /// Submit hot/cold shard checks to the service automatically every
  /// `manageCheckOps` operations.  Off by default; manageShardsOnce() stays
  /// available for explicit control either way.
  bool autoShardManage = false;
  /// Split the hottest shard when its share of recent operations exceeds
  /// splitLoadFactor / shardCount (i.e. it is `splitLoadFactor` times an
  /// even share).
  double splitLoadFactor = 2.0;
  /// Merge a shard into its successor when their combined share of recent
  /// operations falls below mergeLoadFactor / shardCount.
  double mergeLoadFactor = 0.25;
  /// Never split a shard with fewer chunks than this (tiny shards gain
  /// nothing from splitting).
  std::size_t minSplitChunks = 2;
  std::size_t maxShards = 64;
  std::uint64_t manageCheckOps = 1 << 16;

  /// External service to share (non-owning).  When null the map owns a
  /// private pool of `threads` workers.  ShardedOakCoreMap overrides this
  /// for its per-shard cores so all shards share one pool.
  MaintenanceService* service = nullptr;

  /// Worker count after the precedence rule (explicit > env > default 0).
  unsigned effectiveThreads() const {
    if (threads >= 0) return static_cast<unsigned>(threads);
    return static_cast<unsigned>(env::u64("OAK_MAINT_THREADS", 0));
  }

  // ---- fluent setters ----
  MaintenanceConfig& withThreads(int t) { threads = t; return *this; }
  MaintenanceConfig& withRateLimit(std::size_t bytesPerSec) {
    rateLimitBytesPerSec = bytesPerSec;
    return *this;
  }
  MaintenanceConfig& withQueueDepth(std::size_t d) { queueDepth = d; return *this; }
  MaintenanceConfig& withInlineFallback(bool b) { inlineFallback = b; return *this; }
  MaintenanceConfig& withAutoShardManage(bool b) { autoShardManage = b; return *this; }
  MaintenanceConfig& withSplitLoadFactor(double f) { splitLoadFactor = f; return *this; }
  MaintenanceConfig& withMergeLoadFactor(double f) { mergeLoadFactor = f; return *this; }
  MaintenanceConfig& withMinSplitChunks(std::size_t n) { minSplitChunks = n; return *this; }
  MaintenanceConfig& withMaxShards(std::size_t n) { maxShards = n; return *this; }
  MaintenanceConfig& withManageCheckOps(std::uint64_t n) { manageCheckOps = n; return *this; }
  MaintenanceConfig& withService(MaintenanceService* s) { service = s; return *this; }
};

/// Point-in-time service gauges, exported through obs::Metrics (a sharded
/// map reports its shared service once, absorbed with max — like the
/// process-wide fault counter — so aggregation never multiplies them).
struct MaintenanceStats {
  std::uint64_t pending = 0;      ///< jobs queued, not yet picked up
  std::uint64_t inFlight = 0;     ///< jobs currently executing
  std::uint64_t submitted = 0;    ///< accepted submissions (incl. coalesced)
  std::uint64_t executed = 0;     ///< jobs run to completion (workers + drain)
  std::uint64_t coalesced = 0;    ///< submissions deduplicated onto a queued job
  std::uint64_t rejected = 0;     ///< submissions bounced off a full queue
  std::uint64_t throttledMs = 0;  ///< cumulative worker time spent rate-limited
  std::uint64_t threads = 0;      ///< pool size
  bool paused = false;
};

class MaintenanceService {
 public:
  /// Jobs are a plain function pointer + owner so the queue never type-erases
  /// into allocating closures; `key` names the work (chunk minKey, or an
  /// owner-defined tag for non-chunk jobs like shard management).
  using JobFn = void (*)(void* owner, const ByteVec& key);

  explicit MaintenanceService(unsigned threads,
                              std::size_t rateLimitBytesPerSec = 0,
                              std::size_t queueDepth = 256);
  ~MaintenanceService();

  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  /// Enqueues (or coalesces) a job.  Returns false iff the queue is full —
  /// the caller falls back inline or drops.  Duplicate (owner, key) pairs
  /// already queued are coalesced and count as success.
  bool submit(void* owner, ByteVec key, std::size_t costBytes, JobFn fn);

  /// Cancels `owner`'s queued jobs and waits for its in-flight ones.  After
  /// detach returns the service will never again call into `owner`.
  void detach(void* owner);

  void pause();
  void resume();

  /// Deterministic barrier: runs every queued job on the calling thread
  /// (bypassing the rate limiter; works while paused) and waits until no
  /// job is in flight.  On return the queue is empty and workers are idle —
  /// modulo jobs submitted concurrently by other threads.
  void drain();

  MaintenanceStats stats() const;
  unsigned threadCount() const noexcept { return static_cast<unsigned>(workers_.size()); }

 private:
  struct Job {
    void* owner;
    ByteVec key;
    std::size_t cost;
    JobFn fn;
  };

  void workerLoop();
  /// Pops the front job under `mu_` (caller holds the lock) and marks it
  /// running.
  Job takeFrontLocked() OAK_REQUIRES(mu_);
  void finishJobLocked(const Job& j) OAK_REQUIRES(mu_);
  static void runJobNoexcept(const Job& j) noexcept;
  /// Blocks until the token bucket covers `costBytes` (or stop/drain).
  void throttle(std::size_t costBytes) OAK_EXCLUDES(rateMu_, mu_);

  const std::size_t rate_;        // bytes/sec; 0 = unthrottled
  const std::size_t queueDepth_;

  mutable Mutex mu_;
  std::condition_variable workCv_;   // queue non-empty / unpaused / stop
  std::condition_variable idleCv_;   // job finished or queue emptied
  std::deque<Job> queue_ OAK_GUARDED_BY(mu_);
  /// Dedupe index over queue_.
  std::set<std::pair<void*, ByteVec>> queuedKeys_ OAK_GUARDED_BY(mu_);
  std::vector<void*> running_ OAK_GUARDED_BY(mu_);  // owners of in-flight jobs
  std::set<void*> detaching_ OAK_GUARDED_BY(mu_);   // mid-detach: submit() rejects
  bool paused_ OAK_GUARDED_BY(mu_) = false;
  bool stop_ OAK_GUARDED_BY(mu_) = false;

  // Token bucket (own lock: throttling must not block submit/drain).
  Mutex rateMu_ OAK_ACQUIRED_BEFORE(mu_);
  std::condition_variable rateCv_;
  double tokens_ OAK_GUARDED_BY(rateMu_) = 0;
  std::chrono::steady_clock::time_point lastRefill_ OAK_GUARDED_BY(rateMu_);

  // Gauges (relaxed; read via stats()).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> throttledMs_{0};
  std::atomic<int> drainers_{0};  // >0: throttle yields immediately

  std::vector<std::thread> workers_;
};

/// One kind of owner-side background job (version GC, evacuation,
/// auto-checkpoint) kept to at most one queued instance by a flag the owner
/// holds.  The service's own (owner, key) dedupe is not enough: it also
/// covers rebalance jobs, so a tag collision there must not strand the
/// flag, and probing the flag keeps the hot path off the service mutex.
class CoalescedJob {
 public:
  /// Runs `(owner->*Run)()`: queued on `svc` under key `{tag}` unless this
  /// job (`owner->*Self`) is already queued, or inline when there is no
  /// service or the queue rejects the submission.  The flag is cleared
  /// before the job runs, so work arriving meanwhile queues a fresh job,
  /// and again on rejection, so it cannot stick.  `owner` is the service
  /// owner: its detach() cancels the job.
  template <auto Self, auto Run, class Owner>
  static void trigger(MaintenanceService* svc, Owner* owner, std::byte tag,
                      std::size_t costBytes) {
    if (svc == nullptr) {
      (owner->*Run)();
      return;
    }
    std::atomic<bool>& queued = (owner->*Self).queued_;
    if (queued.exchange(true, std::memory_order_acq_rel)) return;
    const bool accepted =
        svc->submit(owner, ByteVec{tag}, costBytes, [](void* o, const ByteVec&) {
          auto* self = static_cast<Owner*>(o);
          (self->*Self).queued_.store(false, std::memory_order_release);
          (self->*Run)();
        });
    if (!accepted) {
      queued.store(false, std::memory_order_release);
      (owner->*Run)();
    }
  }

 private:
  std::atomic<bool> queued_{false};
};

}  // namespace oak::maint
