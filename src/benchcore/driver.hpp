// Benchmark driver: ingestion stage + sustained-rate stage (§5.1), with
// OOM-aware capacity probing for the memory experiments (Figure 3).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "benchcore/adapters.hpp"
#include "benchcore/workload.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "mheap/managed_heap.hpp"
#include "obs/metrics.hpp"

namespace oak::bench {

/// Which resource ran out when an experiment point hit its capacity cap.
/// Distinguishing managed-heap from off-heap exhaustion matters for the
/// Figure 3 analysis: Oak caps on the arena budget, the on-heap baselines
/// cap on the managed heap.
enum class OomKind : std::uint8_t { None = 0, Managed, OffHeap, Host };

inline const char* oomKindName(OomKind k) noexcept {
  switch (k) {
    case OomKind::None: return "none";
    case OomKind::Managed: return "managed";
    case OomKind::OffHeap: return "offheap";
    case OomKind::Host: return "host";
  }
  return "?";
}

struct PointResult {
  double kops = 0;             ///< operations (or scanned entries) per second / 1e3
  double ingestKops = 0;       ///< ingestion-stage throughput
  std::size_t finalSize = 0;
  bool oom = false;            ///< the configuration did not fit in RAM
  OomKind oomKind = OomKind::None;  ///< which resource capped the point
  mheap::GcStats gc{};
  std::size_t offHeapBytes = 0;
  std::size_t validationErrors = 0;  ///< ChunkWalker problems (OAK_BENCH_VALIDATE)
  obs::Metrics metrics{};      ///< internal-counter snapshot (obs layer)

  /// Snapshot-scan latency (Mix::snapshotScans): whole-scan wall time,
  /// aggregated over every worker's scans.  Zero when the mix ran none.
  std::uint64_t snapScans = 0;
  double snapScanP50Ns = 0;
  double snapScanP99Ns = 0;
};

/// Adapters may expose a `metrics()` snapshot (the oak/offheap ones do);
/// adapters without one simply leave PointResult::metrics empty.
template <class Adapter>
concept HasMetrics = requires(Adapter& a) {
  { a.metrics() } -> std::convertible_to<obs::Metrics>;
};

/// Adapters may support point removals (all the KV adapters do); mixes with
/// removePct > 0 fall back to gets on adapters that don't.
template <class Adapter>
concept HasRemove = requires(Adapter& a, ByteSpan k) {
  { a.remove(k) } -> std::convertible_to<bool>;
};

/// Adapters may support MVCC snapshot scans (the oak one does); mixes with
/// snapshotScans fall back to plain ascending scans on adapters that don't.
template <class Adapter>
concept HasSnapshotScan = requires(Adapter& a, ByteSpan k, std::size_t n,
                                   Blackhole& bh) {
  { a.scanSnapshotAsc(k, n, bh) } -> std::convertible_to<std::size_t>;
};

/// Adapters may expose a structural validator (ChunkWalker); the smoke
/// harness arms it with OAK_BENCH_VALIDATE=1 to fail on corruption that
/// throughput numbers would hide.
template <class Adapter>
concept HasValidate = requires(Adapter& a) {
  { a.validateStructure() } -> std::convertible_to<std::size_t>;
};

inline bool validationEnabled() {
  static const bool on = env::flag("OAK_BENCH_VALIDATE", false);
  return on;
}

template <class Adapter>
obs::Metrics snapshotMetrics(Adapter& a) {
  if constexpr (HasMetrics<Adapter>) {
    return a.metrics();
  } else {
    return obs::Metrics{};
  }
}

/// Exact latency percentiles over every thread's samples — the one
/// percentile path of the bench harness (its histograms are bucketed).
struct ExactPercentiles {
  std::size_t samples = 0;
  double p50 = 0;
  double p99 = 0;
};

/// Pools and sorts the per-thread samples, then reads p50 = v[n/2] and
/// p99 = v[min(n-1, n*99/100)]; all zero when there are none.
inline ExactPercentiles exactPercentiles(const std::vector<std::vector<double>>& perThread) {
  std::vector<double> all;
  for (const auto& v : perThread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ExactPercentiles r;
  r.samples = all.size();
  if (!all.empty()) {
    r.p50 = all[all.size() / 2];
    r.p99 = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return r;
}

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ingestion stage: single thread, putIfAbsent of `count` unique keys in
/// shuffled order (the paper ingests 50% of the range before measuring, and
/// Figure 3 measures this stage itself on the full dataset).
template <class Adapter>
bool ingestStage(Adapter& a, const BenchConfig& cfg, std::size_t count,
                 double* kopsOut, OomKind* kindOut = nullptr) {
  std::vector<std::byte> key(cfg.keyBytes);
  std::vector<std::byte> value(cfg.valueBytes, std::byte{0x11});
  XorShift rng(cfg.seed);
  // Permuted ids: id += stride (mod range) with gcd(stride, range) == 1
  // walks every id exactly once in pseudo-random order — a duplicate-free
  // shuffle without materializing one.
  const std::uint64_t range = cfg.keyRange;
  std::uint64_t stride = (0x9e3779b97f4a7c15ull % range) | 1ull;
  auto gcd = [](std::uint64_t x, std::uint64_t y) {
    while (y != 0) {
      const std::uint64_t t = x % y;
      x = y;
      y = t;
    }
    return x;
  };
  while (gcd(stride, range) != 1) stride += 2;
  const double t0 = nowSeconds();
  try {
    std::uint64_t id = rng.nextBounded(range);
    for (std::size_t i = 0; i < count; ++i) {
      id += stride;
      if (id >= range) id -= range;
      makeKey({key.data(), key.size()}, id);
      storeUnaligned<std::uint64_t>(value.data(), id);
      a.ingest({key.data(), key.size()}, {value.data(), value.size()});
    }
  } catch (const ManagedOutOfMemory&) {
    if (kopsOut != nullptr) *kopsOut = 0;
    if (kindOut != nullptr) *kindOut = OomKind::Managed;
    return false;  // capacity exceeded: the "cap" in Figure 3
  } catch (const OffHeapOutOfMemory&) {
    if (kopsOut != nullptr) *kopsOut = 0;
    if (kindOut != nullptr) *kindOut = OomKind::OffHeap;
    return false;
  } catch (const std::bad_alloc&) {
    if (kopsOut != nullptr) *kopsOut = 0;
    if (kindOut != nullptr) *kindOut = OomKind::Host;
    return false;
  }
  const double dt = nowSeconds() - t0;
  if (kopsOut != nullptr) *kopsOut = static_cast<double>(count) / dt / 1e3;
  return true;
}

/// Sustained-rate stage: `cfg.threads` symmetric workers for durationMs.
template <class Adapter>
PointResult sustainedStage(Adapter& a, const BenchConfig& cfg, const Mix& mix) {
  PointResult res;
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> oom{false};
  std::atomic<std::uint8_t> oomKind{0};  // first worker's OomKind wins
  std::atomic<std::uint64_t> totalOps{0};
  // Per-worker snapshot-scan latency samples, merged after the join (no
  // synchronization on the hot path).
  std::vector<std::vector<double>> snapNs(cfg.threads);

  auto worker = [&](unsigned t) {
    XorShift rng(cfg.seed * 7919 + t * 104729 + 1);
    // Skewed key choice (YCSB zipfian) when the mix asks for it; the zeta
    // precompute is per worker and runs before the start barrier, so it
    // never eats into the timed window.
    std::optional<ZipfGenerator> zipf;
    if (mix.zipfTheta > 0) zipf.emplace(cfg.keyRange, mix.zipfTheta);
    std::vector<std::byte> key(cfg.keyBytes);
    // Jittered puts need room for the largest drawn size (8 steps above
    // valueBytes/2 — 3/2 of nominal once valueBytes >= 64).
    const std::size_t jitterStep =
        cfg.valueBytes / 8 < 8 ? 8 : cfg.valueBytes / 8;
    const std::size_t maxValue =
        mix.valueJitter ? cfg.valueBytes / 2 + 8 * jitterStep : cfg.valueBytes;
    std::vector<std::byte> value(maxValue < 8 ? 8 : maxValue, std::byte{0x22});
    Blackhole bh;
    std::uint64_t ops = 0;
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    try {
      while (!stop.load(std::memory_order_acquire)) {
        const auto pct = static_cast<unsigned>(rng.nextBounded(100));
        const std::uint64_t id =
            zipf ? zipf->next(rng) : rng.nextBounded(cfg.keyRange);
        makeKey({key.data(), key.size()}, id);
        const ByteSpan k{key.data(), key.size()};
        if (pct < mix.putPct) {
          std::size_t vlen = cfg.valueBytes;
          if (mix.valueJitter) {
            // Resize churn: overwrites draw one of nine discrete sizes in
            // [valueBytes/2, 3*valueBytes/2].  Discrete steps model real KV
            // value populations (a few schema-driven sizes, not a continuum)
            // and keep each step in its own allocator size class, so a freed
            // value is recyclable for the next write of that size.
            vlen = cfg.valueBytes / 2 + jitterStep * rng.nextBounded(9);
            if (vlen < 8) vlen = 8;
          }
          storeUnaligned<std::uint64_t>(value.data(), id);
          a.put(k, {value.data(), vlen});
          ++ops;
        } else if (pct < mix.putPct + mix.removePct) {
          if constexpr (HasRemove<Adapter>) {
            a.remove(k);
          } else {
            a.get(k, bh);
          }
          ++ops;
        } else if (pct < mix.putPct + mix.removePct + mix.computePct) {
          a.compute(k);
          ++ops;
        } else if (pct <
                   mix.putPct + mix.removePct + mix.computePct + mix.scanAscPct) {
          if constexpr (HasSnapshotScan<Adapter>) {
            if (mix.snapshotScans) {
              const double s0 = nowSeconds();
              ops += a.scanSnapshotAsc(k, cfg.scanLength, bh);
              snapNs[t].push_back((nowSeconds() - s0) * 1e9);
            } else {
              ops += a.scanAsc(k, cfg.scanLength, bh, mix.streamScans);
            }
          } else {
            ops += a.scanAsc(k, cfg.scanLength, bh, mix.streamScans);
          }
        } else if (pct < mix.putPct + mix.removePct + mix.computePct +
                             mix.scanAscPct + mix.scanDescPct) {
          ops += a.scanDesc(k, cfg.scanLength, bh, mix.streamScans);
        } else {
          a.get(k, bh);
          ++ops;
        }
      }
    } catch (const ManagedOutOfMemory&) {
      oomKind.store(static_cast<std::uint8_t>(OomKind::Managed),
                    std::memory_order_relaxed);
      oom.store(true, std::memory_order_release);
    } catch (const OffHeapOutOfMemory&) {
      oomKind.store(static_cast<std::uint8_t>(OomKind::OffHeap),
                    std::memory_order_relaxed);
      oom.store(true, std::memory_order_release);
    } catch (const std::bad_alloc&) {
      oomKind.store(static_cast<std::uint8_t>(OomKind::Host),
                    std::memory_order_relaxed);
      oom.store(true, std::memory_order_release);
    }
    totalOps.fetch_add(ops, std::memory_order_relaxed);
    if (bh.acc == 0xdeadbeefcafebabeull) std::fprintf(stderr, "!");
  };

  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);
  for (unsigned t = 0; t < cfg.threads; ++t) threads.emplace_back(worker, t);
  const double t0 = nowSeconds();
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.durationMs));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double dt = nowSeconds() - t0;

  res.kops = static_cast<double>(totalOps.load()) / dt / 1e3;
  const ExactPercentiles snap = exactPercentiles(snapNs);
  res.snapScans = snap.samples;
  res.snapScanP50Ns = snap.p50;
  res.snapScanP99Ns = snap.p99;
  res.oom = oom.load();
  res.oomKind = static_cast<OomKind>(oomKind.load(std::memory_order_relaxed));
  res.gc = a.gcStats();
  res.offHeapBytes = a.offHeapFootprint();
  if constexpr (HasValidate<Adapter>) {
    // Post-stage structural audit (workers are joined, so the walk is
    // quiescent).  The bench-smoke CI job runs with OAK_BENCH_VALIDATE=1
    // and fails the build on a non-zero count.
    if (validationEnabled()) res.validationErrors = a.validateStructure();
  }
  res.metrics = snapshotMetrics(a);
  return res;
}

/// Full experiment point: fresh adapter, 50% ingestion, sustained stage,
/// median over cfg.repeats.
template <class Adapter, class... Args>
PointResult runPoint(const BenchConfig& cfg, const Mix& mix, Args&&... adapterArgs) {
  std::vector<double> kops;
  PointResult last;
  for (std::uint32_t r = 0; r < cfg.repeats; ++r) {
    BenchConfig c = cfg;
    c.seed += r;
    try {
      Adapter a(c, std::forward<Args>(adapterArgs)...);
      double ingest = 0;
      OomKind kind = OomKind::None;
      if (!ingestStage(a, c, c.keyRange / 2, &ingest, &kind)) {
        last.oom = true;
        last.oomKind = kind;
        last.gc = a.gcStats();
        last.metrics = snapshotMetrics(a);
        return last;
      }
      last = sustainedStage(a, c, mix);
      last.ingestKops = ingest;
      last.finalSize = a.finalSize();
      kops.push_back(last.kops);
    } catch (const ManagedOutOfMemory&) {
      last.oom = true;  // not even the empty structure fits
      last.oomKind = OomKind::Managed;
      return last;
    } catch (const OffHeapOutOfMemory&) {
      last.oom = true;
      last.oomKind = OomKind::OffHeap;
      return last;
    } catch (const std::bad_alloc&) {
      last.oom = true;
      last.oomKind = OomKind::Host;
      return last;
    }
  }
  std::sort(kops.begin(), kops.end());
  last.kops = kops[kops.size() / 2];
  return last;
}

/// Ingestion-only experiment point (Figures 3a/3b/5a/5b shape).
template <class Adapter, class... Args>
PointResult runIngestPoint(const BenchConfig& cfg, Args&&... adapterArgs) {
  PointResult res;
  try {
    Adapter a(cfg, std::forward<Args>(adapterArgs)...);
    double kops = 0;
    OomKind kind = OomKind::None;
    const bool ok = ingestStage(a, cfg, cfg.keyRange, &kops, &kind);
    res.oom = !ok;
    res.oomKind = kind;
    res.ingestKops = kops;
    res.kops = kops;
    if (ok) res.finalSize = a.finalSize();
    res.gc = a.gcStats();
    res.offHeapBytes = a.offHeapFootprint();
    res.metrics = snapshotMetrics(a);
  } catch (const ManagedOutOfMemory&) {
    res.oom = true;  // not even the empty structure fits
    res.oomKind = OomKind::Managed;
  } catch (const OffHeapOutOfMemory&) {
    res.oom = true;
    res.oomKind = OomKind::OffHeap;
  } catch (const std::bad_alloc&) {
    res.oom = true;
    res.oomKind = OomKind::Host;
  }
  return res;
}

// ----------------------------------------------------------- reporting
inline void printHeader(const char* figure, const char* title) {
  std::printf("\n=== %s: %s ===\n", figure, title);
}

inline void printSeriesHeader(const char* xLabel) {
  std::printf("%-22s %12s %12s %12s %10s %12s\n", "solution", xLabel, "Kops/sec",
              "final-size", "GC-cycles", "GC-cpu-ms");
}

/// Emit one machine-readable metrics line per experiment point.  On by
/// default so every BENCH_*.json run carries the internal counters; set
/// OAK_BENCH_METRICS=0 to silence.  The "METRICS " prefix keeps the human
/// tables greppable; everything after it is one JSON object.
inline bool metricsLinesEnabled() {
  static const bool on = env::flag("OAK_BENCH_METRICS", true);
  return on;
}

inline void printMetricsLine(const char* name, double x, const PointResult& r) {
  if (!metricsLinesEnabled()) return;
  std::printf("METRICS {\"solution\":\"%s\",\"x\":%g,\"shards\":%llu,"
              "\"kops\":%.1f,\"ingest_kops\":%.1f,\"oom\":%s,\"oom_kind\":\"%s\","
              "\"final_size\":%zu,"
              "\"offheap_bytes\":%zu,\"mag_hit_rate\":%.4f,"
              "\"maint_queued\":%llu,\"maint_executed\":%llu,"
              "\"maint_inline_fallback\":%llu,\"maint_throttled_ms\":%llu,"
              "\"pending_maintenance\":%llu,"
              "\"snap_scans\":%llu,\"snap_scan_p50_ns\":%.0f,"
              "\"snap_scan_p99_ns\":%.0f,"
              "\"validation_errors\":%zu,\"metrics\":%s}\n",
              name, x, static_cast<unsigned long long>(r.metrics.shards),
              r.kops, r.ingestKops, r.oom ? "true" : "false",
              oomKindName(r.oomKind),
              r.finalSize, r.offHeapBytes, r.metrics.alloc.magHitRate(),
              static_cast<unsigned long long>(
                  r.metrics.registry.counter(obs::Counter::MaintQueued)),
              static_cast<unsigned long long>(
                  r.metrics.registry.counter(obs::Counter::MaintExecuted)),
              static_cast<unsigned long long>(
                  r.metrics.registry.counter(obs::Counter::MaintInlineFallback)),
              static_cast<unsigned long long>(r.metrics.maintThrottledMs),
              static_cast<unsigned long long>(r.metrics.maintPending),
              static_cast<unsigned long long>(r.snapScans), r.snapScanP50Ns,
              r.snapScanP99Ns,
              r.validationErrors, r.metrics.toJson().c_str());
}

inline void printRow(const char* name, double x, const PointResult& r) {
  if (r.oom) {
    std::printf("%-22s %12.0f %12s %12s %10s %12s\n", name, x, "OOM", "-", "-", "-");
    printMetricsLine(name, x, r);
    return;
  }
  std::printf("%-22s %12.0f %12.1f %12zu %10llu %12.1f\n", name, x, r.kops,
              r.finalSize,
              static_cast<unsigned long long>(r.gc.fullGcCycles + r.gc.youngGcCycles),
              static_cast<double>(r.gc.gcNanos) / 1e6);
  printMetricsLine(name, x, r);
}

}  // namespace oak::bench
