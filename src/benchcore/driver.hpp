// Benchmark driver: ingestion stage + sustained-rate stage (§5.1), with
// OOM-aware capacity probing for the memory experiments (Figure 3), and the
// paired A/B helper the latency-gated scenarios run their stage reps through.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <limits>
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
  ExactPercentiles snapScan{};
  /// Put latency after each worker's warm-up (op-bounded stages only, see
  /// Mix::opsPerThread), pooled over every worker.  Zero when none ran.
  ExactPercentiles put{};
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

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `body` and names the resource whose exhaustion it threw, or None
/// when it returned: the one place the harness classifies an OOM.
template <class Body>
OomKind catchOom(Body&& body) {
  try {
    body();
  } catch (const ManagedOutOfMemory&) {
    return OomKind::Managed;  // capacity exceeded: the "cap" in Figure 3
  } catch (const OffHeapOutOfMemory&) {
    return OomKind::OffHeap;
  } catch (const std::bad_alloc&) {
    return OomKind::Host;
  }
  return OomKind::None;
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
  const OomKind kind = catchOom([&] {
    std::uint64_t id = rng.nextBounded(range);
    for (std::size_t i = 0; i < count; ++i) {
      id += stride;
      if (id >= range) id -= range;
      makeKey({key.data(), key.size()}, id);
      storeUnaligned<std::uint64_t>(value.data(), id);
      a.ingest({key.data(), key.size()}, {value.data(), value.size()});
    }
  });
  if (kindOut != nullptr) *kindOut = kind;
  const double dt = nowSeconds() - t0;
  if (kopsOut != nullptr) {
    *kopsOut = kind == OomKind::None ? static_cast<double>(count) / dt / 1e3 : 0;
  }
  return kind == OomKind::None;
}

/// Sustained-rate stage: `cfg.threads` symmetric workers running `mix`,
/// for cfg.durationMs or, with mix.opsPerThread set, for exactly that many
/// ops per worker, timing every put after the first quarter of them.
template <class Adapter>
PointResult sustainedStage(Adapter& a, const BenchConfig& cfg, const Mix& mix) {
  PointResult res;
  const unsigned nThreads = cfg.threads == 0 ? 1 : cfg.threads;
  // First op index whose puts are timed; a time-bounded stage times none.
  const std::uint64_t sampleFrom = mix.opsPerThread == 0
                                       ? std::numeric_limits<std::uint64_t>::max()
                                       : mix.opsPerThread / 4;
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint8_t> oomKind{0};  // first worker's OomKind wins
  std::atomic<std::uint64_t> totalOps{0};
  // Per-worker latency samples, merged after the join (no synchronization
  // on the hot path).
  std::vector<std::vector<double>> snapNs(nThreads);
  std::vector<std::vector<double>> putNs(nThreads);

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
    if (mix.opsPerThread != 0) putNs[t].reserve(mix.opsPerThread - sampleFrom);
    Blackhole bh;
    std::uint64_t ops = 0;
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    const OomKind kind = catchOom([&] {
      for (std::uint64_t i = 0;
           (mix.opsPerThread == 0 || i < mix.opsPerThread) &&
           !stop.load(std::memory_order_acquire);
           ++i) {
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
          if (i >= sampleFrom) {
            const double p0 = nowSeconds();
            a.put(k, {value.data(), vlen});
            putNs[t].push_back((nowSeconds() - p0) * 1e9);
          } else {
            a.put(k, {value.data(), vlen});
          }
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
    });
    if (kind != OomKind::None) {
      std::uint8_t none = 0;
      oomKind.compare_exchange_strong(none, static_cast<std::uint8_t>(kind),
                                      std::memory_order_relaxed);
    }
    totalOps.fetch_add(ops, std::memory_order_relaxed);
    if (bh.acc == 0xdeadbeefcafebabeull) std::fprintf(stderr, "!");
  };

  std::vector<std::thread> threads;
  threads.reserve(nThreads);
  for (unsigned t = 0; t < nThreads; ++t) threads.emplace_back(worker, t);
  const double t0 = nowSeconds();
  start.store(true, std::memory_order_release);
  if (mix.opsPerThread == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg.durationMs));
    stop.store(true, std::memory_order_release);
  }
  for (auto& t : threads) t.join();
  const double dt = nowSeconds() - t0;

  res.kops = static_cast<double>(totalOps.load()) / dt / 1e3;
  res.snapScan = exactPercentiles(snapNs);
  res.put = exactPercentiles(putNs);
  res.oomKind = static_cast<OomKind>(oomKind.load(std::memory_order_relaxed));
  res.oom = res.oomKind != OomKind::None;
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
    bool capped = false;  // ingest ran out of memory: no sustained stage
    const OomKind built = catchOom([&] {
      Adapter a(c, std::forward<Args>(adapterArgs)...);
      double ingest = 0;
      OomKind kind = OomKind::None;
      if (!ingestStage(a, c, c.keyRange / 2, &ingest, &kind)) {
        capped = true;
        last.oom = true;
        last.oomKind = kind;
        last.gc = a.gcStats();
        last.metrics = snapshotMetrics(a);
        return;
      }
      last = sustainedStage(a, c, mix);
      last.ingestKops = ingest;
      last.finalSize = a.finalSize();
      kops.push_back(last.kops);
    });
    if (built != OomKind::None) {
      last.oom = true;  // not even the empty structure fits
      last.oomKind = built;
      return last;
    }
    if (capped) return last;
  }
  std::sort(kops.begin(), kops.end());
  last.kops = kops[kops.size() / 2];
  return last;
}

/// Ingestion-only experiment point (Figures 3a/3b/5a/5b shape).
template <class Adapter, class... Args>
PointResult runIngestPoint(const BenchConfig& cfg, Args&&... adapterArgs) {
  PointResult res;
  const OomKind built = catchOom([&] {
    Adapter a(cfg, std::forward<Args>(adapterArgs)...);
    const bool ok = ingestStage(a, cfg, cfg.keyRange, &res.kops, &res.oomKind);
    res.ingestKops = res.kops;
    if (ok) res.finalSize = a.finalSize();
    res.gc = a.gcStats();
    res.offHeapBytes = a.offHeapFootprint();
    res.metrics = snapshotMetrics(a);
  });
  if (built != OomKind::None) res.oomKind = built;  // not even the empty structure fits
  res.oom = res.oomKind != OomKind::None;
  return res;
}

/// A paired A/B measurement: each side's median-by-p99 rep, and the
/// per-pair p99 ratios (B over A) reduced to their median and spread.
struct PairedAB {
  ExactPercentiles a{};
  ExactPercentiles b{};
  double ratio = 0;        ///< median of the per-pair b.p99 / a.p99
  double ratioSpread = 0;  ///< distance between those ratios' quartiles
};

/// Runs `reps` pairs of `repA(rep)` / `repB(rep)`, each returning that rep's
/// ExactPercentiles, and alternates which side runs first so drift in host
/// load lands on both sides alike.  The gate reads the median of the
/// per-pair ratios rather than the ratio of the medians: each pair runs
/// back to back, so a load shift cancels within the pair instead of skewing
/// one side's whole median.
template <class RepA, class RepB>
PairedAB pairedAB(int reps, RepA&& repA, RepB&& repB) {
  std::vector<ExactPercentiles> as, bs;
  std::vector<double> ratios;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep % 2 == 0) {
      as.push_back(repA(rep));
      bs.push_back(repB(rep));
    } else {
      bs.push_back(repB(rep));
      as.push_back(repA(rep));
    }
    if (as.back().p99 > 0) ratios.push_back(bs.back().p99 / as.back().p99);
  }
  PairedAB out;
  if (as.empty()) return out;
  auto medianByP99 = [](std::vector<ExactPercentiles>& v) {
    std::sort(v.begin(), v.end(), [](const ExactPercentiles& x, const ExactPercentiles& y) {
      return x.p99 < y.p99;
    });
    return v[v.size() / 2];
  };
  out.a = medianByP99(as);
  out.b = medianByP99(bs);
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    const std::size_t n = ratios.size();
    out.ratio = ratios[n / 2];
    out.ratioSpread = ratios[3 * n / 4] - ratios[n / 4];
  }
  return out;
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
              static_cast<unsigned long long>(r.snapScan.samples), r.snapScan.p50,
              r.snapScan.p99,
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
