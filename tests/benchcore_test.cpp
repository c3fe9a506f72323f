// Benchmark-harness unit tests: deterministic key generation, RAM
// splitting, workload plumbing, and driver stage behaviour.  The harness is
// measurement infrastructure — bugs here silently invalidate every figure,
// so it gets its own coverage.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "benchcore/adapters.hpp"
#include "benchcore/driver.hpp"
#include "benchcore/workload.hpp"

namespace oak::bench {
namespace {

TEST(Workload, MakeKeyIsOrderPreserving) {
  ByteVec a(100), b(100);
  makeKey({a.data(), a.size()}, 41);
  makeKey({b.data(), b.size()}, 42);
  EXPECT_LT(compareBytes(asBytes(a), asBytes(b)), 0);
  EXPECT_EQ(a[50], std::byte{0x2e});  // deterministic padding
}

TEST(Workload, EnvThreadListParsing) {
  ::setenv("OAK_TEST_THREADS", "1 8 32", 1);
  const auto v = envThreadList("OAK_TEST_THREADS", {4});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[2], 32u);
  ::unsetenv("OAK_TEST_THREADS");
  EXPECT_EQ(envThreadList("OAK_TEST_THREADS", {4}).size(), 1u);
}

TEST(Workload, EnvSizeDefaulting) {
  ::unsetenv("OAK_TEST_SIZE");
  EXPECT_EQ(envSize("OAK_TEST_SIZE", 77), 77u);
  ::setenv("OAK_TEST_SIZE", "123456", 1);
  EXPECT_EQ(envSize("OAK_TEST_SIZE", 77), 123456u);
  ::unsetenv("OAK_TEST_SIZE");
}

TEST(Workload, RamSplitGivesOffHeapJustEnough) {
  BenchConfig cfg;
  cfg.keyRange = 10'000;  // ~11 MB raw
  cfg.totalRamBytes = 256u << 20;
  const RamSplit off = splitRam(cfg, true);
  EXPECT_GT(off.offHeapBytes, cfg.rawDataBytes());
  EXPECT_LT(off.offHeapBytes, cfg.rawDataBytes() * 2 + (32u << 20));
  EXPECT_EQ(off.heapBytes + off.offHeapBytes, cfg.totalRamBytes);
  const RamSplit on = splitRam(cfg, false);
  EXPECT_EQ(on.heapBytes, cfg.totalRamBytes);
  EXPECT_EQ(on.offHeapBytes, 0u);
}

TEST(Workload, RamSplitKeepsHeapFloor) {
  BenchConfig cfg;
  cfg.keyRange = 1'000'000;  // raw far exceeds the budget
  cfg.totalRamBytes = 64u << 20;
  const RamSplit s = splitRam(cfg, true);
  EXPECT_GE(s.heapBytes, cfg.totalRamBytes / 8);
}

TEST(Driver, IngestStageVisitsEveryKeyExactlyOnce) {
  // Verify the coprime-stride permutation against a real adapter.
  BenchConfig cfg;
  cfg.keyRange = 5000;
  cfg.totalRamBytes = 256u << 20;
  OakAdapter a(cfg, false);
  double kops = 0;
  ASSERT_TRUE(ingestStage(a, cfg, cfg.keyRange, &kops));
  EXPECT_EQ(a.finalSize(), cfg.keyRange);  // no duplicates, no gaps
  EXPECT_GT(kops, 0.0);
}

TEST(Driver, IngestHalfPopulatesHalf) {
  BenchConfig cfg;
  cfg.keyRange = 4000;
  cfg.totalRamBytes = 256u << 20;
  OakAdapter a(cfg, false);
  ASSERT_TRUE(ingestStage(a, cfg, cfg.keyRange / 2, nullptr));
  EXPECT_EQ(a.finalSize(), cfg.keyRange / 2);
}

TEST(Driver, SustainedStageCountsOps) {
  BenchConfig cfg;
  cfg.keyRange = 2000;
  cfg.totalRamBytes = 256u << 20;
  cfg.threads = 2;
  cfg.durationMs = 50;
  OakAdapter a(cfg, false);
  ingestStage(a, cfg, cfg.keyRange / 2, nullptr);
  Mix mix;  // get-only
  const PointResult r = sustainedStage(a, cfg, mix);
  EXPECT_GT(r.kops, 0.0);
  EXPECT_FALSE(r.oom);
}

TEST(Driver, OpBoundedStageSamplesEveryPutAfterWarmup) {
  BenchConfig cfg;
  cfg.keyRange = 2000;
  cfg.totalRamBytes = 256u << 20;
  cfg.threads = 2;
  OakAdapter a(cfg, false);
  ingestStage(a, cfg, cfg.keyRange / 2, nullptr);
  Mix mix;
  mix.putPct = 100;
  mix.opsPerThread = 500;
  const PointResult r = sustainedStage(a, cfg, mix);
  EXPECT_FALSE(r.oom);
  // The first quarter of each worker's ops is unsampled warm-up.
  EXPECT_EQ(r.put.samples, cfg.threads * (mix.opsPerThread - mix.opsPerThread / 4));
  EXPECT_GT(r.put.p50, 0.0);
  EXPECT_GE(r.put.p99, r.put.p50);
  EXPECT_EQ(r.snapScan.samples, 0u);
}

// A budget of two 8 MiB arenas per shard used to run out with half
// of it unused (one arena pinned for keys and headers).  Here 10000 pairs
// get 3x raw RAM and 2 x 10000 puts grow the map toward its full range.
TEST(Driver, SmallBudgetPointRunsWithoutOom) {
  BenchConfig cfg;
  cfg.keyRange = 10'000;
  cfg.totalRamBytes = cfg.rawDataBytes() * 3;
  Mix mix;
  mix.putPct = 100;
  mix.opsPerThread = 2 * cfg.keyRange;
  const PointResult r = runPoint<OakAdapter>(cfg, mix, false);
  EXPECT_FALSE(r.oom) << oomKindName(r.oomKind);
  EXPECT_GT(r.finalSize, cfg.keyRange * 8 / 10);
}

TEST(Adapters, OakBlockBytesShrinkOnlyForSmallBudgets) {
  BenchConfig fig4 = standardConfig();  // 100K pairs: 15 arenas of 8 MiB
  EXPECT_EQ(oakBlockBytes(fig4, splitRam(fig4, true).offHeapBytes), 8u << 20);
  BenchConfig compaction;
  compaction.blockBytes = 1u << 20;
  EXPECT_EQ(oakBlockBytes(compaction, 4u << 20), 1u << 20);  // never below 1 MiB
  BenchConfig small;
  small.shards = 2;
  EXPECT_EQ(oakBlockBytes(small, 40u << 20), 4u << 20);  // 20 MiB per shard
  EXPECT_EQ(oakBlockBytes(small, 80u << 20), 8u << 20);  // 5 arenas per shard
}

TEST(PairedAB, AlternatesWhichSideRunsFirst) {
  std::string order;
  auto rep = [&](char side) {
    return [&order, side](int) {
      order += side;
      return ExactPercentiles{1, 1.0, 1.0};
    };
  };
  pairedAB(4, rep('A'), rep('B'));
  EXPECT_EQ(order, "ABBAABBA");
}

// Per-pair ratios {3, 1, 10} have median 3; the sides' median reps (p99 2
// and 3) would give 1.5.  The gate reads the former.
TEST(PairedAB, ReportsMedianOfPerPairRatios) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{3, 2, 30};
  const PairedAB ab = pairedAB(
      3, [&](int rep) { return ExactPercentiles{10, a[rep] / 2, a[rep]}; },
      [&](int rep) { return ExactPercentiles{10, b[rep] / 2, b[rep]}; });
  EXPECT_DOUBLE_EQ(ab.ratio, 3.0);
  EXPECT_DOUBLE_EQ(ab.ratioSpread, 9.0);  // quartiles 1 and 10 at n = 3
  EXPECT_DOUBLE_EQ(ab.a.p99, 2.0);
  EXPECT_DOUBLE_EQ(ab.b.p99, 3.0);
}

TEST(Driver, OomConfigurationsReportNotCrash) {
  BenchConfig cfg;
  cfg.keyRange = 200'000;           // ~220 MB raw...
  cfg.totalRamBytes = 48u << 20;    // ...into 48 MB
  const PointResult r = runIngestPoint<OnHeapAdapter>(cfg);
  EXPECT_TRUE(r.oom);
  const PointResult r2 = runIngestPoint<OakAdapter>(cfg, false);
  EXPECT_TRUE(r2.oom);
}

TEST(Adapters, AllImplementTheSameSurface) {
  BenchConfig cfg;
  cfg.keyRange = 1000;
  cfg.totalRamBytes = 256u << 20;
  ByteVec key(cfg.keyBytes);
  ByteVec val(cfg.valueBytes, std::byte{1});
  makeKey({key.data(), key.size()}, 1);

  auto exercise = [&](auto& a) {
    Blackhole bh;
    EXPECT_TRUE(a.ingest(asBytes(key), asBytes(val)));
    EXPECT_TRUE(a.get(asBytes(key), bh));
    a.put(asBytes(key), asBytes(val));
    a.compute(asBytes(key));
    EXPECT_EQ(a.scanAsc(asBytes(key), 5, bh, false), 1u);
    EXPECT_EQ(a.scanDesc({}, 5, bh, true), 1u);
    EXPECT_EQ(a.finalSize(), 1u);
    (void)a.gcStats();
    (void)a.offHeapFootprint();
  };
  OakAdapter oak(cfg, false);
  exercise(oak);
  OakAdapter oakCopy(cfg, true);
  exercise(oakCopy);
  OnHeapAdapter onHeap(cfg);
  exercise(onHeap);
  OffHeapAdapter offHeap(cfg);
  exercise(offHeap);
}

TEST(Adapters, ComputeAddsOneToFirstWord) {
  BenchConfig cfg;
  cfg.keyRange = 10;
  cfg.totalRamBytes = 256u << 20;
  ByteVec key(cfg.keyBytes);
  ByteVec val(cfg.valueBytes, std::byte{0});
  makeKey({key.data(), key.size()}, 3);

  auto check = [&](auto& a) {
    a.ingest(asBytes(key), asBytes(val));
    for (int i = 0; i < 5; ++i) a.compute(asBytes(key));
    Blackhole bh;
    std::uint64_t first = 0;
    // Read back through the scan path (uniform across adapters).
    a.scanAsc(asBytes(key), 1, bh, false);
    (void)first;
    EXPECT_TRUE(a.get(asBytes(key), bh));
  };
  OakAdapter oak(cfg, false);
  check(oak);
  OnHeapAdapter onHeap(cfg);
  check(onHeap);
  OffHeapAdapter offHeap(cfg);
  check(offHeap);
}

}  // namespace
}  // namespace oak::bench
