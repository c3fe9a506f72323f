// Figure 3a: single-threaded ingestion throughput under a FIXED RAM budget
// as the dataset grows (§5.2 "Memory efficiency").
//
// Paper (128 GB RAM): SkipList-OnHeap caps at 40M pairs, SkipList-OffHeap
// at 60M, Oak at 100M; Oak is fastest throughout and degrades most slowly.
// Scaled here ~1000x: fixed budget (default 384 MiB, OAK_BENCH_FIG3_RAM_MB)
// and datasets 12.5K..300K pairs.  "OOM" rows are the capacity caps.
#include <cstdio>
#include <string>
#include <vector>

#include "benchcore/adapters.hpp"
#include "benchcore/driver.hpp"

using namespace oak::bench;

int main() {
  const std::size_t ramMb = envSize("OAK_BENCH_FIG3_RAM_MB", 384);
  std::vector<std::size_t> sizes{12'500, 25'000, 50'000, 100'000, 150'000, 200'000,
                                 225'000, 250'000, 275'000, 300'000, 325'000};
  if (const char* s = oak::env::raw("OAK_BENCH_FIG3_SIZES")) {
    sizes.clear();
    for (const std::string& tok : splitList(s)) sizes.push_back(std::stoull(tok));
  }

  printHeader("Figure 3a", "ingestion throughput, fixed RAM, growing dataset");
  std::printf("RAM budget: %zu MiB, single thread; raw pair = 100B key + 1KB value\n",
              ramMb);
  printSeriesHeader("raw-MB");

  for (int alg = 0; alg < 3; ++alg) {
    for (std::size_t n : sizes) {
      BenchConfig cfg;
      cfg.keyRange = n;
      cfg.totalRamBytes = ramMb << 20;
      cfg.seed = 1;
      const double rawMb =
          static_cast<double>(cfg.rawDataBytes()) / (1 << 20);
      PointResult r;
      const char* name;
      switch (alg) {
        case 0:
          name = "Oak";
          r = runIngestPoint<OakAdapter>(cfg, false);
          break;
        case 1:
          name = "SkipList-OnHeap";
          r = runIngestPoint<OnHeapAdapter>(cfg);
          break;
        default:
          name = "SkipList-OffHeap";
          r = runIngestPoint<OffHeapAdapter>(cfg);
          break;
      }
      printRow(name, rawMb, r);
      std::fflush(stdout);
    }
  }
  return 0;
}
