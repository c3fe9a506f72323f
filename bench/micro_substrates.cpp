// Micro-benchmarks (google-benchmark) for every substrate: the costs the
// figure-level benchmarks are built from.  Useful for regression tracking
// and for attributing end-to-end differences to components.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#include "baselines/onheap_skiplist_map.hpp"
#include "common/random.hpp"
#include "mem/memory_manager.hpp"
#include "mheap/managed_heap.hpp"
#include "oak/core_map.hpp"
#include "skiplist/skiplist.hpp"
#include "sync/ebr.hpp"
#include "sync/word_rwlock.hpp"

namespace {

using namespace oak;

// ------------------------------------------------------------- mem
void BM_AllocFree(benchmark::State& state) {
  mem::BlockPool pool({.blockBytes = 8u << 20, .budgetBytes = SIZE_MAX});
  mem::FirstFitAllocator alloc(pool);
  const auto len = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    mem::Ref r = alloc.alloc(len);
    benchmark::DoNotOptimize(r);
    alloc.free(r);
  }
}
BENCHMARK(BM_AllocFree)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AllocBumpOnly(benchmark::State& state) {
  mem::BlockPool pool({.blockBytes = 8u << 20, .budgetBytes = SIZE_MAX});
  std::optional<mem::FirstFitAllocator> alloc;
  alloc.emplace(pool);
  std::size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc->alloc(64));
    if (++n == 100000) {  // reset before exhausting the pool address space
      state.PauseTiming();
      alloc.emplace(pool);
      n = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_AllocBumpOnly);

// ------------------------------------------------------------- mheap
void BM_ManagedAllocFree(benchmark::State& state) {
  mheap::ManagedHeap heap({.budgetBytes = 1u << 30});
  for (auto _ : state) {
    void* p = heap.alloc(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(p);
    heap.free(p);
  }
}
BENCHMARK(BM_ManagedAllocFree)->Arg(48)->Arg(1024);

// One heap shared by every thread, as a map's meta heap is shared by its
// clients: the 4-thread run shows any contention in the view charge.
void BM_EphemeralObject(benchmark::State& state) {
  static mheap::ManagedHeap heap({.budgetBytes = 1u << 30});
  for (auto _ : state) heap.ephemeralObject(48);
}
BENCHMARK(BM_EphemeralObject)->Threads(1)->Threads(4);

// ------------------------------------------------------------- sync
void BM_RwLockRead(benchmark::State& state) {
  static sync::WordRwLock lock;
  for (auto _ : state) {
    lock.acquireRead();
    lock.releaseRead();
  }
}
BENCHMARK(BM_RwLockRead)->Threads(1)->Threads(4);

void BM_RwLockWrite(benchmark::State& state) {
  static sync::WordRwLock lock;
  for (auto _ : state) {
    lock.acquireWrite();
    lock.releaseWrite();
  }
}
BENCHMARK(BM_RwLockWrite)->Threads(1)->Threads(4);

void BM_EbrGuard(benchmark::State& state) {
  static sync::Ebr ebr;
  for (auto _ : state) {
    sync::Ebr::Guard g(ebr);
    benchmark::DoNotOptimize(&g);
  }
}
BENCHMARK(BM_EbrGuard)->Threads(1)->Threads(4);

// ------------------------------------------------------------- skiplist
struct U64Cmp {
  int operator()(const std::uint64_t& a, const std::uint64_t& b) const noexcept {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
};

void BM_SkipListGet(benchmark::State& state) {
  static sl::SkipList<std::uint64_t, std::uint64_t*, U64Cmp>* list = [] {
    auto* l = new sl::SkipList<std::uint64_t, std::uint64_t*, U64Cmp>();
    static std::uint64_t sink = 7;
    for (std::uint64_t i = 0; i < 100000; ++i) l->put(i, &sink);
    return l;
  }();
  XorShift rng(state.thread_index() + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list->get(rng.nextBounded(100000)));
  }
}
BENCHMARK(BM_SkipListGet)->Threads(1)->Threads(4);

// ------------------------------------------------------------- oak core
OakCoreMap<>& prefilledOak() {
  static OakCoreMap<>* map = [] {
    auto* m = new OakCoreMap<>();
    std::byte key[100];
    std::byte val[1024] = {};
    for (std::uint64_t i = 0; i < 100000; ++i) {
      storeU64BE(key, i);
      for (int j = 8; j < 100; ++j) key[j] = std::byte{0x2e};
      m->putIfAbsent({key, 100}, {val, 1024});
    }
    return m;
  }();
  return *map;
}

void BM_OakGet(benchmark::State& state) {
  auto& map = prefilledOak();
  XorShift rng(state.thread_index() + 7);
  std::byte key[100];
  for (int j = 8; j < 100; ++j) key[j] = std::byte{0x2e};
  for (auto _ : state) {
    storeU64BE(key, rng.nextBounded(100000));
    benchmark::DoNotOptimize(map.containsKey({key, 100}));
  }
}
BENCHMARK(BM_OakGet)->Threads(1)->Threads(4);

void BM_OakComputeIfPresent(benchmark::State& state) {
  auto& map = prefilledOak();
  XorShift rng(state.thread_index() + 11);
  std::byte key[100];
  for (int j = 8; j < 100; ++j) key[j] = std::byte{0x2e};
  for (auto _ : state) {
    storeU64BE(key, rng.nextBounded(100000));
    map.computeIfPresent({key, 100},
                         [](OakWBuffer& w) { w.putU64(0, w.getU64(0) + 1); });
  }
}
BENCHMARK(BM_OakComputeIfPresent)->Threads(1)->Threads(4);

void BM_OakAscendStream(benchmark::State& state) {
  auto& map = prefilledOak();
  XorShift rng(3);
  std::byte key[100];
  for (int j = 8; j < 100; ++j) key[j] = std::byte{0x2e};
  for (auto _ : state) {
    storeU64BE(key, rng.nextBounded(90000));
    std::size_t n = 0;
    for (auto it = map.ascend(toVec(ByteSpan{key, 100}), std::nullopt, ScanOptions::streaming());
         it.valid() && n < 100; it.next()) {
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_OakAscendStream);

// GCC 12 std::optional maybe-uninitialized false positive in the inlined
// iterator construction (same note as oak/core_map.hpp).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
void BM_OakDescendStream(benchmark::State& state) {
  auto& map = prefilledOak();
  XorShift rng(5);
  std::byte key[100];
  for (int j = 8; j < 100; ++j) key[j] = std::byte{0x2e};
  for (auto _ : state) {
    storeU64BE(key, 10000 + rng.nextBounded(90000));
    std::size_t n = 0;
    std::optional<ByteVec> hi = toVec(ByteSpan{key, 100});
    for (auto it = map.descend(std::nullopt, std::move(hi), ScanOptions::descending(true));
         it.valid() && n < 100; it.next()) {
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_OakDescendStream);
#pragma GCC diagnostic pop

// ------------------------------------------------------------- bytes
void BM_CompareKeys100B(benchmark::State& state) {
  std::byte a[100], b[100];
  for (int i = 0; i < 100; ++i) a[i] = b[i] = std::byte(i);
  b[99] = std::byte{0xff};
  for (auto _ : state) {
    benchmark::DoNotOptimize(compareBytes({a, 100}, {b, 100}));
  }
}
BENCHMARK(BM_CompareKeys100B);

}  // namespace

BENCHMARK_MAIN();
