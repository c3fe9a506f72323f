// ManagedHeap (JVM simulation) substrate: accounting, garbage-until-GC
// semantics, OOM behaviour, headroom, safepoints, ephemeral modelling.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_registry.hpp"
#include "mheap/managed_heap.hpp"

namespace oak::mheap {
namespace {

ManagedHeap::Config cfg(std::size_t budget) {
  ManagedHeap::Config c;
  c.budgetBytes = budget;
  return c;
}

TEST(ManagedHeap, ChargesHeaderOverhead) {
  ManagedHeap h(cfg(64u << 20));
  const auto before = h.stats().liveBytes;
  void* p = h.alloc(100);
  const auto after = h.stats().liveBytes;
  EXPECT_GE(after - before, 100u + 16u);  // payload + Java-object header
  h.free(p);
}

TEST(ManagedHeap, FreeMakesGarbageNotSpace) {
  ManagedHeap h(cfg(64u << 20));
  void* p = h.alloc(1000);
  const auto committedBefore = h.stats().committedBytes;
  h.free(p);
  // Bytes stay committed until a collection sweeps them.
  EXPECT_EQ(h.stats().committedBytes, committedBefore);
  EXPECT_LT(h.stats().liveBytes, committedBefore);
  h.collectNow();
  EXPECT_LT(h.stats().committedBytes, committedBefore);
}

TEST(ManagedHeap, OomWhenLiveSetExceedsEffectiveBudget) {
  ManagedHeap::Config c = cfg(8u << 20);
  ManagedHeap h(c);
  std::vector<void*> objs;
  bool oom = false;
  try {
    for (int i = 0; i < 10000; ++i) objs.push_back(h.alloc(4096));
  } catch (const ManagedOutOfMemory&) {
    oom = true;
  }
  EXPECT_TRUE(oom);
  // Effective capacity = budget / headroomFactor (copying-collector reserve).
  const auto expected = static_cast<std::size_t>(
      static_cast<double>(c.budgetBytes) / c.headroomFactor / (4096 + 16));
  EXPECT_GT(objs.size(), expected * 9 / 10);
  EXPECT_LT(objs.size(), expected * 11 / 10 + 16);
  EXPECT_GE(h.stats().oomThrows, 1u);
  for (void* p : objs) h.free(p);
}

TEST(ManagedHeap, OomThrowCountedExactlyOncePerFailure) {
  // Regression: the last-ditch "fullGc then retry" path used to bump
  // oomThrows on the failed first try *and* on the throw, and the raw
  // malloc-failure path threw std::bad_alloc without counting at all.
  ManagedHeap h(cfg(4u << 20));
  std::vector<void*> objs;
  try {
    for (;;) objs.push_back(h.alloc(4096));
  } catch (const ManagedOutOfMemory&) {
  }
  const auto afterFill = h.stats();
  EXPECT_EQ(afterFill.oomThrows, 1u);
  EXPECT_GE(afterFill.gcLastDitch, 1u) << "the throw must come after a full GC";

  // Each further failing allocation adds exactly one throw.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_THROW((void)h.alloc(4096), ManagedOutOfMemory);
    EXPECT_EQ(h.stats().oomThrows, 1u + i);
  }
  // A failure is not sticky: freeing restores service with no extra count.
  for (void* p : objs) h.free(p);
  h.collectNow();
  void* p = h.alloc(4096);
  EXPECT_EQ(h.stats().oomThrows, 4u);
  h.free(p);
}

TEST(ManagedHeap, GarbageIsReclaimedSoChurnRunsForever) {
  ManagedHeap h(cfg(8u << 20));
  // Allocate and free far more than the budget in total: collections must
  // recycle the garbage.
  for (int i = 0; i < 20000; ++i) {
    void* p = h.alloc(4096);
    h.free(p);
  }
  EXPECT_GT(h.stats().fullGcCycles, 0u);
  EXPECT_EQ(h.stats().oomThrows, 0u);
}

TEST(ManagedHeap, GcCostScalesWithLivePopulation) {
  ManagedHeap small(cfg(512u << 20));
  ManagedHeap big(cfg(512u << 20));
  std::vector<void*> a, b;
  for (int i = 0; i < 1000; ++i) a.push_back(small.alloc(64));
  for (int i = 0; i < 100000; ++i) b.push_back(big.alloc(64));
  small.collectNow();
  big.collectNow();
  const auto t1 = small.stats().gcNanos;
  const auto t2 = big.stats().gcNanos;
  EXPECT_GT(t2, t1);  // 100x live objects -> strictly more mark work
  for (void* p : a) small.free(p);
  for (void* p : b) big.free(p);
}

TEST(ManagedHeap, CreateDestroyTyped) {
  struct Obj {
    int x;
    explicit Obj(int v) : x(v) {}
  };
  ManagedHeap h(cfg(16u << 20));
  Obj* o = h.create<Obj>(42);
  EXPECT_EQ(o->x, 42);
  const auto live = h.stats().liveObjects;
  h.destroy(o);
  EXPECT_EQ(h.stats().liveObjects, live - 1);
}

TEST(ManagedHeap, EphemeralObjectNeverThrows) {
  ManagedHeap h(cfg(4u << 20));
  // Far more ephemeral churn than the budget; must never throw.
  for (int i = 0; i < 200000; ++i) h.ephemeralObject(48);
  EXPECT_GT(h.stats().fullGcCycles + h.stats().youngGcCycles, 0u);
}

TEST(ManagedHeap, ChargeEphemeralTriggersYoungGc) {
  ManagedHeap::Config c = cfg(64u << 20);
  c.youngGenBytes = 1u << 20;
  ManagedHeap h(c);
  for (int i = 0; i < 100000; ++i) h.chargeEphemeral(64);
  EXPECT_GT(h.stats().youngGcCycles, 0u);
}

TEST(ManagedHeap, ConcurrentAllocFreeStress) {
  ManagedHeap h(cfg(32u << 20));
  std::vector<std::thread> ts;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 6; ++t) {
    ts.emplace_back([&, t] {
      std::vector<void*> mine;
      for (int i = 0; i < 5000; ++i) {
        try {
          void* p = h.alloc(64 + (i * 13 + t) % 512);
          std::memset(p, t, 16);
          mine.push_back(p);
          if (mine.size() > 64) {
            h.free(mine.back());
            mine.pop_back();
            h.free(mine.front());
            mine.erase(mine.begin());
          }
        } catch (const ManagedOutOfMemory&) {
          failed.store(true);
        }
      }
      for (void* p : mine) h.free(p);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(failed.load());  // working set fits comfortably
}

// Per-thread allocation buffers: the shards must add up to exact totals,
// with every buffer's unused reservation kept out of committedBytes.
TEST(ManagedHeap, ThreadBuffersSumToExactTotals) {
  ManagedHeap h(cfg(64u << 20));
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  const GcStats before = h.stats();
  std::atomic<int> done{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.ephemeralObject(48);
      done.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (done.load() < kThreads) std::this_thread::yield();
  // Every worker still holds a partly used buffer here.
  const GcStats held = h.stats();
  EXPECT_EQ(held.allocations, before.allocations + kThreads * kPerThread);
  EXPECT_EQ(held.liveObjects, before.liveObjects);
  EXPECT_EQ(held.liveBytes, before.liveBytes);
  EXPECT_EQ(held.committedBytes, held.liveBytes + held.garbageBytes);
  release.store(true);
  for (auto& t : ts) t.join();
  const GcStats after = h.stats();
  EXPECT_EQ(after.allocations, before.allocations + kThreads * kPerThread);
  EXPECT_EQ(after.liveObjects, before.liveObjects);
  EXPECT_EQ(after.committedBytes, after.liveBytes + after.garbageBytes);
}

// A thread's exit hands its unused reservation and cached slots back: the
// heap's committed bytes and its whole slot registry are available again.
TEST(ManagedHeap, ExitingThreadStrandsNoBuffer) {
  // 8-byte objects exhaust the slot registry long before the byte budget,
  // so the fill count below is the number of slots the heap can hand out.
  auto fillCount = [](ManagedHeap& h) {
    std::size_t n = 0;
    try {
      for (;;) {
        (void)h.alloc(8);
        ++n;
      }
    } catch (const ManagedOutOfMemory&) {
    }
    return n;
  };
  // Register this thread first, so the worker gets an id of its own and
  // this thread cannot inherit the worker's shard when it exits.
  (void)ThreadRegistry::id();
  ManagedHeap control(cfg(8u << 20));
  ManagedHeap h(cfg(8u << 20));
  h.collectNow();
  const auto committedBefore = h.stats().committedBytes;
  std::thread([&] { h.free(h.alloc(48)); }).join();
  h.collectNow();
  EXPECT_EQ(h.stats().committedBytes, committedBefore);
  EXPECT_EQ(fillCount(h), fillCount(control));
}

// The buffers other threads hold stay a small part of the effective budget:
// the OOM point of OomWhenLiveSetExceedsEffectiveBudget keeps its bounds.
TEST(ManagedHeap, OomEdgeHoldsWhileThreadsHoldBuffers) {
  ManagedHeap::Config c = cfg(8u << 20);
  ManagedHeap h(c);
  constexpr int kThreads = 4;
  std::atomic<int> holding{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      void* p = h.alloc(48);
      holding.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      h.free(p);
    });
  }
  while (holding.load() < kThreads) std::this_thread::yield();
  std::vector<void*> objs;
  bool oom = false;
  try {
    for (int i = 0; i < 10000; ++i) objs.push_back(h.alloc(4096));
  } catch (const ManagedOutOfMemory&) {
    oom = true;
  }
  release.store(true);
  for (auto& t : ts) t.join();
  EXPECT_TRUE(oom);
  const auto expected = static_cast<std::size_t>(
      static_cast<double>(c.budgetBytes) / c.headroomFactor / (4096 + 16));
  EXPECT_GT(objs.size(), expected * 9 / 10);
  EXPECT_LT(objs.size(), expected * 11 / 10 + 16);
  for (void* p : objs) h.free(p);
}

TEST(ManagedBytes, RoundTrip) {
  ManagedHeap h(cfg(16u << 20));
  const char* s = "managed bytes payload";
  auto* mb = ManagedBytes::make(h, reinterpret_cast<const std::byte*>(s), 21);
  EXPECT_EQ(mb->size(), 21u);
  EXPECT_EQ(std::memcmp(mb->data(), s, 21), 0);
  ManagedBytes::dispose(h, mb);
}

}  // namespace
}  // namespace oak::mheap
