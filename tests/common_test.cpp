// Common-substrate tests: PRNG determinism/uniformity, spin primitives,
// thread-registry id recycling (the chunk publish array and EBR slots
// depend on dense, stable, recycled ids), and the tests' own worker-thread
// helper.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/spin.hpp"
#include "common/thread_registry.hpp"
#include "worker_threads.hpp"

namespace oak {
namespace {

TEST(XorShiftTest, DeterministicPerSeed) {
  XorShift a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
    (void)c.next();
  }
  XorShift a2(42), c2(43);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(XorShiftTest, BoundedStaysInBounds) {
  XorShift rng(7);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_LT(rng.nextBounded(17), 17u);
  }
}

TEST(XorShiftTest, RoughlyUniform) {
  XorShift rng(11);
  constexpr int kBuckets = 16, kDraws = 160000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.nextBounded(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, kDraws / kBuckets / 5) << b;
  }
}

TEST(XorShiftTest, DoubleInUnitInterval) {
  XorShift rng(3);
  double lo = 1, hi = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.nextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, 0.05);
  EXPECT_GT(hi, 0.95);
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  std::uint64_t counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        SpinGuard lk(lock);
        ++counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 8u * 20000u);
}

// The deliberately unbalanced acquire/release sequence is the point of the
// test; exempt it from -Wthread-safety rather than contort it.
void tryLockProbe() OAK_NO_THREAD_SAFETY_ANALYSIS {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SpinLockTest, TryLock) { tryLockProbe(); }

TEST(ThreadRegistryTest, StableWithinThread) {
  const auto id1 = ThreadRegistry::id();
  const auto id2 = ThreadRegistry::id();
  EXPECT_EQ(id1, id2);
  EXPECT_LT(id1, kMaxThreads);
}

TEST(ThreadRegistryTest, DistinctAcrossLiveThreads) {
  constexpr int kThreads = 16;
  std::vector<std::uint32_t> ids(kThreads);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ids[t] = ThreadRegistry::id();
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();  // keep the slot held
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& t : ts) t.join();
  std::set<std::uint32_t> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), static_cast<std::size_t>(kThreads));
}

TEST(ThreadRegistryTest, SlotsAreRecycledAfterExit) {
  // Far more sequential threads than kMaxThreads: ids must be reused.
  for (std::uint32_t i = 0; i < kMaxThreads + 64; ++i) {
    std::thread([] { (void)ThreadRegistry::id(); }).join();
  }
  // If recycling were broken, the registration above would have aborted.
  EXPECT_LE(ThreadRegistry::highWater(), kMaxThreads);
}

TEST(BackoffTest, EventuallyYields) {
  // Smoke: pausing many times must not hang or crash.
  Backoff b;
  for (int i = 0; i < 100; ++i) b.pause();
  b.reset();
  b.pause();
  SUCCEED();
}

// An exception escaping a worker becomes one test failure naming its type
// and what(), where a bare std::thread would std::terminate the binary.
TEST(WorkerThreadsTest, EscapedExceptionBecomesTestFailure) {
  EXPECT_NONFATAL_FAILURE(
      {
        test::WorkerThreads workers;
        workers.spawn([] {});
        workers.spawn([] { throw OffHeapOutOfMemory(); });
        workers.spawn([&] {
          while (!workers.stopping()) std::this_thread::yield();
        });
        if (workers.join()) ADD_FAILURE() << "join() missed the exception";
      },
      "worker thread threw oak::OffHeapOutOfMemory: oak: off-heap pool out of memory");
}

}  // namespace
}  // namespace oak
