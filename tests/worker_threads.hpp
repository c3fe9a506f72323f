// Worker threads for concurrency tests.  An exception that escapes a worker
// body would reach std::terminate and abort the whole test binary, hiding
// which test failed and why.  WorkerThreads runs every body inside a
// try/catch instead, and join() turns the first escaped exception into a
// gtest failure that names its type and what().
#pragma once

#include <gtest/gtest.h>

#include <cxxabi.h>

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

namespace oak::test {

class WorkerThreads {
 public:
  WorkerThreads() = default;
  WorkerThreads(const WorkerThreads&) = delete;
  WorkerThreads& operator=(const WorkerThreads&) = delete;
  /// Joins on every exit path, so a failed ASSERT in the test body never
  /// destroys a joinable std::thread.
  ~WorkerThreads() { join(); }

  /// Starts `body` on a new thread; an exception it throws is caught and
  /// kept for join() to report.
  template <class Body>
  void spawn(Body body) {
    threads_.emplace_back([this, body = std::move(body)]() mutable {
      try {
        body();
      } catch (const std::exception& e) {
        record(typeName(typeid(e)) + ": " + e.what());
      } catch (...) {
        record("an exception not derived from std::exception");
      }
    });
  }

  /// True once join() has begun: bodies that loop until the test is done
  /// poll this as their exit condition.
  bool stopping() const noexcept { return stop_.load(std::memory_order_acquire); }

  /// Tells looping bodies to stop, joins every worker, and reports the first
  /// escaped exception as a gtest failure (once).  Returns false when a
  /// worker threw.
  bool join() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_) t.join();
    threads_.clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (!firstError_.empty() && !reported_) {
      reported_ = true;
      ADD_FAILURE() << "worker thread threw " << firstError_;
    }
    return firstError_.empty();
  }

 private:
  static std::string typeName(const std::type_info& t) {
    int status = 0;
    const std::unique_ptr<char, void (*)(void*)> name(
        abi::__cxa_demangle(t.name(), nullptr, nullptr, &status), std::free);
    return status == 0 && name != nullptr ? name.get() : t.name();
  }

  void record(std::string what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (firstError_.empty()) firstError_ = std::move(what);
  }

  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::string firstError_;  // guarded by mu_
  bool reported_ = false;   // guarded by mu_
  std::vector<std::thread> threads_;  // after everything the workers use
};

}  // namespace oak::test
