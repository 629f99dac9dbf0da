// One-shot countdown latch + drain guard for the overlapped I/O of the
// exec-layer verification pipeline (C++17 has no std::latch).
//
// WaitHelping is the cooperative variant used whenever the waiter may itself
// be a pool task (service workers dispatched onto a shared pool, prefetch
// tasks awaiting nested loads): instead of blocking outright, it drains
// queued tasks of the pool whose tasks the latch counts, so the wait can
// never deadlock a pool against itself.

#ifndef MASKSEARCH_COMMON_LATCH_H_
#define MASKSEARCH_COMMON_LATCH_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "masksearch/common/thread_pool.h"

namespace masksearch {

/// \brief Counts down from `count` to zero exactly once; Wait blocks until
/// zero. Thread-safe; the final CountDown happens-before any Wait return.
class Latch {
 public:
  explicit Latch(size_t count) : remaining_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return remaining_ == 0; });
  }

  /// \brief True iff the count has already reached zero (never blocks).
  bool TryWait() {
    std::lock_guard<std::mutex> lock(mu_);
    return remaining_ == 0;
  }

  /// \brief Waits up to `timeout`; returns true iff the count reached zero.
  template <class Rep, class Period>
  bool WaitFor(const std::chrono::duration<Rep, Period>& timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
};

/// \brief Waits for `latch`, running queued tasks of `pool` on the calling
/// thread while the count is non-zero. Equivalent to latch->Wait() with a
/// null pool. Safe to call from a thread that is itself a `pool` task: the
/// tasks the latch counts are either already running on other workers (their
/// CountDown wakes the timed wait immediately) or still queued (the caller
/// drains them itself), so the pool can never deadlock against the wait.
///
/// Helping is recursive — a helped task may itself WaitHelping — so nesting
/// depth is bounded (a helped task can be arbitrarily large, e.g. a whole
/// query dispatched onto the pool; unbounded recursion would be a stack
/// overflow). Past the bound the thread falls back to polling waits and
/// relies on other workers for progress; callers should therefore dispatch
/// only bounded numbers of heavyweight tasks onto pools they also await
/// (the QueryService uses dedicated worker threads for exactly this
/// reason — see docs/SERVING.md).
inline void WaitHelping(Latch* latch, ThreadPool* pool) {
  if (pool == nullptr) {
    latch->Wait();
    return;
  }
  constexpr int kMaxHelpingDepth = 64;
  static thread_local int helping_depth = 0;
  while (!latch->TryWait()) {
    bool ran = false;
    if (helping_depth < kMaxHelpingDepth) {
      ++helping_depth;
      ran = pool->TryRunOneTask();
      --helping_depth;
    }
    if (!ran) {
      // Queue momentarily empty (or depth-capped): the counted tasks are in
      // flight elsewhere. Block on the latch, but re-poll the queue
      // periodically in case new helpable work (e.g. a nested load) is
      // submitted meanwhile.
      if (latch->WaitFor(std::chrono::microseconds(200))) return;
    }
  }
}

/// \brief Waits on every registered latch at scope exit. The verification
/// pipeline registers one latch per batch of launched loads; draining them before any
/// return path keeps the loads' captured locals alive even on error exits.
/// With a pool configured (the pool the counted tasks were submitted to),
/// the drain helps run queued tasks — required when the destructor may run
/// on a thread that is itself a task of that pool.
class LatchDrainGuard {
 public:
  LatchDrainGuard() = default;
  explicit LatchDrainGuard(ThreadPool* pool) : pool_(pool) {}
  ~LatchDrainGuard() {
    for (auto& latch : latches_) WaitHelping(latch.get(), pool_);
  }
  LatchDrainGuard(const LatchDrainGuard&) = delete;
  LatchDrainGuard& operator=(const LatchDrainGuard&) = delete;

  /// \brief Registers a latch to drain; returns it for convenience.
  const std::shared_ptr<Latch>& Add(std::shared_ptr<Latch> latch) {
    latches_.push_back(std::move(latch));
    return latches_.back();
  }

 private:
  std::vector<std::shared_ptr<Latch>> latches_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace masksearch

#endif  // MASKSEARCH_COMMON_LATCH_H_
