// Execution options shared by all executors.

#ifndef MASKSEARCH_EXEC_OPTIONS_H_
#define MASKSEARCH_EXEC_OPTIONS_H_

#include <atomic>
#include <chrono>

#include "masksearch/common/status.h"
#include "masksearch/common/thread_pool.h"

namespace masksearch {

/// \brief Per-request cancellation + deadline state (docs/SERVING.md).
///
/// Executors poll Check() at batch boundaries — between batches of the
/// verification pipeline, which every executor (filter, top-k, scalar
/// aggregation, mask-agg) runs through — and abort with a typed
/// DeadlineExceeded / Cancelled status. Polling at batch granularity keeps
/// the hot per-pixel loops branch-free: a request overruns its deadline by
/// at most one batch of work. One QueryControl belongs to one request; it
/// may be Cancel()ed from any thread while the request executes.
struct QueryControl {
  /// Absolute expiry; time_point::max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  std::atomic<bool> cancelled{false};

  void Cancel() { cancelled.store(true, std::memory_order_relaxed); }

  bool HasDeadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }

  Status Check() const {
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    if (HasDeadline() && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

/// \brief Check() of an optional control; OK when `control` is null.
inline Status CheckControl(const QueryControl* control) {
  return control == nullptr ? Status::OK() : control->Check();
}

/// \brief Knobs of the executors. The CHIs they prune with are not a knob:
/// each executor takes the session's ChiSource (index/chi_source.h), and a
/// null source runs the baselines' load-and-scan through the same code.
struct EngineOptions {
  /// Thread pool for the parallel filter stage (§3.2.1); null = inline.
  ThreadPool* pool = nullptr;

  /// Top-k processing order: when true, masks are processed in decreasing
  /// upper-bound order (increasing lower bound for ASC queries), which
  /// tightens the running threshold faster than the paper's sequential
  /// order. The ablation bench quantifies the difference.
  bool sort_by_bound = true;

  /// Verification batch size: the undecided masks (filter, top-k) or groups
  /// (scalar aggregation, mask-agg) are loaded and verified in batches of
  /// this many, and QueryControl is polled between batches. 0 = auto:
  /// filter max(64, 4 × pool threads); top-k io_pool threads, or 1 (the
  /// exact serial schedule) without io_pool; aggregations 2 × pool
  /// threads, or 1 without a pool. With io_pool a filter batch loads as
  /// min(batch, io_pool threads) contiguous units, top-k as one unit per
  /// mask, each its own io_pool task. Results do not depend on it; a top-k
  /// (masks or groups) may verify a few extra with larger batches, because
  /// pruning uses the heap as of batch formation.
  size_t verify_batch = 0;

  /// I/O pool of the verification pipeline: while one batch is verified on
  /// `pool`, the next batch's loads are in flight here (double buffering).
  /// Null = every batch loads when it is verified. May alias `pool`;
  /// ParallelFor's caller participation keeps nested use deadlock-free.
  ThreadPool* io_pool = nullptr;

  /// Per-request deadline / cancellation state, polled at batch boundaries
  /// (see QueryControl). Null = the request can neither expire nor be
  /// cancelled. Owned by the caller (the service layer's request state);
  /// must outlive the executor call.
  const QueryControl* control = nullptr;
};

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_OPTIONS_H_
