// Router: health-checked, shard-affine routing with failover
// (docs/REPLICATION.md).
//
// Requests land on replicas by consistent hashing: each replica owns
// `virtual_nodes` points on a 64-bit ring, and a request's RoutedRequest::Key()
// picks the first healthy point clockwise. Repeated queries over the same
// statement or selection therefore keep hitting the replica whose caches are
// warm for them, and membership changes move only ~1/N of the key space.
//
// Health is a per-replica state machine driven from two sides:
//
//   * passively — a retryable failure (kUnavailable, kIOError, or a
//     kCancelled from a dead replica) counts against the replica;
//     `failure_threshold` consecutive failures mark it kUnhealthy and take
//     it off the ring;
//   * actively — a background prober Ping()s every replica each
//     `probe_interval`. An unhealthy replica is probed in kHalfOpen: one
//     successful trial restores it to kHealthy (and the ring), a failed one
//     sends it back to kUnhealthy.
//
// Failover: when the routed replica fails retryably, the router retries the
// surviving replicas under a per-request budget (`max_attempts`), sleeping a
// deterministic jittered exponential backoff between attempts (jitter is
// hashed from key × attempt — no shared RNG, reproducible runs). Non-retryable
// statuses (bad query, deadline, client cancel) surface immediately. When the
// budget or the membership runs out the request is shed with a typed
// kUnavailable — the router never hangs and never fabricates bytes.
//
// Submit() is the non-blocking form the network server uses: a small worker
// pool runs the same failover loop and completes a PendingQuery handle, so
// the server's poll thread is never parked on a retry backoff.

#ifndef MASKSEARCH_REPLICA_ROUTER_H_
#define MASKSEARCH_REPLICA_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "masksearch/catalog/catalog.h"
#include "masksearch/replica/fault_injector.h"
#include "masksearch/replica/replica_group.h"
#include "masksearch/service/query_service.h"

namespace masksearch {

enum class ReplicaHealth : uint8_t { kHealthy, kUnhealthy, kHalfOpen };

const char* ToString(ReplicaHealth health);

struct RouterOptions {
  /// Ring points per replica. More points smooth the key-space split at the
  /// cost of a larger ring; 64 keeps the imbalance under a few percent.
  int virtual_nodes = 64;
  /// Consecutive failures (passive or probe) before a replica is marked
  /// kUnhealthy and leaves the ring. Clamped to >= 1.
  int failure_threshold = 3;
  /// Active health-check cadence. The prober also performs the half-open
  /// recovery trials, so this bounds the detection AND recovery latency.
  double probe_interval_seconds = 0.05;
  /// Per-request retry budget: total attempts across all replicas (first
  /// try included). Clamped to >= 1.
  int max_attempts = 3;
  /// Jittered exponential backoff between attempts: attempt k sleeps
  /// base * 2^(k-1), capped at max, scaled by a deterministic jitter in
  /// [0.5, 1.0) derived from the routing key and attempt number.
  double backoff_base_seconds = 0.001;
  double backoff_max_seconds = 0.100;
  /// Worker threads behind the async Submit() path.
  size_t num_workers = 4;
  /// Bound on queued Submit()s; past it requests shed typed kUnavailable.
  size_t max_queue_depth = 1024;
  /// Optional scripted-fault hook (caller-owned, must outlive the router).
  FaultInjector* fault_injector = nullptr;
};

struct RouterReplicaStats {
  std::string name;
  ReplicaHealth health = ReplicaHealth::kHealthy;
  uint64_t routed = 0;       ///< attempts sent to this replica
  uint64_t failed = 0;       ///< attempts that failed retryably
  uint64_t transitions = 0;  ///< health-state changes (either direction)
};

struct RouterStats {
  uint64_t routed = 0;     ///< requests entering the failover loop
  uint64_t succeeded = 0;  ///< requests that returned bytes
  uint64_t retries = 0;    ///< extra attempts past the first
  uint64_t failovers = 0;  ///< attempts that moved to a different replica
  uint64_t shed = 0;       ///< requests that exhausted budget or membership
  uint64_t injected = 0;   ///< failures supplied by the FaultInjector
  std::vector<RouterReplicaStats> replicas;
};

class Router {
 public:
  /// \brief Starts the prober and the Submit worker pool. `group` is
  /// caller-owned and must outlive the router; membership changes are picked
  /// up automatically (the ring rebuilds when the group's version moves).
  Router(ReplicaGroup* group, RouterOptions options = {});
  ~Router();

  /// \brief Routes and runs one request with failover (blocking). Typed
  /// kUnavailable when shed; otherwise the first non-retryable status or
  /// the successful response.
  Result<QueryResponse> Execute(const RoutedRequest& request);

  /// \brief Non-blocking form: queues the request for the worker pool and
  /// returns a PendingQuery handle that completes with Execute()'s result.
  /// Sheds typed kUnavailable when the router queue is full or stopped.
  Result<std::shared_ptr<PendingQuery>> Submit(RoutedRequest request);

  /// \brief Stops the prober and workers; queued submits fail kCancelled.
  /// Replicas themselves keep running (the group owns their lifecycle).
  void Shutdown();

  RouterStats Stats() const;

  const RouterOptions& options() const { return options_; }

 private:
  struct Member {
    std::shared_ptr<Replica> replica;
    ReplicaHealth health = ReplicaHealth::kHealthy;
    int consecutive_failures = 0;
    uint64_t routed = 0;
    uint64_t failed = 0;
    uint64_t transitions = 0;
  };
  struct RingPoint {
    uint64_t hash;
    size_t member;  ///< index into members_
  };
  struct Job {
    RoutedRequest request;
    std::shared_ptr<PendingQuery> pending;
  };

  /// Re-snapshots membership / rebuilds the ring when stale (mu_ held).
  void RefreshLocked();
  /// Picks the first on-ring replica for `key`, skipping `tried` names.
  /// Null when no eligible replica remains (mu_ held for member access).
  std::shared_ptr<Replica> PickLocked(uint64_t key,
                                      const std::vector<std::string>& tried,
                                      size_t* member_index);
  /// Moves `m` to `health`, counting the transition (mu_ held).
  void SetHealthLocked(Member* m, ReplicaHealth health);
  void RecordSuccess(size_t member_index);
  void RecordFailure(size_t member_index);
  void ProbeLoop();
  void WorkerLoop();

  ReplicaGroup* group_;
  RouterOptions options_;

  mutable std::mutex mu_;
  std::vector<Member> members_;
  std::vector<RingPoint> ring_;   ///< sorted by hash; healthy members only
  uint64_t group_version_ = 0;    ///< membership version the ring reflects
  bool ring_dirty_ = true;        ///< health changed since the last build
  uint64_t routed_ = 0;
  uint64_t succeeded_ = 0;
  uint64_t retries_ = 0;
  uint64_t failovers_ = 0;
  uint64_t shed_ = 0;
  uint64_t injected_ = 0;
  /// Health-state changes of every replica the router has tracked (the
  /// per-member counts go with a member that leaves the group).
  uint64_t transitions_ = 0;
  size_t metrics_collector_ = 0;  ///< emits ms_replica_* (under mu_)

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stop_ = false;

  std::thread prober_;
  std::vector<std::thread> workers_;
};

/// \brief Installs `router` as `dataset`'s submission path: every wire
/// query the network server hands the dataset is then routed across the
/// replica group with health checks and failover. Both pointers are
/// caller-owned; the router must outlive serving. Call before serving
/// starts (Dataset::set_submitter is not guarded against live traffic).
void AttachRouter(Dataset* dataset, Router* router);

}  // namespace masksearch

#endif  // MASKSEARCH_REPLICA_ROUTER_H_
