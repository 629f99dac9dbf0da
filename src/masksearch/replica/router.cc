#include "masksearch/replica/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "masksearch/obs/metrics.h"

namespace masksearch {

namespace {

uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 0xcbf29ce484222325ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t RingHash(const std::string& name, int vnode) {
  uint64_t h = Fnv1a(name.data(), name.size());
  h = Fnv1a(&vnode, sizeof(vnode), h);
  return h;
}

/// Finalizer (splitmix64-style) used for deterministic backoff jitter.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A status worth trying on another replica: a shed/dead peer, a broken
/// transport, or a queued request the replica cancelled while dying.
/// Deadline expiry, client cancels on a live replica, and semantic errors
/// are the caller's — retrying elsewhere would not change them.
bool Retryable(const Status& status, const Replica& replica) {
  if (status.IsUnavailable() || status.IsIOError()) return true;
  if (status.IsCancelled() && !replica.alive()) return true;
  return false;
}

}  // namespace

const char* ToString(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kUnhealthy:
      return "unhealthy";
    case ReplicaHealth::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

Router::Router(ReplicaGroup* group, RouterOptions options)
    : group_(group), options_(options) {
  options_.virtual_nodes = std::max(1, options_.virtual_nodes);
  options_.failure_threshold = std::max(1, options_.failure_threshold);
  options_.max_attempts = std::max(1, options_.max_attempts);
  options_.num_workers = std::max<size_t>(1, options_.num_workers);
  metrics_collector_ = obs::MetricsRegistry::Default().AddCollector(
      [this](obs::MetricSink& sink) {
        std::lock_guard<std::mutex> lock(mu_);
        sink.Counter("ms_replica_routed_total", routed_);
        sink.Counter("ms_replica_succeeded_total", succeeded_);
        sink.Counter("ms_replica_retries_total", retries_);
        sink.Counter("ms_replica_failovers_total", failovers_);
        sink.Counter("ms_replica_shed_total", shed_);
        sink.Counter("ms_replica_faults_injected_total", injected_);
        sink.Counter("ms_replica_health_transitions_total", transitions_);
      });
  prober_ = std::thread([this] { ProbeLoop(); });
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Router::~Router() {
  Shutdown();
  obs::MetricsRegistry::Default().RemoveCollector(metrics_collector_);
}

void Router::RefreshLocked() {
  const uint64_t version = group_->version();
  if (version != group_version_) {
    // Membership moved: re-snapshot, carrying health state across by name so
    // an unhealthy replica does not sneak back onto the ring via a rebuild.
    std::vector<Member> fresh;
    for (auto& replica : group_->Snapshot()) {
      Member m;
      for (const Member& old : members_) {
        if (old.replica->name() == replica->name()) {
          m = old;
          break;
        }
      }
      m.replica = std::move(replica);
      fresh.push_back(std::move(m));
    }
    members_ = std::move(fresh);
    group_version_ = version;
    ring_dirty_ = true;
  }
  if (!ring_dirty_) return;
  ring_.clear();
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].health != ReplicaHealth::kHealthy) continue;
    for (int v = 0; v < options_.virtual_nodes; ++v) {
      ring_.push_back(RingPoint{RingHash(members_[i].replica->name(), v), i});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const RingPoint& a, const RingPoint& b) {
              return a.hash < b.hash || (a.hash == b.hash && a.member < b.member);
            });
  ring_dirty_ = false;
}

std::shared_ptr<Replica> Router::PickLocked(
    uint64_t key, const std::vector<std::string>& tried, size_t* member_index) {
  if (ring_.empty()) return nullptr;
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const RingPoint& p, uint64_t k) { return p.hash < k; });
  for (size_t walked = 0; walked < ring_.size(); ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const Member& m = members_[it->member];
    const std::string& name = m.replica->name();
    if (std::find(tried.begin(), tried.end(), name) != tried.end()) continue;
    *member_index = it->member;
    return m.replica;
  }
  return nullptr;
}

void Router::SetHealthLocked(Member* m, ReplicaHealth health) {
  m->health = health;
  ++m->transitions;
  ++transitions_;
}

void Router::RecordSuccess(size_t member_index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (member_index >= members_.size()) return;
  Member& m = members_[member_index];
  m.consecutive_failures = 0;
  if (m.health != ReplicaHealth::kHealthy) {
    SetHealthLocked(&m, ReplicaHealth::kHealthy);
    ring_dirty_ = true;
  }
}

void Router::RecordFailure(size_t member_index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (member_index >= members_.size()) return;
  Member& m = members_[member_index];
  ++m.failed;
  ++m.consecutive_failures;
  if (m.health == ReplicaHealth::kHealthy &&
      m.consecutive_failures >= options_.failure_threshold) {
    SetHealthLocked(&m, ReplicaHealth::kUnhealthy);
    ring_dirty_ = true;
  } else if (m.health == ReplicaHealth::kHalfOpen) {
    // Failed its recovery trial: back to unhealthy until the next probe.
    SetHealthLocked(&m, ReplicaHealth::kUnhealthy);
  }
}

Result<QueryResponse> Router::Execute(const RoutedRequest& request) {
  const uint64_t key = request.Key();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++routed_;
  }
  std::vector<std::string> tried;
  std::string prev_name;
  Status last = Status::Unavailable("no healthy replicas");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      double delay = options_.backoff_base_seconds *
                     std::pow(2.0, static_cast<double>(attempt - 1));
      delay = std::min(delay, options_.backoff_max_seconds);
      // Deterministic jitter in [0.5, 1.0): hashed from (key, attempt), so
      // identical runs back off identically while distinct keys decorrelate.
      const double frac =
          static_cast<double>(Mix(key ^ (0x2545f4914f6cdd1dull *
                                         static_cast<uint64_t>(attempt))) >>
                              11) /
          static_cast<double>(1ull << 53);
      delay *= 0.5 + 0.5 * frac;
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
    }

    std::shared_ptr<Replica> replica;
    size_t member_index = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      RefreshLocked();
      replica = PickLocked(key, tried, &member_index);
      if (replica != nullptr) {
        ++members_[member_index].routed;
        if (attempt > 0) {
          ++retries_;
        }
        if (!prev_name.empty() && prev_name != replica->name()) {
          ++failovers_;
        }
      }
    }
    if (replica == nullptr) break;  // budget left, but nowhere to send it
    prev_name = replica->name();

    Status injected = Status::OK();
    if (options_.fault_injector != nullptr) {
      injected = options_.fault_injector->OnRoute(group_, *replica);
    }
    Result<QueryResponse> result =
        injected.ok() ? replica->Execute(request) : injected;
    if (result.ok()) {
      RecordSuccess(member_index);
      std::lock_guard<std::mutex> lock(mu_);
      ++succeeded_;
      return result;
    }
    if (!injected.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++injected_;
    }
    if (!Retryable(result.status(), *replica)) {
      RecordFailure(member_index);
      return result.status();
    }
    RecordFailure(member_index);
    last = result.status();
    tried.push_back(replica->name());
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++shed_;
  return Status::Unavailable("request shed after failover: " +
                             std::string(last.message()));
}

Result<std::shared_ptr<PendingQuery>> Router::Submit(RoutedRequest request) {
  auto pending = std::shared_ptr<PendingQuery>(new PendingQuery());
  pending->request_ = request.service;
  pending->submit_time_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      return Status::Unavailable("router is shut down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
          std::lock_guard<std::mutex> stats_lock(mu_);
      ++shed_;
      return Status::Unavailable("router queue is full (" +
                                 std::to_string(options_.max_queue_depth) +
                                 " pending)");
    }
    queue_.push_back(Job{std::move(request), pending});
  }
  queue_cv_.notify_all();
  return pending;
}

void Router::ProbeLoop() {
  const auto interval = std::chrono::duration<double>(
      std::max(options_.probe_interval_seconds, 1e-4));
  while (true) {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      if (queue_cv_.wait_for(lock, interval, [this] { return stop_; })) {
        return;
      }
    }
    // Move due unhealthy replicas to half-open, then trial them alongside
    // the routine probes of healthy ones — all Pings run outside the lock.
    std::vector<std::pair<size_t, std::shared_ptr<Replica>>> to_probe;
    {
      std::lock_guard<std::mutex> lock(mu_);
      RefreshLocked();
      for (size_t i = 0; i < members_.size(); ++i) {
        Member& m = members_[i];
        if (m.health == ReplicaHealth::kUnhealthy) {
          SetHealthLocked(&m, ReplicaHealth::kHalfOpen);
        }
        to_probe.emplace_back(i, m.replica);
      }
    }
    for (auto& [index, replica] : to_probe) {
      if (replica->Ping().ok()) {
        RecordSuccess(index);
      } else {
        RecordFailure(index);
      }
    }
  }
}

void Router::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job.pending->Finish(Execute(job.request));
  }
}

void Router::Shutdown() {
  std::deque<Job> drained;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) return;
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  {
    // Workers drain the queue before exiting (their predicate prefers work
    // over stop), but a Submit racing Shutdown can still land a job after
    // the last worker leaves — fail it typed rather than leave it hanging.
    std::lock_guard<std::mutex> lock(queue_mu_);
    drained.swap(queue_);
  }
  for (auto& job : drained) {
    job.pending->Finish(Status::Cancelled("router shut down"));
  }
}

void AttachRouter(Dataset* dataset, Router* router) {
  dataset->set_submitter(
      [router](ServiceRequest request, const std::string& sqltext) {
        RoutedRequest routed;
        routed.service = std::move(request);
        routed.sqltext = sqltext;
        return router->Submit(std::move(routed));
      });
}

RouterStats Router::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RouterStats s;
  s.routed = routed_;
  s.succeeded = succeeded_;
  s.retries = retries_;
  s.failovers = failovers_;
  s.shed = shed_;
  s.injected = injected_;
  s.replicas.reserve(members_.size());
  for (const Member& m : members_) {
    RouterReplicaStats r;
    r.name = m.replica->name();
    r.health = m.health;
    r.routed = m.routed;
    r.failed = m.failed;
    r.transitions = m.transitions;
    s.replicas.push_back(std::move(r));
  }
  return s;
}

}  // namespace masksearch
