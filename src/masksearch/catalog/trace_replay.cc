#include "masksearch/catalog/trace_replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "masksearch/catalog/prepared.h"
#include "masksearch/sql/binder.h"

namespace masksearch {

namespace {

/// One trace line, bound and ready to submit.
struct BoundReplayRequest {
  Dataset* dataset = nullptr;
  ServiceRequest sreq;
  std::string sqltext;
  double at_ms = 0;
  bool tenant_unset = false;  ///< closed loop bills it to the client index
};

/// Tallies one request outcome into its class.
void CountOutcome(const Status& status, const std::string& sql,
                  ReplayStats* stats) {
  if (status.ok()) {
    ++stats->completed;
  } else if (status.IsUnavailable()) {
    ++stats->shed;
  } else if (status.IsDeadlineExceeded()) {
    ++stats->deadline_expired;
  } else if (status.IsCancelled()) {
    ++stats->cancelled;
  } else if (stats->errors++ == 0) {
    stats->first_error = status.ToString() + "\n  sql: " + sql;
  }
}

/// Binds one line's SQL, with its params when it was a prepared execution.
Result<QueryRequest> BindLine(const obs::RecordedRequest& r) {
  if (r.params.empty()) {
    MS_ASSIGN_OR_RETURN(sql::BoundQuery bound, sql::ParseAndBind(r.sql));
    return RequestFromBound(bound);
  }
  MS_ASSIGN_OR_RETURN(auto stmt, PreparedStatement::Prepare(r.sql));
  return stmt->BindRequest(r.params);
}

/// Binding happens up front, on the caller's thread: a replay measures the
/// serving path, so parse/bind cost must not ride inside the arrival
/// process. Per-line bind failures are counted as errors, not returned — a
/// recorded workload may contain lines a schema change broke.
Result<std::vector<BoundReplayRequest>> BindAll(
    Catalog* catalog, const std::vector<obs::RecordedRequest>& requests,
    const ReplayOptions& options, ReplayStats* stats) {
  std::vector<BoundReplayRequest> bound;
  bound.reserve(requests.size());
  for (const obs::RecordedRequest& r : requests) {
    const std::string& name =
        options.dataset_override.empty() ? r.dataset : options.dataset_override;
    if (name.empty()) {
      return Status::InvalidArgument(
          "replay: a line names no dataset and no target dataset is set");
    }
    Dataset* ds = catalog->Find(name);
    if (ds == nullptr) {
      return Status::NotFound("replay: unknown dataset '" + name + "'");
    }
    BoundReplayRequest b;
    b.dataset = ds;
    b.at_ms = r.at_ms;
    b.sqltext = r.sql;
    b.tenant_unset = r.tenant < 0;
    b.sreq.tenant = b.tenant_unset ? 0 : r.tenant;
    b.sreq.trace_id = r.trace_id;
    if (r.deadline_ms > 0) b.sreq.deadline_seconds = r.deadline_ms * 1e-3;
    MS_ASSIGN_OR_RETURN(b.sreq.priority, ParsePriorityClass(r.priority_class));
    auto query = BindLine(r);
    if (!query.ok()) {
      CountOutcome(query.status(), r.sql, stats);
      continue;
    }
    b.sreq.query = std::move(*query);
    bound.push_back(std::move(b));
  }
  return bound;
}

}  // namespace

Result<ReplayStats> ReplayTrace(
    Catalog* catalog, const std::vector<obs::RecordedRequest>& requests,
    const ReplayOptions& options) {
  if (catalog == nullptr) return Status::InvalidArgument("null catalog");
  if (requests.empty()) {
    return Status::InvalidArgument("replay: empty trace");
  }
  if (options.speed <= 0) {
    return Status::InvalidArgument("replay: speed must be positive");
  }
  ReplayStats stats;
  MS_ASSIGN_OR_RETURN(std::vector<BoundReplayRequest> bound,
                      BindAll(catalog, requests, options, &stats));

  const auto t0 = std::chrono::steady_clock::now();
  std::mutex mu;
  auto finish = [&](const Status& status, const std::string& sql) {
    std::lock_guard<std::mutex> lock(mu);
    CountOutcome(status, sql, &stats);
  };
  // Counts the submission under its class, then hands it to its dataset.
  auto submit = [&](BoundReplayRequest& b) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++stats.submitted;
      ++stats.by_class[static_cast<size_t>(b.sreq.priority)];
    }
    auto submitted = b.dataset->Submit(std::move(b.sreq), b.sqltext);
    if (!submitted.ok()) finish(submitted.status(), b.sqltext);
    return submitted;
  };

  if (options.open_loop) {
    // One dispatcher reproduces the arrival process; completions are
    // counted from the services' worker threads via NotifyDone. Arrival
    // offsets are rebased to the first recorded request: at_ms counts from
    // the recorder's open (server start), and the dead air before the
    // session's first request is not part of its load shape.
    double base_ms = bound.empty() ? 0 : bound.front().at_ms;
    for (const BoundReplayRequest& b : bound) {
      base_ms = std::min(base_ms, b.at_ms);
    }
    // The count drops under done_mu, so the wait below cannot see zero and
    // return (destroying these locals) before the last callback unlocks.
    uint64_t outstanding = 0;
    std::mutex done_mu;
    std::condition_variable done_cv;
    for (BoundReplayRequest& b : bound) {
      const auto due =
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       (b.at_ms - base_ms) / options.speed));
      std::this_thread::sleep_until(due);
      auto submitted = submit(b);
      if (!submitted.ok()) continue;
      {
        std::lock_guard<std::mutex> lock(done_mu);
        ++outstanding;
      }
      std::shared_ptr<PendingQuery> pending = *submitted;
      pending->NotifyDone([&, pending, sql = &b.sqltext] {
        finish(pending->Wait().status(), *sql);
        std::lock_guard<std::mutex> lock(done_mu);
        if (--outstanding == 0) done_cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return outstanding == 0; });
  } else {
    const int clients = std::max(1, options.closed_loop_clients);
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= bound.size()) return;
          BoundReplayRequest& b = bound[i];
          if (b.tenant_unset) b.sreq.tenant = c;
          auto submitted = submit(b);
          if (submitted.ok()) finish((*submitted)->Wait().status(), b.sqltext);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats.failed =
      stats.shed + stats.deadline_expired + stats.cancelled + stats.errors;
  return stats;
}

}  // namespace masksearch
