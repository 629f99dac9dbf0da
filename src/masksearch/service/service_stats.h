// ServiceStats: the observability surface of the query service
// (docs/SERVING.md). Counters and latency percentiles per priority class,
// plus point-in-time queue gauges; the CLI `stats`/`serve` commands and
// bench_service print and record these.
//
// The latency populations live in obs::LogHistogram (docs/OBSERVABILITY.md)
// — the shared log-bucketed histogram type — so per-class populations merge
// *exactly* into the all-classes aggregate at snapshot time. The recorder's
// metrics collector emits the same counters and histograms to the process
// metrics registry (ms_service_latency_seconds{class=...} et al) at scrape
// time.

#ifndef MASKSEARCH_SERVICE_SERVICE_STATS_H_
#define MASKSEARCH_SERVICE_SERVICE_STATS_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "masksearch/obs/histogram.h"
#include "masksearch/service/request.h"

namespace masksearch {

/// \brief Percentile summary of one latency population, in seconds.
/// `count`, `mean`, and `max` are exact (streamed); the percentiles carry
/// the histogram's bounded relative error (~9%, exact at the extremes).
struct LatencySummary {
  uint64_t count = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double mean = 0;
  double max = 0;

  /// \brief Summarizes a histogram population.
  static LatencySummary FromHistogram(const obs::LogHistogram& h);

  std::string ToString() const;  ///< "n=… p50=…ms p95=…ms p99=…ms max=…ms"
};

/// \brief Counters + latency summaries of one priority class.
struct ClassServiceStats {
  uint64_t submitted = 0;        ///< Submit calls (admitted + rejected)
  uint64_t admitted = 0;         ///< entered the queue
  uint64_t rejected = 0;         ///< shed by overload admission (Unavailable)
  uint64_t rejected_shutdown = 0;  ///< refused because the service is stopping
  uint64_t completed = 0;        ///< finished with an OK result
  uint64_t deadline_missed = 0;  ///< expired queued or mid-execution
  uint64_t cancelled = 0;        ///< client cancel or service shutdown
  uint64_t failed = 0;           ///< any other executor error

  /// Admission-to-dispatch wait of every dispatched request.
  LatencySummary queue_wait;
  /// Admission-to-completion latency of requests that produced a result.
  LatencySummary latency;
};

/// \brief Point-in-time service counters (one Snapshot call).
struct ServiceStats {
  std::array<ClassServiceStats, kNumPriorityClasses> by_class;
  /// Aggregate over all classes (exact histogram merge of the per-class
  /// populations).
  ClassServiceStats total;

  // Queue gauges.
  uint64_t queued_now = 0;
  uint64_t running_now = 0;
  uint64_t queued_bytes_now = 0;  ///< estimated bytes of queued requests
  uint64_t peak_queued = 0;

  std::string ToString() const;
};

/// \brief Thread-safe recorder behind ServiceStats. The service records
/// admission decisions and request outcomes; Snapshot computes percentiles
/// from the per-class histograms (O(1) memory over the service lifetime)
/// and merges them exactly into the aggregate. A metrics collector emits
/// the per-class counters and histograms at scrape time.
class ServiceStatsRecorder {
 public:
  ServiceStatsRecorder();
  ~ServiceStatsRecorder();

  /// Why admission refused a request: overload shedding (the retryable
  /// signal bench overload sweeps count) vs. shutdown refusal (the service
  /// is going away — retrying is pointless). Distinct counters so shed
  /// ratios are not inflated by teardown.
  enum class RejectReason { kOverload, kShutdown };
  void RecordRejected(PriorityClass c, RejectReason reason);
  void RecordAdmitted(PriorityClass c);

  /// \brief Terminal accounting of a dispatched (or shed-at-dispatch)
  /// request. `queue_seconds` is always recorded; `total_seconds` feeds the
  /// latency percentiles only when a result was produced (`completed`).
  enum class Outcome { kCompleted, kDeadlineMissed, kCancelled, kFailed };
  void RecordOutcome(PriorityClass c, Outcome outcome, double queue_seconds,
                     double total_seconds);

  /// \brief Counters + percentiles; the caller supplies the queue gauges it
  /// reads under its own lock.
  ServiceStats Snapshot(uint64_t queued_now, uint64_t running_now,
                        uint64_t queued_bytes_now,
                        uint64_t peak_queued) const;

 private:
  struct ClassSamples {
    ClassServiceStats counters;
    obs::LogHistogram queue_waits;
    obs::LogHistogram latencies;
  };

  mutable std::mutex mu_;
  std::array<ClassSamples, kNumPriorityClasses> classes_;
  size_t metrics_collector_ = 0;  ///< emits ms_service_* (under mu_)
};

}  // namespace masksearch

#endif  // MASKSEARCH_SERVICE_SERVICE_STATS_H_
