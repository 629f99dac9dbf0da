#include "masksearch/service/service_stats.h"

#include <cstdio>

#include "masksearch/obs/metrics.h"

namespace masksearch {

LatencySummary LatencySummary::FromHistogram(const obs::LogHistogram& h) {
  LatencySummary s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.p50 = h.Percentile(0.50);
  s.p95 = h.Percentile(0.95);
  s.p99 = h.Percentile(0.99);
  s.mean = h.Mean();
  s.max = h.max();
  return s;
}

std::string LatencySummary::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms",
                static_cast<unsigned long long>(count), p50 * 1e3, p95 * 1e3,
                p99 * 1e3, max * 1e3);
  return buf;
}

std::string ServiceStats::ToString() const {
  std::string out;
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "queued=%llu running=%llu queued_bytes=%llu peak_queued=%llu\n",
                static_cast<unsigned long long>(queued_now),
                static_cast<unsigned long long>(running_now),
                static_cast<unsigned long long>(queued_bytes_now),
                static_cast<unsigned long long>(peak_queued));
  out += buf;
  auto line = [&](const char* name, const ClassServiceStats& c) {
    if (c.submitted == 0) return;
    std::snprintf(buf, sizeof(buf),
                  "%-12s submitted=%llu admitted=%llu rejected=%llu "
                  "rejected_shutdown=%llu completed=%llu deadline_missed=%llu "
                  "cancelled=%llu failed=%llu\n%-12s   wait: %s\n"
                  "%-12s   latency: %s\n",
                  name, static_cast<unsigned long long>(c.submitted),
                  static_cast<unsigned long long>(c.admitted),
                  static_cast<unsigned long long>(c.rejected),
                  static_cast<unsigned long long>(c.rejected_shutdown),
                  static_cast<unsigned long long>(c.completed),
                  static_cast<unsigned long long>(c.deadline_missed),
                  static_cast<unsigned long long>(c.cancelled),
                  static_cast<unsigned long long>(c.failed), "",
                  c.queue_wait.ToString().c_str(), "",
                  c.latency.ToString().c_str());
    out += buf;
  };
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    line(PriorityClassToString(static_cast<PriorityClass>(c)), by_class[c]);
  }
  line("total", total);
  return out;
}

ServiceStatsRecorder::ServiceStatsRecorder() {
  metrics_collector_ = obs::MetricsRegistry::Default().AddCollector(
      [this](obs::MetricSink& sink) {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t c = 0; c < kNumPriorityClasses; ++c) {
          const std::string label = obs::Label(
              "class", PriorityClassToString(static_cast<PriorityClass>(c)));
          const ClassSamples& s = classes_[c];
          // Shutdown refusals are not load shedding: only overload rejects
          // count as ms_service_rejected_total.
          sink.Counter("ms_service_submitted_total" + label,
                       s.counters.submitted);
          sink.Counter("ms_service_rejected_total" + label,
                       s.counters.rejected);
          sink.Counter("ms_service_completed_total" + label,
                       s.counters.completed);
          sink.Counter("ms_service_deadline_missed_total" + label,
                       s.counters.deadline_missed);
          sink.Counter("ms_service_cancelled_total" + label,
                       s.counters.cancelled);
          sink.Counter("ms_service_failed_total" + label, s.counters.failed);
          sink.Histogram("ms_service_queue_wait_seconds" + label,
                         s.queue_waits);
          sink.Histogram("ms_service_latency_seconds" + label, s.latencies);
        }
      });
}

ServiceStatsRecorder::~ServiceStatsRecorder() {
  obs::MetricsRegistry::Default().RemoveCollector(metrics_collector_);
}

void ServiceStatsRecorder::RecordRejected(PriorityClass c,
                                          RejectReason reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassSamples& s = classes_[static_cast<size_t>(c)];
  ++s.counters.submitted;
  if (reason == RejectReason::kShutdown) {
    ++s.counters.rejected_shutdown;
  } else {
    ++s.counters.rejected;
  }
}

void ServiceStatsRecorder::RecordAdmitted(PriorityClass c) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassSamples& s = classes_[static_cast<size_t>(c)];
  ++s.counters.submitted;
  ++s.counters.admitted;
}

void ServiceStatsRecorder::RecordOutcome(PriorityClass c, Outcome outcome,
                                         double queue_seconds,
                                         double total_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassSamples& s = classes_[static_cast<size_t>(c)];
  s.queue_waits.Record(queue_seconds);
  switch (outcome) {
    case Outcome::kCompleted:
      ++s.counters.completed;
      s.latencies.Record(total_seconds);
      break;
    case Outcome::kDeadlineMissed:
      ++s.counters.deadline_missed;
      break;
    case Outcome::kCancelled:
      ++s.counters.cancelled;
      break;
    case Outcome::kFailed:
      ++s.counters.failed;
      break;
  }
}

ServiceStats ServiceStatsRecorder::Snapshot(uint64_t queued_now,
                                            uint64_t running_now,
                                            uint64_t queued_bytes_now,
                                            uint64_t peak_queued) const {
  ServiceStats out;
  out.queued_now = queued_now;
  out.running_now = running_now;
  out.queued_bytes_now = queued_bytes_now;
  out.peak_queued = peak_queued;

  std::lock_guard<std::mutex> lock(mu_);
  // The aggregate is an exact histogram merge of the per-class populations
  // — the property the log-bucketed representation buys over sampling
  // reservoirs, which would need weighted resampling here.
  obs::LogHistogram total_queue_waits;
  obs::LogHistogram total_latencies;
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    const ClassSamples& s = classes_[c];
    out.by_class[c] = s.counters;
    out.by_class[c].queue_wait = LatencySummary::FromHistogram(s.queue_waits);
    out.by_class[c].latency = LatencySummary::FromHistogram(s.latencies);

    out.total.submitted += s.counters.submitted;
    out.total.admitted += s.counters.admitted;
    out.total.rejected += s.counters.rejected;
    out.total.rejected_shutdown += s.counters.rejected_shutdown;
    out.total.completed += s.counters.completed;
    out.total.deadline_missed += s.counters.deadline_missed;
    out.total.cancelled += s.counters.cancelled;
    out.total.failed += s.counters.failed;
    total_queue_waits.Merge(s.queue_waits);
    total_latencies.Merge(s.latencies);
  }
  out.total.queue_wait = LatencySummary::FromHistogram(total_queue_waits);
  out.total.latency = LatencySummary::FromHistogram(total_latencies);
  return out;
}

}  // namespace masksearch
