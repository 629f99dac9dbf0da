// MetricsRegistry: the process-wide scrape point (docs/OBSERVABILITY.md).
// It owns no instruments: each component counts every fact once, in its
// own stats, and registers a collector that emits them into a MetricSink
// when a scrape happens — recording costs nothing extra; scraping pays.
// Same-named samples from several collectors are added (counters, gauges)
// or merged exactly (histograms). Names embed their labels, built with
// Label(), e.g. ms_service_completed_total{class="interactive"}.
//
// Collector lifetime: the owner registers in its constructor and calls
// RemoveCollector in its destructor, while what the collector reads is
// alive. Removal waits for an in-flight run, runs the collector a last
// time and retains its counters and histograms (totals are
// process-lifetime); its gauges disappear.

#ifndef MASKSEARCH_OBS_METRICS_H_
#define MASKSEARCH_OBS_METRICS_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "masksearch/obs/histogram.h"

namespace masksearch {
namespace obs {

/// \brief `{key="value"}`, with `value` escaped per the Prometheus text
/// format: backslash, double quote, and newline become `\\`, `\"`, `\n`.
std::string Label(const std::string& key, const std::string& value);

/// \brief One scrape's series, keyed by full name (labels included). What a
/// collector emits into; same-named emissions accumulate.
class MetricSink {
 public:
  void Counter(const std::string& name, uint64_t value) {
    counters_[name] += value;
  }
  void Gauge(const std::string& name, double value) { gauges_[name] += value; }
  void Histogram(const std::string& name, const LogHistogram& h) {
    histograms_[name].Merge(h);
  }

 private:
  friend class MetricsRegistry;
  void Merge(const MetricSink& other);

  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

class MetricsRegistry {
 public:
  /// \brief The process-wide registry every component's collector joins.
  static MetricsRegistry& Default();

  using Collector = std::function<void(MetricSink&)>;

  /// \brief Registers a scrape-time emitter; returns its handle.
  size_t AddCollector(Collector fn);
  /// \brief See the collector lifetime above. Unknown or already removed
  /// handles are a no-op.
  void RemoveCollector(size_t handle);

  /// \brief One flattened scalar of the current state (counters and gauges
  /// by name; histograms expanded to name+suffix). Sorted by name.
  struct Sample {
    std::string name;
    double value = 0;
  };
  std::vector<Sample> Samples();

  /// \brief Prometheus text exposition.
  std::string PrometheusText();
  /// \brief Flat JSON object {"name": value, ...}.
  std::string Json();

 private:
  struct Entry {
    Collector fn;
    int running = 0;        ///< in-flight scrape runs
    bool removing = false;  ///< RemoveCollector is waiting or finishing
    bool removed = false;   ///< `last` holds the final emission
    MetricSink last;
  };

  /// Runs every collector into one merged sink, on top of the retained
  /// series of removed collectors.
  MetricSink Scrape();

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<size_t, std::shared_ptr<Entry>> collectors_;
  MetricSink retained_;  ///< removed collectors' counters and histograms
  size_t next_handle_ = 1;
};

}  // namespace obs
}  // namespace masksearch

#endif  // MASKSEARCH_OBS_METRICS_H_
