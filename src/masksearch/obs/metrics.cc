#include "masksearch/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace masksearch {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string Label(const std::string& key, const std::string& value) {
  std::string out = "{" + key + "=\"";
  for (char c : value) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '\\' || c == '"') out += '\\';
    out += c;
  }
  return out + "\"}";
}

void MetricSink::Merge(const MetricSink& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) gauges_[name] += v;
  for (const auto& [name, h] : other.histograms_) histograms_[name].Merge(h);
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* r = new MetricsRegistry();  // never destroyed
  return *r;
}

size_t MetricsRegistry::AddCollector(Collector fn) {
  auto entry = std::make_shared<Entry>();
  entry->fn = std::move(fn);
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.emplace(next_handle_, std::move(entry));
  return next_handle_++;
}

void MetricsRegistry::RemoveCollector(size_t handle) {
  std::shared_ptr<Entry> entry;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = collectors_.find(handle);
    if (it == collectors_.end() || it->second->removing) return;
    entry = it->second;
    entry->removing = true;  // scrapes arriving from now on wait for `last`
    cv_.wait(lock, [&] { return entry->running == 0; });
  }
  // The final run happens without the registry lock: a collector may take
  // its component's locks, whose holders may be registering collectors.
  MetricSink last;
  entry->fn(last);
  last.gauges_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  // Retained and unregistered in one step: a scrape sees the series either
  // live or retained, never both and never neither.
  retained_.Merge(last);
  entry->last = std::move(last);
  entry->removed = true;
  collectors_.erase(handle);
  cv_.notify_all();
}

MetricSink MetricsRegistry::Scrape() {
  MetricSink out;
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = retained_;
    entries.reserve(collectors_.size());
    for (const auto& [handle, entry] : collectors_) entries.push_back(entry);
  }
  // Collectors run without the registry lock (see RemoveCollector); the
  // running count is what RemoveCollector waits on.
  for (const std::shared_ptr<Entry>& entry : entries) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !entry->removing || entry->removed; });
      if (entry->removed) {
        // Removed after `out` copied retained_: its final emission is
        // not in `out` yet.
        out.Merge(entry->last);
        continue;
      }
      ++entry->running;
    }
    entry->fn(out);
    std::lock_guard<std::mutex> lock(mu_);
    if (--entry->running == 0) cv_.notify_all();
  }
  return out;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Samples() {
  const MetricSink scrape = Scrape();
  std::vector<Sample> out;
  for (const auto& [name, v] : scrape.counters_) {
    out.push_back({name, static_cast<double>(v)});
  }
  for (const auto& [name, v] : scrape.gauges_) out.push_back({name, v});
  for (const auto& [name, h] : scrape.histograms_) {
    out.push_back({name + ".count", static_cast<double>(h.count())});
    out.push_back({name + ".sum", h.sum()});
    out.push_back({name + ".mean", h.Mean()});
    out.push_back({name + ".min", h.min()});
    out.push_back({name + ".max", h.max()});
    out.push_back({name + ".p50", h.Percentile(0.50)});
    out.push_back({name + ".p95", h.Percentile(0.95)});
    out.push_back({name + ".p99", h.Percentile(0.99)});
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

std::string MetricsRegistry::PrometheusText() {
  const MetricSink scrape = Scrape();
  std::string out, last_base;
  // Splits "base{labels}" into base and "{labels}" (empty without labels),
  // writing the family's TYPE line before its first series.
  auto family = [&](const std::string& name, const char* type) {
    const size_t brace = std::min(name.find('{'), name.size());
    std::pair<std::string, std::string> parts(name.substr(0, brace),
                                              name.substr(brace));
    if (parts.first != last_base) {
      out += "# TYPE " + parts.first + " " + type + "\n";
      last_base = parts.first;
    }
    return parts;
  };
  for (const auto& [name, v] : scrape.counters_) {
    family(name, "counter");
    out += name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : scrape.gauges_) {
    family(name, "gauge");
    out += name + " " + FormatDouble(v) + "\n";
  }
  for (const auto& [name, h] : scrape.histograms_) {
    const auto [base, labels] = family(name, "summary");
    // base{labels,quantile="q"}
    const std::string open =
        labels.empty() ? base + "{"
                       : base + labels.substr(0, labels.size() - 1) + ",";
    for (const auto& [text, q] : {std::pair<const char*, double>{"0.5", 0.50},
                                  {"0.95", 0.95},
                                  {"0.99", 0.99}}) {
      out += open + "quantile=\"" + text + "\"} " +
             FormatDouble(h.Percentile(q)) + "\n";
    }
    out += base + "_sum" + labels + " " + FormatDouble(h.sum()) + "\n";
    out += base + "_count" + labels + " " + std::to_string(h.count()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::Json() {
  const std::vector<Sample> samples = Samples();
  std::string out = "{";
  for (size_t i = 0; i < samples.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n");
    out += "  \"" + samples[i].name + "\": " + FormatDouble(samples[i].value);
  }
  out += samples.empty() ? "}\n" : "\n}\n";
  return out;
}

}  // namespace obs
}  // namespace masksearch
