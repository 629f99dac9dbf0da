#include "masksearch/obs/recorder.h"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "masksearch/common/io.h"
#include "masksearch/common/priority_class.h"

namespace masksearch {
namespace obs {

namespace {

constexpr const char kHeader[] = "# masksearch-trace v1\n";

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status BadValue(const std::string& key, const std::string& value) {
  return Status::Corruption("bad " + key + " value '" + value + "'");
}

/// Whole-string finite double; false on an empty value or trailing bytes.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (*end != '\0' || errno != 0 || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Whole-string non-negative decimal integer.
bool ParseCount(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

/// Applies one `key=value` pair (any key but sql) to `r`.
Status ParseField(const std::string& key, const std::string& value,
                  RecordedRequest* r) {
  uint64_t count = 0;
  if (key == "at_ms") {
    if (!ParseDouble(value, &r->at_ms)) return BadValue(key, value);
  } else if (key == "dataset") {
    r->dataset = value;
  } else if (key == "tenant") {
    if (!ParseCount(value, &count) ||
        count > static_cast<uint64_t>(INT64_MAX)) {
      return BadValue(key, value);
    }
    r->tenant = static_cast<int64_t>(count);
  } else if (key == "class") {
    if (!ParsePriorityClass(value).ok()) return BadValue(key, value);
    r->priority_class = value;
  } else if (key == "deadline_ms") {
    if (!ParseDouble(value, &r->deadline_ms)) return BadValue(key, value);
  } else if (key == "trace") {
    if (!ParseCount(value, &r->trace_id)) return BadValue(key, value);
  } else if (key == "params") {
    size_t p = 0;
    while (p <= value.size()) {
      size_t comma = value.find(',', p);
      if (comma == std::string::npos) comma = value.size();
      double v = 0;
      if (!ParseDouble(value.substr(p, comma - p), &v)) {
        return BadValue(key, value);
      }
      r->params.push_back(v);
      p = comma + 1;
    }
  } else {
    return Status::Corruption("unknown trace line key '" + key + "'");
  }
  return Status::OK();
}

}  // namespace

TraceRecorder::TraceRecorder(std::string path, std::FILE* f)
    : path_(std::move(path)),
      file_(f),
      start_(std::chrono::steady_clock::now()) {}

Result<std::unique_ptr<TraceRecorder>> TraceRecorder::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file '" + path +
                           "': " + std::strerror(errno));
  }
  std::fputs(kHeader, f);
  return std::unique_ptr<TraceRecorder>(new TraceRecorder(path, f));
}

TraceRecorder::~TraceRecorder() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

void TraceRecorder::Record(const std::string& dataset, int64_t tenant,
                           const std::string& priority_class,
                           double deadline_seconds, uint64_t trace_id,
                           const std::vector<double>& params,
                           const std::string& sql) {
  RecordedRequest r;
  r.at_ms = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
  r.dataset = dataset;
  r.tenant = tenant;
  r.priority_class = priority_class;
  r.deadline_ms = deadline_seconds * 1e3;
  r.trace_id = trace_id;
  r.params = params;
  r.sql = sql;
  const std::string line = EncodeRecordedRequest(r);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);
  ++recorded_;
}

uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

void TraceRecorder::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

std::string EncodeRecordedRequest(const RecordedRequest& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", r.at_ms);
  std::string line = std::string("at_ms=") + buf;
  if (!r.dataset.empty()) line += " dataset=" + r.dataset;
  if (r.tenant >= 0) line += " tenant=" + std::to_string(r.tenant);
  line += " class=" + r.priority_class;
  if (r.deadline_ms != 0) line += " deadline_ms=" + FormatDouble(r.deadline_ms);
  if (r.trace_id != 0) line += " trace=" + std::to_string(r.trace_id);
  if (!r.params.empty()) {
    line += " params=";
    for (size_t i = 0; i < r.params.size(); ++i) {
      if (i > 0) line += ',';
      line += FormatDouble(r.params[i]);
    }
  }
  // sql= is last and runs to end of line: SQL text may contain spaces,
  // commas, and '=' freely. Newlines cannot appear (one line per request).
  line += " sql=" + r.sql;
  return line;
}

Result<RecordedRequest> ParseRecordedRequest(const std::string& line) {
  RecordedRequest r;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) break;
    size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    const size_t eq = line.find('=', pos);
    if (eq == std::string::npos || eq > end) {
      return Status::Corruption("trace line token without '=': " +
                                line.substr(pos, end - pos));
    }
    const std::string key = line.substr(pos, eq - pos);
    if (key == "sql") {
      r.sql = line.substr(eq + 1);
      if (r.sql.empty()) break;
      return r;
    }
    MS_RETURN_NOT_OK(ParseField(key, line.substr(eq + 1, end - eq - 1), &r));
    pos = end;
  }
  return Status::Corruption("trace line without sql=: " + line);
}

Result<std::vector<RecordedRequest>> LoadTrace(const std::string& path) {
  MS_ASSIGN_OR_RETURN(std::string contents, ReadFile(path));
  std::vector<RecordedRequest> out;
  size_t pos = 0;
  size_t lineno = 0;
  while (pos < contents.size()) {
    size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) nl = contents.size();
    ++lineno;
    std::string line = contents.substr(pos, nl - pos);
    pos = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    auto parsed = ParseRecordedRequest(line);
    if (!parsed.ok()) {
      return Status::Corruption("trace '" + path + "' line " +
                                std::to_string(lineno) + ": " +
                                parsed.status().message());
    }
    out.push_back(std::move(*parsed));
  }
  return out;
}

}  // namespace obs
}  // namespace masksearch
