// Trace file format and recorder (docs/OBSERVABILITY.md).
//
// A trace file is the one workload format every replay reads: a recorded
// serve session and a hand-written `masksearch_cli serve --script` are the
// same thing. One text line per request, carrying what is needed to
// re-issue it — arrival offset, dataset, tenant, priority class, deadline,
// the client trace id, bound parameters, and the SQL text:
//
//   # masksearch-trace v1
//   at_ms=12.345 dataset=default tenant=3 class=interactive
//       deadline_ms=250 trace=7 params=0.8,1 sql=SELECT ...
//
// (one physical line per request). Only `sql=` is required; it is always
// last and runs to end of line, so SQL may contain spaces and '='. Omitted
// keys default: `at_ms` 0, `dataset` the replay's target dataset, `tenant`
// unset (the replayer picks one), `class` normal, no deadline, no trace id,
// no params. Every value is validated — a malformed number or an unknown
// class is a typed Corruption naming the key. The recorder stamps `at_ms`
// itself from its own steady clock, so replay reproduces the recorded
// arrival process.
//
// The replayer lives in the catalog layer (catalog/trace_replay.h), which
// can bind SQL and submit to services; this file is pure format + I/O so
// the net layer can record without depending on sql/catalog.

#ifndef MASKSEARCH_OBS_RECORDER_H_
#define MASKSEARCH_OBS_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "masksearch/common/result.h"

namespace masksearch {
namespace obs {

/// \brief One recorded request, as written by TraceRecorder::Record and
/// parsed back by LoadTrace.
struct RecordedRequest {
  double at_ms = 0;  ///< arrival offset from session start
  std::string dataset;  ///< empty = the replay's target dataset
  int64_t tenant = -1;  ///< -1 = unset (the replayer assigns one)
  std::string priority_class = "normal";
  double deadline_ms = 0;  ///< 0 = service default, negative = none
  uint64_t trace_id = 0;
  std::vector<double> params;  ///< bound prepared-statement parameters
  std::string sql;
};

class TraceRecorder {
 public:
  /// \brief Creates (truncates) the trace file and writes its header.
  static Result<std::unique_ptr<TraceRecorder>> Open(const std::string& path);

  ~TraceRecorder();

  /// \brief Appends one request, stamped with the current offset from
  /// Open(). Thread-safe (the net server records from its I/O thread, the
  /// replica tier may record from workers).
  void Record(const std::string& dataset, int64_t tenant,
              const std::string& priority_class, double deadline_seconds,
              uint64_t trace_id, const std::vector<double>& params,
              const std::string& sql);

  /// \brief Requests recorded so far.
  uint64_t recorded() const;

  /// \brief Flushes buffered lines to disk (also runs at destruction).
  void Flush();

  const std::string& path() const { return path_; }

 private:
  explicit TraceRecorder(std::string path, std::FILE* f);

  const std::string path_;
  std::FILE* file_;
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  uint64_t recorded_ = 0;
};

/// \brief Encodes one request as its trace-file line (no newline).
std::string EncodeRecordedRequest(const RecordedRequest& r);

/// \brief Parses one trace-file line (no comment/blank handling).
Result<RecordedRequest> ParseRecordedRequest(const std::string& line);

/// \brief Loads a trace file (a recorded session or a hand-written
/// script). Blank lines and '#' comments are skipped; a malformed request
/// line is a typed Corruption naming the line number.
Result<std::vector<RecordedRequest>> LoadTrace(const std::string& path);

}  // namespace obs
}  // namespace masksearch

#endif  // MASKSEARCH_OBS_RECORDER_H_
