// Trace replayer (docs/OBSERVABILITY.md): re-issues a trace file
// (obs/recorder.h) — a recorded serve session or a hand-written script —
// against a catalog. It is the one code path that drives requests from a
// file: `masksearch_cli serve --script`, `stats --script` and `replay` all
// call it. Two drive modes:
//
//  - open loop (default): one dispatcher thread reproduces the recorded
//    arrival process — request i is submitted at at_ms[i] / speed after
//    start, whether or not earlier requests have finished. This replays
//    the load shape, including bursts that shed.
//  - closed loop: N clients issue the requests in order, each waiting for
//    its request to finish before taking the next. This replays the work,
//    not the timing — the bench_service shape.
//
// Either way the replay preserves the request count and per-class mix
// exactly: every line becomes exactly one submission, counted under its
// priority class. A line with an unset tenant is billed to its closed-loop
// client's index, or to tenant 0 in the open loop.

#ifndef MASKSEARCH_CATALOG_TRACE_REPLAY_H_
#define MASKSEARCH_CATALOG_TRACE_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "masksearch/catalog/catalog.h"
#include "masksearch/obs/recorder.h"

namespace masksearch {

struct ReplayOptions {
  /// Reproduce recorded arrival times (true) or drive closed-loop (false).
  bool open_loop = true;
  /// Open-loop time scale: 2.0 replays at twice the recorded rate.
  double speed = 1.0;
  /// Closed-loop concurrency.
  int closed_loop_clients = 4;
  /// Target dataset: when nonempty, every request targets this dataset
  /// instead of the one recorded (replaying a production trace against a
  /// local copy under another name). Lines that name no dataset need it.
  std::string dataset_override;
};

struct ReplayStats {
  uint64_t submitted = 0;  ///< every bound request handed to its dataset
  uint64_t completed = 0;  ///< finished OK
  /// Failures by class. Shed, expired and cancelled requests are expected
  /// service behaviour; `errors` are genuine failures, bind errors included.
  uint64_t shed = 0;              ///< kUnavailable (admission shed it)
  uint64_t deadline_expired = 0;  ///< kDeadlineExceeded
  uint64_t cancelled = 0;         ///< kCancelled
  uint64_t errors = 0;            ///< bind failures and every other error
  uint64_t failed = 0;  ///< shed + deadline_expired + cancelled + errors
  /// The first hard error and its SQL, for diagnostics ("" when none).
  std::string first_error;
  /// Submissions per priority class, indexed by PriorityClass.
  uint64_t by_class[kNumPriorityClasses] = {};
  double wall_seconds = 0;
};

/// \brief Replays `requests` against `catalog` per `options`. Fails fast
/// on an empty trace or an unknown or missing dataset; per-request outcomes
/// (a line whose SQL no longer parses, a shed under open-loop burst) are
/// counted in ReplayStats, not fatal.
Result<ReplayStats> ReplayTrace(Catalog* catalog,
                                const std::vector<obs::RecordedRequest>& requests,
                                const ReplayOptions& options = {});

}  // namespace masksearch

#endif  // MASKSEARCH_CATALOG_TRACE_REPLAY_H_
