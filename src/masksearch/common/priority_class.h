// Request priority classes (docs/SERVING.md), shared by the service layer
// that schedules them and the trace format (obs/recorder.h) that names them.

#ifndef MASKSEARCH_COMMON_PRIORITY_CLASS_H_
#define MASKSEARCH_COMMON_PRIORITY_CLASS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "masksearch/common/result.h"

namespace masksearch {

/// \brief Dispatch priority of a request. Classes share the worker pool by
/// weighted deficit round-robin (QueryServiceOptions::class_weights):
/// higher classes get proportionally more dispatch slots while backlogged,
/// and no class starves.
enum class PriorityClass : uint8_t {
  kInteractive = 0,  ///< latency-sensitive (dashboards, §4.5 exploration)
  kNormal = 1,       ///< default
  kBatch = 2,        ///< throughput work (bulk audits, index warming)
};
constexpr size_t kNumPriorityClasses = 3;

inline const char* PriorityClassToString(PriorityClass c) {
  switch (c) {
    case PriorityClass::kInteractive:
      return "interactive";
    case PriorityClass::kNormal:
      return "normal";
    case PriorityClass::kBatch:
      return "batch";
  }
  return "unknown";
}

/// \brief Parses "interactive" / "normal" / "batch" (trace lines, flags).
inline Result<PriorityClass> ParsePriorityClass(const std::string& s) {
  if (s == "interactive") return PriorityClass::kInteractive;
  if (s == "normal") return PriorityClass::kNormal;
  if (s == "batch") return PriorityClass::kBatch;
  return Status::InvalidArgument("unknown priority class: " + s);
}

}  // namespace masksearch

#endif  // MASKSEARCH_COMMON_PRIORITY_CLASS_H_
