// Request/response model of the query service (docs/SERVING.md).
//
// A ServiceRequest wraps one of the four executor query specs together with
// the serving metadata the scheduler needs: the issuing tenant (fair
// sharing), a priority class (weighted dispatch), a relative deadline, and
// an optional admission-cost hint. The service executes the spec against
// its shared Session and answers with a QueryResponse carrying the
// executor's result plus the request's queue/execution timing.

#ifndef MASKSEARCH_SERVICE_REQUEST_H_
#define MASKSEARCH_SERVICE_REQUEST_H_

#include <cstdint>
#include <string>
#include <utility>

#include "masksearch/common/priority_class.h"
#include "masksearch/common/result.h"
#include "masksearch/exec/query_spec.h"

namespace masksearch {

/// \brief Identity of the client a request is billed to for fair sharing.
/// Tenants within one priority class share dispatch slots round-robin; one
/// tenant flooding the queue cannot starve the others.
using TenantId = int64_t;

/// \brief One query of any executor kind. Exactly the member named by
/// `kind` is meaningful; the factory functions keep construction terse.
struct QueryRequest {
  enum class Kind : uint8_t { kFilter, kTopK, kAggregation, kMaskAgg };

  Kind kind = Kind::kFilter;
  FilterQuery filter;
  TopKQuery topk;
  AggregationQuery agg;
  MaskAggQuery mask_agg;

  static QueryRequest Filter(FilterQuery q) {
    QueryRequest r;
    r.kind = Kind::kFilter;
    r.filter = std::move(q);
    return r;
  }
  static QueryRequest TopK(TopKQuery q) {
    QueryRequest r;
    r.kind = Kind::kTopK;
    r.topk = std::move(q);
    return r;
  }
  static QueryRequest Aggregation(AggregationQuery q) {
    QueryRequest r;
    r.kind = Kind::kAggregation;
    r.agg = std::move(q);
    return r;
  }
  static QueryRequest MaskAgg(MaskAggQuery q) {
    QueryRequest r;
    r.kind = Kind::kMaskAgg;
    r.mask_agg = std::move(q);
    return r;
  }

  /// \brief The catalog selection of the active query (admission costing).
  const Selection& selection() const {
    switch (kind) {
      case Kind::kFilter:
        return filter.selection;
      case Kind::kTopK:
        return topk.selection;
      case Kind::kAggregation:
        return agg.selection;
      case Kind::kMaskAgg:
        return mask_agg.selection;
    }
    return filter.selection;  // unreachable
  }
};

/// \brief A submitted unit of work.
struct ServiceRequest {
  TenantId tenant = 0;
  PriorityClass priority = PriorityClass::kNormal;
  QueryRequest query;
  /// Deadline relative to admission, in seconds. 0 uses the service's
  /// default_deadline_seconds; negative means explicitly no deadline.
  /// Expiry is detected at dispatch (the request is shed without executing)
  /// and at executor batch boundaries (see QueryControl).
  double deadline_seconds = 0;
  /// Admission-control cost estimate in bytes; 0 lets the service estimate
  /// from the selection (sum of targeted blob sizes — catalog-only, no I/O).
  uint64_t cost_bytes_hint = 0;
  /// Client-supplied trace id (docs/OBSERVABILITY.md). 0 lets the service
  /// mint one when the request is sampled; nonzero forces the request to be
  /// traced under this id, so a client span id is visible end-to-end in the
  /// server's slow-query log.
  uint64_t trace_id = 0;
};

/// \brief The executor result of a completed request. The member named by
/// `kind` is populated (`agg` serves both aggregation kinds).
struct QueryResponse {
  QueryRequest::Kind kind = QueryRequest::Kind::kFilter;
  FilterResult filter;
  TopKResult topk;
  AggResult agg;

  /// Seconds the request waited from admission to dispatch.
  double queue_seconds = 0;
  /// Seconds of executor time.
  double exec_seconds = 0;

  const ExecStats& stats() const {
    switch (kind) {
      case QueryRequest::Kind::kFilter:
        return filter.stats;
      case QueryRequest::Kind::kTopK:
        return topk.stats;
      case QueryRequest::Kind::kAggregation:
      case QueryRequest::Kind::kMaskAgg:
        return agg.stats;
    }
    return filter.stats;  // unreachable
  }
};

}  // namespace masksearch

#endif  // MASKSEARCH_SERVICE_REQUEST_H_
