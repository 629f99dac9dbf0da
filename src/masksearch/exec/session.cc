#include "masksearch/exec/session.h"

#include <cmath>

#include "masksearch/common/io.h"
#include "masksearch/common/stopwatch.h"

namespace masksearch {

Session::Session(const MaskStore* store, SessionOptions options)
    : store_(store), options_(std::move(options)) {}

Result<std::unique_ptr<Session>> Session::Open(const MaskStore* store,
                                               const SessionOptions& options) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (!options.chi.Valid()) {
    return Status::InvalidArgument("invalid CHI config: " +
                                   options.chi.ToString());
  }
  auto session = std::unique_ptr<Session>(new Session(store, options));
  if (options.shared_chis != nullptr) {
    if (!(options.shared_chis->config() == options.chi)) {
      return Status::InvalidArgument(
          "shared_chis config differs from the session's ChiConfig");
    }
    if (options.use_index) session->chis_ = options.shared_chis;
    return session;
  }
  session->index_ =
      std::make_unique<IndexManager>(store->num_masks(), options.chi);
  if (!options.use_index) return session;
  session->chis_ = session->index_.get();
  const bool have_file =
      !options.index_path.empty() && PathExists(options.index_path);
  if (options.attach_index) {
    if (!have_file) {
      return Status::InvalidArgument(
          "attach_index requires an existing index_path file");
    }
    MS_RETURN_NOT_OK(session->index_->AttachFile(options.index_path));
    return session;
  }
  if (have_file) {
    MS_RETURN_NOT_OK(session->index_->LoadFromFile(options.index_path));
  }
  if (!options.incremental) {
    Stopwatch timer;
    MS_RETURN_NOT_OK(session->index_->BuildAll(*store, options.pool));
    session->index_build_seconds_ = timer.ElapsedSeconds();
  }
  return session;
}

Result<FilterResult> Session::Filter(const FilterQuery& q,
                                     const QueryControl* control) {
  return ExecuteFilter(*store_, chis_, q, engine_options(control));
}

Result<TopKResult> Session::TopK(const TopKQuery& q,
                                 const QueryControl* control) {
  return ExecuteTopK(*store_, chis_, q, engine_options(control));
}

Result<AggResult> Session::Aggregate(const AggregationQuery& q,
                                     const QueryControl* control) {
  return ExecuteAggregation(*store_, chis_, q, engine_options(control));
}

Result<AggResult> Session::MaskAggregate(const MaskAggQuery& q,
                                         const QueryControl* control) {
  DerivedIndexCache* cache =
      options_.use_index ? derived_cache(q.op, q.agg_threshold) : nullptr;
  return ExecuteMaskAgg(*store_, chis_, cache, q, engine_options(control));
}

DerivedIndexCache* Session::derived_cache(MaskAggOp op, double threshold) {
  // Quantize the threshold so fp noise does not fragment the cache.
  const auto key = std::make_pair(
      static_cast<int>(op), static_cast<int64_t>(std::llround(threshold * 1e9)));
  std::lock_guard<std::mutex> lock(derived_mu_);
  auto& slot = derived_caches_[key];
  if (slot == nullptr) {
    slot = std::make_unique<DerivedIndexCache>(options_.chi, options_.cache);
  }
  return slot.get();
}

Status Session::Save() {
  if (options_.index_path.empty() || index_ == nullptr) {
    return Status::InvalidArgument("session has no index_path configured");
  }
  return index_->SaveToFile(options_.index_path);
}

}  // namespace masksearch
