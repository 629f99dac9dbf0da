#include "masksearch/exec/explain.h"

#include <cstdio>

namespace masksearch {

namespace {

std::string TermsBlock(const std::vector<CpTerm>& terms) {
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    out += "  CP#" + std::to_string(i) + ": " + terms[i].ToString() + "\n";
  }
  return out;
}

std::string LimitBlock(const std::optional<size_t>& k, bool descending,
                       const std::optional<CompareOp>& having_op,
                       double having_threshold) {
  std::string out;
  if (having_op.has_value()) {
    out += "  HAVING aggregate " +
           std::string(CompareOpToString(*having_op)) + " " +
           std::to_string(having_threshold) + "\n";
  }
  if (k.has_value()) {
    out += "  ORDER BY aggregate " + std::string(descending ? "DESC" : "ASC") +
           " LIMIT " + std::to_string(*k) + "\n";
  }
  return out;
}

}  // namespace

std::string ExplainSelection(const Selection& sel) {
  std::string out = "selection:";
  bool any = false;
  if (!sel.model_ids.empty()) {
    out += " model_id IN {";
    for (size_t i = 0; i < sel.model_ids.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(sel.model_ids[i]);
    }
    out += "}";
    any = true;
  }
  if (!sel.mask_types.empty()) {
    out += " mask_type IN {";
    for (size_t i = 0; i < sel.mask_types.size(); ++i) {
      if (i > 0) out += ",";
      out += MaskTypeToString(sel.mask_types[i]);
    }
    out += "}";
    any = true;
  }
  if (!sel.predicted_labels.empty()) {
    out += " predicted_label IN {" + std::to_string(sel.predicted_labels[0]) +
           (sel.predicted_labels.size() > 1 ? ",...}" : "}");
    any = true;
  }
  if (!sel.mask_ids.empty()) {
    out += " explicit id set (" + std::to_string(sel.mask_ids.size()) +
           " masks)";
    any = true;
  }
  if (!any) out += " all masks";
  return out + " [catalog only, no data reads]";
}

std::string ExplainFilter(const FilterQuery& q) {
  std::string out = "Filter query (filter-verification, §3.2)\n";
  out += ExplainSelection(q.selection) + "\n";
  out += "terms:\n" + TermsBlock(q.terms);
  out += "predicate: " + q.predicate.ToString() + "\n";
  out += "plan:\n";
  out += "  1. filter stage: CHI bounds per mask -> prune certain-false,\n";
  out += "     accept certain-true (no disk I/O)\n";
  out += "  2. verification stage: load undecided masks, exact CP scan\n";
  return out;
}

std::string ExplainTopK(const TopKQuery& q) {
  std::string out = "Top-K query (§3.5)\n";
  out += ExplainSelection(q.selection) + "\n";
  out += "terms:\n" + TermsBlock(q.terms);
  out += "order by: " + q.order_expr.ToString() +
         (q.descending ? " DESC" : " ASC") + " limit " + std::to_string(q.k) +
         "\n";
  out += "plan:\n";
  out += "  1. compute order-expression intervals from CHI (parallel)\n";
  out += "  2. process masks by optimistic bound; prune masks that cannot\n";
  out += "     outrank the running k-th result (Eq. 15); tight bounds give\n";
  out += "     exact values without loading\n";
  return out;
}

std::string ExplainAggregation(const AggregationQuery& q) {
  std::string out = "Aggregation query (§3.4)\n";
  out += ExplainSelection(q.selection) + "\n";
  out += "aggregate: " + std::string(ScalarAggOpToString(q.op)) + "(" +
         q.term.ToString() + ") GROUP BY " +
         (q.group_key == GroupKey::kImageId
              ? "image_id"
              : q.group_key == GroupKey::kModelId ? "model_id" : "mask_type") +
         "\n";
  out += LimitBlock(q.k, q.descending, q.having_op, q.having_threshold);
  out += "plan:\n";
  out += "  1. group member CP intervals -> aggregate interval per group\n";
  out += "  2. prune groups from bounds; verify surviving groups, loading\n";
  out += "     only members whose bounds are not tight\n";
  return out;
}

std::string ExplainMaskAgg(const MaskAggQuery& q) {
  std::string out = "Mask-aggregation query (§3.4)\n";
  out += ExplainSelection(q.selection) + "\n";
  out += "aggregate: CP(" + std::string(MaskAggOpToString(q.op)) +
         "(mask > " + std::to_string(q.agg_threshold) + "), " +
         q.term.ToString() + ")\n";
  out += LimitBlock(q.k, q.descending, q.having_op, q.having_threshold);
  out += "plan:\n";
  out += "  1. bounds from derived-mask CHI cache when present, else from\n";
  out += "     member CHIs (monotone-aggregation extension)\n";
  out += "  2. verify surviving groups: load members, materialize derived\n";
  out += "     mask, exact CP; cache the derived CHI for future queries\n";
  return out;
}

std::string SummarizeStats(const ExecStats& stats) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%lld targeted | %lld pruned + %lld accepted from bounds | "
                "%lld loaded (FML %.2f%%) | %.3fs | %.2f MiB read",
                static_cast<long long>(stats.masks_targeted),
                static_cast<long long>(stats.pruned),
                static_cast<long long>(stats.accepted_by_bounds),
                static_cast<long long>(stats.masks_loaded), 100 * stats.FML(),
                stats.seconds,
                static_cast<double>(stats.bytes_read) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace masksearch
