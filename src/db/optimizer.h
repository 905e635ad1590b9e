// Cost-based query optimizer.
//
// A System-R-style optimizer in the PostgreSQL tradition. The left-deep
// join-order DP, the block structure (the decorrelated subquery is planned
// independently, aggregated, and joined into the main block) and the plan
// flattening are shared with the other engines (db/join_order.h); this
// engine supplies only its access paths (sequential vs. index scan), its
// join methods (hash join, index nested loop, materialized nested loop)
// and its cost vocabulary (DbParams: seq/random page costs, work_mem).
//
// Why the reproduction needs a real optimizer: Module PD diagnoses *plan
// changes* by checking, for every schema/configuration event between a good
// and a bad run, "whether this change could have caused the plan change"
// (Section 4.1) — which DIADS answers by re-optimizing under the
// hypothetical pre-change state. Index drops, ANALYZE-refreshed statistics,
// and cost-parameter changes (random_page_cost, work_mem) must therefore
// actually flip plans here, the same way reference [18]'s storage-cost-model
// sensitivity results say they do.
#ifndef DIADS_DB_OPTIMIZER_H_
#define DIADS_DB_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "db/plan.h"
#include "db/query.h"

namespace diads::db {

/// Optimizer / executor configuration parameters (the PostgreSQL GUC subset
/// the paper's plan-change analysis cares about).
struct DbParams {
  double seq_page_cost = 1.0;
  double random_page_cost = 4.0;
  double cpu_tuple_cost = 0.01;
  double cpu_index_tuple_cost = 0.005;
  double cpu_operator_cost = 0.0025;
  double work_mem_mb = 16.0;
  double buffer_pool_mb = 512.0;
  double effective_cache_mb = 1024.0;
  /// Executor translation: milliseconds of CPU per optimizer cost unit of
  /// CPU-type cost (calibrates simulated compute speed).
  double cpu_ms_per_cost_unit = 0.06;
};

/// Names usable with kDbParamChanged events, e.g. "random_page_cost".
/// Applies `value` to the named parameter; InvalidArgument for unknown names.
Status SetParamByName(DbParams* params, const std::string& name, double value);
Result<double> GetParamByName(const DbParams& params, const std::string& name);

/// The optimizer. Stateless besides catalog/params references; Optimize()
/// is deterministic.
class Optimizer {
 public:
  /// `catalog` must outlive the optimizer.
  Optimizer(const Catalog* catalog, DbParams params);

  /// Plans a query using the catalog's *optimizer* statistics.
  Result<Plan> Optimize(const QuerySpec& spec) const;

  const DbParams& params() const { return params_; }
  void set_params(DbParams params) { params_ = params; }

 private:
  const Catalog* catalog_;
  DbParams params_;
};

}  // namespace diads::db

#endif  // DIADS_DB_OPTIMIZER_H_
