// The join-order search every engine's optimizer shares.
//
// All three synthetic engines plan a query the same way: each block gets
// the best access path per table, then a left-deep dynamic program over
// table subsets picks the join order (a cartesian extension is considered
// only when no remaining table joins the subset), then the block's
// aggregate, the decorrelated subquery, ORDER BY, LIMIT and the Result
// root go on top, and the node tree is flattened into a db::Plan.
// JoinOrderDp owns that skeleton. An engine subclasses it and supplies
// only what differs — its access paths, its join-method candidates, and
// the costs of its aggregate, sort and subquery operators, all in its own
// parameter vocabulary.
//
// Tie-breaks are part of the contract (plan fingerprints feed report
// digests): within one subset size masks are visited in ascending order,
// inner tables in ascending index, join-method candidates in the order the
// engine lists them, and a candidate replaces the incumbent only when it
// is strictly cheaper.
#ifndef DIADS_DB_JOIN_ORDER_H_
#define DIADS_DB_JOIN_ORDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "db/plan.h"
#include "db/query.h"

namespace diads::db {

/// Plan-tree node built during enumeration; flattened into a Plan at the
/// end. Shared pointers let DP states share subtrees cheaply.
struct PlanNode {
  OpType type = OpType::kSeqScan;
  std::vector<std::shared_ptr<const PlanNode>> children;
  std::string alias;
  std::string table;
  std::string index_name;
  std::string detail;
  std::string engine_op;  ///< Engine-native name (see PlanOp::engine_op).
  double rows = 0;
  double cost = 0;        ///< Cumulative.
  double pages = 0;       ///< Page fetches attributable to this op itself.
  double width = 64;      ///< Bytes per output row (for memory estimates).
};
using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// The "a.x = b.y" text of a join predicate.
std::string JoinDetail(const JoinPredicate& pred);

/// Left-deep join-order search over an engine's cost hooks.
class JoinOrderDp {
 public:
  /// `catalog` must outlive the search. `limit_engine_op` is the engine's
  /// name for the LIMIT operator.
  JoinOrderDp(const Catalog* catalog, std::string limit_engine_op);

  /// Plans a query using the catalog's *optimizer* statistics.
  Result<Plan> Optimize(const QuerySpec& spec) const;

 protected:
  /// One join extension: the outer subtree, the inner table with its best
  /// access path, the predicate connecting them, and the estimated output.
  struct JoinStep {
    const QuerySpec& spec;
    const PlanNodePtr& outer;
    const TableRef& inner_ref;
    const PlanNodePtr& inner_scan;
    const JoinPredicate& pred;
    const std::string& inner_column;  ///< The inner side's column of `pred`.
    double out_rows;
  };

  /// Best access path for one table reference.
  virtual Result<PlanNodePtr> ScanPath(const QuerySpec& spec,
                                       const TableRef& ref) const = 0;
  /// The engine's join-method candidates for one step, in tie-break order.
  virtual std::vector<PlanNodePtr> JoinMethods(const JoinStep& step) const = 0;
  /// The join used when no remaining table connects to the outer subset.
  virtual PlanNodePtr CartesianJoin(const PlanNodePtr& outer,
                                    const PlanNodePtr& inner,
                                    double out_rows) const = 0;
  /// Costs a block's GROUP BY. `agg` arrives with its type, child, rows,
  /// width and detail set; the hook fills cost, pages and engine_op.
  virtual void CostAggregate(const PlanNode& input, PlanNode* agg) const = 0;
  /// Costs ORDER BY, filled in the same way as CostAggregate.
  virtual void CostSort(const PlanNode& input, PlanNode* sort) const = 0;
  /// Joins the planned subquery block back into the main block.
  virtual PlanNodePtr JoinSubquery(const PlanNodePtr& main,
                                   const PlanNodePtr& sub,
                                   const JoinPredicate& pred,
                                   double out_rows) const = 0;

  const Catalog& catalog() const { return *catalog_; }

  /// Distinct values of `alias.column` in the optimizer statistics (1000
  /// when unknown).
  double ColumnNdv(const QuerySpec& spec, const std::string& alias,
                   const std::string& column) const;

 private:
  /// Equi-join output estimate: |outer| * |inner| / max(ndv_l, ndv_r).
  double JoinOutputRows(const QuerySpec& spec, double outer_rows,
                        double inner_rows, const JoinPredicate& pred) const;
  /// Plans one query block (no subquery handling).
  Result<PlanNodePtr> PlanBlock(const QuerySpec& spec) const;

  const Catalog* catalog_;
  std::string limit_engine_op_;
};

}  // namespace diads::db

#endif  // DIADS_DB_JOIN_ORDER_H_
