#include "db/mysql_optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "db/join_order.h"

namespace diads::db {

Status SetMysqlParamByName(MysqlParams* params, const std::string& name,
                           double value) {
  if (name == "io_block_read_cost") params->io_block_read_cost = value;
  else if (name == "memory_block_read_cost")
    params->memory_block_read_cost = value;
  else if (name == "row_evaluate_cost") params->row_evaluate_cost = value;
  else if (name == "key_compare_cost") params->key_compare_cost = value;
  else if (name == "join_buffer_mb") params->join_buffer_mb = value;
  else if (name == "sort_buffer_mb") params->sort_buffer_mb = value;
  else if (name == "tmp_table_mb") params->tmp_table_mb = value;
  else if (name == "buffer_pool_mb") params->buffer_pool_mb = value;
  else return Status::InvalidArgument("unknown parameter: " + name);
  return Status::Ok();
}

Result<double> GetMysqlParamByName(const MysqlParams& params,
                                   const std::string& name) {
  if (name == "io_block_read_cost") return params.io_block_read_cost;
  if (name == "memory_block_read_cost") return params.memory_block_read_cost;
  if (name == "row_evaluate_cost") return params.row_evaluate_cost;
  if (name == "key_compare_cost") return params.key_compare_cost;
  if (name == "join_buffer_mb") return params.join_buffer_mb;
  if (name == "sort_buffer_mb") return params.sort_buffer_mb;
  if (name == "tmp_table_mb") return params.tmp_table_mb;
  if (name == "buffer_pool_mb") return params.buffer_pool_mb;
  return Status::InvalidArgument("unknown parameter: " + name);
}

namespace {

/// The MySQL-ish hooks into the shared join-order search.
class MysqlPlanner final : public JoinOrderDp {
 public:
  MysqlPlanner(const Catalog* catalog, const MysqlParams& params)
      : JoinOrderDp(catalog, "limit"), p_(params) {}

 private:
  Result<PlanNodePtr> ScanPath(const QuerySpec& spec,
                               const TableRef& ref) const override;
  std::vector<PlanNodePtr> JoinMethods(const JoinStep& step) const override;
  PlanNodePtr CartesianJoin(const PlanNodePtr& outer, const PlanNodePtr& inner,
                            double out_rows) const override {
    return MakeBlockNestLoop(outer, inner, "cartesian", out_rows);
  }
  void CostAggregate(const PlanNode& input, PlanNode* agg) const override;
  void CostSort(const PlanNode& input, PlanNode* sort) const override;
  PlanNodePtr JoinSubquery(const PlanNodePtr& main, const PlanNodePtr& sub,
                           const JoinPredicate& pred,
                           double out_rows) const override;

  Result<PlanNodePtr> MakeIndexNestLoop(const JoinStep& step) const;
  PlanNodePtr MakeBlockNestLoop(const PlanNodePtr& outer,
                                const PlanNodePtr& inner,
                                const std::string& detail,
                                double out_rows) const;

  const MysqlParams& p_;
};

/// Best access path for one table reference: full table scan ("ALL") vs an
/// index range scan on the filter column. Both pay the same per-page
/// io_block_read_cost — the absence of a random-access penalty is the
/// engine's defining cost-model property.
Result<PlanNodePtr> MysqlPlanner::ScanPath(const QuerySpec& /*spec*/,
                                           const TableRef& ref) const {
  Result<const TableDef*> table_r = catalog().FindTable(ref.table);
  DIADS_RETURN_IF_ERROR(table_r.status());
  const TableDef& table = **table_r;
  const TableStats& stats = table.optimizer_stats;
  const MysqlParams& p = p_;

  const double out_rows =
      std::max(1.0, stats.row_count * ref.filter_selectivity);

  auto all = std::make_shared<PlanNode>();
  all->type = OpType::kSeqScan;
  all->engine_op = "ALL";
  all->alias = ref.alias;
  all->table = ref.table;
  all->rows = out_rows;
  all->pages = std::max(1.0, stats.pages());
  all->cost = all->pages * p.io_block_read_cost +
              stats.row_count * p.row_evaluate_cost;
  all->width = stats.row_width_bytes;
  if (ref.filter_selectivity < 1.0) {
    all->detail = StrFormat("where %s, sel=%.4f",
                            ref.filter_column.empty()
                                ? "<non-indexed predicate>"
                                : ref.filter_column.c_str(),
                            ref.filter_selectivity);
  }

  PlanNodePtr best = all;
  if (!ref.filter_column.empty()) {
    for (const IndexDef* index : catalog().IndexesOn(ref.table,
                                                     ref.filter_column)) {
      const double sel = ref.filter_selectivity;
      const double index_pages = index->height + sel * index->leaf_pages;
      const double heap_pages =
          std::min(stats.pages(),
                   sel * stats.row_count *
                       (index->clustering * 0.1 + (1.0 - index->clustering)));
      auto range = std::make_shared<PlanNode>();
      range->type = OpType::kIndexScan;
      range->engine_op = "range";
      range->alias = ref.alias;
      range->table = ref.table;
      range->index_name = index->name;
      range->rows = out_rows;
      range->pages = index_pages + heap_pages;
      range->cost = (index_pages + heap_pages) * p.io_block_read_cost +
                    sel * stats.row_count * p.key_compare_cost +
                    out_rows * p.row_evaluate_cost;
      range->width = stats.row_width_bytes;
      range->detail = StrFormat("%s = ?, sel=%.4f", ref.filter_column.c_str(),
                                sel);
      if (range->cost < best->cost) best = range;
    }
  }
  return best;
}

/// Block nested loop is always available, but an index on the inner join
/// column beats it essentially always (the index-nested-loop bias).
std::vector<PlanNodePtr> MysqlPlanner::JoinMethods(const JoinStep& step) const {
  std::vector<PlanNodePtr> methods = {MakeBlockNestLoop(
      step.outer, step.inner_scan, JoinDetail(step.pred), step.out_rows)};
  Result<PlanNodePtr> inl = MakeIndexNestLoop(step);
  if (inl.ok()) methods.push_back(*inl);
  return methods;
}

/// Index nested loop: the engine's preferred join. "eq_ref" when the inner
/// index is unique (at most one row per probe), "ref" otherwise.
Result<PlanNodePtr> MysqlPlanner::MakeIndexNestLoop(
    const JoinStep& step) const {
  const MysqlParams& p = p_;
  const TableRef& inner_ref = step.inner_ref;
  const JoinPredicate& pred = step.pred;
  const std::string& inner_join_column = step.inner_column;
  std::vector<const IndexDef*> indexes =
      catalog().IndexesOn(inner_ref.table, inner_join_column);
  if (indexes.empty()) {
    return Status::NotFound("no index on " + inner_ref.table + "." +
                            inner_join_column);
  }
  const IndexDef* index = indexes.front();
  Result<const TableDef*> table_r = catalog().FindTable(inner_ref.table);
  DIADS_RETURN_IF_ERROR(table_r.status());
  const TableStats& stats = (*table_r)->optimizer_stats;

  const double ndv = ColumnNdv(
      step.spec, pred.left_alias == inner_ref.alias ? pred.left_alias
                                                    : pred.right_alias,
      inner_join_column);
  const double matches_per_probe =
      index->unique
          ? std::min(1.0, stats.row_count * inner_ref.filter_selectivity /
                              std::max(1.0, ndv))
          : std::max(0.1, stats.row_count * inner_ref.filter_selectivity /
                              std::max(1.0, ndv));
  const double probes = std::max(1.0, step.outer->rows);

  // Per probe: a partially cached B-tree descent plus heap fetches, all at
  // the flat io_block_read_cost.
  const double pages_per_probe =
      0.5 * index->height +
      matches_per_probe * (index->clustering * 0.15 +
                           (1.0 - index->clustering) * 1.0);
  const double cost_per_probe =
      pages_per_probe * p.io_block_read_cost +
      index->height * p.key_compare_cost +
      matches_per_probe * p.row_evaluate_cost;

  auto inner = std::make_shared<PlanNode>();
  inner->type = OpType::kIndexScan;
  inner->engine_op = index->unique ? "eq_ref" : "ref";
  inner->alias = inner_ref.alias;
  inner->table = inner_ref.table;
  inner->index_name = index->name;
  // matches_per_probe already reflects the inner table's local filter.
  inner->rows = probes * matches_per_probe;
  inner->pages = probes * pages_per_probe;
  inner->cost = probes * cost_per_probe;
  inner->width = stats.row_width_bytes;
  inner->detail = StrFormat("%s = outer, ~%.1f rows/probe",
                            inner_join_column.c_str(), matches_per_probe);

  auto join = std::make_shared<PlanNode>();
  join->type = OpType::kNestLoopJoin;
  join->engine_op = "nested loop";
  join->children = {step.outer, inner};
  join->rows = step.out_rows;
  join->width = step.outer->width + inner->width;
  join->cost =
      step.outer->cost + inner->cost + step.out_rows * p.row_evaluate_cost;
  join->detail = JoinDetail(pred);
  return PlanNodePtr(join);
}

/// Block nested loop: the no-usable-index fallback. The inner side is
/// rescanned once per join-buffer chunk of the outer, and every
/// (outer, inner) pair pays a row comparison — the quadratic CPU term that
/// makes BNL a last resort.
PlanNodePtr MysqlPlanner::MakeBlockNestLoop(const PlanNodePtr& outer,
                                            const PlanNodePtr& inner,
                                            const std::string& detail,
                                            double out_rows) const {
  const MysqlParams& p = p_;
  const double buffer_bytes = std::max(64.0 * 1024.0,
                                       p.join_buffer_mb * 1024.0 * 1024.0);
  const double chunks =
      std::max(1.0, std::ceil(outer->rows * outer->width / buffer_bytes));

  auto buffered = std::make_shared<PlanNode>();
  buffered->type = OpType::kMaterialize;
  buffered->engine_op = "join buffer";
  buffered->children = {inner};
  buffered->rows = inner->rows;
  buffered->width = inner->width;
  // The rescans: the inner subtree's own cost counts once (in inner->cost);
  // every additional chunk re-reads the inner's pages.
  buffered->pages = (chunks - 1.0) * inner->pages;
  buffered->cost = inner->cost +
                   (chunks - 1.0) * inner->pages * p.io_block_read_cost +
                   inner->rows * p.row_evaluate_cost;
  buffered->detail = StrFormat("%.0f chunk(s)", chunks);

  auto join = std::make_shared<PlanNode>();
  join->type = OpType::kNestLoopJoin;
  join->engine_op = "BNL";
  join->children = {outer, buffered};
  join->rows = out_rows;
  join->width = outer->width + inner->width;
  join->cost = outer->cost + buffered->cost +
               outer->rows * inner->rows * p.row_evaluate_cost * 0.1 +
               out_rows * p.row_evaluate_cost;
  join->detail = detail;
  return join;
}

/// GROUP BY through an in-memory temp table that spills past tmp_table_mb.
void MysqlPlanner::CostAggregate(const PlanNode& input, PlanNode* agg) const {
  agg->engine_op = "tmp table";
  double cost = input.rows * p_.row_evaluate_cost +
                agg->rows * p_.row_evaluate_cost;
  const double bytes = agg->rows * agg->width;
  if (bytes > p_.tmp_table_mb * 1024 * 1024) {
    agg->pages = 2.0 * bytes / kPageSizeBytes;
    cost += agg->pages * p_.io_block_read_cost;
  }
  agg->cost = input.cost + cost;
}

void MysqlPlanner::CostSort(const PlanNode& input, PlanNode* sort) const {
  sort->engine_op = "filesort";
  const double n = std::max(2.0, input.rows);
  double cost = n * std::log2(n) * p_.key_compare_cost;
  const double bytes = input.rows * input.width;
  if (bytes > p_.sort_buffer_mb * 1024 * 1024) {
    // Merge passes over tmp files, charged at the flat I/O cost.
    sort->pages = 2.0 * bytes / kPageSizeBytes;
    cost += sort->pages * p_.io_block_read_cost;
  }
  sort->cost = input.cost + cost;
}

/// Derived-table materialisation with an auto-generated lookup key: the
/// subquery block is evaluated once into a temp table, and the main block
/// probes it per row through auto_key0.
PlanNodePtr MysqlPlanner::JoinSubquery(const PlanNodePtr& main,
                                       const PlanNodePtr& sub,
                                       const JoinPredicate& pred,
                                       double out_rows) const {
  const MysqlParams& p = p_;
  auto mat = std::make_shared<PlanNode>();
  mat->type = OpType::kMaterialize;
  mat->engine_op = "materialize derived";
  mat->children = {sub};
  mat->rows = sub->rows;
  mat->width = sub->width;
  double mat_cost = sub->rows * p.row_evaluate_cost;
  const double bytes = mat->rows * mat->width;
  if (bytes > p.tmp_table_mb * 1024 * 1024) {
    mat->pages = 2.0 * bytes / kPageSizeBytes;
    mat_cost += mat->pages * p.io_block_read_cost;
  }
  mat->cost = sub->cost + mat_cost;
  mat->detail = "temp table with auto_key0";

  auto join = std::make_shared<PlanNode>();
  join->type = OpType::kNestLoopJoin;
  join->engine_op = "ref<auto_key0>";
  join->children = {main, mat};
  join->rows = out_rows;
  join->width = main->width + mat->width;
  join->cost = main->cost + mat->cost +
               main->rows * (p.key_compare_cost * 2 + p.row_evaluate_cost) +
               out_rows * p.row_evaluate_cost;
  join->detail = JoinDetail(pred);
  return join;
}

}  // namespace

MysqlOptimizer::MysqlOptimizer(const Catalog* catalog, MysqlParams params)
    : catalog_(catalog), params_(params) {
  assert(catalog != nullptr);
}

Result<Plan> MysqlOptimizer::Optimize(const QuerySpec& spec) const {
  return MysqlPlanner(catalog_, params_).Optimize(spec);
}

}  // namespace diads::db
