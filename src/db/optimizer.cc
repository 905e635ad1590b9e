#include "db/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "db/join_order.h"

namespace diads::db {

Status SetParamByName(DbParams* params, const std::string& name,
                      double value) {
  if (name == "seq_page_cost") params->seq_page_cost = value;
  else if (name == "random_page_cost") params->random_page_cost = value;
  else if (name == "cpu_tuple_cost") params->cpu_tuple_cost = value;
  else if (name == "cpu_index_tuple_cost") params->cpu_index_tuple_cost = value;
  else if (name == "cpu_operator_cost") params->cpu_operator_cost = value;
  else if (name == "work_mem_mb") params->work_mem_mb = value;
  else if (name == "buffer_pool_mb") params->buffer_pool_mb = value;
  else if (name == "effective_cache_mb") params->effective_cache_mb = value;
  else return Status::InvalidArgument("unknown parameter: " + name);
  return Status::Ok();
}

Result<double> GetParamByName(const DbParams& params, const std::string& name) {
  if (name == "seq_page_cost") return params.seq_page_cost;
  if (name == "random_page_cost") return params.random_page_cost;
  if (name == "cpu_tuple_cost") return params.cpu_tuple_cost;
  if (name == "cpu_index_tuple_cost") return params.cpu_index_tuple_cost;
  if (name == "cpu_operator_cost") return params.cpu_operator_cost;
  if (name == "work_mem_mb") return params.work_mem_mb;
  if (name == "buffer_pool_mb") return params.buffer_pool_mb;
  if (name == "effective_cache_mb") return params.effective_cache_mb;
  return Status::InvalidArgument("unknown parameter: " + name);
}

namespace {

/// The PostgreSQL-ish hooks into the shared join-order search.
class PostgresPlanner final : public JoinOrderDp {
 public:
  PostgresPlanner(const Catalog* catalog, const DbParams& params)
      : JoinOrderDp(catalog, ""), p_(params) {}

 private:
  Result<PlanNodePtr> ScanPath(const QuerySpec& spec,
                               const TableRef& ref) const override;
  std::vector<PlanNodePtr> JoinMethods(const JoinStep& step) const override;
  PlanNodePtr CartesianJoin(const PlanNodePtr& outer, const PlanNodePtr& inner,
                            double out_rows) const override {
    return MakeMaterializedNestLoop(outer, inner, "cartesian", out_rows);
  }
  void CostAggregate(const PlanNode& input, PlanNode* agg) const override {
    agg->cost = input.cost + input.rows * p_.cpu_operator_cost +
                agg->rows * p_.cpu_tuple_cost;
  }
  void CostSort(const PlanNode& input, PlanNode* sort) const override;
  PlanNodePtr JoinSubquery(const PlanNodePtr& main, const PlanNodePtr& sub,
                           const JoinPredicate& pred,
                           double out_rows) const override {
    return MakeHashJoin(main, sub, JoinDetail(pred), out_rows);
  }

  PlanNodePtr MakeHashJoin(const PlanNodePtr& outer, const PlanNodePtr& inner,
                           const std::string& detail, double out_rows) const;
  Result<PlanNodePtr> MakeIndexNestLoop(const JoinStep& step) const;
  PlanNodePtr MakeMaterializedNestLoop(const PlanNodePtr& outer,
                                       const PlanNodePtr& inner,
                                       const std::string& detail,
                                       double out_rows) const;

  const DbParams& p_;
};

/// Best access path: sequential scan vs an index scan on the filter column.
Result<PlanNodePtr> PostgresPlanner::ScanPath(const QuerySpec& /*spec*/,
                                              const TableRef& ref) const {
  Result<const TableDef*> table_r = catalog().FindTable(ref.table);
  DIADS_RETURN_IF_ERROR(table_r.status());
  const TableDef& table = **table_r;
  const TableStats& stats = table.optimizer_stats;
  const DbParams& p = p_;

  const double out_rows =
      std::max(1.0, stats.row_count * ref.filter_selectivity);

  auto seq = std::make_shared<PlanNode>();
  seq->type = OpType::kSeqScan;
  seq->alias = ref.alias;
  seq->table = ref.table;
  seq->rows = out_rows;
  seq->pages = std::max(1.0, stats.pages());
  seq->cost = seq->pages * p.seq_page_cost +
              stats.row_count * p.cpu_tuple_cost;
  seq->width = stats.row_width_bytes;
  if (ref.filter_selectivity < 1.0) {
    seq->detail = StrFormat("filter on %s, sel=%.4f",
                            ref.filter_column.empty()
                                ? "<non-indexed predicate>"
                                : ref.filter_column.c_str(),
                            ref.filter_selectivity);
  }

  PlanNodePtr best = seq;
  if (!ref.filter_column.empty()) {
    for (const IndexDef* index : catalog().IndexesOn(ref.table,
                                                     ref.filter_column)) {
      const double sel = ref.filter_selectivity;
      const double index_pages = index->height + sel * index->leaf_pages;
      // Heap fetches: clustered index ranges touch few pages; unclustered
      // ones pay a random page per row (capped by the table size).
      const double heap_pages =
          std::min(stats.pages(),
                   sel * stats.row_count *
                       (index->clustering * 0.1 + (1.0 - index->clustering)));
      auto idx = std::make_shared<PlanNode>();
      idx->type = OpType::kIndexScan;
      idx->alias = ref.alias;
      idx->table = ref.table;
      idx->index_name = index->name;
      idx->rows = out_rows;
      idx->pages = index_pages + heap_pages;
      idx->cost = (index_pages + heap_pages) * p.random_page_cost +
                  sel * stats.row_count * p.cpu_index_tuple_cost +
                  out_rows * p.cpu_tuple_cost;
      idx->width = stats.row_width_bytes;
      idx->detail = StrFormat("%s = ?, sel=%.4f", ref.filter_column.c_str(),
                              sel);
      if (idx->cost < best->cost) best = idx;
    }
  }
  return best;
}

/// Hash join, then index nested loop, then materialized nested loop.
std::vector<PlanNodePtr> PostgresPlanner::JoinMethods(
    const JoinStep& step) const {
  const std::string detail = JoinDetail(step.pred);
  std::vector<PlanNodePtr> methods = {
      MakeHashJoin(step.outer, step.inner_scan, detail, step.out_rows)};
  Result<PlanNodePtr> inl = MakeIndexNestLoop(step);
  if (inl.ok()) methods.push_back(*inl);
  methods.push_back(MakeMaterializedNestLoop(step.outer, step.inner_scan,
                                             detail, step.out_rows));
  return methods;
}

/// Hash join: HashJoin(outer, Hash(inner)).
PlanNodePtr PostgresPlanner::MakeHashJoin(const PlanNodePtr& outer,
                                          const PlanNodePtr& inner,
                                          const std::string& detail,
                                          double out_rows) const {
  const DbParams& p = p_;
  auto hash = std::make_shared<PlanNode>();
  hash->type = OpType::kHash;
  hash->children = {inner};
  hash->rows = inner->rows;
  hash->width = inner->width;
  double build_cost = inner->rows * p.cpu_operator_cost * 1.5;
  // Multi-batch penalty when the build side exceeds work_mem.
  const double build_mb = inner->rows * inner->width / (1024.0 * 1024.0);
  double spill_pages = 0;
  if (build_mb > p.work_mem_mb) {
    spill_pages = 2.0 * build_mb * 1024.0 * 1024.0 / kPageSizeBytes;
    build_cost += spill_pages * p.seq_page_cost;
  }
  hash->cost = inner->cost + build_cost;
  hash->pages = spill_pages;
  hash->detail = StrFormat("build %s", inner->alias.c_str());

  auto join = std::make_shared<PlanNode>();
  join->type = OpType::kHashJoin;
  join->children = {outer, hash};
  join->rows = out_rows;
  join->width = outer->width + inner->width;
  join->cost = outer->cost + hash->cost +
               outer->rows * p.cpu_operator_cost +
               out_rows * p.cpu_tuple_cost;
  join->detail = detail;
  return join;
}

/// Nested loop with an index probe on the inner table's join column.
Result<PlanNodePtr> PostgresPlanner::MakeIndexNestLoop(
    const JoinStep& step) const {
  const DbParams& p = p_;
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
      std::max(0.1, stats.row_count * inner_ref.filter_selectivity / ndv);
  const double probes = std::max(1.0, step.outer->rows);

  // Per-probe: descend the B-tree, then fetch matching heap rows. Repeated
  // probes hit cached upper levels; charge a fraction of the root-to-leaf
  // descent plus clustered heap fetches.
  const double pages_per_probe =
      0.5 * index->height +
      matches_per_probe * (index->clustering * 0.15 +
                           (1.0 - index->clustering) * 1.0);
  const double cost_per_probe =
      pages_per_probe * p.random_page_cost +
      matches_per_probe * (p.cpu_index_tuple_cost + p.cpu_tuple_cost);

  auto inner = std::make_shared<PlanNode>();
  inner->type = OpType::kIndexScan;
  inner->alias = inner_ref.alias;
  inner->table = inner_ref.table;
  inner->index_name = index->name;
  inner->rows = probes * matches_per_probe * inner_ref.filter_selectivity;
  inner->pages = probes * pages_per_probe;
  inner->cost = probes * cost_per_probe;
  inner->width = stats.row_width_bytes;
  inner->detail = StrFormat("%s = outer, ~%.1f rows/probe",
                            inner_join_column.c_str(), matches_per_probe);

  auto join = std::make_shared<PlanNode>();
  join->type = OpType::kNestLoopJoin;
  join->children = {step.outer, inner};
  join->rows = step.out_rows;
  join->width = step.outer->width + inner->width;
  join->cost = step.outer->cost + inner->cost + step.out_rows * p.cpu_tuple_cost;
  join->detail = JoinDetail(pred);
  return PlanNodePtr(join);
}

/// Naive nested loop over a materialized inner (fallback when nothing
/// better exists; rarely wins on cost).
PlanNodePtr PostgresPlanner::MakeMaterializedNestLoop(
    const PlanNodePtr& outer, const PlanNodePtr& inner,
    const std::string& detail, double out_rows) const {
  const DbParams& p = p_;
  auto mat = std::make_shared<PlanNode>();
  mat->type = OpType::kMaterialize;
  mat->children = {inner};
  mat->rows = inner->rows;
  mat->width = inner->width;
  mat->cost = inner->cost + inner->rows * p.cpu_operator_cost;

  auto join = std::make_shared<PlanNode>();
  join->type = OpType::kNestLoopJoin;
  join->children = {outer, mat};
  join->rows = out_rows;
  join->width = outer->width + inner->width;
  join->cost = outer->cost + mat->cost +
               outer->rows * inner->rows * p.cpu_operator_cost +
               out_rows * p.cpu_tuple_cost;
  join->detail = detail;
  return join;
}

void PostgresPlanner::CostSort(const PlanNode& input, PlanNode* sort) const {
  const double n = std::max(2.0, input.rows);
  double cost = 2.0 * n * std::log2(n) * p_.cpu_operator_cost;
  const double bytes = input.rows * input.width;
  if (bytes > p_.work_mem_mb * 1024 * 1024) {
    // External merge sort: write + read one full pass.
    sort->pages = 2.0 * bytes / kPageSizeBytes;
    cost += sort->pages * p_.seq_page_cost;
  }
  sort->cost = input.cost + cost;
}

}  // namespace

Optimizer::Optimizer(const Catalog* catalog, DbParams params)
    : catalog_(catalog), params_(params) {
  assert(catalog != nullptr);
}

Result<Plan> Optimizer::Optimize(const QuerySpec& spec) const {
  return PostgresPlanner(catalog_, params_).Optimize(spec);
}

}  // namespace diads::db
