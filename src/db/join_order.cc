#include "db/join_order.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

#include "common/strings.h"

namespace diads::db {

namespace {

/// The join predicate (if any) connecting `alias` to any alias in `joined`.
const JoinPredicate* FindConnection(const QuerySpec& spec,
                                    const std::vector<std::string>& joined,
                                    const std::string& alias,
                                    bool* alias_is_left) {
  for (const JoinPredicate& j : spec.joins) {
    for (const std::string& a : joined) {
      if (j.left_alias == a && j.right_alias == alias) {
        *alias_is_left = false;
        return &j;
      }
      if (j.right_alias == a && j.left_alias == alias) {
        *alias_is_left = true;
        return &j;
      }
    }
  }
  return nullptr;
}

/// Flattens a node tree into `builder` (children added before parents);
/// returns the node's plan index.
int Emit(const PlanNode& node, PlanBuilder* builder) {
  std::vector<int> children;
  children.reserve(node.children.size());
  for (const PlanNodePtr& child : node.children) {
    children.push_back(Emit(*child, builder));
  }
  int index = -1;
  if (IsScan(node.type)) {
    assert(children.empty());
    index = builder->AddScan(node.type, node.alias, node.table,
                             node.index_name);
    builder->SetDetail(index, node.detail);
  } else {
    index = builder->AddOp(node.type, children, node.detail);
  }
  builder->SetEstimates(index, node.rows, node.cost, node.pages);
  builder->SetEngineOp(index, node.engine_op);
  return index;
}

}  // namespace

std::string JoinDetail(const JoinPredicate& pred) {
  return StrFormat("%s.%s = %s.%s", pred.left_alias.c_str(),
                   pred.left_column.c_str(), pred.right_alias.c_str(),
                   pred.right_column.c_str());
}

JoinOrderDp::JoinOrderDp(const Catalog* catalog, std::string limit_engine_op)
    : catalog_(catalog), limit_engine_op_(std::move(limit_engine_op)) {
  assert(catalog != nullptr);
}

double JoinOrderDp::ColumnNdv(const QuerySpec& spec, const std::string& alias,
                              const std::string& column) const {
  const TableRef* ref = spec.FindAlias(alias);
  if (ref == nullptr) return 1000;
  Result<const TableDef*> table = catalog_->FindTable(ref->table);
  if (!table.ok()) return 1000;
  const ColumnStats* col = (*table)->FindColumn(column);
  return col != nullptr ? std::max(1.0, col->ndv) : 1000;
}

double JoinOrderDp::JoinOutputRows(const QuerySpec& spec, double outer_rows,
                                   double inner_rows,
                                   const JoinPredicate& pred) const {
  const double ndv_l = ColumnNdv(spec, pred.left_alias, pred.left_column);
  const double ndv_r = ColumnNdv(spec, pred.right_alias, pred.right_column);
  return std::max(1.0, outer_rows * inner_rows / std::max(ndv_l, ndv_r));
}

Result<PlanNodePtr> JoinOrderDp::PlanBlock(const QuerySpec& spec) const {
  if (spec.tables.empty()) {
    return Status::InvalidArgument("query block has no tables");
  }
  if (spec.tables.size() > 16) {
    return Status::InvalidArgument("too many tables in block (max 16)");
  }
  const size_t n = spec.tables.size();
  const uint32_t full = (1u << n) - 1;

  struct DpState {
    PlanNodePtr node;  ///< Null until some join order reaches the subset.
    std::vector<std::string> aliases;
  };
  std::vector<DpState> dp(size_t{full} + 1);  // Indexed by table bitmask.

  // Singletons.
  for (size_t i = 0; i < n; ++i) {
    Result<PlanNodePtr> scan = ScanPath(spec, spec.tables[i]);
    DIADS_RETURN_IF_ERROR(scan.status());
    dp[1u << i] = DpState{*scan, {spec.tables[i].alias}};
  }

  // Left-deep extension in increasing subset-population order.
  for (size_t size = 1; size < n; ++size) {
    for (uint32_t mask = 1; mask < full; ++mask) {
      if (static_cast<size_t>(__builtin_popcount(mask)) != size ||
          dp[mask].node == nullptr) {
        continue;
      }
      const DpState& outer = dp[mask];
      // A cartesian extension is allowed only when nothing better exists:
      // no remaining table joins this subset (disconnected join graph, or
      // no predicates at all).
      bool any_connected = false;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) continue;
        bool unused = false;
        if (FindConnection(spec, outer.aliases, spec.tables[i].alias,
                           &unused) != nullptr) {
          any_connected = true;
        }
      }
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) continue;
        const TableRef& inner_ref = spec.tables[i];
        // The singleton states already hold each table's best access path.
        const PlanNodePtr& inner_scan = dp[1u << i].node;
        bool inner_is_left = false;
        const JoinPredicate* pred = FindConnection(
            spec, outer.aliases, inner_ref.alias, &inner_is_left);
        PlanNodePtr candidate;
        if (pred != nullptr) {
          const JoinStep step{
              spec, outer.node, inner_ref, inner_scan, *pred,
              inner_is_left ? pred->left_column : pred->right_column,
              JoinOutputRows(spec, outer.node->rows, inner_scan->rows, *pred)};
          for (const PlanNodePtr& method : JoinMethods(step)) {
            if (candidate == nullptr || method->cost < candidate->cost) {
              candidate = method;
            }
          }
        } else if (!any_connected) {
          candidate = CartesianJoin(outer.node, inner_scan,
                                    outer.node->rows * inner_scan->rows);
        }
        if (candidate == nullptr) continue;
        DpState& extended = dp[mask | (1u << i)];
        if (extended.node == nullptr || candidate->cost < extended.node->cost) {
          extended.node = candidate;
          extended.aliases = outer.aliases;
          extended.aliases.push_back(inner_ref.alias);
        }
      }
    }
  }

  PlanNodePtr result = dp[full].node;
  if (result == nullptr) {
    return Status::Internal("join enumeration failed to cover all tables");
  }
  if (spec.aggregate) {
    auto agg = std::make_shared<PlanNode>();
    agg->type = OpType::kAggregate;
    agg->children = {result};
    const double groups = std::min(
        result->rows,
        ColumnNdv(spec, spec.agg_group_alias, spec.agg_group_column));
    agg->rows = std::max(1.0, groups);
    agg->width = result->width;
    agg->detail = StrFormat("group by %s.%s", spec.agg_group_alias.c_str(),
                            spec.agg_group_column.c_str());
    CostAggregate(*result, agg.get());
    result = agg;
  }
  return result;
}

Result<Plan> JoinOrderDp::Optimize(const QuerySpec& spec) const {
  Result<PlanNodePtr> main_r = PlanBlock(spec);
  DIADS_RETURN_IF_ERROR(main_r.status());
  PlanNodePtr root = *main_r;

  if (spec.subplan != nullptr) {
    Result<PlanNodePtr> sub_r = PlanBlock(*spec.subplan);
    DIADS_RETURN_IF_ERROR(sub_r.status());
    const double out_rows =
        std::max(1.0, root->rows * spec.subplan_join_selectivity);
    root = JoinSubquery(root, *sub_r, spec.subplan_join, out_rows);
  }
  if (spec.sort) {
    auto sort = std::make_shared<PlanNode>();
    sort->type = OpType::kSort;
    sort->children = {root};
    sort->rows = root->rows;
    sort->width = root->width;
    sort->detail = "order by result keys";
    CostSort(*root, sort.get());
    root = sort;
  }
  if (spec.limit > 0) {
    auto limit = std::make_shared<PlanNode>();
    limit->type = OpType::kLimit;
    limit->engine_op = limit_engine_op_;
    limit->children = {root};
    limit->rows = std::min<double>(spec.limit, root->rows);
    limit->width = root->width;
    limit->cost = root->cost;
    limit->detail = StrFormat("limit %d", spec.limit);
    root = limit;
  }
  auto result_node = std::make_shared<PlanNode>();
  result_node->type = OpType::kResult;
  result_node->children = {root};
  result_node->rows = root->rows;
  result_node->width = root->width;
  result_node->cost = root->cost;

  PlanBuilder builder(spec.name);
  const int root_index = Emit(*result_node, &builder);
  return builder.Build(root_index);
}

}  // namespace diads::db
