// Unit tests for the optimizers: the shared join-order search (block
// checks, join enumeration, the cartesian fallback, subquery blocks) on
// every backend, and PostgreSQL access-path selection and — critically for
// Module PD — plan sensitivity to index drops, statistics refreshes, and
// cost parameters.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "common/event_log.h"
#include "db/backend.h"
#include "db/catalog.h"
#include "db/optimizer.h"
#include "db/query.h"
#include "db/tpch.h"

namespace diads::db {
namespace {

struct OptimizerFixture {
  ComponentRegistry registry;
  EventLog events;
  ComponentId v1, v2;
  Catalog catalog{&registry, &events};

  OptimizerFixture() {
    v1 = registry.MustRegister(ComponentKind::kVolume, "V1");
    v2 = registry.MustRegister(ComponentKind::kVolume, "V2");
    TpchOptions options;
    options.volume_v1 = v1;
    options.volume_v2 = v2;
    EXPECT_TRUE(BuildTpchCatalog(options, &catalog).ok());
  }

  Plan Optimize(const QuerySpec& spec, DbParams params = {}) {
    Optimizer optimizer(&catalog, params);
    Result<Plan> plan = optimizer.Optimize(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  std::unique_ptr<DbBackend> Backend(BackendKind kind) {
    BackendInit init;
    init.catalog = &catalog;
    return MakeDbBackend(kind, init);
  }
};

/// `n` aliases of nation chained by equi-joins (n0-n1, n1-n2, ...).
QuerySpec NationChain(int n) {
  QuerySpec spec;
  spec.name = "chain" + std::to_string(n);
  for (int i = 0; i < n; ++i) {
    spec.tables.push_back({"n" + std::to_string(i), "nation", 1.0, ""});
    if (i > 0) {
      spec.joins.push_back({"n" + std::to_string(i - 1), "n_nationkey",
                            "n" + std::to_string(i), "n_nationkey"});
    }
  }
  return spec;
}

int CountOps(const Plan& plan, OpType type) {
  int n = 0;
  for (const PlanOp& op : plan.ops()) {
    if (op.type == type) ++n;
  }
  return n;
}

/// Aliases of the scans in the subtree rooted at `index`.
std::set<std::string> AliasesUnder(const Plan& plan, int index) {
  const PlanOp& op = plan.op(index);
  std::set<std::string> out;
  if (op.is_scan()) out.insert(op.table_alias);
  for (int child : op.children) {
    const std::set<std::string> below = AliasesUnder(plan, child);
    out.insert(below.begin(), below.end());
  }
  return out;
}

bool HasIndexScanOn(const Plan& plan, const std::string& table,
                    const std::string& index = std::string()) {
  for (const PlanOp& op : plan.ops()) {
    if (op.type == OpType::kIndexScan && op.table == table &&
        (index.empty() || op.index_name == index)) {
      return true;
    }
  }
  return false;
}

TEST(OptimizerTest, SingleTableAccessPaths) {
  OptimizerFixture f;
  // Selective indexed filter on part -> index scan.
  QuerySpec selective;
  selective.name = "sel";
  selective.tables = {{"p", "part", 0.004, "p_size"}};
  Plan plan = f.Optimize(selective);
  EXPECT_TRUE(HasIndexScanOn(plan, "part", "part_size_idx"));

  // Unselective scan -> sequential.
  QuerySpec full;
  full.name = "full";
  full.tables = {{"p", "part", 1.0, ""}};
  Plan seq_plan = f.Optimize(full);
  EXPECT_FALSE(HasIndexScanOn(seq_plan, "part"));
  EXPECT_EQ(CountOps(seq_plan, OpType::kSeqScan), 1);
}

TEST(OptimizerTest, HighRandomPageCostKillsIndexScans) {
  OptimizerFixture f;
  QuerySpec selective;
  selective.name = "sel";
  selective.tables = {{"p", "part", 0.004, "p_size"}};
  DbParams expensive_random;
  expensive_random.random_page_cost = 200.0;
  Plan plan = f.Optimize(selective, expensive_random);
  EXPECT_FALSE(HasIndexScanOn(plan, "part"));
}

// --- The shared join-order search, on every backend ----------------------------

class JoinOrderTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  Plan Optimize(const QuerySpec& spec) {
    Result<Plan> plan = backend_->OptimizeQuery(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? std::move(*plan) : Plan();
  }

  OptimizerFixture f_;
  std::unique_ptr<DbBackend> backend_ = f_.Backend(GetParam());
};

TEST_P(JoinOrderTest, RejectsEmptyBlock) {
  QuerySpec empty;
  empty.name = "empty";
  Result<Plan> plan = backend_->OptimizeQuery(empty);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(JoinOrderTest, RejectsMoreThanSixteenTables) {
  Result<Plan> plan = backend_->OptimizeQuery(NationChain(17));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  // Sixteen is the limit, not the first rejected size.
  EXPECT_EQ(Optimize(NationChain(16)).LeafIndexes().size(), 16u);
}

TEST_P(JoinOrderTest, JoinProducesSinglePlanCoveringAllTables) {
  Plan plan = Optimize(MakeSupplierRollupSpec());
  EXPECT_EQ(plan.LeafIndexes().size(), 3u);  // supplier, nation, region.
  EXPECT_EQ(CountOps(plan, OpType::kAggregate), 1);
  EXPECT_EQ(CountOps(plan, OpType::kSort), 1);
  EXPECT_EQ(plan.op(plan.root_index()).type, OpType::kResult);
}

TEST_P(JoinOrderTest, EstimatesPropagateUp) {
  Plan plan = Optimize(MakeSupplierRollupSpec());
  // Root cost must be at least any single op's cost (cumulative costs).
  const double root_cost = plan.op(plan.root_index()).est_cost;
  for (const PlanOp& op : plan.ops()) {
    EXPECT_LE(op.est_cost, root_cost + 1e-9)
        << OpTypeName(op.type) << " cost exceeds root";
    EXPECT_GE(op.est_rows, 0);
  }
}

TEST_P(JoinOrderTest, Q2HasNineLeavesAndSubqueryBlock) {
  Plan plan = Optimize(MakeTpchQ2Spec());
  EXPECT_EQ(plan.LeafIndexes().size(), 9u);
  EXPECT_EQ(plan.op(plan.root_index()).type, OpType::kResult);
  EXPECT_EQ(CountOps(plan, OpType::kAggregate), 1);  // min() group by.
  EXPECT_EQ(CountOps(plan, OpType::kLimit), 1);
  // Both partsupp occurrences scanned.
  int partsupp_scans = 0;
  for (const PlanOp& op : plan.ops()) {
    if (op.is_scan() && op.table == "partsupp") ++partsupp_scans;
  }
  EXPECT_EQ(partsupp_scans, 2);
}

TEST_P(JoinOrderTest, RepeatedOptimizeRendersIdentically) {
  const std::string first = Optimize(MakeTpchQ2Spec()).Render();
  EXPECT_EQ(Optimize(MakeTpchQ2Spec()).Render(), first);
}

TEST_P(JoinOrderTest, DisconnectedJoinGraphPlansThroughCartesianFallback) {
  // region shares no predicate with supplier or nation, so some join must
  // be a cartesian product — and only one: s-n still joins on its key.
  QuerySpec spec;
  spec.name = "disconnected";
  spec.tables = {{"s", "supplier", 1.0, ""},
                 {"n", "nation", 1.0, ""},
                 {"r", "region", 1.0, ""}};
  spec.joins = {{"s", "s_nationkey", "n", "n_nationkey"}};
  Plan plan = Optimize(spec);
  EXPECT_EQ(plan.LeafIndexes().size(), 3u);
  EXPECT_EQ(plan.op(plan.root_index()).type, OpType::kResult);
  int cartesian = 0;
  int keyed = 0;
  for (const PlanOp& op : plan.ops()) {
    if (op.detail == "s.s_nationkey = n.n_nationkey") ++keyed;
    if (op.detail != "cartesian") continue;
    ++cartesian;
    // Cartesian only when unavoidable: no predicate may join the outer
    // input to a table still outside it.
    const std::set<std::string> outer = AliasesUnder(plan, op.children[0]);
    for (const JoinPredicate& j : spec.joins) {
      EXPECT_EQ(outer.count(j.left_alias), outer.count(j.right_alias))
          << plan.Render();
    }
  }
  EXPECT_EQ(cartesian, 1);
  EXPECT_EQ(keyed, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, JoinOrderTest, ::testing::ValuesIn(AllBackendKinds()),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendKindName(info.param));
    });

// --- Plan-change sensitivity (the Module PD levers) -----------------------------

TEST(OptimizerTest, IndexDropFlipsQ2Plan) {
  OptimizerFixture f;
  Plan before = f.Optimize(MakeTpchQ2Spec());
  ASSERT_TRUE(HasIndexScanOn(before, "partsupp", "partsupp_partkey_idx"));
  ASSERT_TRUE(f.catalog.SetIndexDroppedSilently("partsupp_partkey_idx", true)
                  .ok());
  Plan after = f.Optimize(MakeTpchQ2Spec());
  EXPECT_NE(before.Fingerprint(), after.Fingerprint());
  EXPECT_FALSE(HasIndexScanOn(after, "partsupp", "partsupp_partkey_idx"));
  // Restore: the original plan comes back (PD's what-if probe relies on
  // this reversibility).
  ASSERT_TRUE(f.catalog.SetIndexDroppedSilently("partsupp_partkey_idx", false)
                  .ok());
  Plan restored = f.Optimize(MakeTpchQ2Spec());
  EXPECT_EQ(before.Fingerprint(), restored.Fingerprint());
}

TEST(OptimizerTest, RandomPageCostFlipsQ2Plan) {
  OptimizerFixture f;
  Plan cheap = f.Optimize(MakeTpchQ2Spec());
  DbParams params;
  params.random_page_cost = 40.0;
  Plan expensive = f.Optimize(MakeTpchQ2Spec(), params);
  EXPECT_NE(cheap.Fingerprint(), expensive.Fingerprint());
}

TEST(OptimizerTest, StatsRefreshAfterGrowthFlipsQ2Plan) {
  OptimizerFixture f;
  Plan before = f.Optimize(MakeTpchQ2Spec());
  // part grows 8x and the optimizer learns about it.
  ASSERT_TRUE(f.catalog.ApplyDml(1, "part", 8.0, "").ok());
  ASSERT_TRUE(f.catalog.Analyze(2, "part").ok());
  Plan after = f.Optimize(MakeTpchQ2Spec());
  EXPECT_NE(before.Fingerprint(), after.Fingerprint());
}

TEST(OptimizerTest, StaleStatsKeepThePlan) {
  OptimizerFixture f;
  Plan before = f.Optimize(MakeTpchQ2Spec());
  // Actual data moves but ANALYZE never runs: same plan (scenario 3's
  // precondition).
  ASSERT_TRUE(f.catalog.ApplyDml(1, "partsupp", 1.7, "").ok());
  Plan after = f.Optimize(MakeTpchQ2Spec());
  EXPECT_EQ(before.Fingerprint(), after.Fingerprint());
}

TEST(OptimizerTest, WorkMemAffectsSortSpill) {
  OptimizerFixture f;
  QuerySpec spec;
  spec.name = "bigsort";
  spec.tables = {{"ps", "partsupp", 1.0, ""}};
  spec.sort = true;
  DbParams small_mem;
  small_mem.work_mem_mb = 1.0;
  DbParams big_mem;
  big_mem.work_mem_mb = 4096.0;
  Plan spilling = f.Optimize(spec, small_mem);
  Plan in_memory = f.Optimize(spec, big_mem);
  // The spilling sort is costlier (same structure, different cost).
  EXPECT_GT(spilling.op(spilling.root_index()).est_cost,
            in_memory.op(in_memory.root_index()).est_cost);
}

TEST(OptimizerTest, ParamByNameRoundTrip) {
  DbParams params;
  ASSERT_TRUE(SetParamByName(&params, "random_page_cost", 11.5).ok());
  EXPECT_DOUBLE_EQ(GetParamByName(params, "random_page_cost").value(), 11.5);
  ASSERT_TRUE(SetParamByName(&params, "work_mem_mb", 64).ok());
  EXPECT_DOUBLE_EQ(GetParamByName(params, "work_mem_mb").value(), 64);
  EXPECT_FALSE(SetParamByName(&params, "no_such_param", 1).ok());
  EXPECT_FALSE(GetParamByName(params, "no_such_param").ok());
}

// Property sweep: whatever the random_page_cost, the optimizer must return
// a valid single-rooted plan with all 9 scans for Q2.
class OptimizerParamSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(OptimizerParamSweepTest, Q2AlwaysPlansCompletely) {
  OptimizerFixture f;
  DbParams params;
  params.random_page_cost = GetParam();
  Plan plan = f.Optimize(MakeTpchQ2Spec(), params);
  EXPECT_EQ(plan.LeafIndexes().size(), 9u);
  EXPECT_EQ(plan.op(plan.root_index()).type, OpType::kResult);
}

INSTANTIATE_TEST_SUITE_P(RandomPageCosts, OptimizerParamSweepTest,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
                                           40.0, 100.0));

}  // namespace
}  // namespace diads::db
