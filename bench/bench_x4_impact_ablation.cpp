// Experiment X4 — Module IA's two implementations (Section 4.1):
//
//   "One implementation is an 'inverse dependency analysis' ... Another
//   implementation of IA leverages the plan cost models used by database
//   query optimizers."
//
// Compares the two on scenario 4 (two genuine concurrent causes) and
// scenario 5 (one genuine cause + one spurious): the dynamic inverse-
// dependency method separates real from spurious using measured extra
// time; the static cost-model method apportions by optimizer estimates and
// cannot see that the spurious cause contributed nothing — exactly the
// trade-off that makes the paper prefer the dynamic variant as default.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/strings.h"
#include "common/table_printer.h"
#include "diads/workflow.h"
#include "workload/scenario.h"

using namespace diads;

namespace {

Result<std::vector<diag::RootCause>> CausesWith(
    const workload::ScenarioOutput& scenario, diag::ImpactMethod method) {
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  diag::Workflow workflow(scenario.MakeContext(), diag::WorkflowConfig{},
                          &symptoms);
  DIADS_ASSIGN_OR_RETURN(diag::DiagnosisReport report,
                         workflow.Diagnose(method));
  return report.causes;
}

void BM_ImpactInverseDependency(benchmark::State& state) {
  static workload::ScenarioOutput scenario = workload::RunScenario(
      workload::ScenarioId::kS4ConcurrentDbSan, {}).value();
  diag::DiagnosisContext ctx = scenario.MakeContext();
  diag::WorkflowConfig config;
  diag::CoResult co = diag::RunCorrelatedOperators(ctx, config).value();
  diag::DaResult da = diag::RunDependencyAnalysis(ctx, config, co).value();
  diag::CrResult cr = diag::RunCorrelatedRecords(ctx, config, co).value();
  diag::PdResult pd = diag::RunPlanDiff(ctx).value();
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  std::vector<diag::RootCause> causes =
      diag::RunSymptomsDatabase(ctx, config, pd, co, da, cr, symptoms).value();
  for (auto _ : state) {
    std::vector<diag::RootCause> copy = causes;
    benchmark::DoNotOptimize(diag::RunImpactAnalysis(
        ctx, co, cr, &copy, diag::ImpactMethod::kInverseDependency));
  }
}
BENCHMARK(BM_ImpactInverseDependency)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== X4: impact analysis — inverse dependency vs cost model "
              "===\n");
  TablePrinter table({"Scenario", "Cause", "Confidence",
                      "Impact (inverse dep.)", "Impact (cost model)"});
  for (workload::ScenarioId id : {workload::ScenarioId::kS4ConcurrentDbSan,
                                  workload::ScenarioId::kS5LockingWithNoise}) {
    Result<workload::ScenarioOutput> scenario = workload::RunScenario(id, {});
    if (!scenario.ok()) {
      std::fprintf(stderr, "scenario failed\n");
      return 1;
    }
    Result<std::vector<diag::RootCause>> inverse =
        CausesWith(*scenario, diag::ImpactMethod::kInverseDependency);
    Result<std::vector<diag::RootCause>> cost_model =
        CausesWith(*scenario, diag::ImpactMethod::kCostModel);
    if (!inverse.ok() || !cost_model.ok()) {
      std::fprintf(stderr, "diagnosis failed\n");
      return 1;
    }
    const ComponentRegistry& registry = scenario->testbed->registry;
    // Join the two cause lists on (type, subject).
    for (const diag::RootCause& cause : *inverse) {
      if (!cause.impact_pct.has_value()) continue;
      const diag::RootCause* twin = nullptr;
      for (const diag::RootCause& other : *cost_model) {
        if (other.type == cause.type && other.subject == cause.subject) {
          twin = &other;
        }
      }
      table.AddRow(
          {workload::ScenarioName(id),
           StrFormat("%s%s%s", diag::RootCauseTypeName(cause.type),
                     registry.Contains(cause.subject) ? " on " : "",
                     registry.Contains(cause.subject)
                         ? registry.NameOf(cause.subject).c_str()
                         : ""),
           StrFormat("%.0f%%", cause.confidence),
           StrFormat("%.1f%%", *cause.impact_pct),
           twin != nullptr && twin->impact_pct.has_value()
               ? StrFormat("%.1f%%", *twin->impact_pct)
               : "-"});
    }
    table.AddSeparator();
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "Shape: the inverse-dependency method nulls spurious causes (measured "
      "extra time ~ 0) that the static cost-model method cannot "
      "distinguish.\n\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
