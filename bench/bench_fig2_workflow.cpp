// Experiment F2 — Figure 2 of the paper: the diagnosis workflow.
//
// Reproduces the drill-down funnel on scenario 1: Query -> Plans (PD) ->
// Operators (CO) -> Components (DA) -> record counts (CR) -> Symptoms (SD)
// -> Impact (IA), printing each stage's input/output cardinality — the
// "progressively drills down ... then rolls up" shape of the figure — and
// times each module individually.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/strings.h"
#include "common/table_printer.h"
#include "diads/workflow.h"
#include "workload/scenario.h"

using namespace diads;

namespace {

struct SharedScenario {
  workload::ScenarioOutput scenario;
  diag::DiagnosisContext ctx;
  diag::WorkflowConfig config;
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();

  SharedScenario()
      : scenario(workload::RunScenario(
            workload::ScenarioId::kS1SanMisconfiguration, {}).value()),
        ctx(scenario.MakeContext()) {}
};

SharedScenario& Shared() {
  static SharedScenario shared;
  return shared;
}

void BM_ModulePD(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(diag::RunPlanDiff(Shared().ctx));
  }
}
BENCHMARK(BM_ModulePD)->Unit(benchmark::kMicrosecond);

void BM_ModuleCO(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        diag::RunCorrelatedOperators(Shared().ctx, Shared().config));
  }
}
BENCHMARK(BM_ModuleCO)->Unit(benchmark::kMicrosecond);

void BM_ModuleDA(benchmark::State& state) {
  diag::CoResult co =
      diag::RunCorrelatedOperators(Shared().ctx, Shared().config).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        diag::RunDependencyAnalysis(Shared().ctx, Shared().config, co));
  }
}
BENCHMARK(BM_ModuleDA)->Unit(benchmark::kMillisecond);

void BM_ModuleCR(benchmark::State& state) {
  diag::CoResult co =
      diag::RunCorrelatedOperators(Shared().ctx, Shared().config).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        diag::RunCorrelatedRecords(Shared().ctx, Shared().config, co));
  }
}
BENCHMARK(BM_ModuleCR)->Unit(benchmark::kMicrosecond);

void BM_ModuleSDplusIA(benchmark::State& state) {
  diag::CoResult co =
      diag::RunCorrelatedOperators(Shared().ctx, Shared().config).value();
  diag::DaResult da =
      diag::RunDependencyAnalysis(Shared().ctx, Shared().config, co).value();
  diag::CrResult cr =
      diag::RunCorrelatedRecords(Shared().ctx, Shared().config, co).value();
  diag::PdResult pd = diag::RunPlanDiff(Shared().ctx).value();
  for (auto _ : state) {
    std::vector<diag::RootCause> causes =
        diag::RunSymptomsDatabase(Shared().ctx, Shared().config, pd, co, da,
                                  cr, Shared().symptoms)
            .value();
    benchmark::DoNotOptimize(
        diag::RunImpactAnalysis(Shared().ctx, co, cr, &causes));
  }
}
BENCHMARK(BM_ModuleSDplusIA)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  SharedScenario& shared = Shared();
  diag::Workflow workflow(shared.ctx, shared.config, &shared.symptoms);
  Result<diag::DiagnosisReport> report = workflow.Diagnose();
  if (!report.ok()) {
    std::fprintf(stderr, "diagnosis failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  const size_t plan_ops = shared.ctx.apg->plan().size();
  const size_t all_components = shared.ctx.apg->AllComponents().size();
  const size_t events_in_window =
      shared.ctx.events->EventsIn(shared.ctx.AnalysisWindow()).size();
  int high = 0;
  for (const diag::RootCause& cause : report->causes) {
    if (cause.band == diag::ConfidenceBand::kHigh) ++high;
  }

  std::printf("=== Figure 2: the drill-down / roll-up funnel "
              "(scenario 1) ===\n");
  TablePrinter funnel({"Workflow level", "Module", "Input", "Output"});
  funnel.AddRow({"Query", "admin labelling", "1 query, 30 runs",
                 "20 satisfactory + 10 unsatisfactory"});
  funnel.AddRow({"Plans", "PD",
                 StrFormat("%zu plan fingerprints", 1 + report->pd
                               .unsatisfactory_fingerprints.size() -
                               1),
                 report->pd.plans_differ ? "plans differ"
                                         : "same plan -> continue"});
  funnel.AddRow({"Operators", "CO", StrFormat("%zu operators", plan_ops),
                 StrFormat("|COS| = %zu",
                           report->co.correlated_operator_set.size())});
  funnel.AddRow(
      {"Components", "DA",
       StrFormat("%zu components, %zu metric series scored", all_components,
                 report->da.metrics.size()),
       StrFormat("|CCS| = %zu",
                 report->da.correlated_component_set.size())});
  funnel.AddRow({"Operators", "CR",
                 StrFormat("%zu COS operators",
                           report->co.correlated_operator_set.size()),
                 StrFormat("|CRS| = %zu, data properties %s",
                           report->cr.correlated_record_set.size(),
                           report->cr.data_properties_changed ? "changed"
                                                              : "unchanged")});
  funnel.AddRow({"Events/Symptoms", "SD",
                 StrFormat("%zu events, %zu symptom entries",
                           events_in_window,
                           diag::SymptomsDb::MakeDefault().size()),
                 StrFormat("%zu causes (%d high-confidence)",
                           report->causes.size(), high)});
  funnel.AddRow({"Impact", "IA",
                 StrFormat("%d high/medium causes", high),
                 report->causes.empty()
                     ? "-"
                     : StrFormat("top impact %.1f%%",
                                 report->causes.front().impact_pct.value_or(0))});
  std::printf("%s\nFinal: %s\n\n", funnel.Render().c_str(),
              report->summary.c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
