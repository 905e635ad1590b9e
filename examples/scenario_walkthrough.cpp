// Scenario walkthrough — the Section 5 narrative, reproduced end to end.
//
// Follows the paper's scenario-1 prose step by step: the problem ticket,
// the injected misconfiguration, and each module's intermediate results
// ("a drill-down into intermediate internal results generated by DIADS"),
// with the paper's observations quoted alongside what our testbed shows.
//
//   $ ./scenario_walkthrough [seed]
#include <cstdio>
#include <cstdlib>

#include "apg/render.h"
#include "common/strings.h"
#include "diads/workflow.h"
#include "workload/scenario.h"

using namespace diads;

namespace {

void Say(const char* heading) { std::printf("\n--- %s ---\n", heading); }

}  // namespace

int main(int argc, char** argv) {
  workload::ScenarioOptions options;
  if (argc > 1) options.seed = static_cast<uint64_t>(std::atoll(argv[1]));

  std::printf(
      "THE TICKET (Section 1): \"Queries to the RepDB database used for\n"
      "report generation have a slow down in response time, compared to\n"
      "performance two weeks back.\"\n");

  Result<workload::ScenarioOutput> scenario = workload::RunScenario(
      workload::ScenarioId::kS1SanMisconfiguration, options);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  workload::Testbed& tb = *scenario->testbed;

  Say("What actually happened (hidden from DIADS)");
  std::printf(
      "A SAN administrator provisioned volume V' in pool P1 — the same\n"
      "physical disks as V1, which holds the partsupp tablespace — and\n"
      "zoned/mapped it to another server, whose workload now writes to V'.\n"
      "Only the configuration events are visible to the monitoring tool:\n");
  for (const SystemEvent& event : tb.event_log.all()) {
    if (event.type == EventType::kVolumeCreated ||
        event.type == EventType::kZoningChanged ||
        event.type == EventType::kLunMappingChanged) {
      std::printf("  [%s] %s: %s\n", FormatSimTime(event.time).c_str(),
                  EventTypeName(event.type), event.description.c_str());
    }
  }

  Say("The administrator marks runs (Figure 3)");
  double sat = 0, unsat = 0;
  int ns = 0, nu = 0;
  for (const db::QueryRunRecord& run : tb.runs.runs()) {
    const db::RunLabel label = tb.runs.LabelOf(run.run_id);
    if (label == db::RunLabel::kSatisfactory) {
      sat += static_cast<double>(run.duration_ms());
      ++ns;
    } else if (label == db::RunLabel::kUnsatisfactory) {
      unsat += static_cast<double>(run.duration_ms());
      ++nu;
    }
  }
  std::printf("%d satisfactory runs, mean %s; %d unsatisfactory, mean %s "
              "(%.2fx slowdown).\n",
              ns, FormatDuration(static_cast<SimTimeMs>(sat / ns)).c_str(),
              nu, FormatDuration(static_cast<SimTimeMs>(unsat / nu)).c_str(),
              (unsat / nu) / (sat / ns));

  diag::DiagnosisContext ctx = scenario->MakeContext();
  diag::WorkflowConfig config;

  Say("Modules PD and CR");
  std::printf("Paper: \"These two modules correctly identify (respectively)\n"
              "that the plan and the data properties have not changed.\"\n");
  diag::PdResult pd = diag::RunPlanDiff(ctx).value();
  diag::CoResult co = diag::RunCorrelatedOperators(ctx, config).value();
  diag::CrResult cr = diag::RunCorrelatedRecords(ctx, config, co).value();
  std::printf("Ours: plans differ = %s; data properties changed = %s.\n",
              pd.plans_differ ? "YES" : "no",
              cr.data_properties_changed ? "YES" : "no");

  Say("Module CO (correlated operators)");
  std::printf(
      "Paper: the COS contains both V1 leaves (O8, O22), intermediate\n"
      "operators via event propagation, and a false positive on V2 that\n"
      "later gets filtered.\n");
  std::printf("%s", RenderCoResult(ctx, co).c_str());

  Say("Module DA (dependency analysis) — Table 2's scores");
  diag::DaResult da = diag::RunDependencyAnalysis(ctx, config, co).value();
  std::printf(
      "Paper: \"none of V2's metrics are identified as correlated because\n"
      "V2 has no contention; while those of V1 are.\"\n");
  for (const char* volume : {"V1", "V2"}) {
    ComponentId id = tb.registry.FindByName(volume).value();
    for (monitor::MetricId metric : {monitor::MetricId::kVolPhysWriteOps,
                                     monitor::MetricId::kVolPhysWriteTimeMs}) {
      const diag::MetricAnomaly* m = da.Find(id, metric);
      if (m != nullptr) {
        std::printf("  %s, %-10s anomaly %.3f  correlation %+.2f  %s\n",
                    volume, monitor::MetricShortName(metric), m->anomaly_score,
                    m->correlation, m->correlated ? "-> in CCS" : "");
      }
    }
  }

  Say("Module SD (symptoms database)");
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  std::vector<diag::RootCause> causes =
      diag::RunSymptomsDatabase(ctx, config, pd, co, da, cr, symptoms).value();
  std::printf(
      "Paper: \"V1's contention due to the SAN misconfiguration problem was\n"
      "given a high confidence score because all required symptoms are\n"
      "found... All other root cause entries got low confidence scores.\"\n");
  std::printf("%s", RenderSdResult(ctx, causes).c_str());

  Say("Module IA (impact analysis)");
  (void)diag::RunImpactAnalysis(ctx, co, cr, &causes);
  std::printf("Paper: \"an impact score of 99.8%% for the high-confidence\n"
              "root cause found.\"\n");
  std::printf("%s", RenderIaResult(ctx, causes).c_str());

  Say("The answer to the ticket");
  const diag::RootCause& top = causes.front();
  std::printf(
      "%s on %s — confidence %.0f%% (%s), impact %.1f%% of the slowdown.\n"
      "The blame game between the DBA and the SAN admin ends here.\n",
      diag::RootCauseTypeName(top.type),
      tb.registry.NameOf(top.subject).c_str(), top.confidence,
      diag::ConfidenceBandName(top.band), top.impact_pct.value_or(0));
  return 0;
}
