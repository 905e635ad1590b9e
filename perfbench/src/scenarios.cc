#include "scenarios.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "diads/report.h"
#include "diads/workflow.h"
#include "fleet/query.h"

namespace perfbench {

using diads::Result;
using diads::Status;
using diads::StrFormat;
namespace diag = diads::diag;
namespace workload = diads::workload;

std::string Config::Name() const {
  return std::string(workload::ScenarioName(id)) + "/" +
         diads::db::BackendKindName(backend);
}

std::vector<Config> GoldenMatrix() {
  static const ScenarioId kNeutral[] = {
      ScenarioId::kS1SanMisconfiguration, ScenarioId::kS1bBurstyV2,
      ScenarioId::kS2DualExternalContention, ScenarioId::kS3DataPropertyChange,
      ScenarioId::kS4ConcurrentDbSan, ScenarioId::kS5LockingWithNoise,
      ScenarioId::kS6IndexDrop, ScenarioId::kS7ParamChange,
      ScenarioId::kS8AnalyzeAfterDrift, ScenarioId::kS9CpuSaturation,
      ScenarioId::kS10RaidRebuild, ScenarioId::kS11DiskFailure,
      ScenarioId::kF1HbaFailover, ScenarioId::kF2MultipathImbalance,
      ScenarioId::kF3IslRebuildCrosstalk, ScenarioId::kF4RetrySnowball,
  };
  std::vector<Config> configs;
  for (BackendKind backend : diads::db::AllBackendKinds()) {
    for (ScenarioId id : kNeutral) configs.push_back({id, backend});
  }
  configs.push_back({ScenarioId::kC1CompressionDrift, BackendKind::kColumnar});
  configs.push_back({ScenarioId::kC2ZoneMapStale, BackendKind::kColumnar});
  return configs;
}

Result<GoldenTable> LoadGoldenTable(const std::string& source_dir) {
  const std::string path = source_dir + "/tests/golden_report_digests.txt";
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot read " + path);
  GoldenTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string scenario, backend, hash;
    if (!(fields >> scenario >> backend >> hash)) {
      return Status::InvalidArgument("malformed golden line: " + line);
    }
    table[{scenario, backend}] = hash;
  }
  if (table.empty()) return Status::InvalidArgument("empty " + path);
  return table;
}

std::string GroundTruthProblem(const workload::ScenarioOutput& scenario,
                               const diag::DiagnosisReport& report) {
  const diads::ComponentRegistry& registry = scenario.testbed->registry;
  for (const workload::GroundTruthCause& truth : scenario.ground_truth) {
    if (!truth.primary) continue;
    bool found = false;
    for (const diag::RootCause& cause : report.causes) {
      found = found || (cause.band == diag::ConfidenceBand::kHigh &&
                        workload::MatchesGroundTruth(truth, cause, registry));
    }
    if (!found) {
      return StrFormat("no high-confidence %s on %s",
                       diag::RootCauseTypeName(truth.type),
                       truth.subject_name.c_str());
    }
  }
  if (report.causes.empty()) return "report has no causes";
  for (const workload::GroundTruthCause& truth : scenario.ground_truth) {
    if (workload::MatchesGroundTruth(truth, report.causes.front(), registry)) {
      return "";
    }
  }
  return StrFormat("top cause %s is not injected",
                   diag::RootCauseTypeName(report.causes.front().type));
}

Result<Tenant> MakeTenant(std::string tag, ScenarioId id, BackendKind backend,
                          uint64_t seed, const diag::SymptomsDb* symptoms,
                          Recorder* recorder,
                          std::vector<std::string>* misses) {
  workload::ScenarioOptions options;
  options.seed = seed;
  options.testbed.backend = backend;
  const Clock::time_point start = Clock::now();
  DIADS_ASSIGN_OR_RETURN(workload::ScenarioOutput scenario,
                         workload::RunScenario(id, options));
  RecordScenario(scenario, MsSince(start), recorder);
  Tenant tenant;
  tenant.tag = std::move(tag);
  tenant.scenario =
      std::make_unique<workload::ScenarioOutput>(std::move(scenario));
  DIADS_ASSIGN_OR_RETURN(
      diag::DiagnosisReport report,
      diag::Workflow(tenant.scenario->MakeContext(), diag::WorkflowConfig{},
                     symptoms)
          .Diagnose());
  tenant.reference_digest = diag::ReportDigestHashHex(report);
  const std::string problem = GroundTruthProblem(*tenant.scenario, report);
  if (misses != nullptr && !problem.empty()) {
    misses->push_back(StrFormat("%s at scenario seed %llu: %s",
                                tenant.tag.c_str(),
                                static_cast<unsigned long long>(seed),
                                problem.c_str()));
  }
  return tenant;
}

diads::engine::DiagnosisRequest RequestFor(const Tenant& tenant) {
  diads::engine::DiagnosisRequest request;
  request.ctx = tenant.scenario->MakeContext();
  request.tag = tenant.tag;
  return request;
}

std::string FleetAnswers(const diads::fleet::FleetStore& store) {
  const diads::fleet::FleetQuery query(&store);
  std::string out;
  for (const char* component : {"V1", "V2", "P1"}) {
    out += std::string(component) + " sharing:" +
           diads::Join(query.TenantsSharingComponent(component), ",") +
           " implicating:" +
           diads::Join(query.TenantsImplicating(component), ",") + "\n";
  }
  for (const auto& row : query.TopImplicatedComponents(8)) {
    out += StrFormat("top %s %d %.6f %s\n", row.component.c_str(), row.tenants,
                     row.max_confidence,
                     diads::Join(row.tenant_names, ",").c_str());
  }
  for (const auto& row : query.RootCauseCooccurrence()) {
    out += StrFormat("co %d %d %d\n", static_cast<int>(row.a),
                     static_cast<int>(row.b), row.tenants);
  }
  return out;
}

void RecordGroundTruthMisses(const std::vector<std::string>& misses,
                             Recorder* recorder) {
  recorder->Set("diads.ground_truth_misses",
                static_cast<double>(misses.size()));
  for (const std::string& miss : misses) {
    std::fprintf(stderr, "note: ground truth missed: %s\n", miss.c_str());
  }
}

void RecordScenario(const workload::ScenarioOutput& scenario, double run_ms,
                    Recorder* recorder) {
  const workload::Testbed& testbed = *scenario.testbed;
  recorder->Sample("workload.run_scenario_ms", run_ms);
  recorder->Sample("san.load_events",
                   static_cast<double>(testbed.perf_model.load_event_count()));
  recorder->Sample("san.components",
                   static_cast<double>(testbed.registry.size()));
  recorder->Sample("monitor.samples_appended",
                   static_cast<double>(testbed.store.total_samples()));
  recorder->Sample("db.q2_runs", static_cast<double>(testbed.runs.size()));
}

}  // namespace perfbench
