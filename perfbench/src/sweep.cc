// Workloads `sweep` and `fabric_scale`: closed loop, one thread, one
// configuration after another.
//
// A configuration is one scenario on one backend, carried through
//   RunScenario -> MakeContext -> Workflow::Diagnose -> ExtractVerdict
//   -> FleetStore::Publish -> SegmentLog::Append -> teardown,
// followed by kReadsPerWrite reads of the FleetQuery set (timed on their
// own). A run measures whole passes over the configurations, as many as
// fit the measuring time best, so every configuration weighs the same.
//
//   sweep         the 50-configuration golden matrix, in matrix order.
//   fabric_scale  F1-F4 on postgres over the multipath testbed with the
//                 generated 1000+-component fabric attached.
#include <filesystem>

#include "bench.h"
#include "common/strings.h"
#include "diads/report.h"
#include "diads/symptoms_db.h"
#include "diads/workflow.h"
#include "fleet/log.h"
#include "fleet/store.h"
#include "fleet/verdict.h"
#include "scenarios.h"

namespace perfbench {
namespace {

namespace diag = diads::diag;
namespace fleet = diads::fleet;
namespace obs = diads::obs;
namespace workload = diads::workload;
using diads::Status;

/// Dashboard reads of the FleetQuery set after each configuration.
constexpr int kReadsPerWrite = 4;

class Sweep : public Workload {
 public:
  explicit Sweep(bool fabric_scale) : fabric_scale_(fabric_scale) {}

  Status SetUp(const Args& args, obs::Tracer* /*tracer*/) override {
    symptoms_ = std::make_unique<diag::SymptomsDb>(
        diag::SymptomsDb::MakeDefault());
    if (fabric_scale_) {
      for (ScenarioId id :
           {ScenarioId::kF1HbaFailover, ScenarioId::kF2MultipathImbalance,
            ScenarioId::kF3IslRebuildCrosstalk, ScenarioId::kF4RetrySnowball}) {
        configs_.push_back({id, BackendKind::kPostgres});
      }
    } else {
      configs_ = GoldenMatrix();
      if (args.seed == 42) {
        DIADS_ASSIGN_OR_RETURN(GoldenTable golden,
                               LoadGoldenTable(args.source_dir));
        golden_ = std::move(golden);
      }
    }
    const std::string log_dir = args.out_dir + "/fleet-log";
    std::filesystem::remove_all(log_dir);
    fleet::LogOptions log_options;
    log_options.dir = log_dir;
    DIADS_ASSIGN_OR_RETURN(log_, fleet::SegmentLog::Open(log_options));
    store_ = std::make_unique<fleet::FleetStore>();
    // Warm-up: one small configuration through the whole pipeline, so
    // lazy initialisation and first-touch page faults land in set-up.
    Recorder scratch;
    RunConfig({ScenarioId::kS1SanMisconfiguration, BackendKind::kPostgres},
              /*scale=*/false, args.seed, nullptr, nullptr, &scratch);
    store_->Clear();
    return Status::Ok();
  }

  void TearDown() override {
    log_.reset();
    store_.reset();
    symptoms_.reset();
    configs_.clear();
    golden_.clear();
  }

  Status Run(const Args& args, obs::Tracer* tracer, HostSpeed* host,
             Recorder* recorder) override {
    const Clock::time_point start = Clock::now();
    double elapsed_ms = 0;
    int passes = 0;
    // Start another pass while it would end nearer the measuring time
    // than stopping now does.
    while (passes == 0 || elapsed_ms + 0.5 * elapsed_ms / passes <
                              args.seconds * 1e3) {
      RunPass(args.seed, tracer, host, recorder);
      ++passes;
      elapsed_ms = MsSince(start);
    }
    const fleet::LogCounters log = log_->Counters();
    recorder->Set("fleet.log_bytes_written", log.bytes_written);
    recorder->Set("fleet.log_appends", log.appends);
    return Status::Ok();
  }

 private:
  void RunPass(uint64_t seed, obs::Tracer* tracer, HostSpeed* host,
               Recorder* recorder) {
    bool traced_first = false;
    for (const Config& config : configs_) {
      host->Probe(recorder);
      if (tracer == nullptr) {
        RunConfig(config, fabric_scale_, seed, nullptr, host, recorder);
        continue;
      }
      // Traced run: the same configuration untraced and traced, in
      // alternating order; only the traced unit feeds the samples.
      Recorder untraced_only;
      double untraced_ms = 0, traced_ms = 0;
      for (int leg = 0; leg < 2; ++leg) {
        if ((leg == 0) == traced_first) {
          traced_ms =
              RunConfig(config, fabric_scale_, seed, tracer, host, recorder);
        } else {
          untraced_ms = RunConfig(config, fabric_scale_, seed, nullptr,
                                  nullptr, &untraced_only);
          recorder->Check(untraced_only.failed() == 0,
                          config.Name() + " (untraced leg) failed");
        }
      }
      traced_first = !traced_first;
      if (untraced_ms > 0 && traced_ms > 0) {
        recorder->Sample("trace_pair_ratio", traced_ms / untraced_ms);
        recorder->Sample("trace_pair_base_ms", untraced_ms);
      }
    }
  }

  /// Runs one configuration; returns its wall time in ms (excluding the
  /// benchmark's own verification and probes), or 0 when it failed. Times
  /// carry `host`'s reference time when `host` is given.
  double RunConfig(const Config& config, bool scale, uint64_t seed,
                   obs::Tracer* tracer, const HostSpeed* host,
                   Recorder* recorder) {
    const obs::TraceContext root_ctx = ContextOf(tracer);
    obs::SpanHandle root = root_ctx.StartSpan("bench.config", "bench");
    root.Note("config", config.Name());
    const obs::TraceContext ctx = root_ctx.Under(root);
    const Clock::time_point start = Clock::now();
    double excluded_ms = 0;  // Verification and probes.

    workload::ScenarioOptions options;
    options.seed = seed;
    options.testbed.backend = config.backend;
    options.testbed.add_scale_fabric = scale;
    obs::SpanHandle span = ctx.StartSpan("workload.run_scenario", "workload");
    Clock::time_point step = Clock::now();
    diads::Result<workload::ScenarioOutput> scenario =
        workload::RunScenario(config.id, options);
    const double run_ms = MsSince(step);
    span.End();
    if (!scenario.ok()) {
      recorder->Check(false, config.Name() + ": " +
                                 scenario.status().ToString());
      return 0;
    }
    RecordScenario(*scenario, run_ms, recorder);

    span = ctx.StartSpan("diads.make_context", "diads");
    diag::DiagnosisContext dctx = scenario->MakeContext();
    span.End();
    span = ctx.StartSpan("diads.diagnose", "diads");
    dctx.trace = ctx.Under(span);
    diag::ModuleTimings timings;
    step = Clock::now();
    diads::Result<diag::DiagnosisReport> report =
        diag::Workflow(dctx, diag::WorkflowConfig{}, symptoms_.get())
            .Diagnose(diag::ImpactMethod::kInverseDependency, &timings);
    const double diagnose_ms = MsSince(step);
    span.End();
    dctx.trace = obs::TraceContext();
    if (!report.ok()) {
      recorder->Check(false, config.Name() + ": " + report.status().ToString());
      return 0;
    }
    SampleTimed(host, recorder, "diagnosis_ms", diagnose_ms);
    recorder->Sample("diads.pd_ms", timings.pd_ms);
    recorder->Sample("diads.co_ms", timings.co_ms);
    recorder->Sample("diads.da_ms", timings.da_ms);
    recorder->Sample("diads.cr_ms", timings.cr_ms);
    recorder->Sample("diads.sd_ms", timings.sd_ms);
    recorder->Sample("diads.ia_ms", timings.ia_ms);

    span = ctx.StartSpan("bench.verify", "bench");
    step = Clock::now();
    Verify(config, *scenario, *report, recorder);
    excluded_ms += MsSince(step);
    span.End();

    if (tracer != nullptr) {
      // Layer probes over the finished testbed (traced runs only).
      workload::Testbed& mutable_testbed = *scenario->testbed;
      span = ctx.StartSpan("apg.build", "apg");
      step = Clock::now();
      const bool apg_ok = mutable_testbed.BuildApg().ok();
      recorder->Sample("apg.build_ms", MsSince(step));
      span.End();
      span = ctx.StartSpan("db.optimize", "db");
      const Clock::time_point optimize_start = Clock::now();
      const bool optimize_ok = mutable_testbed.OptimizeQ2().ok();
      recorder->Sample("db.optimize_ms", MsSince(optimize_start));
      span.End();
      excluded_ms += MsSince(step);
      recorder->Check(apg_ok && optimize_ok, config.Name() + ": probe failed");
    }

    span = ctx.StartSpan("fleet.extract_verdict", "fleet");
    step = Clock::now();
    const fleet::TenantVerdict verdict =
        fleet::ExtractVerdict(dctx, *report, config.Name());
    recorder->Sample("fleet.extract_verdict_ms", MsSince(step));
    span = ctx.StartSpan("fleet.publish", "fleet");
    step = Clock::now();
    store_->Publish(verdict);
    recorder->Sample("fleet.publish_ms", MsSince(step));
    span = ctx.StartSpan("fleet.log_append", "fleet");
    step = Clock::now();
    const Status appended = log_->Append(verdict);
    recorder->Sample("fleet.log_append_ms", MsSince(step));
    span.End();
    recorder->Check(appended.ok(), config.Name() + ": log append: " +
                                       appended.ToString());

    span = ctx.StartSpan("workload.teardown", "workload");
    report = Status::Internal("released");
    scenario = Status::Internal("released");
    span.End();
    const double config_ms = MsSince(start) - excluded_ms;
    root.End();
    SampleTimed(host, recorder, "config_ms", config_ms);

    for (int read = 0; read < kReadsPerWrite; ++read) {
      obs::SpanHandle query = root_ctx.StartSpan("fleet.query", "fleet");
      step = Clock::now();
      const std::string answers = FleetAnswers(*store_);
      SampleTimed(host, recorder, "fleet_query_ms", MsSince(step));
      query.End();
      recorder->Check(!answers.empty(), "fleet query returned nothing");
    }
    return config_ms;
  }

  void Verify(const Config& config, const workload::ScenarioOutput& scenario,
              const diag::DiagnosisReport& report, Recorder* recorder) const {
    const std::string problem = GroundTruthProblem(scenario, report);
    recorder->Check(problem.empty(), config.Name() + ": " + problem);
    if (golden_.empty()) return;
    auto it = golden_.find({workload::ScenarioName(config.id),
                            diads::db::BackendKindName(config.backend)});
    const std::string digest = diag::ReportDigestHashHex(report);
    recorder->Check(it != golden_.end() && it->second == digest,
                    config.Name() + ": digest " + digest +
                        " differs from the golden table");
  }

  const bool fabric_scale_;
  std::unique_ptr<diag::SymptomsDb> symptoms_;
  std::vector<Config> configs_;
  GoldenTable golden_;  ///< Empty unless seed 42 on `sweep`.
  std::unique_ptr<fleet::FleetStore> store_;
  std::unique_ptr<fleet::SegmentLog> log_;
};

}  // namespace

std::unique_ptr<Workload> MakeSweep(bool fabric_scale) {
  return std::make_unique<Sweep>(fabric_scale);
}

}  // namespace perfbench
