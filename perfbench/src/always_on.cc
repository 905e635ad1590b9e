// Workload `always_on`: closed loop, one appending thread; writes beside
// reads.
//
// Set-up runs 16 tenants' scenarios, each at its own TenantSeed: S1-S11
// and S1b with their faults (postgres), plus 4 quiet tenants whose streams
// stop at the end of their satisfactory window. Their monitoring samples
// are merged into one stream ordered by time, with tenant k's timeline
// shifted by k * kStagger: tenants of a fleet are not all at the same point
// of their day, so their incidents do not all confirm at once.
//
// One pass replays that stream into 16 fresh replica stores, each watched
// by a SlowdownDetector of its own; all auto-submit to one 2-worker
// DiagnosisEngine publishing into a FleetStore with a fresh SegmentLog attached. The pass
// then waits for the diagnoses, replays the log into a fresh store with
// RecoverFromLog, and reads the FleetQuery set from both stores.
//
// Checks: every faulted tenant raises exactly one incident confirmed after
// its satisfactory window; every auto-diagnosis equals its tenant's serial
// report; the recovered store answers every query as the live one; nothing
// is dropped. Incidents confirmed inside a satisfactory window (every
// incident of a quiet tenant, and any before a faulted tenant's fault) are
// false positives: the detector raises some at a minority of seeds, so
// they are counted in detect.false_positives rather than failing the run.
// So are tenants whose serial diagnosis misses its ground truth
// (diads.ground_truth_misses).
#include <algorithm>
#include <filesystem>
#include <iterator>
#include <tuple>

#include "bench.h"
#include "common/strings.h"
#include "detect/detector.h"
#include "diads/report.h"
#include "diads/symptoms_db.h"
#include "engine/engine.h"
#include "fleet/log.h"
#include "fleet/store.h"
#include "scenarios.h"

namespace perfbench {
namespace {

namespace detect = diads::detect;
namespace diag = diads::diag;
namespace engine = diads::engine;
namespace fleet = diads::fleet;
namespace monitor = diads::monitor;
namespace obs = diads::obs;
namespace workload = diads::workload;
using diads::ComponentId;
using diads::SimTimeMs;
using diads::Status;
using diads::StrFormat;

constexpr int kWorkers = 2;
constexpr size_t kChunk = 8192;  ///< Appends per "monitor.append" span.
constexpr SimTimeMs kStagger = diads::Minutes(20);

const ScenarioId kFaulted[] = {
    ScenarioId::kS1SanMisconfiguration, ScenarioId::kS1bBurstyV2,
    ScenarioId::kS2DualExternalContention, ScenarioId::kS3DataPropertyChange,
    ScenarioId::kS4ConcurrentDbSan,     ScenarioId::kS5LockingWithNoise,
    ScenarioId::kS6IndexDrop,           ScenarioId::kS7ParamChange,
    ScenarioId::kS8AnalyzeAfterDrift,   ScenarioId::kS9CpuSaturation,
    ScenarioId::kS10RaidRebuild,        ScenarioId::kS11DiskFailure,
};
const ScenarioId kQuiet[] = {
    ScenarioId::kS1SanMisconfiguration, ScenarioId::kS3DataPropertyChange,
    ScenarioId::kS6IndexDrop, ScenarioId::kS10RaidRebuild,
};

struct StreamSample {
  SimTimeMs order = 0;  ///< Merge key: time plus the tenant's shift.
  SimTimeMs time = 0;
  uint32_t tenant = 0;
  ComponentId component;
  monitor::MetricId metric = monitor::MetricId::kVolTotalIos;
  double value = 0;
};

/// What one tenant's detector did in a pass.
struct Detection {
  std::vector<detect::Incident> incidents;
  std::vector<engine::DiagnosisResponse> responses;  ///< One per incident.
  /// Confirmations suppressed by an already active incident after the
  /// tenant's satisfactory window ended.
  uint64_t suppressed_after_window = 0;
};

/// What one pass measured.
struct PassResult {
  double pass_ms = 0;    ///< Whole pass, excluding verification.
  double append_ms = 0;  ///< The append loop alone.
};

class AlwaysOn : public Workload {
 public:
  Status SetUp(const Args& args, obs::Tracer* tracer) override {
    symptoms_ = std::make_unique<diag::SymptomsDb>(
        diag::SymptomsDb::MakeDefault());
    for (ScenarioId id : kFaulted) {
      DIADS_RETURN_IF_ERROR(AddTenant(workload::ScenarioName(id), id, args));
    }
    for (ScenarioId id : kQuiet) {
      DIADS_RETURN_IF_ERROR(
          AddTenant(std::string("quiet-") + workload::ScenarioName(id), id,
                    args));
    }
    BuildStream();
    log_dir_ = args.out_dir + "/fleet-log";
    store_ = std::make_unique<fleet::FleetStore>();
    for (int i = 0; i < (tracer != nullptr ? 2 : 1); ++i) {
      engine::EngineOptions options;
      options.workers = kWorkers;
      options.fleet_store = store_.get();
      options.tracer = i == 1 ? tracer : nullptr;
      engines_.push_back(
          std::make_unique<engine::DiagnosisEngine>(options, symptoms_.get()));
      // Warm-up pass: fills the engine's model cache.
      Recorder scratch;
      DIADS_RETURN_IF_ERROR(
          Pass(engines_.back().get(), /*watched=*/true, nullptr, nullptr,
               &scratch)
              .status());
    }
    return Status::Ok();
  }

  void TearDown() override {
    engines_.clear();
    store_.reset();
    stream_.clear();
    window_ends_.clear();
    tenants_.clear();
    symptoms_.reset();
    ground_truth_misses_.clear();
    setup_recorder_ = Recorder();
  }

  Status Run(const Args& args, obs::Tracer* tracer, HostSpeed* host,
             Recorder* recorder) override {
    RecordGroundTruthMisses(ground_truth_misses_, recorder);
    recorder->Absorb(setup_recorder_);
    const Deadline deadline(args.seconds);
    int round = 0;
    while (!deadline.passed()) {
      if (tracer == nullptr) {
        host->Probe(recorder);
        DIADS_ASSIGN_OR_RETURN(
            PassResult pass,
            Pass(engines_[0].get(), true, nullptr, host, recorder));
        SampleTimed(host, recorder, "ingest_samples_per_s",
                    stream_.size() / (pass.append_ms / 1e3));
        continue;
      }
      // Traced run: an untraced pass (U), a traced pass (T) and an
      // unwatched replay (N), in rotating order. T/U gives the tracing
      // overhead; U/N the detector's append overhead.
      PassResult untraced, traced, unwatched;
      for (int leg = 0; leg < 3; ++leg) {
        host->Probe(recorder);
        switch ((leg + round) % 3) {
          case 0: {
            Recorder checks_only;
            DIADS_ASSIGN_OR_RETURN(
                untraced, Pass(engines_[0].get(), true, nullptr, nullptr,
                               &checks_only));
            recorder->Check(checks_only.failed() == 0,
                            "untraced pass failed a check");
            break;
          }
          case 1: {
            DIADS_ASSIGN_OR_RETURN(
                traced, Pass(engines_[1].get(), true, tracer, host, recorder));
            SampleTimed(host, recorder, "ingest_samples_per_s",
                        stream_.size() / (traced.append_ms / 1e3));
            break;
          }
          default: {
            Recorder ignored;
            DIADS_ASSIGN_OR_RETURN(
                unwatched, Pass(nullptr, false, nullptr, nullptr, &ignored));
            break;
          }
        }
      }
      ++round;
      recorder->Sample("trace_pair_ratio", traced.pass_ms / untraced.pass_ms);
      recorder->Sample("trace_pair_base_ms", untraced.pass_ms);
      recorder->Sample("detect.append_overhead_ratio",
                       untraced.append_ms / unwatched.append_ms - 1.0);
      recorder->Sample("monitor.append_ns",
                       unwatched.append_ms * 1e6 / stream_.size());
    }
    return Status::Ok();
  }

 private:
  /// Tenants [0, size(kFaulted)) replay their faults; the rest are quiet.
  static bool Faulted(size_t t) { return t < std::size(kFaulted); }

  Status AddTenant(std::string tag, ScenarioId id, const Args& args) {
    std::vector<std::string>* misses =
        Faulted(tenants_.size()) ? &ground_truth_misses_ : nullptr;
    DIADS_ASSIGN_OR_RETURN(
        Tenant tenant,
        MakeTenant(std::move(tag), id, BackendKind::kPostgres,
                   TenantSeed(args.seed, tenants_.size()), symptoms_.get(),
                   &setup_recorder_, misses));
    tenants_.push_back(std::move(tenant));
    return Status::Ok();
  }

  void BuildStream() {
    for (uint32_t t = 0; t < tenants_.size(); ++t) {
      const workload::ScenarioOutput& scenario = *tenants_[t].scenario;
      const SimTimeMs cutoff =
          Faulted(t) ? -1 : scenario.satisfactory_window.end;
      scenario.testbed->store.ForEachSeries(
          [&](ComponentId component, monitor::MetricId metric,
              const std::vector<monitor::Sample>& samples) {
            for (const monitor::Sample& sample : samples) {
              if (cutoff >= 0 && sample.time > cutoff) continue;
              stream_.push_back(StreamSample{sample.time + t * kStagger,
                                             sample.time, t, component, metric,
                                             sample.value});
            }
          });
    }
    std::sort(stream_.begin(), stream_.end(),
              [](const StreamSample& a, const StreamSample& b) {
                return std::make_tuple(a.order, a.tenant, a.component.value,
                                       static_cast<int>(a.metric)) <
                       std::make_tuple(b.order, b.tenant, b.component.value,
                                       static_cast<int>(b.metric));
              });
    std::vector<bool> seen(tenants_.size());
    for (size_t i = 0; i < stream_.size(); ++i) {
      const uint32_t t = stream_[i].tenant;
      if (Faulted(t) && !seen[t] &&
          stream_[i].time > tenants_[t].scenario->satisfactory_window.end) {
        seen[t] = true;
        window_ends_.push_back({i, t});
      }
    }
  }

  /// One pass over the stream. With `watched` false it is the unwatched
  /// replay: appends only, no detector, `engine` unused. Times carry
  /// `host`'s reference time when `host` is given.
  diads::Result<PassResult> Pass(engine::DiagnosisEngine* engine, bool watched,
                                 obs::Tracer* tracer, const HostSpeed* host,
                                 Recorder* recorder) {
    const obs::TraceContext root_ctx = ContextOf(tracer);
    obs::SpanHandle root = root_ctx.StartSpan("bench.pass", "bench");
    const obs::TraceContext ctx = root_ctx.Under(root);
    const Clock::time_point start = Clock::now();
    PassResult result;

    obs::SpanHandle span = ctx.StartSpan("bench.pass_setup", "bench");
    std::vector<monitor::TimeSeriesStore> replicas(tenants_.size());
    std::unique_ptr<fleet::SegmentLog> log;
    // One detector per replica, so that each tenant's counters can be read.
    std::vector<std::unique_ptr<detect::SlowdownDetector>> detectors;
    if (watched) {
      store_->Clear();
      std::filesystem::remove_all(log_dir_);
      fleet::LogOptions log_options;
      log_options.dir = log_dir_;
      DIADS_ASSIGN_OR_RETURN(log, fleet::SegmentLog::Open(log_options));
      store_->AttachLog(log.get());
      for (size_t t = 0; t < tenants_.size(); ++t) {
        if (Faulted(t)) engine->InvalidateTenantResults(tenants_[t].tag);
        detectors.push_back(std::make_unique<detect::SlowdownDetector>(
            detect::DetectorOptions{}, engine, tracer));
        DIADS_RETURN_IF_ERROR(detectors.back()->Watch(
            tenants_[t].tag, &replicas[t],
            [this, t]() { return RequestFor(tenants_[t]); }));
      }
    }
    span.End();

    // Chunks also stop where a faulted tenant's satisfactory window ends,
    // to read its detector's suppressed confirmations there.
    std::vector<uint64_t> suppressed_at_window_end(tenants_.size());
    size_t next_window_end = 0;
    const Clock::time_point append_start = Clock::now();
    for (size_t begin = 0; begin < stream_.size();) {
      size_t end = std::min(stream_.size(), begin + kChunk);
      if (next_window_end < window_ends_.size()) {
        end = std::min(end, window_ends_[next_window_end].first);
      }
      obs::SpanHandle chunk = ctx.StartSpan("monitor.append", "monitor");
      for (size_t i = begin; i < end; ++i) {
        const StreamSample& s = stream_[i];
        DIADS_RETURN_IF_ERROR(
            replicas[s.tenant].Append(s.component, s.metric, s.time, s.value));
      }
      chunk.End();
      for (; next_window_end < window_ends_.size() &&
             window_ends_[next_window_end].first == end;
           ++next_window_end) {
        const uint32_t t = window_ends_[next_window_end].second;
        if (watched) {
          suppressed_at_window_end[t] =
              detectors[t]->Stats().suppressed_active;
        }
      }
      begin = end;
    }
    result.append_ms = MsSince(append_start);
    if (!watched) {
      result.pass_ms = MsSince(start);
      return result;
    }

    span = ctx.StartSpan("detect.wait_diagnoses", "detect");
    std::vector<Detection> detections(tenants_.size());
    uint64_t appends_observed = 0;
    size_t incident_count = 0;
    for (size_t t = 0; t < tenants_.size(); ++t) {
      Detection& d = detections[t];
      d.responses = detectors[t]->TakeResponses();
      d.incidents = detectors[t]->Incidents();
      const detect::DetectorStats stats = detectors[t]->Stats();
      d.suppressed_after_window =
          stats.suppressed_active - suppressed_at_window_end[t];
      appends_observed += stats.appends_observed;
      incident_count += d.incidents.size();
    }
    detectors.clear();
    span = ctx.StartSpan("fleet.log_flush", "fleet");
    const Status flushed = log->Flush();
    store_->DetachLog();
    const fleet::LogCounters log_counters = log->Counters();
    log.reset();
    span = ctx.StartSpan("fleet.recover", "fleet");
    Clock::time_point step = Clock::now();
    fleet::FleetStore recovered;
    const fleet::ReplayStats replay =
        fleet::RecoverFromLog(log_dir_, &recovered);
    const double recover_ms = MsSince(step);
    span = ctx.StartSpan("fleet.query", "fleet");
    step = Clock::now();
    const std::string live_answers = FleetAnswers(*store_);
    const double query_ms = MsSince(step);
    const std::string recovered_answers = FleetAnswers(recovered);
    span.End();
    result.pass_ms = MsSince(start);

    span = ctx.StartSpan("bench.verify", "bench");
    Verify(detections, flushed, replay, live_answers, recovered_answers,
           recorder);
    span.End();
    root.End();

    // An incident's diagnosis is timed when it computed; a repeat incident
    // of the same tenant within a pass is a result-cache hit.
    for (const Detection& d : detections) {
      for (const engine::DiagnosisResponse& response : d.responses) {
        const obs::CostProfile* cost = response.cost.get();
        if (cost == nullptr || cost->result_cache_hit || cost->coalesced) {
          continue;
        }
        SampleTimed(host, recorder, "diagnosis_ms", response.latency_ms);
        recorder->Sample("engine.queue_wait_ms", cost->queue_wait_ms);
      }
    }
    SampleTimed(host, recorder, "pass_ms", result.pass_ms);
    SampleTimed(host, recorder, "fleet_query_ms", query_ms);
    recorder->Sample("fleet.recover_ms", recover_ms);
    recorder->Sample("fleet.records_replayed",
                     static_cast<double>(replay.records_replayed));
    recorder->Sample("fleet.records_dropped",
                     static_cast<double>(replay.records_dropped));
    recorder->Sample("fleet.log_bytes_written",
                     static_cast<double>(log_counters.bytes_written));
    recorder->Sample("fleet.log_appends",
                     static_cast<double>(log_counters.appends));
    recorder->Sample("detect.appends_observed",
                     static_cast<double>(appends_observed));
    recorder->Sample("detect.incidents", static_cast<double>(incident_count));
    return result;
  }

  void Verify(const std::vector<Detection>& detections, const Status& flushed,
              const fleet::ReplayStats& replay,
              const std::string& live_answers,
              const std::string& recovered_answers, Recorder* recorder) const {
    int false_positives = 0;
    int masked_faults = 0;
    for (size_t t = 0; t < tenants_.size(); ++t) {
      const Detection& d = detections[t];
      const std::string& tag = tenants_[t].tag;
      // Incidents confirmed after a faulted tenant's satisfactory window
      // are detections of its fault; any other is a false positive.
      int detected = 0;
      for (const detect::Incident& incident : d.incidents) {
        if (Faulted(t) && incident.confirmed_time >
                              tenants_[t].scenario->satisfactory_window.end) {
          ++detected;
        } else {
          ++false_positives;
        }
      }
      if (Faulted(t)) {
        // A fault that confirms while a false positive's incident is still
        // active is suppressed under it (one active incident per tenant):
        // seen, but masked.
        const bool masked = detected == 0 && d.suppressed_after_window > 0;
        masked_faults += masked;
        recorder->Check(detected == 1 || masked,
                        StrFormat("%s: %d incidents after its fault, and no "
                                  "confirmation under an active one",
                                  tag.c_str(), detected));
      }
      recorder->Check(d.responses.size() == d.incidents.size(),
                      tag + ": auto-diagnoses do not match incidents");
      for (const engine::DiagnosisResponse& response : d.responses) {
        if (!response.ok()) {
          recorder->Check(false, tag + ": " + response.status.ToString());
          continue;
        }
        recorder->Check(diag::ReportDigestHashHex(*response.report) ==
                            tenants_[t].reference_digest,
                        tag + ": auto-diagnosis differs from the serial one");
      }
    }
    recorder->Sample("detect.false_positives", false_positives);
    recorder->Sample("detect.masked_faults", masked_faults);
    recorder->Check(flushed.ok(), "log flush: " + flushed.ToString());
    recorder->Check(replay.records_dropped == 0 && replay.decode_failures == 0,
                    "log replay dropped records");
    recorder->Check(live_answers == recovered_answers,
                    "recovered store answers differ from the live store");
  }

  std::unique_ptr<diag::SymptomsDb> symptoms_;
  std::vector<Tenant> tenants_;
  std::vector<std::string> ground_truth_misses_;
  Recorder setup_recorder_;  ///< What the last set-up's scenarios did.
  std::vector<StreamSample> stream_;
  /// (stream index, tenant): where each faulted tenant's first sample
  /// after its satisfactory window lies, in stream order.
  std::vector<std::pair<size_t, uint32_t>> window_ends_;
  std::string log_dir_;
  std::unique_ptr<fleet::FleetStore> store_;
  std::vector<std::unique_ptr<engine::DiagnosisEngine>> engines_;
};

}  // namespace

std::unique_ptr<Workload> MakeAlwaysOn() {
  return std::make_unique<AlwaysOn>();
}

}  // namespace perfbench
