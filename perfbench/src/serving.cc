// Workload `serving`: open loop at a fixed Poisson rate against a
// DiagnosisEngine.
//
// Set-up builds 24 tenants (S1-S5 and S9-S11 on each backend, each at its
// own TenantSeed), diagnoses each serially for its reference digest, and
// warms the engine's result and model caches with one request per tenant.
// The engine gathers
// through a SimulatedSanCollector and publishes into a FleetStore with a
// SegmentLog attached.
//
// One generator thread then sends, at exponentially spaced due times
// (a second thread only collects responses):
//   fresh   the tenant's cached result is invalidated and the question
//           asked again (result-cache miss, model-cache hit);
//   repeat  the same question asked again (result-cache hit);
//   query   one read of the FleetQuery set, on the generator thread.
// A request's latency runs from its due time, so generator stalls count.
// A request that fails, is refused or shed, returns a report that differs
// from the tenant's serial one, or misses kLatencyLimitMs is a failed
// operation. A tenant whose serial diagnosis misses its ground truth is
// counted in diads.ground_truth_misses instead.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <random>
#include <thread>

#include "bench.h"
#include "diads/report.h"
#include "diads/symptoms_db.h"
#include "engine/engine.h"
#include "fleet/log.h"
#include "fleet/store.h"
#include "monitor/async_collector.h"
#include "scenarios.h"

namespace perfbench {
namespace {

namespace diag = diads::diag;
namespace engine = diads::engine;
namespace fleet = diads::fleet;
namespace monitor = diads::monitor;
namespace obs = diads::obs;
using diads::Status;

constexpr int kWorkers = 3;
constexpr int kConnections = 4;
constexpr double kRoundTripMs = 1.0;
constexpr double kOfferedPerSec = 80;
constexpr double kLatencyLimitMs = 250;
/// Unverified shares, measured from no fleet: fresh requests are two thirds
/// of the diagnoses, so the median diagnosis computes (README.md).
constexpr double kFreshShare = 0.6;
constexpr double kRepeatShare = 0.3;  // The rest are fleet queries.
/// The generator probes the host only when the next request is due later
/// than this.
constexpr std::chrono::milliseconds kProbeSlack{5};
/// Traced runs alternate engines (untraced, traced) every segment.
constexpr double kSegmentSeconds = 1.0;

const ScenarioId kTenantScenarios[] = {
    ScenarioId::kS1SanMisconfiguration, ScenarioId::kS2DualExternalContention,
    ScenarioId::kS3DataPropertyChange,  ScenarioId::kS4ConcurrentDbSan,
    ScenarioId::kS5LockingWithNoise,    ScenarioId::kS9CpuSaturation,
    ScenarioId::kS10RaidRebuild,        ScenarioId::kS11DiskFailure,
};

struct Pending {
  std::future<engine::DiagnosisResponse> future;
  Clock::time_point due;
  Clock::time_point sent;
  size_t tenant = 0;
  int segment = 0;
};

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Waits for the responses in submission order on a thread of its own,
/// so the generator never blocks on one, and verifies, times and releases
/// each as it resolves. With `paired` (a traced run), each diagnosis_ms
/// sample is matched by a "diagnosis_segment" sample naming its segment,
/// from which run.py pairs the untraced and traced segments.
class ResponseCollector {
 public:
  ResponseCollector(const std::vector<Tenant>* tenants, bool paired)
      : tenants_(tenants), paired_(paired), last_report_(tenants->size()),
        last_digest_(tenants->size()), thread_([this] { Loop(); }) {}
  ~ResponseCollector() { Join(); }
  ResponseCollector(const ResponseCollector&) = delete;
  ResponseCollector& operator=(const ResponseCollector&) = delete;

  void Push(Pending pending) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(pending));
    }
    wake_.notify_one();
  }

  /// Waits for every pushed response, then adds what was recorded to
  /// `recorder`. `start` is when the generator started.
  void Finish(Clock::time_point start, Recorder* recorder) {
    Join();
    recorder->Absorb(recorded_);
    recorder->Set("served", static_cast<double>(completed_));
    recorder->Set("served_window_s", MsBetween(start, last_done_) / 1e3);
  }

 private:
  void Join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    wake_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  void Loop() {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      Process(p);
    }
  }

  void Process(Pending& p) {
    const engine::DiagnosisResponse response = p.future.get();
    const double latency_ms = MsBetween(p.due, p.sent) + response.latency_ms;
    const Tenant& tenant = (*tenants_)[p.tenant];
    if (!response.ok()) {
      recorded_.Check(false, tenant.tag + ": " + response.status.ToString());
      return;
    }
    // Cache hits share the computed report object: digest each once.
    if (response.report != last_report_[p.tenant]) {
      last_report_[p.tenant] = response.report;
      last_digest_[p.tenant] = diag::ReportDigestHashHex(*response.report);
    }
    recorded_.Check(last_digest_[p.tenant] == tenant.reference_digest,
                    tenant.tag + ": digest differs from the serial diagnosis");
    recorded_.Check(latency_ms <= kLatencyLimitMs,
                    tenant.tag + ": missed the latency limit");
    ++completed_;
    last_done_ = std::max(
        last_done_, p.sent + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     response.latency_ms)));
    recorded_.Sample("diagnosis_ms", latency_ms);
    if (paired_) recorded_.Sample("diagnosis_segment", p.segment);
    const obs::CostProfile* cost = response.cost.get();
    if (cost == nullptr || cost->result_cache_hit || cost->coalesced) return;
    recorded_.Sample("engine.queue_wait_ms", cost->queue_wait_ms);
    recorded_.Sample("monitor.gather_ms", cost->gather_ms);
    recorded_.Sample("monitor.fetches_per_diagnosis",
                     static_cast<double>(cost->fetches_issued));
  }

  const std::vector<Tenant>* tenants_;
  const bool paired_;
  // Owned by the collector thread until it is joined.
  Recorder recorded_;
  std::vector<std::shared_ptr<const diag::DiagnosisReport>> last_report_;
  std::vector<std::string> last_digest_;
  Clock::time_point last_done_{};
  int64_t completed_ = 0;

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<Pending> queue_;  ///< Guarded by mu_.
  bool done_ = false;          ///< Guarded by mu_.
  std::thread thread_;         ///< Last: started after the state it uses.
};

class Serving : public Workload {
 public:
  Status SetUp(const Args& args, obs::Tracer* tracer) override {
    symptoms_ = std::make_unique<diag::SymptomsDb>(
        diag::SymptomsDb::MakeDefault());
    for (BackendKind backend : diads::db::AllBackendKinds()) {
      for (ScenarioId id : kTenantScenarios) {
        DIADS_ASSIGN_OR_RETURN(
            Tenant tenant,
            MakeTenant(Config{id, backend}.Name(), id, backend,
                       TenantSeed(args.seed, tenants_.size()), symptoms_.get(),
                       &setup_recorder_, &ground_truth_misses_));
        tenants_.push_back(std::move(tenant));
      }
    }

    const std::string log_dir = args.out_dir + "/fleet-log";
    std::filesystem::remove_all(log_dir);
    fleet::LogOptions log_options;
    log_options.dir = log_dir;
    log_options.sync_each_append = false;
    DIADS_ASSIGN_OR_RETURN(log_, fleet::SegmentLog::Open(log_options));
    store_ = std::make_unique<fleet::FleetStore>();
    store_->AttachLog(log_.get());

    // Engine 0 is untraced; a traced run adds engine 1 under `tracer`.
    for (int i = 0; i < (tracer != nullptr ? 2 : 1); ++i) {
      monitor::SimulatedLatencyOptions latency;
      latency.base_latency_ms = kRoundTripMs;
      latency.connections = kConnections;
      engine::EngineOptions options;
      options.workers = kWorkers;
      options.fleet_store = store_.get();
      options.tracer = i == 1 ? tracer : nullptr;
      engines_.push_back(std::make_unique<engine::DiagnosisEngine>(
          options, symptoms_.get(),
          std::make_shared<monitor::SimulatedSanCollector>(latency)));
      std::vector<std::future<engine::DiagnosisResponse>> warm;
      for (size_t t = 0; t < tenants_.size(); ++t) {
        warm.push_back(engines_.back()->Submit(RequestFor(tenants_[t])));
      }
      for (auto& future : warm) {
        const engine::DiagnosisResponse response = future.get();
        if (!response.ok()) return response.status;
      }
    }
    return Status::Ok();
  }

  void TearDown() override {
    engines_.clear();  // Drains and joins before the state they read goes.
    if (store_ != nullptr) store_->DetachLog();
    store_.reset();
    log_.reset();
    tenants_.clear();
    symptoms_.reset();
    ground_truth_misses_.clear();
    setup_recorder_ = Recorder();
  }

  Status Run(const Args& args, obs::Tracer* tracer, HostSpeed* host,
             Recorder* recorder) override {
    RecordGroundTruthMisses(ground_truth_misses_, recorder);
    recorder->Absorb(setup_recorder_);
    std::vector<engine::EngineStatsSnapshot> before;
    for (auto& e : engines_) {
      e->ResetStats();
      before.push_back(e->Stats());
    }

    std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ULL + 1);
    std::exponential_distribution<double> gap(kOfferedPerSec);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<size_t> pick(0, tenants_.size() - 1);
    const obs::TraceContext root_ctx = ContextOf(tracer);

    ResponseCollector collector(&tenants_, tracer != nullptr);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    Clock::time_point due = start;
    bool probe_pending = false;
    while (true) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng)));
      if (due >= end) break;
      const double kind = unit(rng);
      const size_t tenant = pick(rng);
      // After a query, probe the host while the generator has time to spare.
      if (probe_pending && due - Clock::now() > kProbeSlack) {
        host->Probe(recorder);
        probe_pending = false;
      }
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      recorder->Sample("generator_lag_ms", MsBetween(due, sent));
      const int segment =
          static_cast<int>(MsBetween(start, due) / (kSegmentSeconds * 1e3));
      const int which = tracer != nullptr ? segment % 2 : 0;
      if (kind >= kFreshShare + kRepeatShare) {
        obs::SpanHandle span = which == 1
                                   ? root_ctx.StartSpan("fleet.query", "fleet")
                                   : obs::SpanHandle();
        const std::string answers = FleetAnswers(*store_);
        const double ms = MsBetween(sent, Clock::now());
        span.End();
        SampleTimed(host, recorder, "fleet_query_ms", ms);
        recorder->Check(!answers.empty(), "fleet query returned nothing");
        probe_pending = true;
        continue;
      }
      if (kind < kFreshShare) {
        engines_[which]->InvalidateTenantResults(tenants_[tenant].tag);
      }
      Pending p;
      p.future = engines_[which]->Submit(RequestFor(tenants_[tenant]));
      p.due = due;
      p.sent = sent;
      p.tenant = tenant;
      p.segment = segment;
      collector.Push(std::move(p));
    }
    collector.Finish(start, recorder);

    // Engine counters and fetch latency of the traced engine in a traced
    // run, else of the only one.
    const int measured = static_cast<int>(engines_.size()) - 1;
    const engine::EngineStatsSnapshot after = engines_[measured]->Stats();
    const engine::EngineStatsSnapshot& base = before[measured];
    recorder->Set("engine.result_cache_hits",
                  after.cache_hits - base.cache_hits);
    recorder->Set("engine.result_cache_lookups",
                  (after.cache_hits + after.cache_misses) -
                      (base.cache_hits + base.cache_misses));
    recorder->Set("engine.model_cache_hits",
                  after.model_cache_hits - base.model_cache_hits);
    recorder->Set("engine.model_cache_lookups",
                  (after.model_cache_hits + after.model_cache_misses) -
                      (base.model_cache_hits + base.model_cache_misses));
    recorder->Set("engine.coalesced", after.coalesced - base.coalesced);
    recorder->Set("engine.rejected",
                  (after.rejected + after.rejected_share) -
                      (base.rejected + base.rejected_share));
    recorder->Set("engine.shed", after.shed_deadline - base.shed_deadline);
    recorder->Set("engine.failed", after.failed - base.failed);
    recorder->Set("monitor.fetch_ms_p50", after.fetch_latency.p50_ms);
    const fleet::LogCounters log = log_->Counters();
    recorder->Set("fleet.log_bytes_written", log.bytes_written);
    recorder->Set("fleet.log_appends", log.appends);
    return Status::Ok();
  }

 private:
  std::unique_ptr<diag::SymptomsDb> symptoms_;
  std::vector<Tenant> tenants_;
  std::vector<std::string> ground_truth_misses_;
  Recorder setup_recorder_;  ///< What the last set-up's scenarios did.
  std::unique_ptr<fleet::SegmentLog> log_;
  std::unique_ptr<fleet::FleetStore> store_;
  std::vector<std::unique_ptr<engine::DiagnosisEngine>> engines_;
};

}  // namespace

std::unique_ptr<Workload> MakeServing() { return std::make_unique<Serving>(); }

}  // namespace perfbench
