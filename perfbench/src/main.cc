// diads_bench: runs one benchmark workload and prints its raw
// observations as one JSON line (see bench.h). Normally driven by
// perfbench/run.py, which builds it and derives the metrics.
//
//   diads_bench --workload sweep|fabric_scale|serving|always_on
//               --seed N --seconds S --trace 0|1
//               --out DIR --source-dir REPO_ROOT
//
// With --trace 1 the Chrome trace of the traced units is written to
// DIR/trace.json.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench.h"
#include "common/strings.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += diads::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) { return diads::StrFormat("%.9g", v); }

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--source-dir") {
      args->source_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out_dir.empty() &&
         !args->source_dir.empty() && args->seconds > 0;
}

/// A run sets its workload up at least kMinSetUps times, and more (up to
/// kMaxSetUps) while the set-ups so far took under kSetUpBudgetMs; setup_s
/// is their median. Cheap set-ups are noisy, so they get more repeats.
constexpr int kMinSetUps = 3;
constexpr int kMaxSetUps = 15;
constexpr double kSetUpBudgetMs = 1500;

int Fail(const std::string& message) {
  std::fprintf(stderr, "diads_bench: %s\n", message.c_str());
  return 2;
}

/// Pseudo-random 64-bit numbers (xorshift64).
uint64_t NextRandom(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

}  // namespace

HostSpeed::HostSpeed() : keys_(16384), sorted_(keys_.size()) {
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (uint64_t& key : keys_) key = NextRandom(&state);
}

void HostSpeed::Probe(Recorder* recorder) {
  // The fastest of a few repeats: the first one also reloads the kernel's
  // data into the cache, and any one can be interrupted.
  double ms = 0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const Clock::time_point start = Clock::now();
    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    const double took = MsSince(start);
    ms = repeat == 0 ? took : std::min(ms, took);
  }
  recorder->Sample("host.reference_ms", ms);
  recent_.push_back(ms);
  if (recent_.size() > kWindow) recent_.erase(recent_.begin());
}

double HostSpeed::reference_ms() const {
  if (recent_.empty()) return 0;
  std::vector<double> ordered = recent_;
  std::nth_element(ordered.begin(), ordered.begin() + ordered.size() / 2,
                   ordered.end());
  return ordered[ordered.size() / 2];
}

void SampleTimed(const HostSpeed* host, Recorder* recorder,
                 const std::string& series, double value) {
  recorder->Sample(series, value);
  if (host != nullptr) recorder->Sample(series + "@ref", host->reference_ms());
}

void Recorder::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Recorder::Absorb(const Recorder& other) {
  for (const auto& [name, samples] : other.series_) {
    auto& mine = series_[name];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& failure : other.failures_) {
    if (failures_.size() < 20) failures_.push_back(failure);
  }
}

std::string Recorder::ToJson() const {
  std::string out = "{\"series\":{";
  bool first = true;
  for (const auto& [name, samples] : series_) {
    out += (first ? "" : ",") + JsonString(name) + ":[";
    for (size_t i = 0; i < samples.size(); ++i) {
      out += (i == 0 ? "" : ",") + JsonNumber(samples[i]);
    }
    out += "]";
    first = false;
  }
  out += "},\"values\":{";
  first = true;
  for (const auto& [name, value] : values_) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  out += diads::StrFormat("},\"attempted\":%lld,\"failed\":%lld,\"failures\":[",
                          static_cast<long long>(attempted_),
                          static_cast<long long>(failed_));
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(failures_[i]);
  }
  return out + "]}";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail("usage: diads_bench --workload W --seed N --seconds S "
                "--trace 0|1 --out DIR --source-dir ROOT");
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "sweep") {
    workload = MakeSweep(/*fabric_scale=*/false);
  } else if (args.workload == "fabric_scale") {
    workload = MakeSweep(/*fabric_scale=*/true);
  } else if (args.workload == "serving") {
    workload = MakeServing();
  } else if (args.workload == "always_on") {
    workload = MakeAlwaysOn();
  } else {
    return Fail("unknown workload " + args.workload);
  }

  std::unique_ptr<diads::obs::Tracer> tracer;
  if (args.trace) tracer = std::make_unique<diads::obs::Tracer>();
  Recorder recorder;
  HostSpeed host;
  host.Probe(&recorder);
  double setup_ms = 0;
  for (int i = 0;
       i < kMaxSetUps && (i < kMinSetUps || setup_ms < kSetUpBudgetMs); ++i) {
    workload->TearDown();
    host.Probe(&recorder);
    const Clock::time_point start = Clock::now();
    diads::Status status = workload->SetUp(args, tracer.get());
    if (!status.ok()) return Fail("set-up failed: " + status.ToString());
    const double ms = MsSince(start);
    setup_ms += ms;
    host.Probe(&recorder);
    SampleTimed(&host, &recorder, "setup_s", ms / 1e3);
  }
  if (tracer != nullptr) tracer->Clear();

  diads::Status status = workload->Run(args, tracer.get(), &host, &recorder);
  workload->TearDown();
  if (!status.ok()) return Fail("run failed: " + status.ToString());

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  recorder.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);

  if (tracer != nullptr) {
    const std::string path = args.out_dir + "/trace.json";
    std::ofstream out(path, std::ios::trunc);
    out << tracer->ExportChromeTrace();
    if (!out.good()) return Fail("cannot write " + path);
  }
  std::printf("%s\n", recorder.ToJson().c_str());
  return 0;
}
