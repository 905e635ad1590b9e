// Shared plumbing of diads_bench, the DIADS benchmark binary.
//
// diads_bench runs one workload for a fixed wall-clock budget and prints
// one JSON object of raw observations on its last stdout line: set-up
// times, per-operation samples, counters, and the correctness tally.
// perfbench/run.py turns those into the named metrics. Arithmetic
// (percentiles, self time, spreads) lives in Python, where it is tested.
//
// Spans: every call diads_bench makes into a DIADS layer is wrapped in an
// obs::Span named "<layer>.<operation>" through a TraceContext. With
// tracing off the context is inert and the wrappers cost a null check, so
// traced and untraced runs execute the same code.
#ifndef DIADS_PERFBENCH_BENCH_H_
#define DIADS_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  /// Directory for the Chrome trace, the log segments and scratch files.
  std::string out_dir;
  /// Repository root: the correctness oracle reads the golden digest
  /// table under it.
  std::string source_dir;
};

/// Raw observations of one run.
class Recorder {
 public:
  void Sample(const std::string& series, double value) {
    series_[series].push_back(value);
  }
  void Set(const std::string& key, double value) { values_[key] = value; }
  /// Adds `other`'s series samples and checks to this recorder's.
  void Absorb(const Recorder& other);
  /// One checked operation; `ok` false books a failure described by
  /// `what`.
  void Check(bool ok, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  std::string ToJson() const;

 private:
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> values_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< First few, for the report.
};

/// The host's current speed, read from a fixed reference kernel.
///
/// On a shared host the core speed a run gets moves by up to 2x within
/// minutes, with the neighbours' load. Probe() times a kernel that contains
/// no DIADS code: sorting a copy of 16384 pseudo-random keys, which stays
/// within a core's L2 cache, three times, keeping the fastest. A workload
/// probes before each unit of work and records, beside each CPU-bound time
/// sample of series "X", the current reference time in "X@ref". run.py
/// rescales X to what it would read on a host where the kernel takes
/// metrics.REFERENCE_MS. That cancels much of the host's swings and none
/// of the program's own changes.
class HostSpeed {
 public:
  HostSpeed();
  /// Runs the kernel once and records its time in "host.reference_ms".
  void Probe(Recorder* recorder);
  /// Median of the last kWindow probe times (ms), or 0 before any probe.
  double reference_ms() const;

 private:
  static constexpr int kRepeats = 3;
  static constexpr size_t kWindow = 5;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> sorted_;  ///< The kernel's working copy.
  std::vector<double> recent_;    ///< Last kWindow probe times.
};

/// Records `value` in `series` and, when `host` is given, its current
/// reference time in "<series>@ref".
void SampleTimed(const HostSpeed* host, Recorder* recorder,
                 const std::string& series, double value);

/// Deadline of the measured window.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds))) {}
  bool passed() const { return Clock::now() >= end_; }

 private:
  Clock::time_point end_;
};

/// The trace context of a unit of work: inert when `tracer` is null.
inline diads::obs::TraceContext ContextOf(diads::obs::Tracer* tracer) {
  return tracer != nullptr ? tracer->Root() : diads::obs::TraceContext();
}

/// A workload: a set-up that builds its state, and a measured run over
/// that state. main() calls SetUp several times (destroying the
/// previous state first) and Run once, on the last state. `tracer` is
/// null unless the run is traced; set-up may hand it to the components it
/// builds, and main() clears the spans set-up leaves behind.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual diads::Status SetUp(const Args& args,
                              diads::obs::Tracer* tracer) = 0;
  virtual void TearDown() = 0;
  /// Measures until `deadline` passes, probing `host` before each unit of
  /// work. With args.trace, runs each unit of work both untraced and
  /// under `tracer` (alternating which goes first) and records the pair
  /// ratio in "trace_pair_ratio"; serving instead tags each latency with
  /// its segment ("diagnosis_segment").
  virtual diads::Status Run(const Args& args, diads::obs::Tracer* tracer,
                            HostSpeed* host, Recorder* recorder) = 0;
};

std::unique_ptr<Workload> MakeSweep(bool fabric_scale);
std::unique_ptr<Workload> MakeServing();
std::unique_ptr<Workload> MakeAlwaysOn();

}  // namespace perfbench

#endif  // DIADS_PERFBENCH_BENCH_H_
