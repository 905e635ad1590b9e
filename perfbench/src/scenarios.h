// The scenario matrix and the benchmark's correctness oracle. The oracle
// reads the repository's files and never changes them.
//
//   * Golden digests: at seed 42 every conformance configuration's
//     ReportDigest hash must equal tests/golden_report_digests.txt.
//   * Ground truth: at any seed, every primary injected cause is reported
//     with high confidence and the top-ranked cause is an injected one
//     (the predicate the conformance suite asserts).
//   * Fleet answers: a fingerprint of the FleetQuery set, so a recovered
//     store can be compared with the live one.
#ifndef DIADS_PERFBENCH_SCENARIOS_H_
#define DIADS_PERFBENCH_SCENARIOS_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/backend.h"
#include "diads/diagnosis.h"
#include "diads/symptoms_db.h"
#include "engine/engine.h"
#include "fleet/store.h"
#include "workload/scenario.h"
#include "bench.h"

namespace perfbench {

using diads::db::BackendKind;
using diads::workload::ScenarioId;

struct Config {
  ScenarioId id;
  BackendKind backend;
  std::string Name() const;  ///< "S1-san-misconfiguration/postgres".
};

/// The 50-configuration golden matrix: the 16 backend-neutral scenarios
/// on every backend, plus C1 and C2 on the columnar engine.
std::vector<Config> GoldenMatrix();

/// (scenario name, backend name) -> digest hash hex.
using GoldenTable = std::map<std::pair<std::string, std::string>, std::string>;

/// Loads tests/golden_report_digests.txt under `source_dir`.
diads::Result<GoldenTable> LoadGoldenTable(const std::string& source_dir);

/// The scenario seed of a fleet's tenant `index`. Tenants are independent
/// environments, so a run mixes environment draws instead of repeating
/// one; the workload seed still fixes them all.
inline uint64_t TenantSeed(uint64_t workload_seed, size_t index) {
  return workload_seed * 1000 + index;
}

/// A tenant of a fleet workload (serving, always_on): its scenario run and
/// the digest of its serial diagnosis, which every report the engine
/// serves for it must equal.
struct Tenant {
  std::string tag;
  std::unique_ptr<diads::workload::ScenarioOutput> scenario;
  std::string reference_digest;
};

/// Runs scenario `id` on `backend` at `seed`, records what the run did
/// (RecordScenario) and diagnoses it serially for the reference digest.
/// With `misses` non-null, a serial diagnosis that misses its ground truth
/// is described there (see RecordGroundTruthMisses).
diads::Result<Tenant> MakeTenant(std::string tag, ScenarioId id,
                                 BackendKind backend, uint64_t seed,
                                 const diads::diag::SymptomsDb* symptoms,
                                 Recorder* recorder,
                                 std::vector<std::string>* misses);

/// The tenant's canonical diagnosis request.
diads::engine::DiagnosisRequest RequestFor(const Tenant& tenant);

/// Empty when the report passes the ground-truth predicate, else why not.
std::string GroundTruthProblem(const diads::workload::ScenarioOutput& scenario,
                               const diads::diag::DiagnosisReport& report);

/// Canonical rendering of the FleetQuery answers the benchmark reads.
std::string FleetAnswers(const diads::fleet::FleetStore& store);

/// Records tenants of a fleet workload (serving, always_on) whose serial
/// diagnosis misses its ground truth. There that is a finding about the
/// diagnosis modules at the tenant's seed, not a failed operation: those
/// workloads check the served reports against the serial ones. The misses
/// are counted in diads.ground_truth_misses and listed on stderr.
void RecordGroundTruthMisses(const std::vector<std::string>& misses,
                             Recorder* recorder);

/// Records what a finished scenario run did, read from public accessors:
/// its wall time and its SAN load events, components, monitoring samples
/// and Q2 runs.
void RecordScenario(const diads::workload::ScenarioOutput& scenario,
                    double run_ms, Recorder* recorder);

}  // namespace perfbench

#endif  // DIADS_PERFBENCH_SCENARIOS_H_
