// Module IA — Impact Analysis (Section 4.1).
//
// "For each high-confidence root cause R identified by Module SD, an impact
// score is calculated as the percentage of the query slowdown (time) that
// can be contributed to R individually." Impact scores separate coexisting
// problems and are the safeguard against spurious-correlation misdiagnoses:
// scenario 5's noise-fabricated volume contention survives Module SD with
// some confidence but gets an impact near zero here.
//
// Two implementations, as in the paper:
//
//   * Inverse dependency analysis (default): comp(R) -> the operators
//     op(R) whose performance R affects -> impact = extra self-time of
//     op(R) across unsatisfactory runs as a share of the extra plan time.
//     Self-time (I/O wait + CPU + lock wait) is used rather than the
//     operator span so that pipeline peers of a slowed scan do not get the
//     scan's slowdown double-counted.
//
//   * Cost-model based: uses the optimizer's per-operator cost estimates to
//     apportion the observed slowdown — a static predictor that needs no
//     healthy history, at the price of trusting the cost model.
#ifndef DIADS_DIADS_IMPACT_ANALYSIS_H_
#define DIADS_DIADS_IMPACT_ANALYSIS_H_

#include "diads/diagnosis.h"

namespace diads::diag {

enum class ImpactMethod { kInverseDependency, kCostModel };

/// Fills `impact_pct` on every cause whose band is high or medium (the
/// paper computes impact for high-confidence causes; medium is included so
/// the report can show why medium causes are dismissed).
Status RunImpactAnalysis(const DiagnosisContext& ctx, const CoResult& co,
                         const CrResult& cr, std::vector<RootCause>* causes,
                         ImpactMethod method = ImpactMethod::kInverseDependency);

/// The operators op(R) a root cause affects (exposed for tests/benches).
std::vector<int> OperatorsAffectedBy(const DiagnosisContext& ctx,
                                     const RootCause& cause,
                                     const CoResult& co, const CrResult& cr);

/// Console panel.
std::string RenderIaResult(const DiagnosisContext& ctx,
                           const std::vector<RootCause>& causes);

}  // namespace diads::diag

#endif  // DIADS_DIADS_IMPACT_ANALYSIS_H_
