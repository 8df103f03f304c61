#ifndef SYSTOLIC_FASTPATH_BACKEND_H_
#define SYSTOLIC_FASTPATH_BACKEND_H_

#include <string>
#include <vector>

#include "arrays/division_array.h"
#include "arrays/selection_array.h"
#include "relational/op_specs.h"
#include "relational/relation.h"
#include "util/result.h"

namespace systolic {
namespace fastpath {

/// Which executor a device runs its tile passes on.
enum class Backend {
  /// The cycle-accurate RTL simulator (the repo's correctness oracle).
  kRtl,
  /// The kernel fast path: identical results from kernels.h, cycle counts
  /// from analytic_timing.h.
  kFast,
};

/// The user-facing selector. kFast falls back to the RTL simulator while a
/// fault plan is installed (fault injection corrupts individual pulses,
/// which only the simulator models); golden tracing and the array-level
/// unit surface always drive the RTL arrays directly and are unaffected by
/// the policy.
enum class BackendPolicy {
  kRtl,
  kFast,
};

/// "rtl" | "fast".
const char* BackendPolicyToString(BackendPolicy policy);

/// "rtl" | "fast".
const char* BackendToString(Backend backend);

/// Parses a policy name; false on anything but rtl/fast.
bool ParseBackendPolicy(const std::string& text, BackendPolicy* policy);

/// Drop-in fast replacements for the two array drivers the engine calls per
/// tile on the fast backend. Each returns bit-identical results to
/// its RTL counterpart and reports the analytically derived quiescence cycle
/// count; simulator cell statistics stay zero (no cells were pulsed —
/// ExecStats treats analytic passes separately, see ExecStats::Utilization).
/// Membership and joins have no per-tile fast driver: their tiles merge into
/// one result, which the engine computes once over whole operands with
/// kernels.h's MembershipBits / JoinMatches, giving each tile its pass
/// record in closed form (analytic_timing.h).

/// Fast SystolicDivision: same quotient (first-occurrence order), shape
/// fields and cycle count as arrays::SystolicDivision.
Result<arrays::DivisionArrayResult> FastDivision(const rel::Relation& a,
                                                 const rel::Relation& b,
                                                 const rel::DivisionSpec& spec);

/// Fast SystolicSelect: same selected bits, output relation and cycle count
/// as arrays::SystolicSelect.
Result<arrays::SelectionResult> FastSelect(
    const rel::Relation& a,
    const std::vector<arrays::SelectionPredicate>& predicates);

}  // namespace fastpath
}  // namespace systolic

#endif  // SYSTOLIC_FASTPATH_BACKEND_H_
