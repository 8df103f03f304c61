#ifndef SYSTOLIC_FASTPATH_BACKEND_H_
#define SYSTOLIC_FASTPATH_BACKEND_H_

#include <string>
#include <vector>

#include "arrays/division_array.h"
#include "arrays/join_array.h"
#include "arrays/membership.h"
#include "arrays/selection_array.h"
#include "relational/op_specs.h"
#include "relational/relation.h"
#include "util/bitvector.h"
#include "util/result.h"

namespace systolic {
namespace fastpath {

/// Which executor a device runs its tile passes on.
enum class Backend {
  /// The cycle-accurate RTL simulator (the repo's correctness oracle).
  kRtl,
  /// The packed-kernel fast path: identical tile results from kernels.h,
  /// cycle counts from analytic_timing.h.
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

/// Drop-in fast replacements for the four array drivers the engine calls
/// per tile. Each returns bit-identical results to its RTL counterpart and
/// reports the analytically derived quiescence cycle count; simulator cell
/// statistics stay zero (no cells were pulsed — ExecStats treats analytic
/// passes separately, see ExecStats::Utilization).

/// Fast RunMembership: same validation, capacity limits, result bits and
/// cycle count as arrays::RunMembership.
Result<BitVector> FastMembership(const rel::Relation& a,
                                 const rel::Relation& b,
                                 const std::vector<size_t>& a_columns,
                                 const std::vector<size_t>& b_columns,
                                 arrays::EdgeRule edge_rule,
                                 const arrays::MembershipOptions& options,
                                 arrays::ArrayRunInfo* info);

/// Fast SystolicJoin: same matches (in (i, j) order), output relation and
/// cycle count as arrays::SystolicJoin.
Result<arrays::JoinArrayResult> FastJoin(const rel::Relation& a,
                                         const rel::Relation& b,
                                         const rel::JoinSpec& spec,
                                         const arrays::JoinArrayOptions& options);

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
