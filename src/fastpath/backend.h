#ifndef SYSTOLIC_FASTPATH_BACKEND_H_
#define SYSTOLIC_FASTPATH_BACKEND_H_

#include <string>

namespace systolic {
namespace fastpath {

/// Which executor a device runs its tile passes on — both the device's
/// selection and the executor an operation resolved to. A device set to
/// kFast still runs the RTL simulator while a fault plan is installed
/// (fault injection corrupts individual pulses, which only the simulator
/// models); golden tracing and the array-level unit surface always drive the
/// RTL arrays directly and are unaffected by the selection.
enum class Backend {
  /// The cycle-accurate RTL simulator (the repo's correctness oracle).
  kRtl,
  /// The kernel fast path: identical results from kernels.h, cycle counts
  /// from analytic_timing.h.
  kFast,
};

/// "rtl" | "fast".
const char* BackendToString(Backend backend);

/// Parses a backend name; false on anything but rtl/fast.
bool ParseBackendPolicy(const std::string& text, Backend* backend);

}  // namespace fastpath
}  // namespace systolic

#endif  // SYSTOLIC_FASTPATH_BACKEND_H_
