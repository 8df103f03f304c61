#include "fastpath/backend.h"

namespace systolic {
namespace fastpath {

const char* BackendPolicyToString(BackendPolicy policy) {
  return policy == BackendPolicy::kFast ? "fast" : "rtl";
}

const char* BackendToString(Backend backend) {
  return backend == Backend::kFast ? "fast" : "rtl";
}

bool ParseBackendPolicy(const std::string& text, BackendPolicy* policy) {
  if (text == "rtl") {
    *policy = BackendPolicy::kRtl;
  } else if (text == "fast") {
    *policy = BackendPolicy::kFast;
  } else {
    return false;
  }
  return true;
}

}  // namespace fastpath
}  // namespace systolic
