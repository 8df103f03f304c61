#include "fastpath/backend.h"

namespace systolic {
namespace fastpath {

const char* BackendToString(Backend backend) {
  return backend == Backend::kFast ? "fast" : "rtl";
}

bool ParseBackendPolicy(const std::string& text, Backend* backend) {
  if (text == "rtl") {
    *backend = Backend::kRtl;
  } else if (text == "fast") {
    *backend = Backend::kFast;
  } else {
    return false;
  }
  return true;
}

}  // namespace fastpath
}  // namespace systolic
