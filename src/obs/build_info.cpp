#include "obs/build_info.hpp"

#include "obs/json.hpp"

// CMake sets these per-source compile definitions on this file only; the
// fallbacks keep non-CMake builds (e.g. IDE single-file checks) compiling.
#ifndef DIAC_BUILD_GIT_HASH
#define DIAC_BUILD_GIT_HASH "unknown"
#endif
#ifndef DIAC_BUILD_COMPILER
#define DIAC_BUILD_COMPILER "unknown"
#endif
#ifndef DIAC_BUILD_TYPE
#define DIAC_BUILD_TYPE "unknown"
#endif
#ifndef DIAC_BUILD_SANITIZE
#define DIAC_BUILD_SANITIZE "OFF"
#endif

namespace diac::obs {

const BuildInfo& build_info() {
  static const BuildInfo info{
      DIAC_BUILD_GIT_HASH, DIAC_BUILD_COMPILER, DIAC_BUILD_TYPE,
      DIAC_BUILD_SANITIZE,
#if defined(DIAC_OBS_DISABLED)
      false,
#else
      true,
#endif
  };
  return info;
}

void write_build_info_json(std::ostream& out) {
  const BuildInfo& b = build_info();
  out << "{\"git_hash\":\"" << json_escape(b.git_hash) << "\",\"compiler\":\""
      << json_escape(b.compiler) << "\",\"build_type\":\""
      << json_escape(b.build_type) << "\",\"sanitize\":\""
      << json_escape(b.sanitize) << "\",\"obs\":\""
      << (b.obs_enabled ? "on" : "off") << "\"}";
}

}  // namespace diac::obs
