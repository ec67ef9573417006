#pragma once
/// \file
/// Build provenance for `diac version` and obs file headers.
///
/// The values are baked into build_info.cpp by CMake compile definitions
/// (git hash at configure time, compiler id/version, build type,
/// sanitizer config) so every trace and metrics file records exactly
/// which binary produced it.

#include <ostream>
#include <string>

namespace diac::obs {

/// Immutable description of the running binary.
struct BuildInfo {
  std::string git_hash;    ///< short git hash, or "unknown" outside a checkout
  std::string compiler;    ///< e.g. "GNU 12.2.0"
  std::string build_type;  ///< CMAKE_BUILD_TYPE, e.g. "Release"
  std::string sanitize;    ///< DIAC_SANITIZE value, e.g. "OFF" / "thread"
  bool obs_enabled = true;  ///< false when compiled with -DDIAC_OBS=OFF
};

/// Returns the build info for this binary (values fixed at compile time).
const BuildInfo& build_info();

/// Writes the build info as a compact JSON object, e.g.
/// `{"git_hash":"abc123","compiler":"GNU 12.2.0",...}`.  Used verbatim as
/// the "build" header field of trace and metrics files.
void write_build_info_json(std::ostream& out);

}  // namespace diac::obs
