/// The serve wire protocol: line-oriented, token-framed, versioned.
///
/// Request (one line):
///
///     diac-serve 1 run <kind> <target> [--key value | --flag]...
///
/// `<kind>` is mc | replay | search, `<target>` a benchmark name or
/// netlist path readable by the *server*, and the options are exactly
/// the sweep options of that kind (serve/options.*); any other option,
/// client-only ones such as --threads included, is an error.  Tokens are
/// whitespace-split, so option values must not contain whitespace.
///
/// Response: one status line, then — on success — a complete shard row
/// stream (shard-codec header + `row` lines + `end` trailer, identical
/// to a `--shards 1` worker file):
///
///     diac-serve 1 ok
///     diac-shard 1 <kind> 1 0 <jobs>
///     row 0 ...
///     end <jobs>
///
/// or a single error line:
///
///     diac-serve 1 error <message...>
///
/// The trailer makes a server that died mid-stream detectable on the
/// client, exactly like a killed shard worker.
#pragma once

#include <string>

#include "serve/options.hpp"

namespace diac::serve {

/// Protocol version; bumped with any change to the line grammar.
inline constexpr int kServeProtocolVersion = 1;

/// One parsed sweep request.
struct SweepRequest {
  std::string kind;  ///< "mc" | "replay" | "search"
  std::string target;
  OptionMap options;
};

/// Serializes a request to its wire line (no trailing newline).
std::string format_request(const SweepRequest& request);

/// Parses a wire line; throws std::runtime_error with a client-facing
/// message on bad magic, version, kind, option syntax or an option the
/// kind does not read.
SweepRequest parse_request(const std::string& line);

/// The success status line (no trailing newline).
std::string ok_line();

/// An error status line carrying `message` (newlines stripped).
std::string error_line(const std::string& message);

}  // namespace diac::serve
