#pragma once
/// \file
/// Minimal ordered JSON reader/writer for the observability layer.
///
/// The obs subsystem writes Chrome trace-event files and metrics files,
/// and the shard coordinator merges the per-worker copies back into one
/// document.  That merge (plus `diac stats <metrics.json>` and the obs
/// tests) needs a parser; this one is deliberately tiny, keeps object
/// members in file order (no unordered containers; diac-lint D2), and
/// preserves the original numeric token so values round-trip exactly.

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace diac::obs {

/// A parsed JSON value.  Exactly one of the payload fields is
/// meaningful, selected by `kind`.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw;   ///< exact numeric token as it appeared in the input
  std::string text;  ///< string payload when kind == kString
  std::vector<JsonValue> items;                            ///< array elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< object fields,
                                                           ///< in file order

  /// Returns the first member named `key`, or nullptr if this is not an
  /// object or has no such member.
  const JsonValue* find(std::string_view key) const;

  /// Returns the value as an unsigned integer (numbers only; truncates
  /// toward zero), or `dflt` for any other kind.
  std::uint64_t as_u64(std::uint64_t dflt = 0) const;
};

/// Parses `text` as a single JSON document.  Throws std::runtime_error
/// with an offset-tagged message on malformed input.
JsonValue parse_json(std::string_view text);

/// Reads and parses the JSON file at `path`.  On failure returns false
/// and sets `*err` (when non-null) to "cannot open <what> file: <path>"
/// or "<path>: <parse error>".
bool load_json_file(const std::string& path, std::string_view what,
                    JsonValue* doc, std::string* err);

/// Escapes `s` for embedding inside a JSON string literal.  The result
/// does not include the surrounding quotes.
std::string json_escape(std::string_view s);

/// Serializes `v` compactly (no insignificant whitespace) to `out`.
/// Numbers are emitted from their preserved `raw` token when present.
void write_json(std::ostream& out, const JsonValue& v);

}  // namespace diac::obs
