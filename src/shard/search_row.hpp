/// The search-row payload codec: one CandidateResult to/from tokens.
///
/// The shard file, the serve socket and the result cache all serialize
/// a candidate this way — row payload: RunStats + tasks + commit_points
/// + one cost token per objective.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "search/engine.hpp"

namespace diac {

/// Token count of one search row under `objectives` objectives.
std::size_t search_row_arity(std::size_t objectives);

/// Serializes an evaluated candidate's row payload.
std::vector<std::string> encode_row(const CandidateResult& c);

/// Decodes a row payload back into `c` (everything but `point`, which
/// the caller owns); throws std::runtime_error on wrong arity and
/// std::invalid_argument / std::runtime_error on malformed tokens.
void decode_search_row(const std::vector<std::string>& tokens,
                       std::size_t objectives, CandidateResult& c);

}  // namespace diac
