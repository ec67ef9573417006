#include "shard/search_row.hpp"

#include <stdexcept>

#include "shard/codec.hpp"

namespace diac {

std::size_t search_row_arity(std::size_t objectives) {
  return kRunStatsTokenCount + 2 + objectives;
}

std::vector<std::string> encode_row(const CandidateResult& c) {
  std::vector<std::string> tokens;
  tokens.reserve(search_row_arity(c.costs.size()));
  append_run_stats(tokens, c.stats);
  tokens.push_back(std::to_string(c.tasks));
  tokens.push_back(std::to_string(c.commit_points));
  for (double v : c.costs) tokens.push_back(encode_double(v));
  return tokens;
}

void decode_search_row(const std::vector<std::string>& tokens,
                       std::size_t objectives, CandidateResult& c) {
  if (tokens.size() != search_row_arity(objectives)) {
    throw std::runtime_error(
        "search row: " + std::to_string(tokens.size()) + " token(s), " +
        std::to_string(search_row_arity(objectives)) + " expected");
  }
  std::size_t cursor = 0;
  c.stats = parse_run_stats(tokens, cursor);
  c.tasks = static_cast<std::size_t>(decode_int(tokens[cursor++]));
  c.commit_points = static_cast<std::size_t>(decode_int(tokens[cursor++]));
  c.costs.clear();
  c.costs.reserve(objectives);
  for (std::size_t k = 0; k < objectives; ++k) {
    c.costs.push_back(decode_double(tokens[cursor++]));
  }
}

}  // namespace diac
