// Seeded mutants of a netlist file's text, shared by the reader fuzz
// tests: every mutant of a valid file must parse or fail at a line of
// the mutated text, never with another error or a crash.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <regex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace diac {

// The blank-separated tokens of `text`.
inline std::vector<std::string_view> tokens_of(const std::string& text) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    const std::size_t start = text.find_first_not_of(" \n", i);
    if (start == std::string::npos) break;
    i = text.find_first_of(" \n", start);
    if (i == std::string::npos) i = text.size();
    tokens.emplace_back(text.data() + start, i - start);
  }
  return tokens;
}

// `text` with one seeded edit at a random token: a flipped bit, the
// token deleted or duplicated, one of `marks` inside it, or a leading
// digit.
inline std::string mutate(const std::string& text,
                          const std::vector<std::string_view>& tokens,
                          std::string_view marks, SplitMix64& rng) {
  const std::string_view t = tokens[rng.below(tokens.size())];
  const std::size_t at = static_cast<std::size_t>(t.data() - text.data());
  std::string m = text;
  switch (rng.below(5)) {
    case 0:  // flip one bit of one byte
      m[rng.below(m.size())] ^= static_cast<char>(1u << rng.below(8));
      break;
    case 1:  // delete a token
      m.erase(at, t.size());
      break;
    case 2:  // duplicate a token
      m.insert(at, std::string(t) + " ");
      break;
    case 3: {  // a mark inside a token
      const char c = marks[rng.below(marks.size())];
      m.insert(at + rng.below(t.size() + 1), 1, c);
      break;
    }
    default:  // a leading digit
      m.insert(at, 1, static_cast<char>('0' + rng.below(10)));
      break;
  }
  return m;
}

// Runs `parse` over `count` mutants of `text` seeded by `seed`: each must
// parse or throw a std::runtime_error matching `located`, whose first
// group is a line of the mutant.  Returns how many parsed.
template <typename Parse>
int parse_seeded_mutants(const std::string& text, std::string_view marks,
                         std::uint64_t seed, int count,
                         const std::regex& located, Parse parse) {
  const std::vector<std::string_view> tokens = tokens_of(text);
  SplitMix64 rng(seed);
  int parsed = 0;
  for (int i = 0; i < count; ++i) {
    const std::string m = mutate(text, tokens, marks, rng);
    const long lines = std::count(m.begin(), m.end(), '\n') + 1;
    try {
      parse(m);
      ++parsed;
    } catch (const std::runtime_error& e) {
      std::cmatch match;
      const bool at_a_line = std::regex_match(e.what(), match, located) &&
                             std::stol(match[1]) >= 1 &&
                             std::stol(match[1]) <= lines;
      EXPECT_TRUE(at_a_line) << "mutant " << i << ": " << e.what();
      if (!at_a_line) break;
    }
  }
  return parsed;
}

}  // namespace diac
