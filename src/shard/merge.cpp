#include "shard/merge.hpp"

#include <exception>
#include <filesystem>
#include <stdexcept>

#include "shard/search_row.hpp"

namespace diac {

namespace {

// Decodes every payload with decode(tokens, row), naming the job of the
// first failure.
template <typename Row, typename Decode>
std::vector<Row> decode_rows(const RowPayloads& payloads, const char* kind,
                             Decode&& decode) {
  std::vector<Row> rows(payloads.size());
  for (std::size_t job = 0; job < payloads.size(); ++job) {
    try {
      decode(payloads[job], rows[job]);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("shard merge: ") + kind + " job " +
                               std::to_string(job) + ": " + e.what());
    }
  }
  return rows;
}

BenchmarkResult scheme_result(const SchemeRow& row, const std::string& name,
                              std::size_t gate_count) {
  BenchmarkResult res;
  res.name = name;
  res.gate_count = gate_count;
  res.stats = row;
  return res;
}

}  // namespace

std::vector<SchemeRow> decode_scheme_rows(const RowPayloads& payloads) {
  return decode_rows<SchemeRow>(
      payloads, "scheme",
      [](const std::vector<std::string>& tokens, SchemeRow& row) {
        row = decode_scheme_row(tokens);
      });
}

std::vector<CandidateResult> decode_search_rows(
    const RowPayloads& payloads, const std::vector<DesignPoint>& points,
    const SearchObjectives& objectives) {
  if (payloads.size() != points.size()) {
    throw std::runtime_error("shard merge: " +
                             std::to_string(payloads.size()) +
                             " search row(s) for " +
                             std::to_string(points.size()) + " candidate(s)");
  }
  std::vector<CandidateResult> rows = decode_rows<CandidateResult>(
      payloads, "search",
      [&](const std::vector<std::string>& tokens, CandidateResult& c) {
        decode_search_row(tokens, objectives.size(), c);
      });
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i].point = points[i];
  return rows;
}

MonteCarloResult merge_mc_rows(const std::vector<SchemeRow>& rows,
                               const std::string& name,
                               std::size_t gate_count) {
  std::vector<BenchmarkResult> samples;
  samples.reserve(rows.size());
  for (const SchemeRow& row : rows) {
    samples.push_back(scheme_result(row, name, gate_count));
  }
  return summarize_monte_carlo(std::move(samples));
}

std::vector<BenchmarkResult> merge_replay_rows(
    const std::vector<SchemeRow>& rows, const std::vector<std::string>& traces,
    std::size_t gate_count) {
  if (rows.size() != traces.size()) {
    throw std::runtime_error("shard merge: " + std::to_string(rows.size()) +
                             " replay row(s) for " +
                             std::to_string(traces.size()) + " trace(s)");
  }
  std::vector<BenchmarkResult> results;
  results.reserve(rows.size());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    results.push_back(scheme_result(
        rows[t], std::filesystem::path(traces[t]).stem().string(),
        gate_count));
  }
  return results;
}

}  // namespace diac
