#include "shard/codec.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/exactfmt.hpp"

namespace diac {

// The exact round-trip lives in util/exactfmt so lower layers (the
// job-key builders in exp/) share one implementation; these wrappers
// keep the codec's historical API.
std::string encode_double(double value) { return exact_encode_double(value); }

double decode_double(const std::string& token) {
  return exact_decode_double(token);
}

long long decode_int(const std::string& token) {
  return exact_decode_int(token);
}

namespace {

const std::string& token_at(const std::vector<std::string>& tokens,
                            std::size_t i) {
  if (i >= tokens.size()) {
    throw std::runtime_error("shard codec: row payload truncated at token " +
                             std::to_string(i));
  }
  return tokens[i];
}

}  // namespace

void write_shard_header(std::ostream& out, const ShardHeader& header) {
  out << "diac-shard " << header.version << " " << header.kind << " "
      << header.shards << " " << header.index << " " << header.jobs << "\n";
}

void write_shard_row(std::ostream& out, std::size_t job,
                     const std::vector<std::string>& tokens) {
  out << "row " << job;
  for (const std::string& t : tokens) out << " " << t;
  out << "\n";
}

void write_shard_trailer(std::ostream& out, std::size_t rows) {
  out << "end " << rows << "\n";
}

ShardFile read_shard_stream(std::istream& in, const std::string& name) {
  auto fail = [&name](const std::string& what) -> std::runtime_error {
    return std::runtime_error("shard file " + name + ": " + what);
  };

  ShardFile file;
  file.name = name;
  std::string line;
  if (!std::getline(in, line)) throw fail("empty file");
  {
    std::istringstream h(line);
    std::string magic;
    h >> magic >> file.header.version >> file.header.kind >>
        file.header.shards >> file.header.index >> file.header.jobs;
    if (!h || magic != "diac-shard") throw fail("bad header '" + line + "'");
    if (file.header.version != kShardFormatVersion) {
      throw fail("format version " + std::to_string(file.header.version) +
                 " (this build reads " + std::to_string(kShardFormatVersion) +
                 ")");
    }
  }

  bool ended = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "row") {
      if (ended) throw fail("row after end trailer");
      ShardRow row;
      if (!(ls >> row.job)) throw fail("bad row line '" + line + "'");
      std::string token;
      while (ls >> token) row.tokens.push_back(std::move(token));
      file.rows.push_back(std::move(row));
    } else if (tag == "end") {
      std::size_t count = 0;
      if (!(ls >> count)) throw fail("bad end trailer '" + line + "'");
      if (count != file.rows.size()) {
        throw fail("trailer claims " + std::to_string(count) + " row(s), " +
                   std::to_string(file.rows.size()) + " present");
      }
      ended = true;
    } else {
      throw fail("unknown line '" + line + "'");
    }
  }
  if (!ended) throw fail("truncated (missing end trailer)");
  return file;
}

ShardFile read_shard_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("shard file: cannot read " + path);
  }
  return read_shard_stream(in, path);
}

void append_run_stats(std::vector<std::string>& tokens, const RunStats& s) {
  tokens.push_back(encode_double(s.makespan));
  tokens.push_back(std::to_string(s.instances_completed));
  tokens.push_back(std::to_string(s.workload_completed ? 1 : 0));
  tokens.push_back(encode_double(s.energy_consumed));
  tokens.push_back(encode_double(s.energy_harvested));
  tokens.push_back(encode_double(s.energy_wasted));
  tokens.push_back(encode_double(s.reexec_energy));
  tokens.push_back(std::to_string(s.backups));
  tokens.push_back(std::to_string(s.restores));
  tokens.push_back(std::to_string(s.safe_zone_saves));
  tokens.push_back(std::to_string(s.deep_outages));
  tokens.push_back(std::to_string(s.power_interrupts));
  tokens.push_back(std::to_string(s.nvm_writes));
  tokens.push_back(std::to_string(s.nvm_boundary_writes));
  tokens.push_back(std::to_string(s.nvm_bits_written));
  tokens.push_back(std::to_string(s.tasks_executed));
  tokens.push_back(std::to_string(s.tasks_reexecuted));
  tokens.push_back(std::to_string(s.task_aborts));
  tokens.push_back(encode_double(s.time_active));
  tokens.push_back(encode_double(s.time_sleep));
  tokens.push_back(encode_double(s.time_off));
  tokens.push_back(encode_double(s.time_backup));
}

RunStats parse_run_stats(const std::vector<std::string>& tokens,
                         std::size_t& cursor) {
  RunStats s;
  auto next = [&tokens, &cursor]() -> const std::string& {
    return token_at(tokens, cursor++);
  };
  s.makespan = decode_double(next());
  s.instances_completed = static_cast<int>(decode_int(next()));
  s.workload_completed = decode_int(next()) != 0;
  s.energy_consumed = decode_double(next());
  s.energy_harvested = decode_double(next());
  s.energy_wasted = decode_double(next());
  s.reexec_energy = decode_double(next());
  s.backups = static_cast<int>(decode_int(next()));
  s.restores = static_cast<int>(decode_int(next()));
  s.safe_zone_saves = static_cast<int>(decode_int(next()));
  s.deep_outages = static_cast<int>(decode_int(next()));
  s.power_interrupts = static_cast<int>(decode_int(next()));
  s.nvm_writes = static_cast<int>(decode_int(next()));
  s.nvm_boundary_writes = static_cast<int>(decode_int(next()));
  s.nvm_bits_written = decode_int(next());
  s.tasks_executed = static_cast<int>(decode_int(next()));
  s.tasks_reexecuted = static_cast<int>(decode_int(next()));
  s.task_aborts = static_cast<int>(decode_int(next()));
  s.time_active = decode_double(next());
  s.time_sleep = decode_double(next());
  s.time_off = decode_double(next());
  s.time_backup = decode_double(next());
  return s;
}

std::vector<std::string> encode_row(const SchemeRow& row) {
  std::vector<std::string> tokens;
  tokens.reserve(kSchemeCount * kRunStatsTokenCount);
  for (const RunStats& stats : row) append_run_stats(tokens, stats);
  return tokens;
}

SchemeRow decode_scheme_row(const std::vector<std::string>& tokens) {
  if (tokens.size() != kSchemeCount * kRunStatsTokenCount) {
    throw std::runtime_error("scheme row: " + std::to_string(tokens.size()) +
                             " token(s), " +
                             std::to_string(kSchemeCount * kRunStatsTokenCount) +
                             " expected");
  }
  SchemeRow row;
  std::size_t cursor = 0;
  for (RunStats& stats : row) stats = parse_run_stats(tokens, cursor);
  return row;
}

}  // namespace diac
