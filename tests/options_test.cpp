// Option parsing at every input boundary.  The option table, its
// tokenizer and the option readers in src/serve/options.* back the CLI,
// `shard-worker` and `diac serve` alike, so the tables below run each
// bad value and each unknown or misplaced option through them, through
// the serve request parser and through the real `diac` binary (path
// injected by CMake as DIAC_CLI_PATH): all must reject it with the same
// located message, and the CLI must exit 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/wait.h>

#include "serve/options.hpp"
#include "serve/request.hpp"
#include "util/rng.hpp"

#ifndef DIAC_CLI_PATH
#error "DIAC_CLI_PATH must point at the diac CLI binary"
#endif

namespace diac {
namespace {

namespace fs = std::filesystem;

struct BadValue {
  const char* command;  // the diac command the value is given to
  const char* flag;     // without the leading dashes
  const char* value;
  const char* expected;  // the "expected ..." part of the message
};

// clang-format off
const BadValue kBadValues[] = {
    {"mc", "seed", "12abc", "an unsigned 64-bit integer"},
    {"mc", "seed", "abc", "an unsigned 64-bit integer"},
    {"mc", "seed", "-1", "an unsigned 64-bit integer"},
    {"mc", "seed", "0x10", "an unsigned 64-bit integer"},
    {"mc", "seed", "99999999999999999999", "an unsigned 64-bit integer"},
    {"mc", "budget", "nan", "a finite number in (0, 1e+06]"},
    {"mc", "budget", "inf", "a finite number in (0, 1e+06]"},
    {"mc", "budget", "0", "a finite number in (0, 1e+06]"},
    {"mc", "budget", "0.25x", "a finite number in (0, 1e+06]"},
    {"mc", "instances", "1e9", "an integer in [1, 1000000]"},
    {"mc", "instances", "0", "an integer in [1, 1000000]"},
    {"mc", "instances", " 4", "an integer in [1, 1000000]"},
    {"mc", "runs", "99999999999", "an integer in [1, 1000000]"},
    {"mc", "runs", "", "an integer in [1, 1000000]"},
    {"mc", "policy", "7", "1|2|3"},
    {"mc", "policy", "3.0", "1|2|3"},
    {"mc", "nvm", "flash", "mram|reram|feram|pcm"},
    {"search", "random", "0", "an integer in [1, 1000000]"},
    {"search", "max-time", "-5", "a finite number in (0, 1e+12]"},
    {"search", "instances", "4.5", "an integer in [1, 1000000]"},
    {"mc", "source", "bogus", "constant|square|rfid|solar|fig4|trace:<path>"},
    {"search", "objectives", "pdp,pdp",
     "a comma list of distinct pdp|progress|writes|completion|energy|makespan"},
};
// clang-format on

std::string message(const BadValue& bad) {
  return std::string("--") + bad.flag + ": expected " + bad.expected +
         ", got '" + bad.value + "'";
}

// Reads every option a request of `command` reads.
std::function<void(const serve::OptionMap&)> read_options(
    const std::string& command) {
  if (command == "mc") {
    return [](const serve::OptionMap& o) {
      serve::mc_eval_options(o);
      serve::mc_runs(o);
    };
  }
  return [](const serve::OptionMap& o) {
    serve::search_options(o);
    serve::search_points(o);
  };
}

TEST(Options, ReadersRejectBadValuesWithLocatedMessages) {
  for (const BadValue& bad : kBadValues) {
    const serve::OptionMap options{{bad.flag, bad.value}};
    try {
      read_options(bad.command)(options);
      ADD_FAILURE() << "accepted --" << bad.flag << " '" << bad.value << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), message(bad));
    }
  }
}

TEST(Options, ReadersAcceptWellFormedValues) {
  const serve::OptionMap options{{"seed", "18446744073709551615"},
                                 {"budget", "0.3"},
                                 {"instances", "1000000"},
                                 {"runs", "1"},
                                 {"policy", "2"},
                                 {"nvm", "pcm"}};
  const EvaluationOptions eo = serve::mc_eval_options(options);
  EXPECT_EQ(eo.scenario.seed, 18446744073709551615ULL);
  EXPECT_EQ(eo.synthesis.budget_fraction, 0.3);
  EXPECT_EQ(eo.simulator.target_instances, 1000000);
  EXPECT_EQ(eo.synthesis.policy, PolicyKind::kPolicy2);
  EXPECT_EQ(eo.synthesis.technology, NvmTechnology::kPcm);
  EXPECT_EQ(serve::mc_runs(options), 1);
  // Absent options read as their defaults.
  const EvaluationOptions dflt = serve::mc_eval_options({});
  EXPECT_EQ(dflt.scenario.seed, 60247u);
  EXPECT_EQ(dflt.synthesis.policy, PolicyKind::kPolicy3);
  EXPECT_EQ(dflt.synthesis.technology, NvmTechnology::kMram);
  EXPECT_EQ(serve::mc_runs({}), 32);
}

struct CliRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

CliRun run_cli(const std::string& args, const std::string& tag) {
  const fs::path out = fs::path(::testing::TempDir()) / (tag + ".out");
  const fs::path err = fs::path(::testing::TempDir()) / (tag + ".err");
  const std::string cmd = std::string(DIAC_CLI_PATH) + " " + args + " > " +
                          out.string() + " 2> " + err.string();
  const int status = std::system(cmd.c_str());
  CliRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out = slurp(out);
  run.err = slurp(err);
  return run;
}

TEST(Options, CliRejectsBadValuesWithExitOne) {
  int i = 0;
  for (const BadValue& bad : kBadValues) {
    const CliRun run =
        run_cli(std::string(bad.command) + " s27 --" + bad.flag + " '" +
                    bad.value + "'",
                "options_bad_" + std::to_string(i++));
    EXPECT_EQ(run.exit_code, 1) << bad.flag << " " << bad.value;
    EXPECT_EQ(run.err, "error: " + message(bad) + "\n");
    EXPECT_EQ(run.out, "");
  }
}

TEST(Options, CliRejectsBadTransportValues) {
  const std::pair<const char*, const char*> cases[] = {
      {"--threads -1", "error: --threads: expected an integer in [0, 1024], "
                       "got '-1'\n"},
      {"--shards 0", "error: --shards: expected an integer in [1, 1024], got "
                     "'0'\n"},
  };
  int i = 0;
  for (const auto& [flag, err] : cases) {
    const CliRun run = run_cli(std::string("mc s27 --runs 2 ") + flag,
                               "options_transport_" + std::to_string(i++));
    EXPECT_EQ(run.exit_code, 1) << flag;
    EXPECT_EQ(run.err, err);
  }
}

// An option the command does not read: a typo, an option of another
// command, or a removed spelling.
struct UnknownOption {
  const char* command;
  const char* args;    // after the target
  const char* option;  // the one the message names
};

// clang-format off
const UnknownOption kUnknownOptions[] = {
    {"mc", "--bogus 1 --runs 4", "--bogus"},
    {"mc", "--run 64", "--run"},
    {"mc", "--jobs 2", "--jobs"},
    {"mc", "--jobs 2x", "--jobs"},
    {"mc", "--csv out.csv", "--csv"},
    {"mc", "--trace traces", "--trace"},
    {"replay", "--trace t.csv --seed 5", "--seed"},
    {"search", "--runs 4", "--runs"},
    {"check", "--threads 4", "--threads"},
    {"stats", "--runs 5", "--runs"},
    {"synth", "--runs 2", "--runs"},
    {"simulate", "--shards 2", "--shards"},
    {"fsm", "--threads 2", "--threads"},
    {"serve", "--socket s.sock --runs 2", "--runs"},
    {"suite", "--policy 2", "--policy"},
    {"shard-worker", "--shard-cmd mc --csv out.csv", "--csv"},
    {"shard-worker", "--shard-cmd mc --trace traces", "--trace"},
};
// clang-format on

std::string unknown_message(const UnknownOption& u) {
  return std::string(u.command) + ": unknown option " + u.option;
}

bool is_sweep(const std::string& command) {
  return command == "mc" || command == "replay" || command == "search";
}

TEST(Options, CliRejectsUnknownOptionsWithExitOne) {
  int i = 0;
  for (const UnknownOption& u : kUnknownOptions) {
    const CliRun run =
        run_cli(std::string(u.command) + " s27 " + u.args,
                "options_unknown_" + std::to_string(i++));
    EXPECT_EQ(run.exit_code, 1) << u.command << " " << u.args;
    EXPECT_EQ(run.err, "error: " + unknown_message(u) + "\n");
    EXPECT_EQ(run.out, "");
  }
}

TEST(Options, RequestsRejectUnknownOptionsWithTheSameMessage) {
  for (const UnknownOption& u : kUnknownOptions) {
    if (!is_sweep(u.command)) continue;
    try {
      serve::parse_request(std::string("diac-serve 1 run ") + u.command +
                           " s27 " + u.args);
      ADD_FAILURE() << "accepted " << u.command << " " << u.args;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), unknown_message(u));
    }
  }
}

TEST(Options, RequestsRejectClientOnlyOptions) {
  // The client keeps these (transport, threading, cache, output files);
  // a request that names one is malformed.
  for (const char* option : {"--connect", "--threads", "--shards", "--csv",
                             "--cache-dir", "--cache-limit-mb", "--trace-out",
                             "--metrics-out", "--shard-index"}) {
    const std::string kind = std::string(option) == "--csv" ? "search" : "mc";
    try {
      serve::parse_request("diac-serve 1 run " + kind + " s27 " + option +
                           " 2");
      ADD_FAILURE() << "accepted " << option;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), kind + ": unknown option " + option);
    }
  }
  // Every sweep option still travels.
  const serve::SweepRequest request = serve::parse_request(
      "diac-serve 1 run search s27 --grid --policy 2 --budget 0.3 --nvm pcm "
      "--seed 5 --instances 3 --source constant --sample-seed 7 "
      "--objectives pdp --max-time 900");
  EXPECT_EQ(request.options.size(), 10u);
  EXPECT_EQ(request.options.at("grid"), "1");
  EXPECT_EQ(serve::parse_request(serve::format_request(request)).options,
            request.options);
}

TEST(Options, ForwardingFollowsTheTable) {
  const serve::OptionMap parent{
      {"runs", "8"},       {"seed", "3"},           {"threads", "2"},
      {"shards", "2"},     {"connect", "s.sock"},   {"cache-dir", "c"},
      {"cache-limit-mb", "9"}, {"trace-out", "t.json"}, {"metrics-out", "m"}};
  EXPECT_EQ(serve::forwarded_options(parent, serve::Forward::kEverywhere),
            (serve::OptionMap{{"runs", "8"}, {"seed", "3"}}));
  EXPECT_EQ(serve::forwarded_options(parent, serve::Forward::kWorkers),
            (serve::OptionMap{{"cache-dir", "c"},
                              {"cache-limit-mb", "9"},
                              {"runs", "8"},
                              {"seed", "3"}}));
  // A worker reads its own flags plus what its kind is forwarded.
  const serve::OptionMap worker = serve::parse_options(
      "shard-worker",
      {"--shard-cmd", "mc", "--runs", "8", "--cache-dir", "c", "--shards",
       "2", "--shard-index", "1", "--shard-out", "f", "--threads", "1"},
      serve::OptionSource::kCommandLine);
  EXPECT_EQ(worker.size(), 7u);
}

TEST(Options, TokenizerLocatesMalformedTokens) {
  const auto message = [](const std::vector<std::string>& tokens) {
    try {
      serve::parse_options("mc", tokens, serve::OptionSource::kCommandLine);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message({"runs", "4"}), "mc: expected option, got 'runs'");
  EXPECT_EQ(message({"--"}), "mc: expected option, got '--'");
  EXPECT_EQ(message({"--runs"}), "mc: option --runs requires a value");
  EXPECT_TRUE(serve::is_flag_option("grid"));
  EXPECT_FALSE(serve::is_flag_option("runs"));
  EXPECT_FALSE(serve::is_flag_option("spans-out"));  // not an option at all
}

TEST(Options, CommandHelpPrintsUsage) {
  for (const char* args : {"synth s38417 --help", "mc --help", "search b14 -h",
                           "mc s27 --runs 2 --help"}) {
    const CliRun run = run_cli(args, "options_help");
    EXPECT_EQ(run.exit_code, 0) << args;
    EXPECT_EQ(run.out.rfind("usage: diac <command>", 0), 0u) << args;
    EXPECT_EQ(run.err, "") << args;
  }
}



// The seeded value fuzzer, generated from the table: for every typed row,
// in-range and boundary values and seeded mutants of them go through the
// tokenizer (command line and serve request) and the sweep builders.  An
// oracle built on std::from_chars alone decides each value: a valid one is
// read back as the number from_chars gives, an invalid one is rejected
// everywhere with exactly "--<flag>: expected <what>, got '<value>'".

// The whole of `v` as a T, if std::from_chars consumes every character.
template <typename T>
std::optional<T> whole(std::string_view v) {
  T x{};
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc{} || ptr != v.data() + v.size()) return std::nullopt;
  return x;
}

std::vector<std::string> names_of(const serve::OptionSpec& o) {
  std::vector<std::string> names;
  std::stringstream in{std::string(o.arg)};
  for (std::string name; std::getline(in, name, '|');) names.push_back(name);
  return names;
}

bool is_valid(const serve::OptionSpec& o, std::string_view v) {
  switch (o.type) {
    case serve::ValueType::kInt: {
      const auto x = whole<long long>(v);
      return x && o.lo <= *x && *x <= o.hi;
    }
    case serve::ValueType::kUint64:
      return whole<std::uint64_t>(v).has_value();
    case serve::ValueType::kReal: {
      const auto x = whole<double>(v);
      return x && std::isfinite(*x) && *x > 0 &&
             *x <= static_cast<double>(o.hi);
    }
    case serve::ValueType::kChoice: {
      const std::vector<std::string> names = names_of(o);
      return std::find(names.begin(), names.end(), v) != names.end();
    }
    default:
      return true;
  }
}

std::string expected_what(const serve::OptionSpec& o) {
  std::ostringstream what;
  switch (o.type) {
    case serve::ValueType::kInt:
      what << "an integer in [" << o.lo << ", " << o.hi << "]";
      break;
    case serve::ValueType::kUint64:
      what << "an unsigned 64-bit integer";
      break;
    case serve::ValueType::kReal:
      what << "a finite number in (0, " << static_cast<double>(o.hi) << "]";
      break;
    default:
      what << o.arg;
  }
  return what.str();
}

// In-range values, the boundaries and one past them, then seeded mutants.
std::vector<std::string> fuzz_values(const serve::OptionSpec& o,
                                     SplitMix64& rng) {
  std::vector<std::string> base;
  switch (o.type) {
    case serve::ValueType::kInt:
      base = {std::to_string(o.lo), std::to_string(o.hi),
              std::to_string(o.lo - 1), std::to_string(o.hi + 1),
              std::to_string(rng.between(o.lo, o.hi))};
      break;
    case serve::ValueType::kUint64:
      base = {"0", "18446744073709551615", "-1", "18446744073709551616",
              std::to_string(rng.next())};
      break;
    case serve::ValueType::kReal: {
      const double hi = static_cast<double>(o.hi);
      base = {std::to_string(o.hi), "0", "-1", std::to_string(o.hi + 1),
              "5e-324", std::to_string(rng.uniform(0, hi))};
      break;
    }
    default:
      base = names_of(o);
  }
  constexpr const char* kInserts[] = {"-", "+", "e3", "E-2", " ", "0x", "."};
  std::vector<std::string> values = base;
  for (int i = 0; i < 24; ++i) {
    std::string m = base[rng.below(base.size())];
    const std::size_t at = rng.below(m.size() + 1);
    if (rng.below(4) == 0 && !m.empty()) {
      m[rng.below(m.size())] ^= static_cast<char>(1u << rng.below(8));
    } else {
      m.insert(at, kInserts[rng.below(std::size(kInserts))]);
    }
    values.push_back(m);
  }
  return values;
}

// The message of `read`, or "" when it accepts.
std::string rejection(const std::function<void()>& read) {
  try {
    read();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// A value every row accepts, for finding the commands that read a row.
std::string some_value(const serve::OptionSpec& o) {
  if (!o.dflt.empty()) return std::string(o.dflt);
  if (o.type == serve::ValueType::kChoice) return names_of(o).front();
  return std::to_string(o.lo);
}

// The first command of `commands` that reads row `o` from `source`.
std::string reader_of(const serve::OptionSpec& o,
                      std::initializer_list<const char*> commands,
                      serve::OptionSource source) {
  for (const char* command : commands) {
    const std::string err = rejection([&] {
      serve::parse_options(command, {"--" + std::string(o.name), some_value(o)},
                           source);
    });
    if (err.find("unknown option") == std::string::npos) return command;
  }
  return "";
}

// The value the getter of the row's type reads, as text.
std::string read_back(const serve::OptionSpec& o, const serve::OptionMap& m) {
  switch (o.type) {
    case serve::ValueType::kInt:
      return std::to_string(serve::number_value<std::uint64_t>(m, o.name));
    case serve::ValueType::kUint64:
      return std::to_string(serve::number_value<std::uint64_t>(m, o.name));
    case serve::ValueType::kReal: {
      char buf[64];
      const double v = serve::number_value<double>(m, o.name);
      return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }
    default:
      return names_of(o)[serve::choice_value(m, o.name)];
  }
}

// What from_chars makes of a valid value, as read_back spells it.
std::string from_chars_text(const serve::OptionSpec& o, std::string_view v) {
  switch (o.type) {
    case serve::ValueType::kInt:
      return std::to_string(*whole<long long>(v));
    case serve::ValueType::kUint64:
      return std::to_string(*whole<std::uint64_t>(v));
    case serve::ValueType::kReal: {
      char buf[64];
      const double x = *whole<double>(v);
      return std::string(buf, std::to_chars(buf, buf + sizeof buf, x).ptr);
    }
    default:
      return std::string(v);
  }
}

// Every sweep builder; each throws on a bad value of the options it reads.
void build_every_sweep(const serve::OptionMap& options) {
  serve::mc_eval_options(options);
  serve::mc_runs(options);
  serve::replay_eval_options(options);
  serve::search_options(options);
  serve::search_points(options);
}

// The fields the builders fill from the numeric rows they read.
std::string built_value(const std::string& flag,
                        const serve::OptionMap& options) {
  char buf[64];
  const auto real = [&](double v) {
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  if (flag == "budget") {
    return real(serve::mc_eval_options(options).synthesis.budget_fraction);
  }
  if (flag == "max-time") {
    return real(serve::search_options(options).simulator.max_time);
  }
  if (flag == "seed") {
    return std::to_string(serve::mc_eval_options(options).scenario.seed);
  }
  if (flag == "instances") {
    return std::to_string(
        serve::mc_eval_options(options).simulator.target_instances);
  }
  if (flag == "runs") return std::to_string(serve::mc_runs(options));
  return "";
}

struct Rejected {
  std::string command, flag, value, message;
};

TEST(Options, SeededValuesAreReadOrRejectedAtTheBoundary) {
  SplitMix64 rng(0x0F7105EEDULL);
  std::vector<Rejected> rejected;
  int typed = 0, accepted = 0;
  for (const serve::OptionSpec& o : serve::option_table()) {
    if (o.type == serve::ValueType::kText) continue;
    ++typed;
    const std::string flag(o.name);
    // The row's default reads back like any given value.
    if (!o.dflt.empty()) {
      ASSERT_TRUE(is_valid(o, o.dflt)) << flag;
      EXPECT_EQ(read_back(o, {}), from_chars_text(o, o.dflt)) << flag;
    }
    const std::string cli = reader_of(
        o, {"mc", "replay", "search", "simulate", "check", "fsm", "serve",
            "shard-worker"},
        serve::OptionSource::kCommandLine);
    ASSERT_FALSE(cli.empty()) << flag;
    const std::string request =
        o.forward == serve::kEverywhere
            ? reader_of(o, {"mc", "replay", "search"},
                        serve::OptionSource::kRequest)
            : "";
    for (const std::string& v : fuzz_values(o, rng)) {
      const bool valid = is_valid(o, v);
      const std::string want =
          valid ? "" : "--" + flag + ": expected " + expected_what(o) +
                           ", got '" + v + "'";
      accepted += valid;
      const std::vector<std::string> tokens{"--" + flag, v};
      serve::OptionMap parsed;
      EXPECT_EQ(rejection([&] {
                  parsed = serve::parse_options(
                      cli, tokens, serve::OptionSource::kCommandLine);
                }),
                want)
          << cli << " --" << flag << " '" << v << "'";
      if (!request.empty()) {
        EXPECT_EQ(rejection([&] {
                    serve::parse_options(request, tokens,
                                         serve::OptionSource::kRequest);
                  }),
                  want)
            << "request " << request << " --" << flag << " '" << v << "'";
      }
      const serve::OptionMap options{{flag, v}};
      if (valid) {
        EXPECT_EQ(parsed, options) << flag << " '" << v << "'";
        EXPECT_EQ(read_back(o, options), from_chars_text(o, v))
            << flag << " '" << v << "'";
      } else {
        EXPECT_EQ(rejection([&] { read_back(o, options); }), want);
        rejected.push_back({cli, flag, v, want});
      }
      if (request.empty()) continue;
      // The sweep builders: --random 2 keeps search_points reading
      // --sample-seed, at the cost of a two-candidate draw.
      serve::OptionMap sweep{{"random", "2"}};
      sweep[flag] = v;
      EXPECT_EQ(rejection([&] { build_every_sweep(sweep); }), want)
          << "builders --" << flag << " '" << v << "'";
      const std::string built = valid ? built_value(flag, sweep) : "";
      if (!built.empty()) {
        EXPECT_EQ(built, from_chars_text(o, v)) << flag << " '" << v << "'";
      }
    }
  }
  EXPECT_GE(typed, 15);
  EXPECT_GT(accepted, typed);
  ASSERT_GT(rejected.size(), 100u);

  // A few rejected values through the real binary: exit 1 before any
  // output.  Values a shell cannot carry in single quotes are skipped.
  int ran = 0;
  for (std::size_t i = 0; i < rejected.size() && ran < 4; i += 37) {
    const Rejected& r = rejected[i];
    if (r.command == "serve" || r.command == "shard-worker" ||
        !std::all_of(r.value.begin(), r.value.end(), [](char c) {
          return c >= ' ' && c <= '~' && c != '\'';
        })) {
      continue;
    }
    const CliRun run =
        run_cli(r.command + " s27 --" + r.flag + " '" + r.value + "'",
                "options_fuzz_" + std::to_string(ran++));
    EXPECT_EQ(run.exit_code, 1) << r.message;
    EXPECT_EQ(run.out, "") << r.message;
    EXPECT_EQ(run.err, "error: " + r.message + "\n");
  }
  EXPECT_EQ(ran, 4);
}

}  // namespace
}  // namespace diac
