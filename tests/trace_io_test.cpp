#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "oracle/reference_trace_parser.hpp"
#include "oracle/stepped_integrator.hpp"
#include "power/trace_io.hpp"
#include "runtime/simulator.hpp"

namespace diac {
namespace {

TEST(TraceIo, ParsesTwoColumnCsv) {
  const std::string in("0,0.001\n10,0.005\n20,0\n");
  const PiecewiseTrace trace = parse_trace_csv(in);
  EXPECT_DOUBLE_EQ(trace.power_at(5), 0.001);
  EXPECT_DOUBLE_EQ(trace.power_at(15), 0.005);
  EXPECT_DOUBLE_EQ(trace.power_at(25), 0.0);
}

TEST(TraceIo, ToleratesHeaderAndComments) {
  const std::string in(
      "time_s,power_W\n# measured on rooftop\n\n0,0.002\n5,0.004\n");
  const PiecewiseTrace trace = parse_trace_csv(in);
  EXPECT_DOUBLE_EQ(trace.power_at(1), 0.002);
  EXPECT_DOUBLE_EQ(trace.power_at(6), 0.004);
}

TEST(TraceIo, RejectsBadInput) {
  const std::string empty("");
  EXPECT_THROW(parse_trace_csv(empty), std::runtime_error);
  const std::string one_col("0\n");
  EXPECT_THROW(parse_trace_csv(one_col), std::runtime_error);
  const std::string descending("10,0.001\n5,0.002\n");
  EXPECT_THROW(parse_trace_csv(descending), std::runtime_error);
  const std::string negative("0,-0.5\n");
  EXPECT_THROW(parse_trace_csv(negative), std::runtime_error);
  const std::string mid_garbage("0,0.001\nxx,yy\n");
  EXPECT_THROW(parse_trace_csv(mid_garbage), std::runtime_error);
}

TEST(TraceIo, DuplicateTimestampLastSampleWins) {
  // A logger emitting the same timestamp twice used to create a
  // zero-width segment whose earlier sample was unreachable; the later
  // sample now replaces it outright.
  const std::string in("0,0.001\n5,0.002\n5,0.003\n10,0\n");
  const PiecewiseTrace trace = parse_trace_csv(in);
  ASSERT_EQ(trace.segments().size(), 3u);
  EXPECT_DOUBLE_EQ(trace.power_at(2), 0.001);
  EXPECT_DOUBLE_EQ(trace.power_at(5), 0.003);
  EXPECT_DOUBLE_EQ(trace.power_at(7), 0.003);
  EXPECT_DOUBLE_EQ(trace.next_change(5), 10.0);

  // Also collapses a duplicate of the very first sample.
  const std::string first("0,0.001\n0,0.004\n8,0\n");
  const PiecewiseTrace t2 = parse_trace_csv(first);
  ASSERT_EQ(t2.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(t2.power_at(1), 0.004);
}

TEST(TraceIo, ToleratesExactlyOneHeaderRow) {
  // One header row is fine (with or without leading comments/blanks)...
  const std::string one("# log\n\ntime_s,power_W\n0,0.001\n");
  EXPECT_DOUBLE_EQ(parse_trace_csv(one).power_at(0.5), 0.001);
  // ...but a second non-numeric row before the first sample is a
  // malformed file, not a header, and is reported with its line number.
  const std::string two("time_s,power_W\ngarbage,row\n0,0.001\n");
  try {
    parse_trace_csv(two);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// The message parse_trace_csv throws for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    parse_trace_csv(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, AcceptsEveryDocumentedForm) {
  // One leading header row, '#' comments (whole-line and trailing),
  // blank and blank-only lines, CRLF endings, blanks around fields, a
  // leading '+', scientific notation, and last-wins duplicate timestamps.
  const PiecewiseTrace trace = parse_trace_csv(
      "# logged by node 7\r\n"
      "\r\n"
      "time_s,power_W\r\n"
      "  \t \r\n"
      "0,1e-3\r\n"
      " 5 ,\t+2.5e-3 \r\n"
      "+7.5,0.004 # a note\r\n"
      "7.5,3E-3\n"
      "10,0");
  ASSERT_EQ(trace.segments().size(), 4u);
  EXPECT_EQ(trace.segments()[0].start, 0.0);
  EXPECT_EQ(trace.segments()[0].power, 1e-3);
  EXPECT_EQ(trace.segments()[1].start, 5.0);
  EXPECT_EQ(trace.segments()[1].power, 2.5e-3);
  EXPECT_EQ(trace.segments()[2].start, 7.5);
  EXPECT_EQ(trace.segments()[2].power, 3e-3);  // the later duplicate wins
  EXPECT_EQ(trace.segments()[3].start, 10.0);
  EXPECT_EQ(trace.segments()[3].power, 0.0);
}

TEST(TraceIo, RejectsMalformedFieldsWithTheirLine) {
  // Each case: a bad field on line 3 after a header and one good sample.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"nan,0.001", "non-finite"},
      {"5,nan", "non-finite"},
      {"inf,0.001", "non-finite"},
      {"5,inf", "non-finite"},
      {"5,-inf", "non-finite"},
      {"5,1e999", "non-finite"},
      {"1.5abc,0.001", "trailing characters"},
      {"5,0.002abc", "trailing characters"},
      {"5,0.002 7", "trailing characters"},
      {"5,0.002,9", "two comma-separated columns"},
      {"5", "two comma-separated columns"},
      {"5,", "two comma-separated columns"},
      {"5,+-1", "non-numeric"},
      {"5,0x10", "trailing characters"},
      {"x,0.001", "non-numeric"},
  };
  for (const auto& [row, what] : cases) {
    const std::string err = parse_error("time_s,power_W\n0,0.001\n" + row +
                                        "\n");
    EXPECT_NE(err.find("trace csv line 3: "), std::string::npos)
        << row << " -> " << err;
    EXPECT_NE(err.find(what), std::string::npos) << row << " -> " << err;
  }
  // A non-finite or junk-suffixed first row is a bad sample, not a header.
  EXPECT_NE(parse_error("nan,0.001\n").find("line 1: non-finite"),
            std::string::npos);
  EXPECT_NE(parse_error("0,1.5abc\n").find("line 1: trailing"),
            std::string::npos);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Applies `edit` to every line of `text` (without its newline) and joins
// the results with `eol`.
std::string map_lines(const std::string& text, const std::string& eol,
                      const std::function<std::string(const std::string&,
                                                       std::size_t)>& edit) {
  std::istringstream in(text);
  std::string out, line;
  for (std::size_t i = 0; std::getline(in, line); ++i) {
    out += edit(line, i) + eol;
  }
  return out;
}

void expect_same_segments(const PiecewiseTrace& got,
                          const PiecewiseTrace& want, const std::string& tag) {
  ASSERT_EQ(got.segments().size(), want.segments().size()) << tag;
  for (std::size_t i = 0; i < want.segments().size(); ++i) {
    // Bitwise: the production parser must round exactly as stod does.
    ASSERT_EQ(got.segments()[i].start, want.segments()[i].start)
        << tag << " segment " << i;
    ASSERT_EQ(got.segments()[i].power, want.segments()[i].power)
        << tag << " segment " << i;
  }
}

TEST(TraceIo, ParserMatchesStodReferenceBitForBit) {
  const std::string path = ::testing::TempDir() + "diac_trace_diff.csv";
  const double horizon = 1500.0;
  RfidBurstSource::Options ro;
  ro.horizon = horizon;
  const RfidBurstSource rfid(0xC0FFEE, ro);
  SolarSource::Options so;
  so.horizon = horizon;
  const SolarSource solar(0xC0FFEE, so);
  const PiecewiseTrace fig4 = fig4_trace();
  const std::vector<std::pair<const char*, const HarvestSource*>> sources = {
      {"rfid", &rfid}, {"solar", &solar}, {"fig4", &fig4}};
  for (const auto& [name, source] : sources) {
    save_trace_csv(path, *source, horizon, 0.37);
    const std::string saved = read_text(path);
    const std::vector<std::pair<std::string, std::string>> variants = {
        {"saved", saved},
        {"crlf", map_lines(saved, "\r\n",
                           [](const std::string& l, std::size_t) { return l; })},
        {"blanks", map_lines(saved, "\n",
                             [](const std::string& l, std::size_t) {
                               const std::size_t c = l.find(',');
                               return " \t" + l.substr(0, c) + " , " +
                                      l.substr(c + 1) + "\t ";
                             })},
        {"comments", map_lines(saved, "\n",
                               [](const std::string& l, std::size_t i) {
                                 return i % 7 == 0 ? "# note\n\n" + l +
                                                         " # tail"
                                                   : l;
                               })},
        {"plus", map_lines(saved, "\n",
                           [](const std::string& l, std::size_t i) {
                             return i % 2 == 1 ? "+" + l : l;
                           })},
        {"headerless", saved.substr(saved.find('\n') + 1)},
        {"duplicates", map_lines(saved, "\n",
                                 [](const std::string& l, std::size_t i) {
                                   // Repeat the timestamp with a power
                                   // the real sample then overwrites.
                                   if (i % 5 != 3) return l;
                                   return l.substr(0, l.find(',')) +
                                          ",0.123\n" + l;
                                 })},
    };
    for (const auto& [variant, text] : variants) {
      const std::string tag = std::string(name) + "/" + variant;
      std::istringstream in(text);
      expect_same_segments(parse_trace_csv(text),
                           reference_parse_trace_csv(in), tag);
    }
    std::ifstream file(path);
    expect_same_segments(load_trace_csv(path),
                         reference_parse_trace_csv(file),
                         std::string(name) + "/load");
  }
  std::remove(path.c_str());
}

// Bitwise agreement with the stod reference on one well-formed text.
void expect_matches_reference(const std::string& text, const std::string& tag) {
  std::istringstream in(text);
  expect_same_segments(parse_trace_csv(text), reference_parse_trace_csv(in),
                       tag);
}

// save_trace_csv of an RFID source on perfbench_gen's grid: 0.5 s steps
// over `horizon`, long full-precision powers repeated across each burst.
std::string rfid_grid_text(std::uint64_t seed, double horizon) {
  const std::string path = ::testing::TempDir() + "diac_trace_grid_text.csv";
  RfidBurstSource::Options ro;
  ro.horizon = horizon;
  save_trace_csv(path, RfidBurstSource(seed, ro), horizon, 0.5);
  std::string text = read_text(path);
  std::remove(path.c_str());
  return text;
}

TEST(TraceIo, LaneBoundariesMatchReferenceBitForBit) {
  // Each case is a header and a first sample, then rows on either side
  // of the short-decimal row lane's limits: a mantissa of at most 2^53,
  // at most 22 fraction digits, `D+('.'D+)?`, a repeated power, a line
  // end, a strictly increasing time.
  const std::string head = "time_s,power_W\n0,0\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"mantissa_2^53",
       "1,9007199254740991\n2,9007199254740992\n3,9007199254740993\n"
       "4,0.9007199254740991\n5,0.9007199254740992\n6,0.9007199254740993\n"
       "7,900719925474099.1\n8,900719925474099.2\n9,900719925474099.3\n"
       "9007199254740991,1\n9007199254740992,2\n9007199254740993,3\n"},
      {"significant_19_20",
       "1,0.1234567890123456789\n2,0.12345678901234567891\n"
       "3,1234567890.123456789\n4,1234567890.1234567891\n"
       "5,0.0000000000000000001\n6,0.00000000000000000001\n"
       "1234567890123456789,0.5\n12345678901234567891,0.5\n"},
      {"fraction_22_23",
       "1,0.0000000000000000000001\n2,0.00000000000000000000001\n"
       "3,0.0000000000000012345678\n4,0.00000000000000123456789\n"
       "5,1.2345678901234567890123\n6,1.23456789012345678901234\n"
       "7.0000000000000000000001,0.5\n7.00000000000000000000001,0.5\n"
       "8.0000000000000000000012,0.5\n"},
      {"leading_zeros",
       "0001,0.5\n0002.250,00.5\n02.5,000\n3.000,0.0\n0003.5,0000.25\n"},
      {"other_number_forms",
       "5.,0.5\n.5e1,5.\n6,.5\n1e1,1e3\n11,1E-3\n1.2E1,2.5e-2\n13,0.5\n"},
      {"no_final_newline", "1,0.5\n2,0.25\n3,0.125"},
      {"lone_cr", "1,0.5\n2\r,0.5\n3,\r0.25\n4,0.25\r\r\n5,0.5\r\n6,0.5\n"},
      {"repeat_then_blanks_or_comment",
       "1,0.0056996024715067744\n1.5,0.0056996024715067744\n"
       "2,0.0056996024715067744 \n2.5,0.0056996024715067744\t\n"
       "3,0.0056996024715067744# c\n3.5,0.0056996024715067744 # c\n"
       "4,0.0056996024715067744\n"},
      {"repeat_prefix",
       "1,0.5\n2,0.55\n3,0.5\n4,0.5\n5,0.50\n6,0.5\n7,+0.5\n8,+0.5\n"},
      {"duplicate_after_lane",
       "1,0.5\n1.5,0.5\n2,0.25\n2,0.75\n2.5,0.75\n2.5,0.0056996024715067744\n"
       "3,0.0056996024715067744\n3,0.0056996024715067744\n3.5,1\n"},
      {"crlf_lane", "1,0.5\r\n1.5,0.5\r\n2,0.0056996024715067744\r\n"
                    "2.5,0.0056996024715067744\r\n3,0\r\n"},
  };
  for (const auto& [tag, rows] : cases) {
    expect_matches_reference(head + rows, tag);
  }
  // perfbench_gen's library shape: the 0.5 s grid over 2000 s.
  for (const std::uint64_t seed : {60247u, 7u}) {
    const std::string grid = rfid_grid_text(seed, 2000.0);
    expect_matches_reference(grid, "grid/" + std::to_string(seed));
    expect_matches_reference(grid.substr(0, grid.size() - 1),
                             "grid_no_final_newline/" + std::to_string(seed));
  }
}

TEST(TraceIo, LaneRowErrorsKeepTheirLine) {
  // A header and 1 000 lane rows (lines 2..1001), then one bad row.
  std::string lane = "time_s,power_W\n";
  for (int i = 0; i < 1000; ++i) {
    lane += std::to_string(i) + ".5," + (i % 3 == 0 ? "0" : "0.25") + "\n";
  }
  EXPECT_NE(parse_error(lane + "500,0.25\n")
                .find("trace csv line 1002: timestamps must be non-decreasing"),
            std::string::npos);
  EXPECT_NE(parse_error(lane + "\n# c\n1000,-0.5\n")
                .find("trace csv line 1004: negative power"),
            std::string::npos);
  EXPECT_NE(parse_error(lane + "1000,0.25,1\n")
                .find("trace csv line 1002: expected two"),
            std::string::npos);
  // An equal time after lane rows is a last-wins duplicate, not an error.
  const PiecewiseTrace dup = parse_trace_csv(lane + "999.5,0.75\n");
  ASSERT_EQ(dup.segments().size(), 1000u);
  EXPECT_EQ(dup.segments().back().power, 0.75);
}

TEST(TraceIo, SkipsOneLeadingByteOrderMark) {
  const std::string bom = "\xEF\xBB\xBF";
  const std::string headerless = "0,0.001\n5,0.002\n10,0\n";
  const std::string with_header = "time_s,power_W\n" + headerless;
  for (const std::string& text : {headerless, with_header}) {
    const PiecewiseTrace plain = parse_trace_csv(text);
    ASSERT_EQ(plain.segments().size(), 3u);
    // The first sample is kept, not taken for a header.
    expect_same_segments(parse_trace_csv(bom + text), plain, "bom");
  }
  // A BOM anywhere else is rejected at its line, never taken as a header.
  EXPECT_NE(parse_error("0,0.001\n" + bom + "5,0.002\n")
                .find("line 2: byte order mark"),
            std::string::npos);
  EXPECT_NE(parse_error("# log\n" + bom + "0,0.001\n5,0.002\n")
                .find("line 2: byte order mark"),
            std::string::npos);
  EXPECT_NE(parse_error("time_s,power_W\n0," + bom + "0.001\n")
                .find("line 2: byte order mark"),
            std::string::npos);
  EXPECT_NE(parse_error(bom + bom + headerless).find("line 1: byte order mark"),
            std::string::npos);
}

TEST(TraceIo, SeededMutantsParseOrFailAtALine) {
  // A perfbench-shaped text: the header and 80 rows of the 0.5 s grid
  // around a change of an RFID trace's power, each side a repeated value.
  const std::string full = rfid_grid_text(60247, 2000.0);
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < full.size();) {
    const std::size_t nl = full.find('\n', at);
    lines.push_back(full.substr(at, nl + 1 - at));
    at = nl + 1;
  }
  const auto power = [&](std::size_t i) {
    return lines[i].substr(lines[i].find(','));
  };
  std::size_t burst = 41;  // the first power change after 40 rows
  while (burst + 40 < lines.size() && power(burst) == power(burst - 1)) {
    ++burst;
  }
  ASSERT_LT(burst + 40, lines.size());
  std::string base = lines[0];
  for (std::size_t i = burst - 40; i < burst + 40; ++i) base += lines[i];

  const std::string alphabet = ",#\r\n+-e.";
  std::size_t mutants = 0, parsed = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    for (int k = 0; k < 750; ++k, ++mutants) {
      std::string text = base;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits; ++e) {
        const std::size_t at = rng() % text.size();
        switch (rng() % 3) {
          case 0:  // flip one bit of one byte
            text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8)));
            break;
          case 1:  // insert one of the grammar's bytes
            text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                        alphabet[rng() % alphabet.size()]);
            break;
          default: {  // delete the first grammar byte at or after `at`
            const std::size_t del = text.find_first_of(alphabet, at);
            if (del != std::string::npos) text.erase(del, 1);
          }
        }
      }
      const std::string tag =
          "seed " + std::to_string(seed) + " mutant " + std::to_string(k);
      std::string error;
      try {
        const PiecewiseTrace got = parse_trace_csv(text);
        std::istringstream in(text);
        expect_same_segments(got, reference_parse_trace_csv(in), tag);
        ++parsed;
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
      if (!error.empty()) {
        const std::size_t line_count =
            static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')) +
            (text.back() != '\n');
        const std::string prefix = "trace csv line ";
        std::size_t n = 0;
        ASSERT_EQ(error.rfind(prefix, 0), 0u) << tag << ": " << error;
        ASSERT_EQ(std::sscanf(error.c_str() + prefix.size(), "%zu", &n), 1)
            << tag << ": " << error;
        EXPECT_GE(n, 1u) << tag << ": " << error;
        EXPECT_LE(n, line_count) << tag << ": " << error;
      }
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << tag << " text:\n" << text;
        return;
      }
    }
  }
  EXPECT_GE(mutants, 2000u);
  // Both outcomes are exercised: some mutants still parse.
  EXPECT_GT(parsed, mutants / 20);
  EXPECT_LT(parsed, mutants);
}

TEST(TraceIo, SaveUsesIndexBasedSampleGrid) {
  // `t += interval` accumulated drift over long horizons and could emit
  // or drop the sample nearest `horizon`; the index-based grid pins the
  // count at ceil(horizon / interval) and every timestamp at i*interval.
  const std::string path = ::testing::TempDir() + "diac_trace_grid.csv";
  const ConstantSource src(1e-3);
  save_trace_csv(path, src, 1000.0, 0.1);
  const PiecewiseTrace loaded = load_trace_csv(path);
  ASSERT_EQ(loaded.segments().size(), 10000u);
  EXPECT_DOUBLE_EQ(loaded.segments().front().start, 0.0);
  EXPECT_DOUBLE_EQ(loaded.segments().back().start, 9999 * 0.1);
  for (std::size_t i : {1u, 4321u, 9999u}) {
    EXPECT_DOUBLE_EQ(loaded.segments()[i].start,
                     static_cast<double>(i) * 0.1);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RoundTripReproducesSourcesOnTheGrid) {
  // save -> load of each paper supply reproduces power_at bit-exactly on
  // the sample grid (samples are written at full double precision).
  const std::string path = ::testing::TempDir() + "diac_trace_grid_rt.csv";
  const double horizon = 400.0, interval = 0.5;
  RfidBurstSource::Options ro;
  ro.horizon = horizon;
  const RfidBurstSource rfid(0xFEED, ro);
  SolarSource::Options so;
  so.horizon = horizon;
  const SolarSource solar(0xFEED, so);
  const PiecewiseTrace fig4 = fig4_trace();
  for (const HarvestSource* src :
       {static_cast<const HarvestSource*>(&rfid),
        static_cast<const HarvestSource*>(&solar),
        static_cast<const HarvestSource*>(&fig4)}) {
    save_trace_csv(path, *src, horizon, interval);
    const PiecewiseTrace loaded = load_trace_csv(path);
    for (int i = 0; i * interval < horizon; ++i) {
      const double t = i * interval;
      EXPECT_DOUBLE_EQ(loaded.power_at(t), src->power_at(t)) << t;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceIo, ReplayedTraceAgreesAcrossSimModes) {
  // A replayed measured trace drives the event integrator and the stepped
  // reference to the same structural outcome — the differential contract
  // extends to traces that came in from disk.
  const std::string path = ::testing::TempDir() + "diac_trace_modes.csv";
  {
    RfidBurstSource::Options ro;
    ro.horizon = 4000.0;
    const RfidBurstSource src(0xD1AC7, ro);
    save_trace_csv(path, src, 4000.0, 0.5);
  }
  const PiecewiseTrace trace = load_trace_csv(path);
  std::remove(path.c_str());

  const Netlist nl = build_benchmark("s344");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const SynthesisResult sr =
      DiacSynthesizer(nl, lib).synthesize_scheme(Scheme::kDiacOptimized);
  SimulatorOptions options;
  options.target_instances = 3;
  options.max_time = 4000;
  SystemSimulator event(sr.design, trace, FsmConfig{}, options);
  const RunStats e = event.run();
  const RunStats s =
      run_stepped(sr.design, trace, FsmConfig{}, options).stats;

  EXPECT_EQ(e.instances_completed, s.instances_completed);
  EXPECT_EQ(e.workload_completed, s.workload_completed);
  EXPECT_EQ(e.backups, s.backups);
  EXPECT_EQ(e.restores, s.restores);
  EXPECT_EQ(e.deep_outages, s.deep_outages);
  EXPECT_EQ(e.safe_zone_saves, s.safe_zone_saves);
  EXPECT_NEAR(e.energy_consumed, s.energy_consumed,
              0.01 * s.energy_consumed);
  EXPECT_NEAR(e.makespan, s.makespan, 0.01 * s.makespan + 0.01);
}

TEST(TraceIo, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "diac_trace_rt.csv";
  const SquareWaveSource src(4e-3, 10.0, 0.5);
  save_trace_csv(path, src, 40.0, 0.5);
  const PiecewiseTrace loaded = load_trace_csv(path);
  // The sampled trace matches the source away from the sampling edges.
  for (double t = 0.3; t < 39; t += 1.0) {
    EXPECT_DOUBLE_EQ(loaded.power_at(t), src.power_at(t - std::fmod(t, 0.5)))
        << t;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, SaveValidatesArguments) {
  const ConstantSource src(1e-3);
  EXPECT_THROW(save_trace_csv("/tmp/x.csv", src, -1, 1), std::invalid_argument);
  EXPECT_THROW(save_trace_csv("/tmp/x.csv", src, 1, 0), std::invalid_argument);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/nonexistent/trace.csv"), std::runtime_error);
}

TEST(TraceIo, LoadedTraceDrivesSimulator) {
  // End-to-end: a loaded trace is a first-class harvest source.
  const std::string path = ::testing::TempDir() + "diac_trace_sim.csv";
  {
    const ConstantSource src(6e-3);
    save_trace_csv(path, src, 500.0, 1.0);
  }
  const PiecewiseTrace trace = load_trace_csv(path);
  EXPECT_DOUBLE_EQ(trace.power_at(100), 6e-3);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace diac
