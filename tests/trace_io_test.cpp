#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
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
