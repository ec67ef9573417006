// Byte-identity of the buffered CSV writers against the ostream
// reference (tests/oracle/reference_trace_writer.*): save_trace_csv over
// the paper's supplies at several sample intervals, and CsvWriter's
// numeric rows at the stream default and at max_digits10 precision.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oracle/reference_trace_writer.hpp"
#include "power/trace_io.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace diac {
namespace {

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
}

TEST(TraceWriter, SaveMatchesOstreamReferenceByteForByte) {
  const std::string got_path = ::testing::TempDir() + "diac_tw_got.csv";
  const std::string want_path = ::testing::TempDir() + "diac_tw_want.csv";
  const double horizon = 700.0;
  RfidBurstSource::Options ro;
  ro.horizon = horizon;
  const RfidBurstSource rfid(0xBEEF, ro);
  SolarSource::Options so;
  so.horizon = horizon;
  so.day_length = 300.0;
  so.night_length = 100.0;
  const SolarSource solar(0xBEEF, so);
  const PiecewiseTrace fig4 = fig4_trace();
  const SquareWaveSource square(8.0e-3, 25.0, 0.2);
  const ConstantSource constant(4.0e-3);
  const std::vector<std::pair<const char*, const HarvestSource*>> sources = {
      {"rfid", &rfid},     {"solar", &solar},       {"fig4", &fig4},
      {"square", &square}, {"constant", &constant}};
  for (const auto& [name, source] : sources) {
    for (double interval : {0.5, 0.37, 0.1}) {
      save_trace_csv(got_path, *source, horizon, interval);
      reference_save_trace_csv(want_path, *source, horizon, interval);
      const std::string got = read_text(got_path);
      ASSERT_FALSE(got.empty());
      ASSERT_TRUE(got == read_text(want_path))
          << name << " at interval " << interval;
    }
  }
  std::remove(got_path.c_str());
  std::remove(want_path.c_str());
}

TEST(TraceWriter, CsvNumericRowsMatchOstreamReference) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -2.5,
      1e-300,
      1e300,
      -1e300,
      0.1,
      1.0 / 3.0,
      2.0 / 3.0,
      123456789.0,
      1e-5,
      1e-4,    // %g switches notation around 1e-4 ...
      99999.95,
      999999.5,  // ... and at the precision's exponent
      1e16,
      0.12345678901234567,
      1.2345678901234567e-7,
      9007199254740993.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  // Seeded values with 17 significant digits over a wide exponent range.
  SplitMix64 rng(0x5EED);
  for (int i = 0; i < 400; ++i) {
    const double mantissa = rng.uniform(-1.0, 1.0);
    const int exponent = static_cast<int>(rng.uniform(-40.0, 40.0));
    values.push_back(std::ldexp(mantissa, exponent));
  }
  const std::string path = ::testing::TempDir() + "diac_tw_rows.csv";
  for (int precision : {0, 6, 3, std::numeric_limits<double>::max_digits10}) {
    std::string want = "a,b\n";
    {
      CsvWriter w(path, {"a", "b"});
      for (std::size_t i = 0; i + 1 < values.size(); ++i) {
        const std::vector<double> row = {values[i], values[i + 1]};
        w.add_row(row, precision);
        want += reference_csv_row(row, precision);
      }
    }
    EXPECT_TRUE(read_text(path) == want) << "precision " << precision;
  }
  for (double v : values) {
    for (int precision : {0, std::numeric_limits<double>::max_digits10}) {
      std::string got;
      append_double(got, v, precision);
      EXPECT_EQ(got + "\n", reference_csv_row({v}, precision))
          << "precision " << precision;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceWriter, SaveRejectsAnUnwritablePath) {
  const ConstantSource src(1e-3);
  EXPECT_THROW(save_trace_csv(::testing::TempDir() + "no/such/dir/x.csv",
                              src, 10.0, 1.0),
               std::runtime_error);
}

}  // namespace
}  // namespace diac
