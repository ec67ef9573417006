#include "oracle/reference_trace_writer.hpp"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace diac {

std::string reference_csv_row(const std::vector<double>& values,
                              int precision) {
  std::string line;
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::ostringstream os;
    if (precision > 0) os << std::setprecision(precision);
    os << values[i];
    if (i) line += ',';
    line += os.str();
  }
  line += '\n';
  return line;
}

void reference_save_trace_csv(const std::string& path,
                              const HarvestSource& source, double horizon,
                              double interval) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << "time_s,power_W\n";
  for (std::int64_t i = 0;; ++i) {
    const double t = static_cast<double>(i) * interval;
    if (t >= horizon) break;
    out << reference_csv_row({t, source.power_at(t)},
                             std::numeric_limits<double>::max_digits10);
  }
}

}  // namespace diac
