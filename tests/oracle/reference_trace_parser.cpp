#include "oracle/reference_trace_parser.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace diac {

PiecewiseTrace reference_parse_trace_csv(std::istream& in) {
  std::vector<PiecewiseTrace::Segment> segs;
  std::string line;
  int line_no = 0;
  bool header_seen = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    std::stringstream ss(line);
    std::string t_str, p_str;
    if (!std::getline(ss, t_str, ',') || !std::getline(ss, p_str, ',')) {
      throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                               ": expected two comma-separated columns");
    }
    double t, p;
    try {
      t = std::stod(t_str);
      p = std::stod(p_str);
    } catch (const std::exception&) {
      if (segs.empty() && !header_seen) {
        header_seen = true;
        continue;
      }
      throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                               ": non-numeric sample");
    }
    if (p < 0) {
      throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                               ": negative power");
    }
    if (!segs.empty()) {
      if (t < segs.back().start) {
        throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                 ": timestamps must be non-decreasing");
      }
      if (t == segs.back().start) {
        segs.back().power = p;
        continue;
      }
    }
    segs.push_back({t, p});
  }
  if (segs.empty()) {
    throw std::runtime_error("trace csv: no samples");
  }
  return PiecewiseTrace(std::move(segs));
}

}  // namespace diac
