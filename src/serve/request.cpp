#include "serve/request.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace diac::serve {

constexpr const char* kMagic = "diac-serve";

std::string format_request(const SweepRequest& request) {
  std::ostringstream out;
  out << kMagic << " " << kServeProtocolVersion << " run " << request.kind
      << " " << request.target;
  for (const auto& [key, value] : request.options) {
    out << " --" << key;
    if (!is_flag_option(key)) out << " " << value;
  }
  return out.str();
}

SweepRequest parse_request(const std::string& line) {
  std::istringstream in(line);
  std::string magic, verb;
  int version = 0;
  SweepRequest request;
  if (!(in >> magic >> version >> verb >> request.kind >> request.target) ||
      magic != kMagic) {
    throw std::runtime_error("malformed request (expected '" +
                             std::string(kMagic) +
                             " <version> run <kind> <target> ...')");
  }
  if (version != kServeProtocolVersion) {
    throw std::runtime_error(
        "protocol version " + std::to_string(version) + " (this server speaks " +
        std::to_string(kServeProtocolVersion) + ")");
  }
  if (verb != "run") {
    throw std::runtime_error("unknown verb '" + verb + "' (expected run)");
  }
  const std::vector<std::string> tokens(std::istream_iterator<std::string>(in),
                                       {});
  request.options = parse_options(request.kind, tokens, OptionSource::kRequest);
  return request;
}

std::string ok_line() {
  return std::string(kMagic) + " " + std::to_string(kServeProtocolVersion) +
         " ok";
}

std::string error_line(const std::string& message) {
  std::string clean = message;
  std::replace(clean.begin(), clean.end(), '\n', ' ');
  return std::string(kMagic) + " " + std::to_string(kServeProtocolVersion) +
         " error " + clean;
}

}  // namespace diac::serve
