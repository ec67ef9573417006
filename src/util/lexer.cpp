#include "util/lexer.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <system_error>

namespace diac {

std::string read_text_file(const std::string& path, std::string_view what) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error("cannot open " + std::string(what) +
                             " file: " + path);
  }
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {  // not a regular file (a pipe, say): read it as a stream
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
  }
  std::string data(static_cast<std::size_t>(size), '\0');
  if (!f.read(data.data(), static_cast<std::streamsize>(size))) {
    throw std::runtime_error("cannot read " + std::string(what) +
                             " file: " + path);
  }
  return data;
}

void throw_at_line(std::string_view where, std::size_t line,
                   std::string_view what) {
  throw std::runtime_error(std::string(where) + std::to_string(line) + ": " +
                           std::string(what));
}

}  // namespace diac
