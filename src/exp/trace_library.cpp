#include "exp/trace_library.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <stdexcept>

#include "exp/runner.hpp"
#include "obs/obs.hpp"

namespace diac {

namespace fs = std::filesystem;

std::vector<std::string> list_trace_files(const std::string& dir) {
  const fs::path root(dir);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    throw std::runtime_error("trace library: not a directory: " + dir);
  }
  std::vector<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".csv") continue;
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TraceLibrary load_trace_library(const std::string& dir) {
  ExperimentRunner serial(1);
  return load_trace_library(dir, serial);
}

TraceLibrary load_trace_library(const std::string& dir,
                                ExperimentRunner& runner) {
  const std::vector<std::string> files = list_trace_files(dir);
  if (files.empty()) {
    throw std::runtime_error("trace library: no .csv traces in " + dir);
  }
  return load_trace_files(files, runner);
}

TraceLibrary load_trace_files(const std::vector<std::string>& files,
                              ExperimentRunner& runner) {
  DIAC_TRACE_SPAN("trace_library.load", "exp");
  TraceLibrary library;
  library.entries.resize(files.size());
  // Each job fills its own slot; errors are kept per file so the one
  // reported does not depend on which thread failed first.
  std::vector<std::exception_ptr> errors(files.size());
  runner.parallel_for(files.size(), [&](std::size_t i) {
    const std::string& path = files[i];
    TraceLibrary::Entry& entry = library.entries[i];
    entry.name = fs::path(path).stem().string();
    entry.path = path;
    try {
      entry.scenario = trace_scenario(path);
    } catch (const std::exception& e) {
      // Name the file; load_trace_csv's open errors already do.
      const std::string msg = e.what();
      errors[i] = std::make_exception_ptr(std::runtime_error(
          msg.find(path) == std::string::npos ? path + ": " + msg : msg));
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return library;
}

}  // namespace diac
