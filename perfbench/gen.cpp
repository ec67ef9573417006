// perfbench_gen: writes the replay workload's measured-trace library.
//
//   perfbench_gen <dir> <seed> <count>
//
// Empties <dir>, then writes trace_000.csv .. trace_<count-1>.csv.  Trace
// i samples RfidBurstSource(derive_seed(seed, i)) every 0.5 s over a
// 2000 s horizon through save_trace_csv, the shape of the trace_replay
// micro-benchmark's library.  The files depend only on the arguments, so
// a seed always yields byte-identical inputs.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "exp/scenario.hpp"
#include "power/harvester.hpp"
#include "power/trace_io.hpp"

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: perfbench_gen <dir> <seed> <count>\n";
    return 64;
  }
  try {
    namespace fs = std::filesystem;
    const fs::path dir = argv[1];
    const std::uint64_t seed = std::stoull(argv[2]);
    const int count = std::stoi(argv[3]);
    if (count <= 0) throw std::runtime_error("count must be positive");
    fs::remove_all(dir);
    fs::create_directories(dir);
    diac::RfidBurstSource::Options options;
    options.horizon = 2000.0;
    for (int i = 0; i < count; ++i) {
      char name[32];
      std::snprintf(name, sizeof name, "trace_%03d.csv", i);
      const diac::RfidBurstSource source(diac::derive_seed(seed, i), options);
      diac::save_trace_csv((dir / name).string(), source, options.horizon, 0.5);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_gen: " << e.what() << "\n";
    return 1;
  }
}
