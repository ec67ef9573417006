// Fixed-dt reference integrator for differential tests of the event
// integrator (SystemSimulator).
//
// It drives the same NodeMachine as production, so the two share every
// Algorithm-1 transition and differ only in how they advance energy and
// time: here the storage is a Capacitor charged, leaked and drained in
// whole dt ticks, decisions are taken at tick starts, and every atomic
// operation occupies at least one tick.  Agreement is therefore expected
// up to integration error, not bit for bit.
#pragma once

#include <vector>

#include "runtime/simulator.hpp"

namespace diac {

struct SteppedRun {
  RunStats stats;
  std::vector<SimEvent> events;
};

// Runs `design` on `source` with the storage, workload and seed of
// `options` (trace recording is not supported) at a fixed step `dt`.
SteppedRun run_stepped(const IntermittentDesign& design,
                       const HarvestSource& source, const FsmConfig& config,
                       const SimulatorOptions& options, double dt = 1.0e-3);

}  // namespace diac
