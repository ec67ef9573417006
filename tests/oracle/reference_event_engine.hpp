// Reference event engine for differential tests of SystemSimulator::run().
//
// The event integrator as it stood before designs were compiled into a
// shared SimPlan and the loop was specialized: one generic loop that
// tests the source kind and trace recording on every iteration, reads
// the load power inside the integration step, builds its own TaskProgram
// and threshold stack per run, finds the next decision level by a
// conditional scan over the levels (entry levels evaluated from the
// program, not read from a table), and divides for every threshold
// crossing time.  It drives the production NodeMachine, so the two
// engines share every Algorithm-1 transition; everything they compute
// must agree bit for bit — RunStats, the event log and the trace.
#pragma once

#include <vector>

#include "runtime/simulator.hpp"

namespace diac {

struct ReferenceEventRun {
  RunStats stats;
  std::vector<SimEvent> events;
  std::vector<TracePoint> trace;
};

// Simulates `design` on `source`; throws std::invalid_argument on
// out-of-range options, as SystemSimulator does.
ReferenceEventRun run_reference_event_engine(const IntermittentDesign& design,
                                             const HarvestSource& source,
                                             const FsmConfig& config,
                                             const SimulatorOptions& options);

}  // namespace diac
