/// The experiment engine: (design × scenario) simulation jobs fanned out
/// over an ExperimentRunner.
///
/// A SimulationJob is pure data: a shared, read-only SimPlan (the
/// pre-synthesized design compiled once under its FSM configuration and
/// storage — synthesis and compilation are deterministic and shared
/// across seeds, so callers build one plan per scheme), a copyable
/// ScenarioSpec the job materializes locally (construction is O(1) for
/// every seeded kind, and kTrace specs share their loaded trace), and the
/// simulator options.  Each job is self-contained and explicitly seeded, which
/// is what makes fan-out results bit-identical at any thread count.
#pragma once

#include <memory>
#include <vector>

#include "diac/design.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "runtime/fsm.hpp"
#include "runtime/simulator.hpp"

namespace diac {

struct SimulationJob {
  // The plan's design must outlive the run; `simulator` must describe
  // the storage the plan was compiled for.
  std::shared_ptr<const SimPlan> plan;
  ScenarioSpec scenario;
  SimulatorOptions simulator;
};

/// Truncates the stochastic sources' trace horizon to the simulated
/// window: the generated prefix is bit-identical (the seeded generator
/// just stops earlier) and the simulator never reads past max_time, so
/// this only bounds the work of solar cloud precomputation and of any
/// random-access materialization of an RFID trace.
ScenarioSpec clamp_scenario_horizon(ScenarioSpec scenario, double max_time);

/// Replayed measurements end at their last logged sample: a PiecewiseTrace
/// extrapolates its final power level forever, and simulating past the
/// measurement would score schemes on fabricated supply.  For a kTrace
/// scenario with a loaded trace this clamps max_time to the trace's end
/// (throwing when the trace has no measured duration — a single sample at
/// t=0); every other kind passes through unchanged.  run_simulation
/// applies this to each job, so all engine consumers stop in-measurement.
SimulatorOptions clamp_to_measurement(SimulatorOptions options,
                                      const ScenarioSpec& scenario);

/// Materializes the job's harvest source and runs the simulator.  When
/// `sensing_mode_mattered` is set it receives the run's sensing witness
/// (SystemSimulator::sensing_mode_mattered).
RunStats run_simulation(const SimulationJob& job,
                        bool* sensing_mode_mattered = nullptr);

/// Fans the jobs out over the runner; results[i] corresponds to jobs[i].
std::vector<RunStats> run_simulations(ExperimentRunner& runner,
                                      const std::vector<SimulationJob>& jobs);

}  // namespace diac
