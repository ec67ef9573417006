#include "exp/experiment.hpp"

#include <algorithm>
#include <stdexcept>

namespace diac {

ScenarioSpec clamp_scenario_horizon(ScenarioSpec scenario, double max_time) {
  scenario.rfid.horizon = std::min(scenario.rfid.horizon, max_time);
  scenario.solar.horizon = std::min(scenario.solar.horizon, max_time);
  return scenario;
}

SimulatorOptions clamp_to_measurement(SimulatorOptions options,
                                      const ScenarioSpec& scenario) {
  if (scenario.kind != SourceKind::kTrace || !scenario.trace) return options;
  const double end = scenario.trace->segments().back().start;
  if (end <= 0) {
    throw std::invalid_argument("trace '" + scenario.trace_path +
                                "' has no measured duration (single sample "
                                "at t=0)");
  }
  options.max_time = std::min(options.max_time, end);
  return options;
}

RunStats run_simulation(const SimulationJob& job,
                        bool* sensing_mode_mattered) {
  if (!job.plan) {
    throw std::invalid_argument("run_simulation: job has no plan");
  }
  const SimulatorOptions simulator =
      clamp_to_measurement(job.simulator, job.scenario);
  const std::unique_ptr<HarvestSource> source =
      make_source(clamp_scenario_horizon(job.scenario, simulator.max_time));
  SystemSimulator sim(*job.plan, *source, simulator);
  RunStats stats = sim.run();
  if (sensing_mode_mattered != nullptr) {
    *sensing_mode_mattered = sim.sensing_mode_mattered();
  }
  return stats;
}

std::vector<RunStats> run_simulations(ExperimentRunner& runner,
                                      const std::vector<SimulationJob>& jobs) {
  std::vector<RunStats> results(jobs.size());
  runner.parallel_for(jobs.size(), [&](std::size_t i) {
    results[i] = run_simulation(jobs[i]);
  });
  return results;
}

}  // namespace diac
