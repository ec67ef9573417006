#include "exp/job_key.hpp"

#include <stdexcept>

#include "util/exactfmt.hpp"
#include "util/hash128.hpp"

namespace diac {

namespace {

void push_double(std::vector<std::string>& key, double v) {
  key.push_back(exact_encode_double(v));
}

void push_int(std::vector<std::string>& key, long long v) {
  key.push_back(std::to_string(v));
}

}  // namespace

void append_key(std::vector<std::string>& key,
                const SynthesisOptions& options) {
  // Adding a SynthesisOptions field? Extend the tokens below, then
  // update this size (aliasing two recipes to one entry is the failure
  // mode this assert exists to prevent).
  static_assert(sizeof(SynthesisOptions) == 64,
                "SynthesisOptions changed: extend append_key");
  key.push_back("synth");
  push_int(key, static_cast<int>(options.policy));
  push_int(key, static_cast<int>(options.grouping));
  push_int(key, static_cast<int>(options.technology));
  push_double(key, options.e_max);
  push_double(key, options.instance_rho);
  push_double(key, options.upper_fraction);
  push_double(key, options.lower_ratio);
  push_double(key, options.budget_fraction);
  push_double(key, options.system_factor);
}

void append_key(std::vector<std::string>& key, const FsmConfig& fsm) {
  static_assert(sizeof(FsmConfig) == 152,
                "FsmConfig changed: extend append_key");
  key.push_back("fsm");
  push_double(key, fsm.sense_energy);
  push_double(key, fsm.compute_energy);
  push_double(key, fsm.transmit_energy);
  push_double(key, fsm.op_jitter);
  push_double(key, fsm.sense_power);
  push_double(key, fsm.active_power);
  push_double(key, fsm.transmit_power);
  push_double(key, fsm.sleep_power);
  push_double(key, fsm.sleep_power_backed_up);
  push_double(key, fsm.transmit_packet_energy);
  push_double(key, fsm.dispatch_energy);
  push_double(key, fsm.dispatch_time);
  push_double(key, fsm.sense_interval);
  push_int(key, fsm.adaptive_sensing ? 1 : 0);
  push_double(key, fsm.adaptive_slowdown);
  push_double(key, fsm.off_floor);
  push_double(key, fsm.backup_margin);
  push_double(key, fsm.safe_margin);
  push_double(key, fsm.entry_margin);
}

void append_key(std::vector<std::string>& key,
                const SimulatorOptions& options) {
  static_assert(sizeof(SimulatorOptions) == 80,
                "SimulatorOptions changed: extend append_key");
  key.push_back("sim");
  push_double(key, options.capacitance);
  push_double(key, options.voltage);
  push_double(key, options.initial_energy_fraction);
  push_double(key, options.charge_efficiency);
  push_double(key, options.storage_leakage);
  push_int(key, options.target_instances);
  push_double(key, options.max_time);
  push_int(key, static_cast<long long>(options.seed));
  // record_trace / trace_interval are side-channel sampling knobs — they
  // never reach RunStats, so two runs differing only there share one
  // entry by design.
}

void append_key(std::vector<std::string>& key, const ScenarioSpec& scenario) {
  static_assert(sizeof(ScenarioSpec) == 192,
                "ScenarioSpec changed: extend append_key");
  static_assert(sizeof(ScenarioSpec::Square) == 24,
                "ScenarioSpec::Square changed: extend append_key");
  static_assert(sizeof(RfidBurstSource::Options) == 40,
                "RfidBurstSource::Options changed: extend append_key");
  static_assert(sizeof(SolarSource::Options) == 56,
                "SolarSource::Options changed: extend append_key");
  key.push_back("scenario");
  key.push_back(to_string(scenario.kind));
  if (is_seeded(scenario.kind)) {
    push_int(key, static_cast<long long>(scenario.seed));
  }
  switch (scenario.kind) {
    case SourceKind::kConstant:
      push_double(key, scenario.constant_power);
      break;
    case SourceKind::kSquare:
      push_double(key, scenario.square.on_power);
      push_double(key, scenario.square.period);
      push_double(key, scenario.square.duty);
      break;
    case SourceKind::kRfid:
      push_double(key, scenario.rfid.mean_on);
      push_double(key, scenario.rfid.mean_off);
      push_double(key, scenario.rfid.min_power);
      push_double(key, scenario.rfid.max_power);
      push_double(key, scenario.rfid.horizon);
      break;
    case SourceKind::kSolar:
      push_double(key, scenario.solar.peak_power);
      push_double(key, scenario.solar.day_length);
      push_double(key, scenario.solar.night_length);
      push_double(key, scenario.solar.cloud_rate);
      push_double(key, scenario.solar.cloud_mean_duration);
      push_double(key, scenario.solar.cloud_attenuation);
      push_double(key, scenario.solar.horizon);
      break;
    case SourceKind::kFig4:
      break;  // fully scripted: the kind token is the whole description
    case SourceKind::kTrace: {
      if (!scenario.trace) {
        throw std::invalid_argument(
            "job key: kTrace scenario without a loaded trace");
      }
      // Content digest, not path: the replayed samples are what the
      // result depends on.
      Fnv128 h;
      for (const PiecewiseTrace::Segment& s : scenario.trace->segments()) {
        h.update_token(exact_encode_double(s.start));
        h.update_token(exact_encode_double(s.power));
      }
      key.push_back(hash_hex(h.digest()));
      break;
    }
  }
}

}  // namespace diac
