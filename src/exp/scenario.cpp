#include "exp/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "power/trace_io.hpp"

namespace diac {

namespace {

// Adapts a shared, already-loaded trace to make_source's owning return
// type: the wrapper is owned per call, the trace itself is not re-read.
class SharedTraceSource final : public HarvestSource {
 public:
  explicit SharedTraceSource(std::shared_ptr<const PiecewiseTrace> trace)
      : trace_(std::move(trace)) {}
  double power_at(double t) const override { return trace_->power_at(t); }
  double next_change(double t) const override {
    return trace_->next_change(t);
  }
  SupplyCursor cursor() const override { return trace_->cursor(); }

 private:
  std::shared_ptr<const PiecewiseTrace> trace_;
};

}  // namespace

const char* to_string(SourceKind kind) {
  switch (kind) {
    case SourceKind::kConstant: return "constant";
    case SourceKind::kSquare: return "square";
    case SourceKind::kRfid: return "rfid";
    case SourceKind::kSolar: return "solar";
    case SourceKind::kFig4: return "fig4";
    case SourceKind::kTrace: return "trace";
  }
  return "?";
}

bool is_seeded(SourceKind kind) {
  return kind == SourceKind::kRfid || kind == SourceKind::kSolar;
}

ScenarioSpec scenario_from_name(const std::string& name) {
  if (name.rfind("trace:", 0) == 0) {
    const std::string path = name.substr(6);
    if (path.empty()) {
      throw std::invalid_argument(
          "trace source needs a file: trace:<path.csv>");
    }
    return trace_scenario(path);
  }
  ScenarioSpec spec;
  if (name == "constant") {
    spec.kind = SourceKind::kConstant;
  } else if (name == "square") {
    spec.kind = SourceKind::kSquare;
  } else if (name == "rfid") {
    spec.kind = SourceKind::kRfid;
  } else if (name == "solar") {
    spec.kind = SourceKind::kSolar;
  } else if (name == "fig4") {
    spec.kind = SourceKind::kFig4;
  } else {
    throw std::invalid_argument(
        "unknown source '" + name +
        "' (expected constant|square|rfid|solar|fig4|trace:<path>)");
  }
  return spec;
}

ScenarioSpec trace_scenario(std::string path,
                            std::shared_ptr<const PiecewiseTrace> trace) {
  if (!trace) {
    throw std::invalid_argument("trace_scenario: null trace");
  }
  ScenarioSpec spec;
  spec.kind = SourceKind::kTrace;
  spec.trace_path = std::move(path);
  spec.trace = std::move(trace);
  return spec;
}

ScenarioSpec trace_scenario(const std::string& path) {
  return trace_scenario(
      path, std::make_shared<const PiecewiseTrace>(load_trace_csv(path)));
}

std::unique_ptr<HarvestSource> make_source(const ScenarioSpec& spec) {
  switch (spec.kind) {
    case SourceKind::kConstant:
      return std::make_unique<ConstantSource>(spec.constant_power);
    case SourceKind::kSquare:
      return std::make_unique<SquareWaveSource>(
          spec.square.on_power, spec.square.period, spec.square.duty);
    case SourceKind::kRfid:
      return std::make_unique<RfidBurstSource>(spec.seed, spec.rfid);
    case SourceKind::kSolar:
      return std::make_unique<SolarSource>(spec.seed, spec.solar);
    case SourceKind::kFig4:
      return std::make_unique<PiecewiseTrace>(fig4_trace());
    case SourceKind::kTrace:
      // kTrace specs always carry the loaded trace (trace_scenario and
      // scenario_from_name load eagerly); a path-only spec would dodge
      // the read-once contract and clamp_to_measurement.
      if (!spec.trace) {
        throw std::invalid_argument(
            "make_source: trace scenario has no loaded trace (build it "
            "with trace_scenario() or scenario_from_name(\"trace:<path>\"))");
      }
      return std::make_unique<SharedTraceSource>(spec.trace);
  }
  throw std::invalid_argument("make_source: invalid scenario kind");
}

std::uint64_t derive_seed(std::uint64_t base, int run) {
  // The multiply wraps in 32 bits — that is what the pre-engine
  // evaluate_monte_carlo computed (unsigned-int arithmetic), and changing
  // it would silently shift every multi-run sweep statistic.
  const std::uint32_t stride =
      0x9E3779B9u * static_cast<std::uint32_t>(run + 1);
  return base + stride;
}

}  // namespace diac
