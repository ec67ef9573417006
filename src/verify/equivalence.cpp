#include "verify/equivalence.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <ostream>
#include <stdexcept>

#include "netlist/compiled_sim.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace diac::verify {
namespace {

// Matched primary I/O of the two sides, in one canonical order
// (side a's declaration order).
struct PortMatch {
  std::vector<GateId> a_in, b_in, a_out, b_out;
  std::vector<std::string> in_names, out_names;  // side-a spellings
  std::string mismatch;  // non-empty: why matching failed
};

// Matches one port class (inputs or outputs) by name; returns false and
// fills `why` on the first mismatch (deterministic: side a's order,
// then leftover names in sorted order).
bool match_by_name(const Netlist& a, const Netlist& b,
                   std::span<const GateId> a_ports,
                   std::span<const GateId> b_ports, const char* what,
                   std::vector<GateId>& out_a, std::vector<GateId>& out_b,
                   std::vector<std::string>& out_names, std::string& why) {
  std::map<std::string, GateId, std::less<>> b_by_name;
  for (GateId id : b_ports) b_by_name.emplace(b.gate_name(id), id);
  for (GateId id : a_ports) {
    const std::string name(a.gate_name(id));
    const auto it = b_by_name.find(name);
    if (it == b_by_name.end()) {
      why = std::string(what) + " '" + name + "' of '" + a.name() +
            "' has no counterpart in '" + b.name() + "'";
      return false;
    }
    out_a.push_back(id);
    out_b.push_back(it->second);
    out_names.push_back(name);
    b_by_name.erase(it);
  }
  if (!b_by_name.empty()) {
    why = std::string(what) + " '" + b_by_name.begin()->first + "' of '" +
          b.name() + "' has no counterpart in '" + a.name() + "'";
    return false;
  }
  return true;
}

PortMatch match_ports(const Netlist& a, const Netlist& b, bool by_order) {
  PortMatch m;
  if (by_order) {
    if (a.inputs().size() != b.inputs().size()) {
      m.mismatch = "input count differs: " + std::to_string(a.inputs().size()) +
                   " vs " + std::to_string(b.inputs().size());
      return m;
    }
    if (a.outputs().size() != b.outputs().size()) {
      m.mismatch = "output count differs: " +
                   std::to_string(a.outputs().size()) + " vs " +
                   std::to_string(b.outputs().size());
      return m;
    }
    m.a_in.assign(a.inputs().begin(), a.inputs().end());
    m.b_in.assign(b.inputs().begin(), b.inputs().end());
    m.a_out.assign(a.outputs().begin(), a.outputs().end());
    m.b_out.assign(b.outputs().begin(), b.outputs().end());
    for (GateId id : m.a_in) m.in_names.emplace_back(a.gate_name(id));
    for (GateId id : m.a_out) m.out_names.emplace_back(a.gate_name(id));
    return m;
  }
  if (!match_by_name(a, b, a.inputs(), b.inputs(), "input", m.a_in, m.b_in,
                     m.in_names, m.mismatch) ||
      !match_by_name(a, b, a.outputs(), b.outputs(), "output", m.a_out,
                     m.b_out, m.out_names, m.mismatch)) {
    return m;
  }
  return m;
}

// First differing (output index, word, lane) between the two settled
// simulators, scanning in canonical order.  Returns false when equal.
bool first_divergence(const CompiledSimulator& sa, const CompiledSimulator& sb,
                      const PortMatch& pm, int batch, std::size_t& out_idx,
                      int& word, int& lane) {
  for (std::size_t oi = 0; oi < pm.a_out.size(); ++oi) {
    for (int w = 0; w < batch; ++w) {
      const Word diff =
          sa.value(pm.a_out[oi], w) ^ sb.value(pm.b_out[oi], w);
      if (diff != 0) {
        out_idx = oi;
        word = w;
        lane = std::countr_zero(diff);
        return true;
      }
    }
  }
  return false;
}

void fill_counterexample_values(const CompiledSimulator& sa,
                                const CompiledSimulator& sb,
                                const PortMatch& pm, std::size_t out_idx,
                                int word, int lane, Counterexample& cex) {
  cex.output_index = out_idx;
  cex.output = pm.out_names[out_idx];
  cex.value_a =
      ((sa.value(pm.a_out[out_idx], word) >> lane) & 1ULL) != 0;
  cex.value_b =
      ((sb.value(pm.b_out[out_idx], word) >> lane) & 1ULL) != 0;
}

}  // namespace

const char* to_string(EquivalenceStatus status) {
  switch (status) {
    case EquivalenceStatus::kEquivalent: return "equivalent";
    case EquivalenceStatus::kNotEquivalent: return "not-equivalent";
    case EquivalenceStatus::kInterfaceMismatch: return "interface-mismatch";
  }
  return "?";
}

EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    const EquivalenceOptions& options) {
  DIAC_TRACE_SPAN("verify.equivalence", "verify");
  EquivalenceResult res;
  const PortMatch pm = match_ports(a, b, options.match_ports_by_order);
  if (!pm.mismatch.empty()) {
    res.status = EquivalenceStatus::kInterfaceMismatch;
    res.reason = pm.mismatch;
    return res;
  }

  const int batch = std::max(1, options.batch_words);
  CompiledSimulator sa(a, batch);
  CompiledSimulator sb(b, batch);
  const bool sequential = !a.dffs().empty() || !b.dffs().empty();
  const std::size_t n_in = pm.a_in.size();
  const int limit = std::clamp(options.exhaustive_limit, 0, 62);
  const std::uint64_t lanes_per_pass =
      64ULL * static_cast<std::uint64_t>(batch);

  if (!sequential && n_in <= static_cast<std::size_t>(limit)) {
    // Exhaustive: every one of the 2^n input patterns, 64xB per
    // traversal.  Pattern p assigns bit (p >> i) & 1 to input i; lanes
    // past 2^n wrap (duplicates are harmless — still valid patterns).
    res.exhaustive = true;
    const std::uint64_t total = 1ULL << n_in;
    const std::uint64_t pattern_mask = total - 1;
    for (std::uint64_t base = 0; base < total; base += lanes_per_pass) {
      for (std::size_t i = 0; i < n_in; ++i) {
        for (int w = 0; w < batch; ++w) {
          Word word_bits = 0;
          for (int l = 0; l < 64; ++l) {
            const std::uint64_t p =
                (base + static_cast<std::uint64_t>(w) * 64ULL +
                 static_cast<std::uint64_t>(l)) &
                pattern_mask;
            word_bits |= ((p >> i) & 1ULL) << l;
          }
          sa.set_input(pm.a_in[i], word_bits, w);
          sb.set_input(pm.b_in[i], word_bits, w);
        }
      }
      sa.settle();
      sb.settle();
      res.patterns += std::min(lanes_per_pass, total - base);
      std::size_t out_idx = 0;
      int word = 0, lane = 0;
      if (first_divergence(sa, sb, pm, batch, out_idx, word, lane)) {
        Counterexample cex;
        cex.inputs = pm.in_names;
        const std::uint64_t p =
            (base + static_cast<std::uint64_t>(word) * 64ULL +
             static_cast<std::uint64_t>(lane)) &
            pattern_mask;
        std::vector<std::uint8_t> row(n_in, 0);
        for (std::size_t i = 0; i < n_in; ++i) {
          row[i] = static_cast<std::uint8_t>((p >> i) & 1ULL);
        }
        cex.pattern.push_back(std::move(row));
        cex.cycle = 0;
        fill_counterexample_values(sa, sb, pm, out_idx, word, lane, cex);
        cex.replayed = replay_counterexample(a, b, options, cex);
        res.status = EquivalenceStatus::kNotEquivalent;
        res.counterexample = std::move(cex);
        return res;
      }
    }
    return res;
  }

  // Seeded random fingerprinting: both sides run in lockstep on
  // identical SplitMix64 stimulus, `seq_cycles` clock edges per round
  // from the all-zero state (combinational circuits: one settle per
  // round).
  const int rounds = std::max(1, options.random_rounds);
  const int cycles = sequential ? std::max(1, options.seq_cycles) : 1;
  SplitMix64 rng(options.seed);
  const std::vector<Word> zero_a(a.dffs().size() * static_cast<std::size_t>(batch), 0);
  const std::vector<Word> zero_b(b.dffs().size() * static_cast<std::size_t>(batch), 0);
  // history[cycle][i * batch + w]: stimulus word w of input i.
  std::vector<std::vector<Word>> history;
  for (int round = 0; round < rounds; ++round) {
    sa.set_state(zero_a);
    sb.set_state(zero_b);
    history.clear();
    for (int cycle = 0; cycle < cycles; ++cycle) {
      std::vector<Word> stim(n_in * static_cast<std::size_t>(batch), 0);
      for (std::size_t i = 0; i < n_in; ++i) {
        for (int w = 0; w < batch; ++w) {
          const Word v = rng.next();
          stim[i * static_cast<std::size_t>(batch) +
               static_cast<std::size_t>(w)] = v;
          sa.set_input(pm.a_in[i], v, w);
          sb.set_input(pm.b_in[i], v, w);
        }
      }
      history.push_back(std::move(stim));
      if (sequential) {
        sa.step();
        sb.step();
      } else {
        sa.settle();
        sb.settle();
      }
      res.patterns += lanes_per_pass;
      std::size_t out_idx = 0;
      int word = 0, lane = 0;
      if (first_divergence(sa, sb, pm, batch, out_idx, word, lane)) {
        Counterexample cex;
        cex.inputs = pm.in_names;
        for (const std::vector<Word>& past : history) {
          std::vector<std::uint8_t> row(n_in, 0);
          for (std::size_t i = 0; i < n_in; ++i) {
            const Word v = past[i * static_cast<std::size_t>(batch) +
                                static_cast<std::size_t>(word)];
            row[i] = static_cast<std::uint8_t>((v >> lane) & 1ULL);
          }
          cex.pattern.push_back(std::move(row));
        }
        cex.cycle = cycle;
        fill_counterexample_values(sa, sb, pm, out_idx, word, lane, cex);
        cex.replayed = replay_counterexample(a, b, options, cex);
        res.status = EquivalenceStatus::kNotEquivalent;
        res.counterexample = std::move(cex);
        return res;
      }
    }
  }
  return res;
}

bool replay_counterexample(const Netlist& a, const Netlist& b,
                           const EquivalenceOptions& options,
                           const Counterexample& cex) {
  const PortMatch pm = match_ports(a, b, options.match_ports_by_order);
  if (!pm.mismatch.empty()) return false;
  if (cex.pattern.empty() || cex.output_index >= pm.a_out.size()) return false;
  if (cex.cycle != static_cast<int>(cex.pattern.size()) - 1) return false;
  const bool sequential = !a.dffs().empty() || !b.dffs().empty();
  CompiledSimulator sa(a, 1);
  CompiledSimulator sb(b, 1);  // fresh simulators start all-zero
  for (const std::vector<std::uint8_t>& row : cex.pattern) {
    if (row.size() != pm.a_in.size()) return false;
    for (std::size_t i = 0; i < row.size(); ++i) {
      const Word v = row[i] ? ~0ULL : 0ULL;
      sa.set_input(pm.a_in[i], v);
      sb.set_input(pm.b_in[i], v);
    }
    if (sequential) {
      sa.step();
      sb.step();
    } else {
      sa.settle();
      sb.settle();
    }
  }
  const bool va = (sa.value(pm.a_out[cex.output_index]) & 1ULL) != 0;
  const bool vb = (sb.value(pm.b_out[cex.output_index]) & 1ULL) != 0;
  return va != vb && va == cex.value_a && vb == cex.value_b;
}

void write_equivalence_result(std::ostream& out,
                              const EquivalenceResult& result) {
  out << "equivalence: " << to_string(result.status);
  if (result.status == EquivalenceStatus::kInterfaceMismatch) {
    out << " (" << result.reason << ")\n";
    return;
  }
  out << " after " << result.patterns << " pattern-cycle(s)"
      << (result.exhaustive ? " [exhaustive]" : "") << "\n";
  if (!result.counterexample.has_value()) return;
  const Counterexample& cex = *result.counterexample;
  out << "counterexample: output '" << cex.output << "' at cycle "
      << cex.cycle << ": " << (cex.value_a ? 1 : 0) << " vs "
      << (cex.value_b ? 1 : 0)
      << (cex.replayed ? " (replay-confirmed)" : " (replay FAILED)") << "\n";
  for (std::size_t c = 0; c < cex.pattern.size(); ++c) {
    out << "  cycle " << c << ":";
    for (std::size_t i = 0; i < cex.inputs.size(); ++i) {
      out << " " << cex.inputs[i] << "="
          << static_cast<int>(cex.pattern[c][i]);
    }
    out << "\n";
  }
}

}  // namespace diac::verify
