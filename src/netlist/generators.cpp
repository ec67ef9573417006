#include "netlist/generators.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace diac::gen {

namespace {

// Samples a readable signal (anything except OUTPUT ports).
GateId sample_signal(const Netlist& nl, SplitMix64& rng) {
  for (;;) {
    const GateId id = static_cast<GateId>(rng.below(nl.size()));
    if (nl.kind(id) != GateKind::kOutput) return id;
  }
}

GateKind pick_kind(const GateMix& mix, SplitMix64& rng) {
  struct Entry { GateKind kind; double w; };
  const Entry entries[] = {
      {GateKind::kNand, mix.nand_w}, {GateKind::kNor, mix.nor_w},
      {GateKind::kAnd, mix.and_w},   {GateKind::kOr, mix.or_w},
      {GateKind::kXor, mix.xor_w},   {GateKind::kXnor, mix.xnor_w},
      {GateKind::kNot, mix.not_w},   {GateKind::kMux, mix.mux_w},
      {GateKind::kDff, mix.dff_w},
  };
  double total = 0;
  for (const auto& e : entries) total += e.w;
  double x = rng.uniform(0.0, total);
  for (const auto& e : entries) {
    if (x < e.w) return e.kind;
    x -= e.w;
  }
  return GateKind::kNand;
}

}  // namespace

GateMix mix_generic() { return GateMix{}; }

GateMix mix_arithmetic() {
  GateMix m;
  m.xor_w = 4; m.xnor_w = 2; m.and_w = 4; m.nand_w = 2; m.or_w = 2;
  m.nor_w = 1; m.not_w = 0.5; m.mux_w = 0.5; m.dff_w = 0.3;
  return m;
}

GateMix mix_control() {
  GateMix m;
  m.nand_w = 4; m.nor_w = 3; m.mux_w = 2; m.not_w = 2; m.and_w = 2;
  m.or_w = 2; m.xor_w = 0.5; m.xnor_w = 0.3; m.dff_w = 1.5;
  return m;
}

GateMix mix_cipher() {
  GateMix m;
  m.xor_w = 6; m.xnor_w = 2; m.and_w = 2; m.nand_w = 1; m.or_w = 1;
  m.nor_w = 0.5; m.not_w = 1; m.mux_w = 0.5; m.dff_w = 0.8;
  return m;
}

GateMix mix_datapath() {
  GateMix m;
  m.mux_w = 4; m.nand_w = 2; m.and_w = 2; m.or_w = 2; m.xor_w = 2;
  m.nor_w = 1; m.not_w = 1; m.xnor_w = 0.5; m.dff_w = 1.0;
  return m;
}

GateId xor_reduce(Netlist& nl, std::vector<GateId> signals) {
  if (signals.empty()) {
    throw std::invalid_argument("xor_reduce: no signals");
  }
  while (signals.size() > 1) {
    std::vector<GateId> next;
    next.reserve(signals.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < signals.size(); i += 2) {
      next.push_back(nl.add(GateKind::kXor, {signals[i], signals[i + 1]}));
    }
    if (signals.size() % 2) next.push_back(signals.back());
    signals = std::move(next);
  }
  return signals[0];
}

std::pair<GateId, GateId> full_adder(Netlist& nl, GateId a, GateId b, GateId cin) {
  const GateId axb = nl.add(GateKind::kXor, {a, b});
  const GateId sum = nl.add(GateKind::kXor, {axb, cin});
  const GateId ab = nl.add(GateKind::kAnd, {a, b});
  const GateId cx = nl.add(GateKind::kAnd, {axb, cin});
  const GateId carry = nl.add(GateKind::kOr, {ab, cx});
  return {sum, carry};
}

void grow_to(Netlist& nl, std::size_t target, SplitMix64& rng, const GateMix& mix) {
  // Dangling signals: logic gates nothing reads yet.  The closing XOR tree
  // over k dangling signals costs exactly k-1 gates, so the growth loop
  // keeps `logic + (dangling-1) <= target` as its invariant.
  auto count_dangling = [&nl] {
    std::vector<char> read(nl.size(), 0);
    for (GateId id = 0; id < nl.size(); ++id) {
      for (GateId f : nl.fanin(id)) read[f] = 1;
    }
    std::vector<GateId> d;
    for (GateId id = 0; id < nl.size(); ++id) {
      if (is_logic(nl.kind(id)) && !read[id]) d.push_back(id);
    }
    return d;
  };

  std::vector<GateId> dangling = count_dangling();
  std::size_t logic = nl.logic_gate_count();
  const std::size_t closing = dangling.empty() ? 0 : dangling.size() - 1;
  if (logic + closing > target) {
    throw std::invalid_argument("grow_to: '" + nl.name() + "' already has " +
                                std::to_string(logic) + "+" + std::to_string(closing) +
                                " gates, target " + std::to_string(target));
  }
  if (logic == target && dangling.empty()) return;
  // Every added gate reads at most four signals and is auto-named
  // "<kind>_<id>" with a kind of at most four letters; the closing OUTPUT
  // reads one.
  const std::size_t added = (target - logic) + 1;
  const std::string output_name = nl.name() + "_grow_obs$out";
  const std::size_t id_digits = std::to_string(nl.size() + added).size();
  nl.reserve(added, 4 * added, added * (5 + id_digits) + output_name.size());

  auto take_dangling = [&]() -> GateId {
    const std::size_t i = rng.below(dangling.size());
    const GateId id = dangling[i];
    dangling[i] = dangling.back();
    dangling.pop_back();
    return id;
  };

  auto closing_cost = [&dangling]() -> std::size_t {
    return dangling.empty() ? 0 : dangling.size() - 1;
  };
  while (logic + closing_cost() < target) {
    const GateKind kind = pick_kind(mix, rng);
    const std::size_t budget = target - logic - closing_cost();
    // Adding a gate that consumes c dangling signals changes
    // logic + closing_cost by (2 - c) when dangling is non-empty, and by 1
    // when it is empty.  With budget == 1 and dangling present we must
    // consume exactly one dangling signal to avoid overshooting the target.
    const bool must_consume = !dangling.empty() && budget == 1;
    // Keep the dangling set small so the closing tree stays cheap.
    const bool prefer_dangling = dangling.size() > 12 || budget < 4;

    bool consumed = false;
    auto operand = [&]() -> GateId {
      const bool want_dangling =
          (must_consume && !consumed) || prefer_dangling || rng.chance(0.5);
      if (!dangling.empty() && want_dangling && !(must_consume && consumed)) {
        consumed = true;
        return take_dangling();
      }
      return sample_signal(nl, rng);
    };

    std::size_t width = 2;
    switch (kind) {
      case GateKind::kNot:
      case GateKind::kDff:
        width = 1;
        break;
      case GateKind::kMux:
        width = 3;
        break;
      default:
        // 2-input mostly; occasionally 3-4 wide.
        if (rng.chance(0.15)) width = 3;
        if (rng.chance(0.05)) width = 4;
    }
    GateId fanin[4];
    for (std::size_t i = 0; i < width; ++i) fanin[i] = operand();
    dangling.push_back(nl.add(kind, std::span<const GateId>(fanin, width)));
    ++logic;
  }

  // Close: XOR-reduce dangling signals into one observable output.
  if (!dangling.empty()) {
    const GateId root = xor_reduce(nl, std::move(dangling));
    nl.add(GateKind::kOutput, output_name, {root});
  }
  nl.seal();
}

Netlist random_logic(const std::string& name, int inputs, int outputs,
                     std::size_t target, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Netlist nl(name);
  std::vector<GateId> ins;
  for (int i = 0; i < inputs; ++i) {
    ins.push_back(nl.add(GateKind::kInput, "pi" + std::to_string(i)));
  }
  // Seed one gate per requested output so grow_to has signals to build on,
  // then grow; the grown logic is folded into extra outputs.
  std::vector<GateId> seeds;
  for (int i = 0; i < outputs; ++i) {
    const GateId a = ins[rng.below(ins.size())];
    const GateId b = ins[rng.below(ins.size())];
    seeds.push_back(nl.add(GateKind::kNand, {a, b}));
  }
  // Reserve the seed gates as real outputs.
  for (int i = 0; i < outputs; ++i) {
    nl.add(GateKind::kOutput, "po" + std::to_string(i) + "$out", {seeds[i]});
  }
  grow_to(nl, target, rng, mix_generic());
  return nl;
}

Netlist array_multiplier(const std::string& name, int bits) {
  if (bits < 2) throw std::invalid_argument("array_multiplier: bits >= 2");
  Netlist nl(name);
  std::vector<GateId> a(bits), b(bits);
  for (int i = 0; i < bits; ++i) a[i] = nl.add(GateKind::kInput, "a" + std::to_string(i));
  for (int i = 0; i < bits; ++i) b[i] = nl.add(GateKind::kInput, "b" + std::to_string(i));

  // Partial products pp[i][j] = a[i] & b[j].
  std::vector<std::vector<GateId>> pp(bits, std::vector<GateId>(bits));
  for (int i = 0; i < bits; ++i) {
    for (int j = 0; j < bits; ++j) {
      pp[i][j] = nl.add(GateKind::kAnd, {a[i], b[j]});
    }
  }

  // Shift-add accumulation: acc holds the running sum; row i adds
  // pp[i][*] at weight offset i with a ripple carry.  Null entries mean
  // "constant zero" and get optimized into half adders / direct wires.
  std::vector<GateId> acc(2 * static_cast<std::size_t>(bits), kNullGate);
  for (int j = 0; j < bits; ++j) acc[static_cast<std::size_t>(j)] = pp[0][j];
  for (int i = 1; i < bits; ++i) {
    GateId carry = kNullGate;
    for (int j = 0; j < bits; ++j) {
      const std::size_t pos = static_cast<std::size_t>(i + j);
      const GateId cur = acc[pos];
      const GateId add = pp[i][j];
      if (cur == kNullGate && carry == kNullGate) {
        acc[pos] = add;
      } else if (cur == kNullGate || carry == kNullGate) {
        const GateId other = cur == kNullGate ? carry : cur;
        acc[pos] = nl.add(GateKind::kXor, {add, other});
        carry = nl.add(GateKind::kAnd, {add, other});
      } else {
        auto [sum, cout] = full_adder(nl, cur, add, carry);
        acc[pos] = sum;
        carry = cout;
      }
    }
    // Carry out of the row lands on the next free column (always null for
    // row i: nothing has been placed at weight i + bits yet).
    if (carry != kNullGate) {
      acc[static_cast<std::size_t>(i + bits)] = carry;
    }
  }

  for (int k = 0; k < 2 * bits; ++k) {
    if (acc[static_cast<std::size_t>(k)] != kNullGate) {
      nl.add(GateKind::kOutput, "p" + std::to_string(k) + "$out",
             {acc[static_cast<std::size_t>(k)]});
    }
  }
  nl.seal();
  return nl;
}

Netlist pld(const std::string& name, int inputs, int product_terms, int outputs,
            std::uint64_t seed) {
  SplitMix64 rng(seed);
  Netlist nl(name);
  std::vector<GateId> in(inputs), inv(inputs);
  for (int i = 0; i < inputs; ++i) {
    in[i] = nl.add(GateKind::kInput, "x" + std::to_string(i));
    inv[i] = nl.add(GateKind::kNot, {in[i]});
  }
  // AND plane: each product term samples 2-4 literals.
  std::vector<GateId> terms;
  for (int t = 0; t < product_terms; ++t) {
    const int lits = static_cast<int>(rng.between(2, 4));
    std::vector<GateId> fanin;
    for (int l = 0; l < lits; ++l) {
      const int var = static_cast<int>(rng.below(inputs));
      fanin.push_back(rng.chance(0.5) ? in[var] : inv[var]);
    }
    terms.push_back(nl.add(GateKind::kAnd, std::move(fanin)));
  }
  // OR plane: each output sums 2-5 terms.
  for (int o = 0; o < outputs; ++o) {
    const int nterms = static_cast<int>(rng.between(2, 5));
    std::vector<GateId> fanin;
    for (int k = 0; k < nterms; ++k) {
      fanin.push_back(terms[rng.below(terms.size())]);
    }
    const GateId sum = nl.add(GateKind::kOr, std::move(fanin));
    nl.add(GateKind::kOutput, "f" + std::to_string(o) + "$out", {sum});
  }
  nl.seal();
  return nl;
}

Netlist fsm_circuit(const std::string& name, int state_bits, int input_bits,
                    int output_bits, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Netlist nl(name);
  std::vector<GateId> in(input_bits);
  for (int i = 0; i < input_bits; ++i) {
    in[i] = nl.add(GateKind::kInput, "in" + std::to_string(i));
  }
  // State register: DFFs with placeholder fanin (fixed up after next-state
  // logic exists).  We seed them reading an input to keep arity valid.
  std::vector<GateId> state(state_bits);
  for (int s = 0; s < state_bits; ++s) {
    state[s] = nl.add(GateKind::kDff, "st" + std::to_string(s), {in[0]});
  }
  auto any_sig = [&](bool allow_state) -> GateId {
    if (allow_state && rng.chance(0.6)) return state[rng.below(state.size())];
    return in[rng.below(in.size())];
  };
  // Next-state logic: two-level AND-OR over {state, inputs} + XOR toggle.
  // Every state bit's first term mixes an input with an inverted signal so
  // the machine is guaranteed to leave the all-zero reset state.
  for (int s = 0; s < state_bits; ++s) {
    std::vector<GateId> terms;
    const GateId stim = in[rng.below(in.size())];
    const GateId inv = nl.add(GateKind::kNot, {any_sig(true)});
    terms.push_back(nl.add(GateKind::kAnd, {stim, inv}));
    const int nterms = static_cast<int>(rng.between(1, 2));
    for (int t = 0; t < nterms; ++t) {
      const GateId x = any_sig(true);
      const GateId y = any_sig(true);
      terms.push_back(nl.add(GateKind::kAnd, {x, y}));
    }
    const GateId orr = nl.add(GateKind::kOr, std::move(terms));
    const GateId nxt = nl.add(GateKind::kXor, {orr, state[s]});
    nl.set_fanin(state[s], {nxt});
  }
  // Moore outputs decode the state.
  for (int o = 0; o < output_bits; ++o) {
    const GateId x = state[rng.below(state.size())];
    const GateId y = state[rng.below(state.size())];
    const GateId dec = nl.add(GateKind::kNand, {x, y});
    nl.add(GateKind::kOutput, "out" + std::to_string(o) + "$out", {dec});
  }
  nl.seal();
  return nl;
}

Netlist majority_voter(const std::string& name, int voters) {
  if (voters < 3 || voters % 2 == 0) {
    throw std::invalid_argument("majority_voter: voters must be odd >= 3");
  }
  Netlist nl(name);
  std::vector<GateId> in(voters);
  for (int i = 0; i < voters; ++i) {
    in[i] = nl.add(GateKind::kInput, "v" + std::to_string(i));
  }
  // Population count via full adders, then threshold compare.
  // Simpler structural majority: sort network of MAJ3 = OR(AND(a,b), AND(c, OR(a,b))).
  std::vector<GateId> layer = in;
  while (layer.size() > 1) {
    std::vector<GateId> next;
    std::size_t i = 0;
    for (; i + 2 < layer.size(); i += 3) {
      const GateId ab = nl.add(GateKind::kAnd, {layer[i], layer[i + 1]});
      const GateId aob = nl.add(GateKind::kOr, {layer[i], layer[i + 1]});
      const GateId c_and = nl.add(GateKind::kAnd, {layer[i + 2], aob});
      next.push_back(nl.add(GateKind::kOr, {ab, c_and}));
    }
    for (; i < layer.size(); ++i) next.push_back(layer[i]);
    if (next.size() == layer.size()) {
      // 2 left: AND them (conservative tie-break).
      const GateId both = nl.add(GateKind::kAnd, {next[0], next[1]});
      next = {both};
    }
    layer = std::move(next);
  }
  nl.add(GateKind::kOutput, "maj$out", {layer[0]});
  nl.seal();
  return nl;
}

Netlist serial_converter(const std::string& name, int width, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Netlist nl(name);
  const GateId din = nl.add(GateKind::kInput, "din");
  const GateId mode = nl.add(GateKind::kInput, "mode");
  // Shift-in register.
  std::vector<GateId> sh(width);
  GateId prev = din;
  for (int i = 0; i < width; ++i) {
    sh[i] = nl.add(GateKind::kDff, "shi" + std::to_string(i), {prev});
    prev = sh[i];
  }
  // Recode: each output stage mixes two taps under mode control.
  std::vector<GateId> recoded(width);
  for (int i = 0; i < width; ++i) {
    const GateId t1 = sh[rng.below(sh.size())];
    const GateId t2 = sh[rng.below(sh.size())];
    const GateId x = nl.add(GateKind::kXor, {t1, t2});
    recoded[i] = nl.add(GateKind::kMux, {mode, sh[i], x});
  }
  // Shift-out register.
  GateId out_prev = recoded[0];
  for (int i = 0; i < width; ++i) {
    const GateId d = i == 0 ? recoded[0]
                            : nl.add(GateKind::kXor, {out_prev, recoded[i]});
    out_prev = nl.add(GateKind::kDff, "sho" + std::to_string(i), {d});
  }
  nl.add(GateKind::kOutput, "dout$out", {out_prev});
  nl.seal();
  return nl;
}

Netlist xor_cipher(const std::string& name, int width, int rounds,
                   std::uint64_t seed) {
  SplitMix64 rng(seed);
  Netlist nl(name);
  std::vector<GateId> block(width), key(width);
  for (int i = 0; i < width; ++i) {
    block[i] = nl.add(GateKind::kInput, "pt" + std::to_string(i));
  }
  for (int i = 0; i < width; ++i) {
    key[i] = nl.add(GateKind::kInput, "k" + std::to_string(i));
  }
  std::vector<GateId> cur = block;
  for (int r = 0; r < rounds; ++r) {
    std::vector<GateId> nxt(width);
    for (int i = 0; i < width; ++i) {
      // S-box-ish: nonlinear mix of two neighbours and a key bit.
      const GateId n1 = cur[(i + 1) % width];
      const GateId n2 = cur[(i + 5 + r) % width];
      const GateId nonlin = nl.add(GateKind::kAnd, {n1, n2});
      const GateId mixed = nl.add(GateKind::kXor, {cur[i], nonlin});
      nxt[i] = nl.add(GateKind::kXor, {mixed, key[(i + r) % width]});
    }
    // Permutation: i -> i*stride + r with stride coprime to the width so
    // the mapping is a true bijection (no wires dropped or duplicated).
    int stride;
    do {
      stride = 1 + static_cast<int>(
                       rng.below(static_cast<std::uint64_t>(width - 1)));
    } while (std::gcd(stride, width) != 1);
    std::vector<GateId> perm(width);
    for (int i = 0; i < width; ++i) perm[i] = nxt[(i * stride + r) % width];
    cur = std::move(perm);
  }
  for (int i = 0; i < width; ++i) {
    nl.add(GateKind::kOutput, "ct" + std::to_string(i) + "$out", {cur[i]});
  }
  nl.seal();
  return nl;
}

Netlist comparator_tree(const std::string& name, int width, int count) {
  if (count < 2) throw std::invalid_argument("comparator_tree: count >= 2");
  Netlist nl(name);
  std::vector<std::vector<GateId>> words(count, std::vector<GateId>(width));
  for (int w = 0; w < count; ++w) {
    for (int b = 0; b < width; ++b) {
      words[w][b] = nl.add(GateKind::kInput,
                           "w" + std::to_string(w) + "_" + std::to_string(b));
    }
  }
  // a > b comparator (MSB-first ripple), then mux-select max and min.
  auto greater = [&](const std::vector<GateId>& a, const std::vector<GateId>& b) {
    GateId gt = kNullGate, eq = kNullGate;
    for (int i = width - 1; i >= 0; --i) {
      const GateId nb = nl.add(GateKind::kNot, {b[i]});
      const GateId a_gt_b = nl.add(GateKind::kAnd, {a[i], nb});
      const GateId a_eq_b = nl.add(GateKind::kXnor, {a[i], b[i]});
      if (gt == kNullGate) {
        gt = a_gt_b;
        eq = a_eq_b;
      } else {
        const GateId t = nl.add(GateKind::kAnd, {eq, a_gt_b});
        gt = nl.add(GateKind::kOr, {gt, t});
        eq = nl.add(GateKind::kAnd, {eq, a_eq_b});
      }
    }
    return gt;
  };
  auto select = [&](GateId sel, const std::vector<GateId>& when1,
                    const std::vector<GateId>& when0) {
    std::vector<GateId> out(width);
    for (int i = 0; i < width; ++i) {
      out[i] = nl.add(GateKind::kMux, {sel, when0[i], when1[i]});
    }
    return out;
  };
  // Tree reduction for max; chain for min over the max-losers is overkill —
  // compute min with a second tree.
  auto reduce = [&](bool want_max) {
    std::vector<std::vector<GateId>> layer = words;
    while (layer.size() > 1) {
      std::vector<std::vector<GateId>> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
        const GateId gt = greater(layer[i], layer[i + 1]);
        next.push_back(want_max ? select(gt, layer[i], layer[i + 1])
                                : select(gt, layer[i + 1], layer[i]));
      }
      if (layer.size() % 2) next.push_back(layer.back());
      layer = std::move(next);
    }
    return layer[0];
  };
  const auto maxw = reduce(true);
  const auto minw = reduce(false);
  for (int i = 0; i < width; ++i) {
    nl.add(GateKind::kOutput, "max" + std::to_string(i) + "$out", {maxw[i]});
    nl.add(GateKind::kOutput, "min" + std::to_string(i) + "$out", {minw[i]});
  }
  nl.seal();
  return nl;
}

Netlist alu_datapath(const std::string& name, int width, std::uint64_t seed) {
  SplitMix64 rng(seed);
  (void)rng;
  Netlist nl(name);
  std::vector<GateId> a(width), b(width);
  for (int i = 0; i < width; ++i) a[i] = nl.add(GateKind::kInput, "ra" + std::to_string(i));
  for (int i = 0; i < width; ++i) b[i] = nl.add(GateKind::kInput, "rb" + std::to_string(i));
  const GateId op0 = nl.add(GateKind::kInput, "op0");
  const GateId op1 = nl.add(GateKind::kInput, "op1");

  // Operand registers.
  std::vector<GateId> ra(width), rb(width);
  for (int i = 0; i < width; ++i) ra[i] = nl.add(GateKind::kDff, {a[i]});
  for (int i = 0; i < width; ++i) rb[i] = nl.add(GateKind::kDff, {b[i]});

  // ADD (ripple), AND, OR, XOR lanes, 4:1 mux via two mux levels.
  std::vector<GateId> add(width), andl(width), orl(width), xorl(width);
  GateId carry = nl.add(GateKind::kConst0, "c0");
  for (int i = 0; i < width; ++i) {
    auto [s, c] = full_adder(nl, ra[i], rb[i], carry);
    add[i] = s;
    carry = c;
    andl[i] = nl.add(GateKind::kAnd, {ra[i], rb[i]});
    orl[i] = nl.add(GateKind::kOr, {ra[i], rb[i]});
    xorl[i] = nl.add(GateKind::kXor, {ra[i], rb[i]});
  }
  for (int i = 0; i < width; ++i) {
    const GateId m0 = nl.add(GateKind::kMux, {op0, add[i], andl[i]});
    const GateId m1 = nl.add(GateKind::kMux, {op0, orl[i], xorl[i]});
    const GateId res = nl.add(GateKind::kMux, {op1, m0, m1});
    const GateId rr = nl.add(GateKind::kDff, {res});
    nl.add(GateKind::kOutput, "res" + std::to_string(i) + "$out", {rr});
  }
  nl.add(GateKind::kOutput, "cout$out", {carry});
  nl.seal();
  return nl;
}

Netlist bus_controller(const std::string& name, int masters, int width,
                       std::uint64_t seed) {
  SplitMix64 rng(seed);
  (void)rng;
  Netlist nl(name);
  std::vector<GateId> req(masters);
  for (int m = 0; m < masters; ++m) {
    req[m] = nl.add(GateKind::kInput, "req" + std::to_string(m));
  }
  std::vector<std::vector<GateId>> data(masters, std::vector<GateId>(width));
  for (int m = 0; m < masters; ++m) {
    for (int b = 0; b < width; ++b) {
      data[m][b] = nl.add(GateKind::kInput,
                          "d" + std::to_string(m) + "_" + std::to_string(b));
    }
  }
  // Fixed-priority grant: grant[m] = req[m] & !req[0..m-1].
  std::vector<GateId> grant(masters);
  GateId any_above = kNullGate;
  for (int m = 0; m < masters; ++m) {
    if (m == 0) {
      grant[m] = req[m];
      any_above = req[m];
    } else {
      const GateId none = nl.add(GateKind::kNot, {any_above});
      grant[m] = nl.add(GateKind::kAnd, {req[m], none});
      any_above = nl.add(GateKind::kOr, {any_above, req[m]});
    }
    const GateId gff = nl.add(GateKind::kDff, {grant[m]});
    nl.add(GateKind::kOutput, "gnt" + std::to_string(m) + "$out", {gff});
  }
  // Data mux chain onto the bus: bus = OR over (grant[m] & data[m]).
  for (int b = 0; b < width; ++b) {
    std::vector<GateId> lanes;
    for (int m = 0; m < masters; ++m) {
      lanes.push_back(nl.add(GateKind::kAnd, {grant[m], data[m][b]}));
    }
    const GateId bus = lanes.size() > 1 ? nl.add(GateKind::kOr, std::move(lanes))
                                        : lanes[0];
    const GateId bff = nl.add(GateKind::kDff, {bus});
    nl.add(GateKind::kOutput, "bus" + std::to_string(b) + "$out", {bff});
  }
  nl.seal();
  return nl;
}

}  // namespace diac::gen
