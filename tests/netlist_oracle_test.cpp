// The flat netlist store against the array-of-structs store it replaced
// (tests/oracle/reference_netlist.*):
//  - random add / set_fanin sequences (forward references, re-links,
//    repeated fanins, auto-name collisions) applied to both must give the
//    same kinds, names, fanin lists and fanout lists in the same order;
//  - the structure digest (kind, name, fanin and fanout order per gate) of
//    every suite circuit, reader fixture, writer round trip and transform
//    output, and the suite's canonical_fingerprint digests, are pinned to
//    the values the AoS store produced.  The generators, readers and
//    transforms build into `Netlist` directly, so the pinned digests are
//    how their op sequences are checked against the AoS behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "diac/codegen.hpp"
#include "diac/synthesizer.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/blif_format.hpp"
#include "netlist/fingerprint.hpp"
#include "netlist/generators.hpp"
#include "netlist/suite.hpp"
#include "netlist/transforms.hpp"
#include "netlist/verilog_format.hpp"
#include "oracle/reference_netlist.hpp"
#include "util/hash128.hpp"
#include "util/rng.hpp"

namespace diac {
namespace {

// Structure digest: every gate in id order with its kind, name, fanin
// ids and fanout ids in stored order.
std::string structure_digest(const Netlist& nl) {
  Fnv128 h;
  const std::uint64_t n = nl.size();
  h.update(&n, sizeof n);
  for (GateId id = 0; id < nl.size(); ++id) {
    const Gate g = nl.gate(id);
    h.update_token(to_string(g.kind));
    h.update_token(g.name);
    for (const std::span<const GateId> list : {g.fanin, g.fanout}) {
      const std::uint64_t k = list.size();
      h.update(&k, sizeof k);
      h.update(list.data(), list.size_bytes());
    }
  }
  return hash_hex(h.digest());
}

constexpr const char* kS27Like = R"(
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
G17 = NOT(G11)
)";

constexpr const char* kAllFunctions = R"(
INPUT(a)
INPUT(b)
INPUT(s)
OUTPUT(z)
OUTPUT(w2)
w1 = BUF(a)
w2 = NOT(a)
w3 = AND(a, b)
w4 = NAND(a, w1)
w5 = OR(a, b, w4)
w6 = NOR(a, b)
w7 = XOR(a, w6)
w8 = XNOR(a, b)
w9 = MUX(s, w3, w5)
w10 = DFF(w9)
k0 = CONST0()
k1 = CONST1()
w11 = AND(w8, k1, k0)
z = XOR(w10, w7, w11)
)";

constexpr const char* kShuffled = R"(
OUTPUT(y)
g2 = OR(g1, b)
n2 = NOT(d1)
d2 = DFF(n2)
g1 = XOR(d1, d2)
INPUT(b)
y = BUF(g2)
n1 = AND(a, d2)
INPUT(a)
d1 = DFF(n1)
)";

constexpr const char* kBlif = R"(
.model small
.inputs a b c
.outputs y z k
.names a b w1
11 1
.names w1 q y
10 1
01 1
.names a c z
1- 0
-1 0
.names k
1
.latch y q 0
.end
)";

constexpr const char* kVerilog = R"(
module forms (
  input wire clk,
  input wire s,
  input wire a,
  input wire b,
  output wire y
);
  wire c0; wire c1; wire nb; wire andw; wire nandw; wire orw; wire norw;
  wire xorw; wire xnorw; wire muxw; reg q;
  assign c0 = 1'b0;
  assign c1 = 1'b1;
  assign nb = ~a;
  assign andw = a & b & c1;
  assign nandw = ~(a & b);
  assign orw = a | b | c0;
  assign norw = ~(nb | b);
  assign xorw = a ^ b;
  assign xnorw = ~(a ^ norw);
  assign muxw = s ? andw : xnorw;
  always @(posedge clk) q <= xorw;
  assign y = muxw ^ q ^ nandw ^ orw;
endmodule
)";

// Every reader fixture (forward references included), the writers'
// round trips, and the four transforms over a few of them.
std::vector<std::pair<std::string, Netlist>> fixture_cases() {
  static const CellLibrary lib = CellLibrary::nominal_45nm();
  std::vector<std::pair<std::string, Netlist>> cases;
  cases.emplace_back("bench/s27like", parse_bench(kS27Like, "s27like"));
  cases.emplace_back("bench/functions",
                     parse_bench(kAllFunctions, "fn"));
  cases.emplace_back("bench/shuffled", parse_bench(kShuffled, "shf"));
  cases.emplace_back(
      "bench/s1238",
      parse_bench(to_bench_string(build_benchmark("s1238")), "s1238"));
  cases.emplace_back("blif/small", parse_blif(kBlif));
  cases.emplace_back(
      "blif/alu",
      parse_blif(to_blif_string(gen::alu_datapath("alu", 4, 3))));
  cases.emplace_back("blif/b13",
                     parse_blif(to_blif_string(build_benchmark("b13"))));
  cases.emplace_back("verilog/forms",
                     parse_structural_verilog(kVerilog).netlist);
  {
    const Netlist nl = build_benchmark("s27");
    const SynthesisResult r =
        DiacSynthesizer(nl, lib).synthesize_scheme(Scheme::kDiac);
    cases.emplace_back("verilog/s27",
                       parse_structural_verilog(generate_verilog(r.design))
                           .netlist);
  }
  const std::size_t readers = cases.size();
  for (std::size_t i = 0; i < readers; ++i) {
    const std::string name = cases[i].first;
    const Netlist src = cases[i].second;
    cases.emplace_back(name + "/sweep", sweep_dead_gates(src));
    cases.emplace_back(name + "/constants", propagate_constants(src));
    cases.emplace_back(name + "/buffers", elide_buffers(src));
    cases.emplace_back(name + "/cleanup", cleanup(src));
  }
  for (const char* c : {"s1238", "b13", "s349"}) {
    const Netlist src = build_benchmark(c);
    cases.emplace_back(std::string("suite/") + c + "/cleanup", cleanup(src));
  }
  // The largest suite circuit through each reader: the BENCH and BLIF
  // writers' text and the DIAC design's emitted Verilog.
  {
    const Netlist big = build_benchmark("s38417");
    cases.emplace_back("bench/s38417",
                       parse_bench(to_bench_string(big), "s38417"));
    cases.emplace_back("blif/s38417", parse_blif(to_blif_string(big)));
    const SynthesisResult r =
        DiacSynthesizer(big, lib).synthesize_scheme(Scheme::kDiac);
    cases.emplace_back(
        "verilog/s38417",
        parse_structural_verilog(generate_verilog(r.design)).netlist);
  }
  return cases;
}

// --- random op sequences against the reference ---------------------------

void expect_same(const Netlist& nl, const ReferenceNetlist& ref,
                 const std::string& what) {
  ASSERT_EQ(nl.size(), ref.size()) << what;
  for (GateId id = 0; id < nl.size(); ++id) {
    const Gate g = nl.gate(id);
    const ReferenceGate& r = ref.gate(id);
    ASSERT_EQ(g.kind, r.kind) << what << " gate " << id;
    ASSERT_EQ(g.name, r.name) << what << " gate " << id;
    ASSERT_EQ(std::vector<GateId>(g.fanin.begin(), g.fanin.end()), r.fanin)
        << what << " fanin of " << r.name;
    ASSERT_EQ(std::vector<GateId>(g.fanout.begin(), g.fanout.end()), r.fanout)
        << what << " fanout of " << r.name;
    ASSERT_EQ(nl.find(r.name), id) << what;
  }
}

// Applies one seeded sequence of valid building ops to both stores.  A
// random rank per gate keeps the combinational graph acyclic: fanins come
// from lower ranks, except for DFFs, which may read anything.  Placeholder
// gates are added without fanin and wired later (the readers' forward
// references); re-links rewire existing gates (the FSM state loop and the
// transforms).
class OpSequence {
 public:
  explicit OpSequence(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) step();
    for (GateId id : placeholders_) wire(id);  // every forward ref resolved
    placeholders_.clear();
  }

  Netlist nl;
  ReferenceNetlist ref;

 private:
  void step() {
    const double x = rng_.uniform(0.0, 1.0);
    if (nl.size() < 4 || x < 0.1) {
      add(rng_.chance(0.8) ? GateKind::kInput : GateKind::kConst1, true);
    } else if (x < 0.55) {
      add(kLogic[rng_.below(std::size(kLogic))], true);
    } else if (x < 0.7) {
      placeholders_.push_back(
          add(kLogic[rng_.below(std::size(kLogic))], false));
    } else if (x < 0.85 && !relinkable_.empty()) {
      wire(relinkable_[rng_.below(relinkable_.size())]);
    } else if (x < 0.9) {
      add(GateKind::kOutput, true);
    } else {
      // A user name shaped like the next auto name forces the '_' suffix.
      const std::string taken = std::string(to_string(GateKind::kNand)) +
                                "_" + std::to_string(nl.size() + 1);
      if (!nl.contains(taken)) {
        name_next_ = taken;
        add(GateKind::kNand, true);
      }
      add(GateKind::kNand, true);
    }
  }

  GateId add(GateKind kind, bool wired) {
    rank_.push_back(kind == GateKind::kInput || kind == GateKind::kConst1
                        ? 0.0
                        : rng_.uniform(0.0, 1.0));
    std::vector<GateId> fanin;
    if (wired) fanin = pick_fanin(kind, rank_.back());
    GateId id;
    if (!name_next_.empty() || rng_.chance(0.5)) {
      const std::string name =
          name_next_.empty() ? "n" + std::to_string(nl.size()) : name_next_;
      name_next_.clear();
      id = nl.add(kind, name, fanin);
      EXPECT_EQ(ref.add(kind, name, fanin), id);
    } else {
      id = nl.add(kind, fanin);
      EXPECT_EQ(ref.add(kind, fanin), id);
    }
    kind_.push_back(kind);
    if (kind != GateKind::kInput && kind != GateKind::kConst1) {
      relinkable_.push_back(id);
    }
    return id;
  }

  void wire(GateId id) {
    const std::vector<GateId> fanin = pick_fanin(kind_[id], rank_[id]);
    nl.set_fanin(id, fanin);
    ref.set_fanin(id, fanin);
  }

  std::vector<GateId> pick_fanin(GateKind kind, double rank) {
    std::vector<GateId> sources;
    for (GateId id = 0; id < kind_.size(); ++id) {
      if (kind_[id] == GateKind::kOutput) continue;
      if (kind == GateKind::kDff || rank_[id] < rank) sources.push_back(id);
    }
    if (sources.empty()) sources.push_back(0);  // the first gate is an input
    const auto [lo, hi] = arity(kind);
    const int width = hi >= 0 ? hi : lo + static_cast<int>(rng_.below(3));
    std::vector<GateId> fanin;
    for (int i = 0; i < width; ++i) {
      // Repeat the previous operand now and then (AND(a, a) is legal).
      fanin.push_back(!fanin.empty() && rng_.chance(0.1)
                          ? fanin.back()
                          : sources[rng_.below(sources.size())]);
    }
    return fanin;
  }

  static constexpr GateKind kLogic[] = {
      GateKind::kAnd, GateKind::kNand, GateKind::kOr,  GateKind::kNor,
      GateKind::kXor, GateKind::kXnor, GateKind::kNot, GateKind::kBuf,
      GateKind::kMux, GateKind::kDff};

  SplitMix64 rng_;
  std::vector<double> rank_;
  std::vector<GateKind> kind_;
  std::vector<GateId> placeholders_;
  std::vector<GateId> relinkable_;
  std::string name_next_;
};

TEST(NetlistOracle, RandomOpSequencesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    OpSequence ops(seed);
    // Three rounds: build, seal, then modify a sealed netlist and reseal.
    for (int round = 0; round < 3; ++round) {
      ops.run(150);
      ops.nl.seal();
      expect_same(ops.nl, ops.ref,
                  "seed " + std::to_string(seed) + " round " +
                      std::to_string(round));
    }
  }
}

// --- pinned digests ----------------------------------------------------------

struct SuiteDigest {
  const char* circuit;
  const char* structure;
  const char* fingerprint;  // canonical_fingerprint
};

constexpr SuiteDigest kSuite[] = {
    {"s27", "9807267ad71ad93580aed51d37b37212", "fd2fcbacf3ca66eeeed509a5d2a7414a"},
    {"s208", "c33c6567e7d1222712a6636ad2dacbb9", "97ad0d326e857db42292fc1ac3e5053e"},
    {"s344", "56345790d8f2301634c85a50a19afaaf", "9a64259a28007cc7b6e54b8bdf521857"},
    {"s349", "d35d2b917b529102f606a3b312973932", "9ba93315d6a2f4d176ac2cb31f23d30d"},
    {"s382", "691f7bd07db8bd3e9d605ebb560904a1", "8e894f8ec7a307ff6f4afc760feb13f7"},
    {"s386", "64eef2ffb0d616d77a8819d1b0967039", "015d1c2a8faf3511f026882b07a1676b"},
    {"s510", "ab10f14b5feaf9da833e6afcae96113c", "5be7e02ac72379af395562a74fe52527"},
    {"s820", "17fb1971ec446978854c6fd678168640", "b40ab3af89849001229d150d8c044b39"},
    {"s953", "2e40a91934ca26ae9ce14c6dcdaae0ac", "14623d5296971997f5d3c4776e2e2c31"},
    {"s1238", "2668c5d72f3c891575da04ff20f15013", "27f2d0465d08700c3e5c1788865cbe27"},
    {"s13207", "9bf1c4f1a82e88626730d56331f59096", "e4e7809d2d7037ac6de1e15aa5edc592"},
    {"s38417", "b00ec2f9f4bff5c16af983da483ebd16", "2292922746a0f190d4798be7615a818f"},
    {"b02", "3def769d7ba950ece9afab177aa29803", "57dd96e86e5b3465f0d0ceb0e2cb96a9"},
    {"b04", "03ede5ac8b94488a4f04e20e3453f81d", "eedf29060342f288fade08dbd7325313"},
    {"b09", "45fe2299ed7fae84cdf78cd9f524a26f", "e2454f4c53c96bb94c281f490131537e"},
    {"b10", "d52effba2e988380c18f7c5e4019e033", "a5ff313db20616dc667d0268caa734d7"},
    {"b11", "a6d82e6cebf00e21f5098434a69e9193", "a5e0d7aa004fcf471e468304e2281429"},
    {"b12", "8a70eb9b4f637fdd88e1932b643352a5", "66eb5d3a408153d1df9d4262817f0361"},
    {"b13", "3cba5df1b1edb6df4ea8f3739476dabd", "ba3f4bcf81588d5e0391cee0e520fb98"},
    {"b14", "06742b31f1bf2ffe1199366407770331", "cd9218d99e2b4ca43408cbb51a062871"},
    {"bigkey", "ecdaf122efcfca2f7ba2d3a8c7e3759e", "f8a99a9592fb32d088f35fdf39aa86f3"},
    {"dsip", "5cb86b68780f726529e2e095a94dd747", "f89f8a1ca6767c37f38c4b1514e7ad18"},
    {"des_core", "8cd2a2bf156f45184a0fa33175f1f763", "45a5de9a1d81903b729e339db7d455cd"},
    {"sbc", "ff4cb11b31b3470d35b6ad66afb3b991", "a812f05a45dd304ca0a59257a9164dab"},
};

TEST(NetlistOracle, SuiteStructureAndFingerprintsArePinned) {
  ASSERT_EQ(std::size(kSuite), benchmark_suite().size());
  std::size_t i = 0;
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const SuiteDigest& want = kSuite[i++];
    ASSERT_EQ(spec.name, want.circuit);
    const Netlist nl = build_benchmark(spec);
    EXPECT_EQ(structure_digest(nl), want.structure) << spec.name;
    EXPECT_EQ(hash_hex(canonical_fingerprint(nl)), want.fingerprint)
        << spec.name;
  }
}

const std::map<std::string, std::string>& pinned_fixtures() {
  static const std::map<std::string, std::string> pinned = {
    {"bench/s27like", "56cceb3eea27ecc584a93358012e0924"},
    {"bench/functions", "851d87b725b1de3dea583655d5fd3721"},
    {"bench/shuffled", "6e2b2516e5c64d101e42d4d7b8b17f07"},
    {"bench/s1238", "25c9a80e7858929d0051d5e1cd16db2d"},
    {"blif/small", "1a72e912e5bb95cdfa4acdcde7308e74"},
    {"blif/alu", "fb7ddc20f4fcb03910dcd6c2ab63908d"},
    {"blif/b13", "a2bb8cb86d4a671d568e896e9c05ae09"},
    {"verilog/forms", "ceb16bc7203842a3d93a5d60b7b437c3"},
    {"verilog/s27", "74bedf8c392e1bc3c3c882aac1a32790"},
    {"bench/s27like/sweep", "56cceb3eea27ecc584a93358012e0924"},
    {"bench/s27like/constants", "56cceb3eea27ecc584a93358012e0924"},
    {"bench/s27like/buffers", "56cceb3eea27ecc584a93358012e0924"},
    {"bench/s27like/cleanup", "56cceb3eea27ecc584a93358012e0924"},
    {"bench/functions/sweep", "851d87b725b1de3dea583655d5fd3721"},
    {"bench/functions/constants", "88144a337011bef7a2122f0340f01f22"},
    {"bench/functions/buffers", "b14aba96211653cf427ddeca25f077bb"},
    {"bench/functions/cleanup", "6d5ed3d6cb3a675c9073b806df642ccb"},
    {"bench/shuffled/sweep", "6e2b2516e5c64d101e42d4d7b8b17f07"},
    {"bench/shuffled/constants", "6e2b2516e5c64d101e42d4d7b8b17f07"},
    {"bench/shuffled/buffers", "1d9abffea2da4c8824fed772593a117f"},
    {"bench/shuffled/cleanup", "1d9abffea2da4c8824fed772593a117f"},
    {"bench/s1238/sweep", "25c9a80e7858929d0051d5e1cd16db2d"},
    {"bench/s1238/constants", "25c9a80e7858929d0051d5e1cd16db2d"},
    {"bench/s1238/buffers", "25c9a80e7858929d0051d5e1cd16db2d"},
    {"bench/s1238/cleanup", "25c9a80e7858929d0051d5e1cd16db2d"},
    {"blif/small/sweep", "1a72e912e5bb95cdfa4acdcde7308e74"},
    {"blif/small/constants", "ad5880e3e47814037dcde85354a76281"},
    {"blif/small/buffers", "97179ad370a016092a3de002fb42d0a1"},
    {"blif/small/cleanup", "d2d699fff3742c3b9c94ad4bf2fb7949"},
    {"blif/alu/sweep", "fb7ddc20f4fcb03910dcd6c2ab63908d"},
    {"blif/alu/constants", "189057342a8cdbf6e0e0afa454ce790e"},
    {"blif/alu/buffers", "ef08c98d103144b4c7d285d471e08ae5"},
    {"blif/alu/cleanup", "73725e8a7f8670d3a4869f1152a1e249"},
    {"blif/b13/sweep", "aace6bcbb0ae3b187fe3ab486477660d"},
    {"blif/b13/constants", "aace6bcbb0ae3b187fe3ab486477660d"},
    {"blif/b13/buffers", "0b6f3cc1444500784536c28227afbb7f"},
    {"blif/b13/cleanup", "0b6f3cc1444500784536c28227afbb7f"},
    {"verilog/forms/sweep", "ceb16bc7203842a3d93a5d60b7b437c3"},
    {"verilog/forms/constants", "d2c6a920ccf01afbc937f981055b9afe"},
    {"verilog/forms/buffers", "6ef7335f04f51876cfe808076e062a0b"},
    {"verilog/forms/cleanup", "3c3c77d35c5751a2fd07b5b5fdc63fea"},
    {"verilog/s27/sweep", "d8d9e00c5153e35515c4e81f61e7cb40"},
    {"verilog/s27/constants", "d8d9e00c5153e35515c4e81f61e7cb40"},
    {"verilog/s27/buffers", "abdf2953a597a431b2398b1824e60e59"},
    {"verilog/s27/cleanup", "abdf2953a597a431b2398b1824e60e59"},
    {"suite/s1238/cleanup", "2668c5d72f3c891575da04ff20f15013"},
    {"suite/b13/cleanup", "3cba5df1b1edb6df4ea8f3739476dabd"},
    {"suite/s349/cleanup", "d35d2b917b529102f606a3b312973932"},
    {"bench/s38417", "9c3daa8b8cf5d223d260fddc13f71627"},
    {"blif/s38417", "5a7305aa651fd7a1f48d02212fb137cd"},
    {"verilog/s38417", "1452aa90e3815ba76578cfdb7a681a2e"},
  };
  return pinned;
}

TEST(NetlistOracle, ReaderAndTransformStructureIsPinned) {
  const auto cases = fixture_cases();
  ASSERT_EQ(cases.size(), pinned_fixtures().size());
  for (const auto& [name, nl] : cases) {
    ASSERT_EQ(pinned_fixtures().count(name), 1u) << name;
    EXPECT_EQ(structure_digest(nl), pinned_fixtures().at(name)) << name;
  }
}

}  // namespace
}  // namespace diac
