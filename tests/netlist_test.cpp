#include <gtest/gtest.h>

#include <vector>

#include "netlist/netlist.hpp"

namespace diac {
namespace {

Netlist tiny_and() {
  Netlist nl("tiny");
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  const GateId g = nl.add(GateKind::kAnd, "g", {a, b});
  nl.add(GateKind::kOutput, "y$out", {g});
  nl.seal();
  return nl;
}

TEST(Netlist, BasicConstruction) {
  const Netlist nl = tiny_and();
  EXPECT_EQ(nl.size(), 4u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.logic_gate_count(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, FanoutMaintained) {
  const Netlist nl = tiny_and();
  const GateId a = nl.find("a");
  const GateId g = nl.find("g");
  ASSERT_NE(a, kNullGate);
  ASSERT_EQ(nl.gate(a).fanout.size(), 1u);
  EXPECT_EQ(nl.gate(a).fanout[0], g);
}

TEST(Netlist, FindMissingReturnsNull) {
  const Netlist nl = tiny_and();
  EXPECT_EQ(nl.find("nope"), kNullGate);
  EXPECT_FALSE(nl.contains("nope"));
  EXPECT_TRUE(nl.contains("g"));
}

TEST(Netlist, DuplicateNameRejected) {
  Netlist nl;
  nl.add(GateKind::kInput, "a");
  EXPECT_THROW(nl.add(GateKind::kInput, "a"), std::invalid_argument);
}

TEST(Netlist, OutOfRangeFaninRejected) {
  Netlist nl;
  EXPECT_THROW(nl.add(GateKind::kNot, "n", {42}), std::invalid_argument);
}

TEST(Netlist, AutoNamesAreUnique) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "pi");
  const GateId g1 = nl.add(GateKind::kNot, {a});
  const GateId g2 = nl.add(GateKind::kNot, {a});
  EXPECT_NE(nl.gate_name(g1), nl.gate_name(g2));
}

TEST(Netlist, SetFaninRewiresFanout) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  const GateId g = nl.add(GateKind::kNot, "g", {a});
  nl.seal();
  EXPECT_EQ(nl.gate(a).fanout.size(), 1u);
  nl.set_fanin(g, {b});
  EXPECT_FALSE(nl.sealed());
  nl.seal();
  EXPECT_EQ(nl.gate(a).fanout.size(), 0u);
  EXPECT_EQ(nl.gate(b).fanout.size(), 1u);
}

TEST(Netlist, ValidateCatchesBadArity) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  // AND with a single operand: arity violation.
  nl.add(GateKind::kAnd, "bad", {a});
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Netlist, ValidateCatchesMuxArity) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  nl.add(GateKind::kMux, "m", {a, b});  // needs 3
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Netlist, ValidateCatchesCombinationalCycle) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId g1 = nl.add(GateKind::kAnd, "g1", {a, a});
  const GateId g2 = nl.add(GateKind::kAnd, "g2", {g1, a});
  nl.set_fanin(g1, {a, g2});  // g1 -> g2 -> g1
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Netlist, DffBreaksCycles) {
  // A DFF feedback loop (counter bit) is legal.
  Netlist nl;
  const GateId ff = nl.add(GateKind::kDff, "ff", std::vector<GateId>{});
  const GateId inv = nl.add(GateKind::kNot, "inv", {ff});
  nl.set_fanin(ff, {inv});
  nl.add(GateKind::kOutput, "q$out", {ff});
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.dffs().size(), 1u);
}

TEST(Netlist, OutputCannotDrive) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId o = nl.add(GateKind::kOutput, "o", {a});
  nl.add(GateKind::kNot, "n", {o});
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Netlist, GateCountsExcludePorts) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId c = nl.add(GateKind::kConst1, "vdd");
  const GateId g = nl.add(GateKind::kAnd, "g", {a, c});
  const GateId ff = nl.add(GateKind::kDff, "ff", {g});
  nl.add(GateKind::kOutput, "y$out", {ff});
  EXPECT_EQ(nl.logic_gate_count(), 2u);           // AND + DFF
  EXPECT_EQ(nl.combinational_gate_count(), 1u);   // AND only
}

TEST(Netlist, ArityTable) {
  EXPECT_EQ(arity(GateKind::kInput), (std::pair<int, int>{0, 0}));
  EXPECT_EQ(arity(GateKind::kNot), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(arity(GateKind::kMux), (std::pair<int, int>{3, 3}));
  EXPECT_EQ(arity(GateKind::kAnd).first, 2);
  EXPECT_EQ(arity(GateKind::kAnd).second, -1);  // unbounded
}

TEST(Netlist, WideGatesAllowed) {
  Netlist nl;
  std::vector<GateId> ins;
  for (int i = 0; i < 6; ++i) {
    ins.push_back(nl.add(GateKind::kInput, "i" + std::to_string(i)));
  }
  const GateId g = nl.add(GateKind::kNand, "wide", ins);
  nl.add(GateKind::kOutput, "y$out", {g});
  EXPECT_NO_THROW(nl.seal());
  EXPECT_EQ(nl.gate(g).fanin_count(), 6);
}

TEST(Netlist, AllIdsDense) {
  const Netlist nl = tiny_and();
  const auto ids = nl.all_ids();
  ASSERT_EQ(ids.size(), nl.size());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(Netlist, GateAccessorBoundsChecked) {
  const Netlist nl = tiny_and();
  EXPECT_THROW(nl.gate(999), std::out_of_range);
  EXPECT_THROW(nl.kind(999), std::out_of_range);
  EXPECT_THROW(nl.fanin(999), std::out_of_range);
  EXPECT_THROW(nl.gate_name(999), std::out_of_range);
}

TEST(Netlist, FanoutNeedsSeal) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId n = nl.add(GateKind::kNot, "n", {a});
  // The building accessors work before seal(); gate() and fanout() do not.
  EXPECT_EQ(nl.kind(n), GateKind::kNot);
  EXPECT_EQ(nl.gate_name(n), "n");
  ASSERT_EQ(nl.fanin(n).size(), 1u);
  EXPECT_THROW(nl.gate(a), std::logic_error);
  EXPECT_THROW(nl.fanout(a), std::logic_error);
  EXPECT_THROW(nl.fanin_offsets(), std::logic_error);
  nl.seal();
  ASSERT_EQ(nl.fanout(a).size(), 1u);
  nl.add(GateKind::kOutput, "y", {n});  // any change unseals
  EXPECT_FALSE(nl.sealed());
  EXPECT_THROW(nl.fanout(a), std::logic_error);
  nl.seal();
  EXPECT_EQ(nl.fanout(n).size(), 1u);
}

TEST(Netlist, FanoutKeepsLinkOrder) {
  // Consumers appear in the order their fanin was last set, once per
  // fanin occurrence.
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  const GateId g1 = nl.add(GateKind::kAnd, "g1", {a, b});
  const GateId g2 = nl.add(GateKind::kAnd, "g2", {a, a});
  const GateId g3 = nl.add(GateKind::kOr, "g3", {b, a});
  nl.set_fanin(g1, {b, a});  // g1 re-linked last
  nl.seal();
  const auto fanout = [&nl](GateId id) {
    return std::vector<GateId>(nl.fanout(id).begin(), nl.fanout(id).end());
  };
  EXPECT_EQ(fanout(a), (std::vector<GateId>{g2, g2, g3, g1}));
  EXPECT_EQ(fanout(b), (std::vector<GateId>{g3, g1}));
}

TEST(Netlist, SealCompactsFaninIntoCsr) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  const GateId g = nl.add(GateKind::kAnd, "g", {a, b});
  const GateId h = nl.add(GateKind::kXor, "h", {a, b});
  nl.set_fanin(g, {a, b, h});  // grows: moves g's slice to the pool's end
  nl.set_fanin(h, {b, a});     // fits: rewritten in place
  nl.seal();
  const std::vector<std::uint32_t> offsets(nl.fanin_offsets().begin(),
                                           nl.fanin_offsets().end());
  EXPECT_EQ(offsets, (std::vector<std::uint32_t>{0, 0, 0, 3, 5}));
  const std::vector<GateId> pool(nl.fanin_pool().begin(),
                                 nl.fanin_pool().end());
  EXPECT_EQ(pool, (std::vector<GateId>{a, b, h, b, a}));
}

TEST(Netlist, NameIndexSurvivesGrowthAndSelfReference) {
  Netlist nl;
  for (int i = 0; i < 5000; ++i) {
    nl.add(GateKind::kInput, "in" + std::to_string(i));
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(nl.find("in" + std::to_string(i)), static_cast<GateId>(i));
  }
  // A name that views the netlist's own name storage.
  const GateId id = nl.add(GateKind::kInput, nl.gate_name(4321).substr(2));
  EXPECT_EQ(nl.gate_name(id), "4321");
  EXPECT_EQ(nl.find("4321"), id);
  EXPECT_EQ(nl.find("in4"), 4u);
  EXPECT_THROW(nl.add(GateKind::kInput, nl.gate_name(7)), std::invalid_argument);
}

}  // namespace
}  // namespace diac
