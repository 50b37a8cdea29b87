#include "fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "bench_circuits/paper_examples.h"

namespace fsct {
namespace {

bool contains(const std::vector<Fault>& fs, const Fault& f) {
  return std::find(fs.begin(), fs.end(), f) != fs.end();
}

TEST(Fault, NamesAreReadable) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Nand, {a, a}, "g");
  EXPECT_EQ(fault_name(nl, {a, -1, true}), "a s-a-1");
  EXPECT_EQ(fault_name(nl, {g, 0, false}), "g/0(a) s-a-0");
}

TEST(Fault, InjectionConversion) {
  const Fault f{3, 1, true};
  const Injection i = to_injection(f);
  EXPECT_EQ(i.node, 3u);
  EXPECT_EQ(i.pin, 1);
  EXPECT_EQ(i.value, Val::One);
  // Lane 70 of a 256-lane engine: word 1, bit 6, and no other lane.
  const WideInjection<4> w = to_wide_injection<4>(f, 70);
  EXPECT_EQ(w.node, 3u);
  EXPECT_EQ(w.pin, 1);
  EXPECT_EQ(w.value, Val::One);
  EXPECT_EQ(w.mask[0], 0u);
  EXPECT_EQ(w.mask[1], 1ull << 6);
  EXPECT_EQ(w.mask[2] | w.mask[3], 0u);
}

TEST(Fault, UniverseHasStemFaultsEverywhere) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, {a}, "g");
  nl.mark_output(g);
  const auto fs = all_faults(nl);
  EXPECT_TRUE(contains(fs, {a, -1, false}));
  EXPECT_TRUE(contains(fs, {a, -1, true}));
  EXPECT_TRUE(contains(fs, {g, -1, false}));
  EXPECT_TRUE(contains(fs, {g, -1, true}));
  // single-fanout driver: no branch faults
  EXPECT_FALSE(contains(fs, {g, 0, false}));
}

TEST(Fault, UniverseHasBranchFaultsOnFanoutStems) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::Not, {a}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Buf, {a}, "g2");
  nl.mark_output(g1);
  nl.mark_output(g2);
  const auto fs = all_faults(nl);
  EXPECT_TRUE(contains(fs, {g1, 0, false}));
  EXPECT_TRUE(contains(fs, {g2, 0, true}));
}

TEST(Fault, PoConnectionCountsAsFanout) {
  // a drives g and is also a PO: the pin of g is a branch.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, {a}, "g");
  nl.mark_output(a);
  nl.mark_output(g);
  const auto fs = all_faults(nl);
  EXPECT_TRUE(contains(fs, {g, 0, false}));
}

TEST(Fault, CollapseAndGate) {
  // AND: input s-a-0 == output s-a-0; the class keeps one representative.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, {a, b}, "g");
  nl.mark_output(g);
  const auto fs = collapsed_fault_list(nl);
  // Uncollapsed: a0,a1,b0,b1,g0,g1 = 6; {a0,b0,g0} merge -> 4.
  EXPECT_EQ(fs.size(), 4u);
  EXPECT_TRUE(contains(fs, {a, -1, false}));   // representative of the class
  EXPECT_FALSE(contains(fs, {g, -1, false}));  // merged away
  EXPECT_TRUE(contains(fs, {g, -1, true}));
}

TEST(Fault, CollapseNotChain) {
  // a -> NOT g1 -> NOT g2: a0==g1_1==g2_0, a1==g1_0==g2_1 -> 2 classes.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::Not, {a}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Not, {g1}, "g2");
  nl.mark_output(g2);
  const auto fs = collapsed_fault_list(nl);
  EXPECT_EQ(fs.size(), 2u);
}

TEST(Fault, CollapseNandGate) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::Nand, {a, b}, "g");
  nl.mark_output(g);
  const auto fs = collapsed_fault_list(nl);
  // {a0, b0, g1} merge: 6 - 2 = 4.
  EXPECT_EQ(fs.size(), 4u);
  EXPECT_FALSE(contains(fs, {g, -1, true}));
  EXPECT_TRUE(contains(fs, {g, -1, false}));
}

TEST(Fault, BranchFaultsDoNotCollapseAcrossFanout) {
  // a fans out to g1 (AND with b) and g2 (BUF). The branch fault g1/0 s-a-0
  // collapses with g1's output, but NOT with a's stem.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(GateType::And, {a, b}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Buf, {a}, "g2");
  nl.mark_output(g1);
  nl.mark_output(g2);
  const auto fs = collapsed_fault_list(nl);
  EXPECT_TRUE(contains(fs, {a, -1, false}));  // stem survives independently
  // The class {g1/0 s-a-0, g1 s-a-0, b s-a-0} (b is a single-fanout driver
  // of the other AND input) keeps exactly one representative.
  const int reps = contains(fs, {g1, 0, false}) +
                   contains(fs, {g1, -1, false}) +
                   contains(fs, {b, -1, false});
  EXPECT_EQ(reps, 1);
}

TEST(Fault, CollapseIsDeterministicAndSorted) {
  const Netlist nl = iscas_s27();
  const auto f1 = collapsed_fault_list(nl);
  const auto f2 = collapsed_fault_list(nl);
  EXPECT_EQ(f1, f2);
  EXPECT_TRUE(std::is_sorted(f1.begin(), f1.end()));
}

TEST(Fault, S27CollapsedSmallerThanUniverse) {
  const Netlist nl = iscas_s27();
  const auto all = all_faults(nl);
  const auto col = collapsed_fault_list(nl);
  EXPECT_LT(col.size(), all.size());
  EXPECT_GT(col.size(), all.size() / 3);
}

}  // namespace
}  // namespace fsct
