#include "netlist/netlist.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fsct {
namespace {

TEST(Netlist, AddInputAssignsIdsInOrder) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.type(a), GateType::Input);
}

TEST(Netlist, FindByName) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  EXPECT_EQ(nl.find("a"), a);
  EXPECT_EQ(nl.find("nope"), kNullNode);
}

TEST(Netlist, DuplicateNameThrows) {
  Netlist nl("t");
  nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), std::invalid_argument);
}

TEST(Netlist, EmptyNameThrows) {
  Netlist nl("t");
  EXPECT_THROW(nl.add_input(""), std::invalid_argument);
}

TEST(Netlist, GateArityChecked) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateType::Not, {a, a}, "n"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::Mux, {a, a}, "m"), std::invalid_argument);
  EXPECT_NO_THROW(nl.add_gate(GateType::And, {a}, "one_input_and"));
}

// A refused node leaves no trace: its name stays free, and the checks keep
// their order (a duplicate name is reported before a bad fanin count).
TEST(Netlist, RefusedNodeReleasesItsName) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateType::Not, {a, a}, "n"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::Buf, {a + 5}, "n"), std::invalid_argument);
  EXPECT_EQ(nl.find("n"), kNullNode);
  EXPECT_EQ(nl.size(), 1u);
  const NodeId n = nl.add_gate(GateType::Not, {a}, "n");
  EXPECT_EQ(nl.find("n"), n);
  try {
    nl.add_gate(GateType::Not, {a, a}, "a");
    FAIL() << "expected a duplicate-name error";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "duplicate node name: a");
  }
  EXPECT_EQ(nl.find("a"), a);
}

TEST(Netlist, AddGateRejectsSequentialTypes) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateType::Dff, {a}, "d"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::Input, {}, "i"), std::invalid_argument);
}

TEST(Netlist, DffTracksD) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_dff(a, "q");
  EXPECT_EQ(nl.type(q), GateType::Dff);
  EXPECT_EQ(nl.fanins(q)[0], a);
  EXPECT_EQ(nl.dffs().size(), 1u);
}

TEST(Netlist, FloatingDffValidatesOnlyWhenConnected) {
  Netlist nl("t");
  const NodeId q = nl.add_dff_floating("q");
  EXPECT_NE(nl.validate(), "");
  const NodeId a = nl.add_input("a");
  nl.set_fanin(q, 0, a);
  EXPECT_EQ(nl.validate(), "");
}

TEST(Netlist, MarkOutputIdempotent) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  nl.mark_output(a);
  nl.mark_output(a);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_TRUE(nl.is_output(a));
  nl.unmark_output(a);
  EXPECT_FALSE(nl.is_output(a));
}

TEST(Netlist, ReplaceFaninRewiresAllMatchingPins) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, {a, a}, "g");
  EXPECT_EQ(nl.replace_fanin(g, a, b), 2);
  EXPECT_EQ(nl.fanins(g)[0], b);
  EXPECT_EQ(nl.fanins(g)[1], b);
}

TEST(Netlist, InsertOnEdgeSplicesOnlyThatPin) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId c = nl.add_input("c");
  const NodeId g1 = nl.add_gate(GateType::Buf, {a}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Buf, {a}, "g2");
  const NodeId tp = nl.insert_on_edge(a, g1, 0, GateType::And, {c}, "tp");
  EXPECT_EQ(nl.fanins(g1)[0], tp);
  EXPECT_EQ(nl.fanins(g2)[0], a);  // other fanout untouched
  EXPECT_EQ(nl.fanins(tp)[0], a);
  EXPECT_EQ(nl.fanins(tp)[1], c);
}

TEST(Netlist, InsertOnEdgeRejectsWrongDriver) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::Buf, {a}, "g");
  EXPECT_THROW(nl.insert_on_edge(b, g, 0, GateType::And, {}, "tp"),
               std::invalid_argument);
}

TEST(Netlist, NumGatesCountsOnlyCombinational) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, {a}, "g");
  nl.add_dff(g, "q");
  nl.add_const(false, "c0");
  EXPECT_EQ(nl.num_gates(), 1u);
}

TEST(Netlist, ValidateDetectsCombinationalCycle) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_dff_floating("q");
  const NodeId g1 = nl.add_gate(GateType::And, {a, q}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Or, {g1, a}, "g2");
  nl.set_fanin(q, 0, g2);
  EXPECT_EQ(nl.validate(), "");  // loop through DFF is fine
  // Force a real combinational cycle.
  nl.set_fanin(g1, 1, g2);
  EXPECT_NE(nl.validate(), "");
}

TEST(Netlist, GateTypeNames) {
  EXPECT_EQ(gate_type_name(GateType::Nand), "NAND");
  EXPECT_EQ(gate_type_name(GateType::Dff), "DFF");
  EXPECT_TRUE(is_source(GateType::Const1));
  EXPECT_FALSE(is_source(GateType::Buf));
  EXPECT_TRUE(is_combinational(GateType::Xor));
  EXPECT_FALSE(is_combinational(GateType::Dff));
}

}  // namespace
}  // namespace fsct
