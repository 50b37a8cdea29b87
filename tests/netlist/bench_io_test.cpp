#include "netlist/bench_io.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bench_circuits/paper_examples.h"

namespace fsct {
namespace {

TEST(BenchIo, ParsesS27) {
  const Netlist nl = iscas_s27();
  EXPECT_EQ(nl.inputs().size(), 4u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.dffs().size(), 3u);
  EXPECT_EQ(nl.num_gates(), 10u);
  EXPECT_EQ(nl.validate(), "");
}

TEST(BenchIo, RoundTripPreservesStructure) {
  const Netlist nl = iscas_s27();
  const std::string text = write_bench_string(nl);
  const Netlist nl2 = read_bench_string(text, "s27rt");
  EXPECT_EQ(nl2.inputs().size(), nl.inputs().size());
  EXPECT_EQ(nl2.outputs().size(), nl.outputs().size());
  EXPECT_EQ(nl2.dffs().size(), nl.dffs().size());
  EXPECT_EQ(nl2.num_gates(), nl.num_gates());
  // Connectivity by name.
  for (NodeId id = 0; id < nl.size(); ++id) {
    const NodeId id2 = nl2.find(nl.node_name(id));
    ASSERT_NE(id2, kNullNode) << nl.node_name(id);
    EXPECT_EQ(nl2.type(id2), nl.type(id));
    ASSERT_EQ(nl2.fanins(id2).size(), nl.fanins(id).size());
    for (std::size_t p = 0; p < nl.fanins(id).size(); ++p) {
      EXPECT_EQ(nl2.node_name(nl2.fanins(id2)[p]),
                nl.node_name(nl.fanins(id)[p]));
    }
  }
}

TEST(BenchIo, AcceptsCommentsAndBlankLines) {
  const Netlist nl = read_bench_string(
      "# header\n\nINPUT(a)\n  # indented comment\nOUTPUT(b)\nb = NOT(a)  # trail\n",
      "c");
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.type(nl.find("b")), GateType::Not);
}

TEST(BenchIo, ForwardReferencesResolve) {
  const Netlist nl = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\ny = AND(m, a)\nm = NOT(a)\n", "fwd");
  EXPECT_EQ(nl.fanins(nl.find("y"))[0], nl.find("m"));
}

TEST(BenchIo, DffForwardReferenceThroughCycleResolves) {
  const Netlist nl = read_bench_string(
      "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = NAND(q, a)\n", "loop");
  EXPECT_EQ(nl.validate(), "");
  EXPECT_EQ(nl.fanins(nl.find("q"))[0], nl.find("d"));
}

TEST(BenchIo, CaseInsensitiveKeywords) {
  const Netlist nl = read_bench_string(
      "input(a)\noutput(y)\ny = nand(a, a)\n", "ci");
  EXPECT_EQ(nl.type(nl.find("y")), GateType::Nand);
}

TEST(BenchIo, BuffAliasAccepted) {
  const Netlist nl =
      read_bench_string("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n", "b");
  EXPECT_EQ(nl.type(nl.find("y")), GateType::Buf);
}

TEST(BenchIo, UndefinedSignalFails) {
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = AND(a, ghost)\n", "x"),
               std::runtime_error);
}

TEST(BenchIo, UndefinedOutputFails) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(ghost)\n", "x"),
               std::runtime_error);
}

TEST(BenchIo, RedefinitionFails) {
  EXPECT_THROW(
      read_bench_string("INPUT(a)\ny = NOT(a)\ny = BUF(a)\n", "x"),
      std::runtime_error);
}

TEST(BenchIo, CombinationalCycleFails) {
  EXPECT_THROW(
      read_bench_string("INPUT(a)\nu = AND(a, v)\nv = AND(a, u)\n", "x"),
      std::runtime_error);
}

TEST(BenchIo, UnknownGateFails) {
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = FROB(a)\n", "x"),
               std::runtime_error);
}

/// One `g = <type>(i0, ..., i<n-1>)` gate over n fresh inputs.
std::string wide_gate_bench(const char* type, std::size_t n) {
  std::string text, args;
  for (std::size_t i = 0; i < n; ++i) {
    text += "INPUT(i" + std::to_string(i) + ")\n";
    args += (i ? ", i" : "i") + std::to_string(i);
  }
  return text + "OUTPUT(g)\ng = " + type + "(" + args + ")\n";
}

TEST(BenchIo, FaninBoundIsEnforced) {
  for (const char* type : {"AND", "XOR"}) {
    const Netlist nl = read_bench_string(wide_gate_bench(type, kMaxFanin), "w");
    EXPECT_EQ(nl.fanins(nl.find("g")).size(), kMaxFanin);
    try {
      read_bench_string(wide_gate_bench(type, kMaxFanin + 1), "w");
      FAIL() << "expected a bad fanin count for " << type;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("bad fanin count for " + std::string(type) + " g"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("65 fanins"), std::string::npos) << msg;
    }
  }
}

TEST(BenchIo, MuxAndConstParse) {
  const Netlist nl = read_bench_string(
      "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
      "z = CONST1()\ny = MUX(s, a, b)\n",
      "m");
  EXPECT_EQ(nl.type(nl.find("y")), GateType::Mux);
  EXPECT_EQ(nl.type(nl.find("z")), GateType::Const1);
}

TEST(BenchIo, MissingFileThrows) {
  EXPECT_THROW(read_bench_file("/nonexistent/path.bench"), std::runtime_error);
}

}  // namespace
}  // namespace fsct
