#include "atpg/unroll.h"

#include <gtest/gtest.h>

#include "bench_circuits/paper_examples.h"
#include "netlist/levelize.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;

// small_pipeline() and its levelization, which an UnrollSpec points at.
struct Base {
  Netlist nl = small_pipeline();
  Levelizer lv{nl};
};

UnrollSpec basic_spec(const Levelizer& lv, int frames) {
  UnrollSpec s;
  s.base = &lv;
  s.frames = frames;
  s.controllable_state.assign(lv.netlist().dffs().size(), 1);
  s.observable_ff.assign(lv.netlist().dffs().size(), 1);
  return s;
}

TEST(Unroll, OneFrameShape) {
  const Base b;  // 3 PIs, 3 FFs, 2 gates
  const UnrolledModel m = unroll(basic_spec(b.lv, 1));
  EXPECT_EQ(m.frames(), 1);
  EXPECT_EQ(m.nl.validate(), "");
  // 3 state inputs + 3 PIs + 2 gates + 3 caps = 11 nodes.
  EXPECT_EQ(m.nl.size(), 11u);
  // Observations: 1 PO copy + 3 caps.
  EXPECT_EQ(m.observe.size(), 4u);
  EXPECT_EQ(m.init_state.size(), 3u);
  for (NodeId s : m.init_state) EXPECT_TRUE(m.controllable[s]);
}

TEST(Unroll, FramesChainThroughCaptureBuffers) {
  const Base b;
  const Netlist& nl = b.nl;
  const UnrolledModel m = unroll(basic_spec(b.lv, 3));
  const NodeId f2 = nl.find("f2");
  const std::size_t ffi = 1;  // f2 is the second DFF
  // Frame-2 Q of f2 must be frame-1 capture buffer.
  EXPECT_EQ(m.map[2][f2], m.cap[1][ffi]);
  EXPECT_EQ(m.map[1][f2], m.cap[0][ffi]);
  EXPECT_EQ(m.map[0][f2], m.init_state[ffi]);
}

TEST(Unroll, FixedPisBecomeSharedConstants) {
  const Base b;
  const Netlist& nl = b.nl;
  UnrollSpec s = basic_spec(b.lv, 2);
  s.fixed_pis = {{nl.find("c1"), Val::One}};
  const UnrolledModel m = unroll(s);
  const NodeId u0 = m.frame_pi[0][1];  // c1 is input index 1
  const NodeId u1 = m.frame_pi[1][1];
  EXPECT_EQ(u0, u1);
  EXPECT_EQ(m.nl.type(u0), GateType::Const1);
  EXPECT_FALSE(m.controllable[u0]);
}

TEST(Unroll, UncontrollableStateIsNotAssignable) {
  const Base b;
  const Netlist& nl = b.nl;
  UnrollSpec s = basic_spec(b.lv, 1);
  s.controllable_state.assign(nl.dffs().size(), 0);
  const UnrolledModel m = unroll(s);
  for (NodeId st : m.init_state) EXPECT_FALSE(m.controllable[st]);
}

TEST(Unroll, MapFaultGateFaultInEveryFrame) {
  const Base b;
  const Netlist& nl = b.nl;
  const UnrolledModel m = unroll(basic_spec(b.lv, 3));
  const Fault f{nl.find("g1"), -1, true};
  const auto sites = m.map_fault(f);
  ASSERT_EQ(sites.size(), 3u);
  for (int fr = 0; fr < 3; ++fr) {
    EXPECT_EQ(sites[static_cast<std::size_t>(fr)].node,
              m.map[static_cast<std::size_t>(fr)][nl.find("g1")]);
    EXPECT_EQ(sites[static_cast<std::size_t>(fr)].value, k1);
  }
}

TEST(Unroll, MapFaultDffOutputCoversInitAndCaps) {
  const Base b;
  const Netlist& nl = b.nl;
  const UnrolledModel m = unroll(basic_spec(b.lv, 2));
  const Fault f{nl.find("f1"), -1, false};
  const auto sites = m.map_fault(f);
  // init_state + 2 caps = 3 sites.
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].node, m.init_state[0]);
  EXPECT_EQ(sites[1].node, m.cap[0][0]);
  EXPECT_EQ(sites[2].node, m.cap[1][0]);
}

TEST(Unroll, MapFaultDffPinTargetsCaptureBuffers) {
  const Base b;
  const Netlist& nl = b.nl;
  const UnrolledModel m = unroll(basic_spec(b.lv, 2));
  const Fault f{nl.find("f3"), 0, true};
  const auto sites = m.map_fault(f);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].node, m.cap[0][2]);
  EXPECT_EQ(sites[0].pin, 0);
}

TEST(Unroll, MapFaultOnFixedPiDeduplicates) {
  const Base b;
  const Netlist& nl = b.nl;
  UnrollSpec s = basic_spec(b.lv, 3);
  s.fixed_pis = {{nl.find("c1"), Val::One}};
  const UnrolledModel m = unroll(s);
  const Fault f{nl.find("c1"), -1, false};
  const auto sites = m.map_fault(f);
  EXPECT_EQ(sites.size(), 1u);  // the shared constant node, once
}

TEST(Unroll, UnrolledCircuitSimulatesLikeSequential) {
  // Pair-simulate the fault-free unrolled pipeline and compare with the
  // sequential semantics by hand: f2@c1 = NAND(f1@1, c1@1).
  const Base b;
  UnrollSpec s = basic_spec(b.lv, 2);
  const UnrolledModel m = unroll(s);
  Levelizer lv(m.nl);
  PairSim sim(lv);
  sim.init({});
  // Set: f1 initial state 1, then pi@0 = 0 so f1@c0 = 0; c1 = 1 both frames.
  sim.set_source(m.init_state[0], k1);
  sim.set_source(m.frame_pi[0][0], k0);  // pi
  sim.set_source(m.frame_pi[0][1], k1);  // c1
  sim.set_source(m.frame_pi[1][1], k1);
  // Frame 0: g1 = NAND(f1=1, c1=1) = 0 -> cap f2@c0 = 0.
  EXPECT_EQ(sim.value(m.cap[0][1]).g, k0);
  // Frame 1: f1@1 = cap f1@c0 = pi@0 = 0; g1@1 = NAND(0,1) = 1.
  EXPECT_EQ(sim.value(m.cap[1][1]).g, k1);
}

TEST(Unroll, PrunedModelFoldsFrozenLogic) {
  // c2 fixed to 1 makes g2 = NOR(f2, 1) = 0 constant: with pruning rooted at
  // the PO side everything behind the frozen net folds away.
  const Base b;
  const Netlist& nl = b.nl;
  const Levelizer& lv = b.lv;
  std::vector<Val> values(nl.size(), Val::X);
  values[nl.find("c2")] = k1;
  CombSim csim(lv);
  csim.run(values);
  ASSERT_EQ(values[nl.find("g2")], k0);

  const Fault f{nl.find("g1"), -1, false};
  const auto cone = fault_forward_closure(lv, f.node);
  const std::vector<NodeId> roots{nl.find("f2"), f.node};
  const auto keep = compute_keep_mask(lv, values, cone, roots);
  EXPECT_TRUE(keep[nl.find("g1")]);
  EXPECT_TRUE(keep[nl.find("f1")]);
  EXPECT_FALSE(keep[nl.find("c2")]);  // frozen PI folds

  UnrollSpec s = basic_spec(b.lv, 2);
  s.fixed_pis = {{nl.find("c2"), Val::One}};
  s.keep = &keep;
  s.fold_values = &values;
  const UnrolledModel m = unroll(s);
  EXPECT_EQ(m.nl.validate(), "");
  // f3 was not kept: no capture buffers for it.
  EXPECT_EQ(m.cap[0][2], kNullNode);
  const auto sites = m.map_fault(f);
  EXPECT_EQ(sites.size(), 2u);
}

TEST(Unroll, BaseInputsInvertTheInputMaps) {
  const Base b;
  const UnrolledModel m = unroll(basic_spec(b.lv, 2));
  const std::pair<NodeId, Val> assignment[] = {{m.init_state[1], k1},
                                               {m.frame_pi[1][2], k0}};
  const SeqTest t = m.base_inputs(assignment);
  EXPECT_EQ(t.init_state, (std::vector<Val>{Val::X, k1, Val::X}));
  ASSERT_EQ(t.pi_frames.size(), 2u);
  EXPECT_EQ(t.pi_frames[0], std::vector<Val>(3, Val::X));
  EXPECT_EQ(t.pi_frames[1], (std::vector<Val>{Val::X, Val::X, k0}));
}

TEST(Unroll, BadSpecsThrow) {
  const Base b;
  const Netlist& nl = b.nl;
  UnrollSpec s;
  EXPECT_THROW(unroll(s), std::invalid_argument);
  s = basic_spec(b.lv, 0);
  EXPECT_THROW(unroll(s), std::invalid_argument);
  s = basic_spec(b.lv, 1);
  s.controllable_state.pop_back();
  EXPECT_THROW(unroll(s), std::invalid_argument);
  s = basic_spec(b.lv, 1);
  std::vector<char> keep(nl.size(), 1);
  s.keep = &keep;  // without fold_values
  EXPECT_THROW(unroll(s), std::invalid_argument);
}

}  // namespace
}  // namespace fsct
