// Coverage for the PODEM engine options: frontier cap and backtrack
// accounting.
#include <gtest/gtest.h>

#include "atpg/podem.h"
#include "atpg/unroll.h"
#include "bench_circuits/generator.h"
#include "fault/fault.h"
#include "netlist/levelize.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;

struct Hard {
  Netlist nl;
  Levelizer lv;
  std::vector<char> ctrl;
  Hard()
      : nl(make()), lv(nl), ctrl(nl.size(), 0) {
    for (NodeId pi : nl.inputs()) ctrl[pi] = 1;
  }
  static Netlist make() {
    RandomCircuitSpec spec;
    spec.num_gates = 2500;
    spec.num_ffs = 0;
    spec.num_pis = 24;
    spec.num_pos = 2;  // few observation points: deep hard cones
    spec.seed = 1234;
    return make_random_sequential(spec);
  }
};

TEST(PodemOptions, TinyFrontierCapStillDetectsEasyFaults) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, {a, b}, "g");
  const NodeId y = nl.add_gate(GateType::Not, {g}, "y");
  nl.mark_output(y);
  Levelizer lv(nl);
  std::vector<char> ctrl(nl.size(), 0);
  ctrl[a] = ctrl[b] = 1;
  AtpgOptions opt;
  opt.frontier_cap = 1;
  Podem podem(lv, ctrl, {y}, opt);
  const FaultSite s{g, -1, k0};
  EXPECT_EQ(podem.generate(std::span(&s, 1)).status, AtpgStatus::Detected);
}

TEST(PodemOptions, BacktrackCountReported) {
  // XOR tree where the first backtrace guess sometimes fails: backtracks > 0
  // for at least one target while everything still resolves.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId x1 = nl.add_gate(GateType::Xor, {a, b}, "x1");
  const NodeId g1 = nl.add_gate(GateType::And, {x1, c}, "g1");
  nl.mark_output(g1);
  Levelizer lv(nl);
  std::vector<char> ctrl(nl.size(), 0);
  ctrl[a] = ctrl[b] = ctrl[c] = 1;
  Podem podem(lv, ctrl, {g1});
  const auto faults = collapsed_fault_list(nl);
  for (const Fault& f : faults) {
    const FaultSite s{f.node, f.pin, f.stuck_one ? k1 : k0};
    const AtpgResult r = podem.generate(std::span(&s, 1));
    EXPECT_NE(r.status, AtpgStatus::Aborted) << fault_name(nl, f);
    EXPECT_GE(r.backtracks, 0);
    EXPECT_GE(r.decisions, 0);
  }
}

TEST(PodemOptions, ReusableAcrossFaults) {
  // One engine, many targets: internal scratch state must fully reset.
  Hard h;
  Podem podem(h.lv, h.ctrl, h.nl.outputs(), AtpgOptions{300});
  const auto faults = collapsed_fault_list(h.nl);
  const FaultSite s0{faults[0].node, faults[0].pin,
                     faults[0].stuck_one ? k1 : k0};
  const AtpgResult first = podem.generate(std::span(&s0, 1));
  for (int i = 0; i < 3; ++i) {
    const FaultSite sx{faults[10 + i].node, faults[10 + i].pin,
                       faults[10 + i].stuck_one ? k1 : k0};
    podem.generate(std::span(&sx, 1));
  }
  const AtpgResult again = podem.generate(std::span(&s0, 1));
  EXPECT_EQ(first.status, again.status);
  EXPECT_EQ(first.decisions, again.decisions);
  EXPECT_EQ(first.backtracks, again.backtracks);
}

}  // namespace
}  // namespace fsct
