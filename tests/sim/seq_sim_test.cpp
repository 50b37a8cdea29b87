#include "sim/seq_sim.h"

#include <gtest/gtest.h>

#include "bench_circuits/paper_examples.h"
#include "netlist/bench_io.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;
constexpr Val kX = Val::X;

// Two-stage shift register: q1 <- a, q2 <- q1.
Netlist shift2() {
  Netlist nl("shift2");
  const NodeId a = nl.add_input("a");
  const NodeId q1 = nl.add_dff(a, "q1");
  nl.add_dff(q1, "q2");
  nl.mark_output(nl.find("q2"));
  return nl;
}

TEST(SeqSim, PowerUpStateIsX) {
  const Netlist nl = shift2();
  const Levelizer lv(nl);
  SeqSim sim(lv);
  EXPECT_EQ(sim.state()[0], kX);
  EXPECT_EQ(sim.state()[1], kX);
}

TEST(SeqSim, ShiftsValuesThroughRegisters) {
  const Netlist nl = shift2();
  const Levelizer lv(nl);
  SeqSim sim(lv);
  sim.reset(k0);
  const std::vector<Val> one{k1}, zero{k0};
  sim.step(one);
  EXPECT_EQ(sim.state()[0], k1);
  EXPECT_EQ(sim.state()[1], k0);
  sim.step(zero);
  EXPECT_EQ(sim.state()[0], k0);
  EXPECT_EQ(sim.state()[1], k1);
}

TEST(SeqSim, ValuesSampledBeforeClockEdge) {
  const Netlist nl = shift2();
  const Levelizer lv(nl);
  SeqSim sim(lv);
  sim.set_state(std::vector<Val>{k1, k0});
  const auto& v = sim.step(std::vector<Val>{k0});
  // Q values seen during the cycle are the pre-edge state.
  EXPECT_EQ(v[nl.find("q1")], k1);
  EXPECT_EQ(v[nl.find("q2")], k0);
}

TEST(SeqSim, PersistentInjectionActsEveryCycle) {
  const Netlist nl = shift2();
  const Levelizer lv(nl);
  SeqSim sim(lv);
  sim.reset(k0);
  const Injection inj[] = {{nl.find("q1"), -1, k1}};  // q1 output s-a-1
  sim.step(std::vector<Val>{k0}, inj);
  // q2 captured the stuck q1.
  EXPECT_EQ(sim.state()[1], k1);
  sim.step(std::vector<Val>{k0}, inj);
  EXPECT_EQ(sim.state()[1], k1);
}

TEST(SeqSim, SizeMismatchThrows) {
  const Netlist nl = shift2();
  const Levelizer lv(nl);
  SeqSim sim(lv);
  EXPECT_THROW(sim.step(std::vector<Val>{}), std::invalid_argument);
  EXPECT_THROW(sim.set_state(std::vector<Val>{k0}), std::invalid_argument);
}

TEST(SeqSim, S27MatchesHandComputedCycle) {
  const Netlist nl = iscas_s27();
  const Levelizer lv(nl);
  SeqSim sim(lv);
  sim.reset(k0);  // G5=G6=G7=0
  // PIs G0..G3 = 0.
  const auto& v = sim.step(std::vector<Val>{k0, k0, k0, k0});
  // Hand evaluation: G14=NOT(G0)=1, G8=AND(G14,G6)=0, G12=NOR(G1,G7)=1,
  // G15=OR(G12,G8)=1, G16=OR(G3,G8)=0, G9=NAND(G16,G15)=1,
  // G10=NOR(G14,G11): G11=NOR(G5,G9)=NOR(0,1)=0 -> G10=NOR(1,0)=0,
  // G13=NAND(G2,G12)=NAND(0,1)=1, G17=NOT(G11)=1.
  EXPECT_EQ(v[nl.find("G17")], k1);
  EXPECT_EQ(sim.state()[0], k0);  // G5 <- G10 = 0
  EXPECT_EQ(sim.state()[1], k0);  // G6 <- G11 = 0
  EXPECT_EQ(sim.state()[2], k1);  // G7 <- G13 = 1
}

}  // namespace
}  // namespace fsct
