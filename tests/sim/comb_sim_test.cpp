#include "sim/comb_sim.h"

#include <gtest/gtest.h>

#include <random>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "sim/soa_circuit.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;
constexpr Val kX = Val::X;

struct Fixture {
  Netlist nl;
  Levelizer lv;
  CombSim sim;
  explicit Fixture(Netlist n) : nl(std::move(n)), lv(nl), sim(lv) {}
};

TEST(CombSim, EvaluatesSimpleCone) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::Nand, {a, b}, "g");
  const NodeId y = nl.add_gate(GateType::Not, {g}, "y");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  v[b] = k1;
  f.sim.run(v);
  EXPECT_EQ(v[g], k0);
  EXPECT_EQ(v[y], k1);
}

TEST(CombSim, ConstantsForcedRegardlessOfCaller) {
  Netlist nl("c");
  const NodeId c1 = nl.add_const(true, "c1");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::And, {c1, a}, "g");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  v[c1] = k0;  // caller lies; run() overwrites
  f.sim.run(v);
  EXPECT_EQ(v[c1], k1);
  EXPECT_EQ(v[g], k1);
}

TEST(CombSim, OutputInjectionOverridesGate) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Buf, {a}, "g");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  const Injection inj[] = {{g, -1, k0}};
  f.sim.run(v, inj);
  EXPECT_EQ(v[g], k0);
}

TEST(CombSim, PinInjectionAffectsOnlyThatGate) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::Buf, {a}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Buf, {a}, "g2");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  const Injection inj[] = {{g1, 0, k0}};
  f.sim.run(v, inj);
  EXPECT_EQ(v[g1], k0);
  EXPECT_EQ(v[g2], k1);
  EXPECT_EQ(v[a], k1);  // the driver net itself is healthy
}

TEST(CombSim, SourceInjectionOnInput) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, {a}, "g");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  const Injection inj[] = {{a, -1, k0}};
  f.sim.run(v, inj);
  EXPECT_EQ(v[a], k0);
  EXPECT_EQ(v[g], k1);
}

TEST(CombSim, DValueReadsDffInput) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, {a}, "g");
  const NodeId q = nl.add_dff(g, "q");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k0;
  v[q] = kX;
  f.sim.run(v);
  EXPECT_EQ(f.sim.d_value(q, v), k1);
  const Injection inj[] = {{q, 0, k0}};
  EXPECT_EQ(f.sim.d_value(q, v, inj), k0);
}

// Property: one WideSim<1> pass over 64 random patterns agrees with 64 scalar
// runs, on random circuits.
TEST(PackedCombSim, AgreesWithScalarOnRandomCircuits) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    RandomCircuitSpec spec;
    spec.num_gates = 150;
    spec.num_ffs = 10;
    spec.num_pis = 6;
    spec.seed = 100 + static_cast<std::uint64_t>(trial);
    Fixture f(make_random_sequential(spec));
    WideSim<1> psim(SoaCircuit::compile(f.lv));

    std::vector<std::vector<Val>> patterns(64);
    for (unsigned b = 0; b < 64; ++b) {
      patterns[b].assign(f.nl.size(), kX);
      for (NodeId s : f.nl.inputs()) {
        const Val val = (rng() % 3 == 0) ? kX : ((rng() & 1) ? k1 : k0);
        patterns[b][s] = val;
        psim.value(s).set(b, val);
      }
      for (NodeId s : f.nl.dffs()) {
        const Val val = (rng() & 1) ? k1 : k0;
        patterns[b][s] = val;
        psim.value(s).set(b, val);
      }
    }
    psim.run();
    for (unsigned b = 0; b < 64; ++b) {
      f.sim.run(patterns[b]);
      for (NodeId id = 0; id < f.nl.size(); ++id) {
        ASSERT_EQ(psim.value(id).at(b), patterns[b][id])
            << "node " << f.nl.node_name(id) << " bit " << b;
      }
    }
  }
}

TEST(PackedCombSim, MaskedInjectionHitsOnlySelectedPatterns) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Buf, {a}, "g");
  Fixture f(std::move(nl));
  WideSim<1> psim(SoaCircuit::compile(f.lv));
  psim.value(a) = WideVal<1>::broadcast(k1);
  WideInjection<1> inj;
  inj.node = g;
  inj.value = k0;
  inj.mask[0] = 0b101ull;
  psim.run(std::span(&inj, 1));
  EXPECT_EQ(psim.value(g).at(0), k0);
  EXPECT_EQ(psim.value(g).at(1), k1);
  EXPECT_EQ(psim.value(g).at(2), k0);
  EXPECT_EQ(psim.value(g).at(3), k1);
}

}  // namespace
}  // namespace fsct
