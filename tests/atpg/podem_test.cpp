#include "atpg/podem.h"

#include <gtest/gtest.h>

#include <random>

#include "bench_circuits/generator.h"
#include "fault/comb_fault_sim.h"
#include "fault/fault.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;

struct Built {
  Netlist nl;
  Levelizer lv;
  std::vector<char> ctrl;
  Podem podem;
  Built(Netlist n, std::vector<NodeId> observe, AtpgOptions opt = {})
      : nl(std::move(n)),
        lv(nl),
        ctrl(make_ctrl(nl)),
        podem(lv, ctrl, std::move(observe), opt) {}
  static std::vector<char> make_ctrl(const Netlist& nl) {
    std::vector<char> c(nl.size(), 0);
    for (NodeId pi : nl.inputs()) c[pi] = 1;
    return c;
  }
};

// Verifies a PODEM test by simulation.
bool test_detects(const Levelizer& lv, const std::vector<NodeId>& observe,
                  const FaultSite& site, const AtpgResult& res) {
  PairSim sim(lv);
  sim.init(std::span(&site, 1));
  for (auto [pi, v] : res.assignment) sim.set_source(pi, v);
  for (NodeId o : observe) {
    if (has_effect(sim.value(o))) return true;
  }
  return false;
}

TEST(Podem, DetectsAndGateFaults) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, {a, b}, "g");
  nl.mark_output(g);
  Built bb(std::move(nl), {g});
  for (bool sv : {false, true}) {
    const FaultSite site{g, -1, sv ? k1 : k0};
    const AtpgResult r = bb.podem.generate(std::span(&site, 1));
    ASSERT_EQ(r.status, AtpgStatus::Detected) << (sv ? "s-a-1" : "s-a-0");
    EXPECT_TRUE(test_detects(bb.lv, {g}, site, r));
  }
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // y = OR(a, NOT(a)) == 1 always; y s-a-1 is undetectable.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId n = nl.add_gate(GateType::Not, {a}, "n");
  const NodeId y = nl.add_gate(GateType::Or, {a, n}, "y");
  nl.mark_output(y);
  Built bb(std::move(nl), {y});
  const FaultSite site{y, -1, k1};
  const AtpgResult r = bb.podem.generate(std::span(&site, 1));
  EXPECT_EQ(r.status, AtpgStatus::Untestable);
}

TEST(Podem, PropagatesThroughReconvergence) {
  // Classic reconvergent structure: fault must sensitise one branch and keep
  // the other non-masking.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId g1 = nl.add_gate(GateType::And, {a, b}, "g1");
  const NodeId g2 = nl.add_gate(GateType::And, {a, c}, "g2");
  const NodeId y = nl.add_gate(GateType::Or, {g1, g2}, "y");
  nl.mark_output(y);
  Built bb(std::move(nl), {y});
  const FaultSite site{a, -1, k0};
  const AtpgResult r = bb.podem.generate(std::span(&site, 1));
  ASSERT_EQ(r.status, AtpgStatus::Detected);
  EXPECT_TRUE(test_detects(bb.lv, {y}, site, r));
}

TEST(Podem, PinFaultTargeted) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(GateType::Nand, {a, b}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Buf, {a}, "g2");
  nl.mark_output(g1);
  nl.mark_output(g2);
  Built bb(std::move(nl), {g1, g2});
  const FaultSite site{g1, 0, k1};  // branch of a into g1 s-a-1
  const AtpgResult r = bb.podem.generate(std::span(&site, 1));
  ASSERT_EQ(r.status, AtpgStatus::Detected);
  EXPECT_TRUE(test_detects(bb.lv, {g1, g2}, site, r));
  // The test must set a=0 (activation) and b=1 (propagation through NAND).
  for (auto [pi, v] : r.assignment) {
    if (pi == a) EXPECT_EQ(v, k0);
    if (pi == b) EXPECT_EQ(v, k1);
  }
}

TEST(Podem, XorPropagation) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId y = nl.add_gate(GateType::Xor, {a, b}, "y");
  nl.mark_output(y);
  Built bb(std::move(nl), {y});
  const FaultSite site{a, -1, k1};
  const AtpgResult r = bb.podem.generate(std::span(&site, 1));
  ASSERT_EQ(r.status, AtpgStatus::Detected);
  EXPECT_TRUE(test_detects(bb.lv, {y}, site, r));
}

TEST(Podem, MuxPropagation) {
  Netlist nl("t");
  const NodeId s = nl.add_input("s");
  const NodeId d0 = nl.add_input("d0");
  const NodeId d1 = nl.add_input("d1");
  const NodeId y = nl.add_gate(GateType::Mux, {s, d0, d1}, "y");
  nl.mark_output(y);
  Built bb(std::move(nl), {y});
  const FaultSite site{d1, -1, k0};
  const AtpgResult r = bb.podem.generate(std::span(&site, 1));
  ASSERT_EQ(r.status, AtpgStatus::Detected);
  EXPECT_TRUE(test_detects(bb.lv, {y}, site, r));
}

TEST(Podem, UnobservableFaultUntestable) {
  // Gate with no path to any observation point.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId dead = nl.add_gate(GateType::Not, {a}, "dead");
  const NodeId y = nl.add_gate(GateType::Buf, {a}, "y");
  nl.mark_output(y);
  Built bb(std::move(nl), {y});
  const FaultSite site{dead, -1, k0};
  const AtpgResult r = bb.podem.generate(std::span(&site, 1));
  EXPECT_EQ(r.status, AtpgStatus::Untestable);
}

TEST(Podem, UncontrollableActivationUntestable) {
  // Activation requires an uncontrollable input.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");   // controllable
  const NodeId u = nl.add_input("u");   // not controllable
  const NodeId g = nl.add_gate(GateType::And, {a, u}, "g");
  nl.mark_output(g);
  Netlist copy = nl;  // keep names for assertions
  Levelizer lv(copy);
  std::vector<char> ctrl(copy.size(), 0);
  ctrl[a] = 1;
  Podem podem(lv, ctrl, {g});
  const FaultSite site{u, -1, k0};  // need u=1 to activate: impossible
  const AtpgResult r = podem.generate(std::span(&site, 1));
  EXPECT_EQ(r.status, AtpgStatus::Untestable);
}

TEST(Podem, BacktrackLimitAborts) {
  // A hard random circuit with a tiny backtrack budget must abort (not hang).
  RandomCircuitSpec spec;
  spec.num_gates = 400;
  spec.num_ffs = 0;
  spec.num_pis = 12;
  spec.num_pos = 3;
  spec.seed = 5;
  Netlist nl = make_random_sequential(spec);
  Levelizer lv(nl);
  std::vector<char> ctrl(nl.size(), 0);
  for (NodeId pi : nl.inputs()) ctrl[pi] = 1;
  Podem podem(lv, ctrl, nl.outputs(), AtpgOptions{0});
  int aborted = 0;
  const auto faults = collapsed_fault_list(nl);
  for (std::size_t i = 0; i < faults.size() && i < 50; ++i) {
    const FaultSite site{faults[i].node, faults[i].pin,
                         faults[i].stuck_one ? k1 : k0};
    const AtpgResult r = podem.generate(std::span(&site, 1));
    aborted += (r.status == AtpgStatus::Aborted);
  }
  EXPECT_GE(aborted, 0);  // primarily: terminates
}

// Property: on random combinational circuits every Detected result is
// verified by independent fault simulation, and coverage is high.
class PodemRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemRandom, DetectedTestsAreRealAndCoverageHigh) {
  RandomCircuitSpec spec;
  spec.num_gates = 200;
  spec.num_ffs = 0;
  spec.num_pis = 10;
  spec.num_pos = 6;
  spec.seed = GetParam();
  Netlist nl = make_random_sequential(spec);
  Levelizer lv(nl);
  std::vector<char> ctrl(nl.size(), 0);
  for (NodeId pi : nl.inputs()) ctrl[pi] = 1;
  Podem podem(lv, ctrl, nl.outputs(), AtpgOptions{500});

  const auto faults = collapsed_fault_list(nl);
  std::size_t detected = 0, untestable = 0, aborted = 0, bogus = 0;
  for (const Fault& f : faults) {
    const FaultSite site{f.node, f.pin, f.stuck_one ? k1 : k0};
    const AtpgResult r = podem.generate(std::span(&site, 1));
    switch (r.status) {
      case AtpgStatus::Detected: {
        PairSim sim(lv);
        sim.init(std::span(&site, 1));
        for (auto [pi, v] : r.assignment) sim.set_source(pi, v);
        bool seen = false;
        for (NodeId o : nl.outputs()) seen |= has_effect(sim.value(o));
        if (!seen) ++bogus;
        ++detected;
        break;
      }
      case AtpgStatus::Untestable: ++untestable; break;
      default: ++aborted; break;
    }
  }
  EXPECT_EQ(bogus, 0u);
  // Random mapped-style logic carries real redundancy (~20% of faults are
  // untestable), so demand resolution, not raw detection: nearly every fault
  // must end Detected or proven Untestable, with few aborts.
  EXPECT_GT(detected, faults.size() / 2) << "coverage too low";
  EXPECT_GT(detected + untestable, faults.size() * 9 / 10);
  EXPECT_LT(aborted, faults.size() / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemRandom,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull));

// ---- Dead-walk table vs. the backtrace walk ---------------------------------

// Reference: Podem's backtrace walk without the dead-walk table.  From an X
// objective it follows SCOAP-guided fanin choices down to a source; true when
// it ends at an X controllable Input.  `g` holds the good-machine values.
bool reference_walk(const Netlist& nl, const Scoap& sc,
                    const std::vector<char>& ctrl, const std::vector<Val>& g,
                    NodeId net, Val val) {
  for (;;) {
    const GateType t = nl.type(net);
    if (t == GateType::Input) return ctrl[net] && g[net] == Val::X;
    if (t == GateType::Dff || t == GateType::Const0 || t == GateType::Const1) {
      return false;
    }
    const auto fins = nl.fanins(net);
    if (t == GateType::Buf || t == GateType::Not) {
      net = fins[0];
      if (t == GateType::Not) val = !val;
      continue;
    }
    if (t == GateType::Xor || t == GateType::Xnor) {
      const bool parity =
          (t == GateType::Xor) ? (val == Val::One) : (val == Val::Zero);
      NodeId chosen = kNullNode;
      int unknowns = 0;
      bool known_par = false;
      for (NodeId in : fins) {
        if (g[in] == Val::X) {
          ++unknowns;
          if (chosen == kNullNode) chosen = in;
        } else {
          known_par ^= (g[in] == Val::One);
        }
      }
      if (chosen == kNullNode) return false;
      if (unknowns == 1) {
        val = (parity != known_par) ? Val::One : Val::Zero;
      } else {
        val = (sc.cc0[chosen] <= sc.cc1[chosen]) ? Val::Zero : Val::One;
      }
      net = chosen;
      continue;
    }
    if (t == GateType::Mux) {
      const NodeId sel = fins[0], d0 = fins[1], d1 = fins[2];
      if (g[sel] != Val::X) {
        net = g[sel] == Val::Zero ? d0 : d1;
        continue;
      }
      const Cost c0 = sc.cc(d0, val == Val::One);
      const Cost c1 = sc.cc(d1, val == Val::One);
      net = sel;
      val = (c0 <= c1) ? Val::Zero : Val::One;
      continue;
    }
    // AND family.
    const Val c = controlling_value(t);
    const Val inner = is_inverting(t) ? !val : val;
    NodeId best = kNullNode;
    Cost best_cost = inner == c ? kInfCost + 1 : 0;
    for (NodeId in : fins) {
      if (g[in] != Val::X) continue;
      const Cost cc = sc.cc(in, inner == c ? c == Val::One : c == Val::Zero);
      if (inner == c ? cc < best_cost
                     : (best == kNullNode || cc > best_cost)) {
        best_cost = cc;
        best = in;
      }
    }
    if (best == kNullNode) return false;
    net = best;
    val = inner == c ? c : !c;
  }
}

// Random combinational logic with the shapes the table has rules for:
// AND-family gates, XOR/XNOR, MUXes (some with constant selects), buffer and
// inverter chains, and constants.
Netlist random_walk_circuit(std::mt19937_64& rng) {
  Netlist nl("walk");
  std::vector<NodeId> pool;
  const int pis = 6 + static_cast<int>(rng() % 6);
  for (int i = 0; i < pis; ++i) {
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  }
  pool.push_back(nl.add_const(false, "c0"));
  pool.push_back(nl.add_const(true, "c1"));
  const int gates = 30 + static_cast<int>(rng() % 50);
  auto pick = [&] {
    // Bias towards recent nodes so chains get deep.
    const std::size_t n = pool.size();
    const std::size_t span = std::min<std::size_t>(n, 12);
    return (rng() % 3 == 0) ? pool[rng() % n] : pool[n - 1 - rng() % span];
  };
  constexpr GateType kTypes[] = {
      GateType::And, GateType::Nand, GateType::Or,  GateType::Nor,
      GateType::Xor, GateType::Xnor, GateType::Mux, GateType::Buf,
      GateType::Not, GateType::Mux,  GateType::Buf, GateType::And};
  for (int i = 0; i < gates; ++i) {
    const GateType t = kTypes[rng() % std::size(kTypes)];
    std::vector<NodeId> fins;
    if (t == GateType::Buf || t == GateType::Not) {
      fins = {pick()};
    } else if (t == GateType::Mux) {
      fins = {pick(), pick(), pick()};
    } else {
      const int k = 1 + static_cast<int>(rng() % 3);
      for (int j = 0; j < k; ++j) fins.push_back(pick());
    }
    pool.push_back(nl.add_gate(t, std::move(fins), "g" + std::to_string(i)));
  }
  nl.mark_output(pool.back());
  return nl;
}

// Good-machine values of every net under `assign` (X = unassigned).
std::vector<Val> good_values(const Levelizer& lv,
                             const std::vector<Val>& assign) {
  const Netlist& nl = lv.netlist();
  std::vector<Val> g(nl.size(), Val::X);
  for (NodeId id = 0; id < nl.size(); ++id) {
    if (nl.type(id) == GateType::Input) g[id] = assign[id];
    if (nl.type(id) == GateType::Const0) g[id] = Val::Zero;
    if (nl.type(id) == GateType::Const1) g[id] = Val::One;
  }
  Val ins[kMaxFanin];
  for (NodeId id : lv.topo_order()) {
    const auto fins = nl.fanins(id);
    for (std::size_t p = 0; p < fins.size(); ++p) ins[p] = g[fins[p]];
    g[id] = eval_gate(nl.type(id), ins, fins.size());
  }
  return g;
}

struct WalkCheck {
  std::size_t dead_checked = 0;  // (X net, value) pairs marked dead
  std::size_t unsound = 0;       // ... whose reference walk succeeded
};

// Runs the reference walk from every X net towards both values under random
// partial assignments of `circuits` random circuits, and counts the entries
// the table marks dead although the walk succeeds.  `unsound_mux` swaps in a
// wrong MUX rule -- copy d1's entry whenever the select is not fixed -- to
// show that the check catches one.
WalkCheck check_dead_table(std::uint64_t seed, int circuits,
                           bool unsound_mux) {
  std::mt19937_64 rng(seed);
  WalkCheck out;
  for (int c = 0; c < circuits; ++c) {
    const Netlist nl = random_walk_circuit(rng);
    const Levelizer lv(nl);
    std::vector<char> ctrl(nl.size(), 0);
    for (NodeId pi : nl.inputs()) ctrl[pi] = rng() % 2;
    const Podem podem(lv, ctrl, nl.outputs());
    const Scoap sc = compute_scoap(lv, ctrl);
    // Each net's value with every input X.
    const std::vector<Val> fixed =
        good_values(lv, std::vector<Val>(nl.size(), Val::X));
    auto dead = [&](NodeId n, Val v) {
      if (unsound_mux && nl.type(n) == GateType::Mux &&
          fixed[nl.fanins(n)[0]] == Val::X) {
        return podem.walk_dead(nl.fanins(n)[2], v);
      }
      return podem.walk_dead(n, v);
    };
    for (int a = 0; a < 12; ++a) {
      std::vector<Val> assign(nl.size(), Val::X);
      for (NodeId pi : nl.inputs()) {
        const unsigned r = static_cast<unsigned>(rng() % 3);
        if (ctrl[pi] && r < 2) assign[pi] = r ? Val::One : Val::Zero;
      }
      const std::vector<Val> g = good_values(lv, assign);
      for (NodeId n = 0; n < nl.size(); ++n) {
        if (g[n] != Val::X) continue;
        for (Val v : {Val::Zero, Val::One}) {
          if (!dead(n, v)) continue;
          ++out.dead_checked;
          out.unsound += reference_walk(nl, sc, ctrl, g, n, v);
        }
      }
    }
  }
  return out;
}

// Every (X net, value) the dead-walk table marks is one whose walk fails, in
// every state the random assignments reach.
TEST(Podem, DeadWalkTableMatchesWalk) {
  const WalkCheck real = check_dead_table(2024, 300, false);
  EXPECT_GT(real.dead_checked, 1000u);
  EXPECT_EQ(real.unsound, 0u);
  // The check bites.
  EXPECT_GT(check_dead_table(2024, 300, true).unsound, 0u);
}

}  // namespace
}  // namespace fsct
