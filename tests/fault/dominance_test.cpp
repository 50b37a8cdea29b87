#include "fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "fault/comb_fault_sim.h"
#include "netlist/levelize.h"

namespace fsct {
namespace {

std::size_t idx(const std::vector<Fault>& fs, const Fault& f) {
  const auto it = std::find(fs.begin(), fs.end(), f);
  EXPECT_NE(it, fs.end());
  return static_cast<std::size_t>(it - fs.begin());
}

TEST(Dominance, AndOutputSa1DroppedForInputSa1) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, {a, b}, "g");
  nl.mark_output(g);
  const auto faults = collapsed_fault_list(nl);
  ASSERT_EQ(faults.size(), 4u);  // {a sa0 (class), a sa1, b sa1, g sa1}
  const DominanceInfo di = collapse_dominant(nl, faults);
  EXPECT_EQ(di.targets.size(), 3u);
  EXPECT_EQ(di.dropped(), 1u);
  // g s-a-1 dominates a/b s-a-1; smallest resolved input fault represents it.
  EXPECT_EQ(di.rep[idx(faults, {g, -1, true})], idx(faults, {a, -1, true}));
  EXPECT_EQ(di.rep[idx(faults, {a, -1, false})], idx(faults, {a, -1, false}));
}

TEST(Dominance, NandOutputSa0DroppedForInputSa1) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::Nand, {a, b}, "g");
  nl.mark_output(g);
  const auto faults = collapsed_fault_list(nl);
  const DominanceInfo di = collapse_dominant(nl, faults);
  EXPECT_EQ(di.rep[idx(faults, {g, -1, false})], idx(faults, {a, -1, true}));
  EXPECT_EQ(di.targets.size(), faults.size() - 1);
}

TEST(Dominance, OrAndNorOutputsDroppedForInputSa0) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::Or, {a, b}, "g");
  const NodeId h = nl.add_gate(GateType::Nor, {a, b}, "h");
  nl.mark_output(g);
  nl.mark_output(h);
  const auto faults = collapsed_fault_list(nl);
  const DominanceInfo di = collapse_dominant(nl, faults);
  // OR out s-a-0 and NOR out s-a-1 both resolve to the smallest input s-a-0
  // fault of their own gate (the a branch, since a now fans out).
  EXPECT_EQ(di.rep[idx(faults, {g, -1, false})], idx(faults, {g, 0, false}));
  EXPECT_EQ(di.rep[idx(faults, {h, -1, true})], idx(faults, {h, 0, false}));
  EXPECT_EQ(di.dropped(), 2u);
}

TEST(Dominance, ChainsResolveToKeptFixpoint) {
  // g2 s-a-1 -> g1 s-a-1 -> a s-a-1: the expansion table must point at the
  // kept end of the chain, never at another dropped fault.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(GateType::And, {a, b}, "g1");
  const NodeId c = nl.add_input("c");
  const NodeId g2 = nl.add_gate(GateType::And, {g1, c}, "g2");
  nl.mark_output(g2);
  const auto faults = collapsed_fault_list(nl);
  const DominanceInfo di = collapse_dominant(nl, faults);
  const std::size_t a1 = idx(faults, {a, -1, true});
  EXPECT_EQ(di.rep[idx(faults, {g1, -1, true})], a1);
  EXPECT_EQ(di.rep[idx(faults, {g2, -1, true})], a1);
  for (const std::size_t t : di.targets) EXPECT_EQ(di.rep[t], t);
}

TEST(Dominance, DffBoundaryBlocksRepresentativeResolution) {
  // The AND's pin fault on the DFF output resolves (by equivalence) to the
  // fault on the DFF *input* side — a sequential equivalence, one shift cycle
  // apart, so it is not a valid single-vector representative.  The other pin
  // must be chosen instead.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_dff(a, "q");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, {q, b}, "g");
  nl.mark_output(g);
  const auto faults = collapsed_fault_list(nl);
  const DominanceInfo di = collapse_dominant(nl, faults);
  EXPECT_EQ(di.rep[idx(faults, {g, -1, true})], idx(faults, {b, -1, true}));
}

TEST(Dominance, KeptWhenNoCombinationallyValidInputFaultExists) {
  // Both AND inputs come straight off DFFs: no representative is reachable
  // without crossing a sequential boundary, so the output fault stays a
  // target.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId q1 = nl.add_dff(a, "q1");
  const NodeId q2 = nl.add_dff(b, "q2");
  const NodeId g = nl.add_gate(GateType::And, {q1, q2}, "g");
  nl.mark_output(g);
  const auto faults = collapsed_fault_list(nl);
  const DominanceInfo di = collapse_dominant(nl, faults);
  const std::size_t g1 = idx(faults, {g, -1, true});
  EXPECT_EQ(di.rep[g1], g1);
  EXPECT_TRUE(std::find(di.targets.begin(), di.targets.end(), g1) !=
              di.targets.end());
}

TEST(Dominance, TotalOverArbitraryLists) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::And, {a, a}, "g");
  nl.mark_output(g);
  const DominanceInfo empty = collapse_dominant(nl, {});
  EXPECT_TRUE(empty.targets.empty());
  EXPECT_TRUE(empty.rep.empty());
  // A fault outside the netlist's universe is simply kept.
  const std::vector<Fault> odd = {{g, 7, true}};
  const DominanceInfo di = collapse_dominant(nl, odd);
  ASSERT_EQ(di.rep.size(), 1u);
  EXPECT_EQ(di.rep[0], 0u);
  EXPECT_EQ(di.targets, std::vector<std::uint32_t>{0});
}

TEST(Dominance, PaperExamplesCollapseFurtherThanEquivalence) {
  std::vector<Netlist> circuits;
  circuits.push_back(paper_figure2().nl);
  circuits.push_back(paper_figure3().nl);
  circuits.push_back(small_pipeline());
  circuits.push_back(iscas_s27());
  for (const Netlist& nl : circuits) {
    const auto faults = collapsed_fault_list(nl);
    const DominanceInfo di = collapse_dominant(nl, faults);
    EXPECT_LT(di.targets.size(), faults.size()) << nl.name();
    EXPECT_GT(di.targets.size(), 0u);
    for (std::size_t i = 0; i < di.rep.size(); ++i) {
      EXPECT_EQ(di.rep[di.rep[i]], di.rep[i]);  // idempotent expansion
    }
    EXPECT_TRUE(std::is_sorted(di.targets.begin(), di.targets.end()));
  }
}

// The property the whole layer rests on: expanding a collapsed outcome
// reproduces the uncollapsed verdict.  For any pattern set, a pattern
// detecting the representative also detects every fault it stands for, so
// the dominated fault's first detection can never come later.
TEST(Dominance, ExpansionReproducesUncollapsedVerdictsOnFuzzCircuits) {
  for (int iter = 0; iter < 200; ++iter) {
    RandomCircuitSpec spec;
    spec.num_gates = 40;
    spec.num_ffs = 5;
    spec.num_pis = 6;
    spec.num_pos = 4;
    spec.seed = 9000ull + static_cast<std::uint64_t>(iter);
    const Netlist nl = make_random_sequential(spec);
    const auto faults = collapsed_fault_list(nl);
    const DominanceInfo di = collapse_dominant(nl, faults);
    ASSERT_EQ(di.rep.size(), faults.size());

    const Levelizer lv(nl);
    std::vector<NodeId> observe = nl.outputs();
    for (NodeId ff : nl.dffs()) observe.push_back(ff);
    CombFaultSim sim(lv, observe);
    std::mt19937_64 rng(0xd0a1ull * static_cast<std::uint64_t>(iter + 1));
    std::vector<CombPattern> pats(48);
    for (CombPattern& pat : pats) {
      pat.resize(nl.inputs().size() + nl.dffs().size());
      for (Val& v : pat) v = (rng() & 1) ? Val::One : Val::Zero;
    }
    const CombFaultSimResult fr = sim.run(pats, faults, nullptr, nullptr);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const std::size_t r = di.rep[i];
      if (r == i) continue;
      if (fr.detect_pattern[r] < 0) continue;
      ASSERT_GE(fr.detect_pattern[i], 0)
          << "seed " << spec.seed << ": " << fault_name(nl, faults[i])
          << " not detected though its representative "
          << fault_name(nl, faults[r]) << " is";
      ASSERT_LE(fr.detect_pattern[i], fr.detect_pattern[r])
          << "seed " << spec.seed << ": " << fault_name(nl, faults[i]);
    }
  }
}

}  // namespace
}  // namespace fsct
