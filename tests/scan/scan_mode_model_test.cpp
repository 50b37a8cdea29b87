#include "scan/scan_mode_model.h"

#include <gtest/gtest.h>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;
constexpr Val kX = Val::X;

TEST(ScanModeModel, Figure2ValuesAndLocations) {
  ExampleDesign e = paper_figure2();
  const Levelizer lv(e.nl);
  const ScanModeModel m(lv, e.design);
  EXPECT_EQ(m.check(), "");
  // Scan-mode values: en=1, en_n=0, b=AND(f1,0)=0; chain nets X.
  EXPECT_EQ(m.values()[e.nl.find("en")], k1);
  EXPECT_EQ(m.values()[e.nl.find("en_n")], k0);
  EXPECT_EQ(m.values()[e.nl.find("b")], k0);
  EXPECT_EQ(m.values()[e.nl.find("a")], kX);
  EXPECT_EQ(m.values()[e.nl.find("d6")], kX);

  // Chain locations: the f5->f6 path gates sit at segment 5.
  auto loc_a = m.chain_location(e.nl.find("a"));
  ASSERT_TRUE(loc_a.has_value());
  EXPECT_EQ(loc_a->chain, 0);
  EXPECT_EQ(loc_a->segment, 5);
  // f1's Q corrupts capture into f2 (segment 1).
  auto loc_f1 = m.chain_location(e.nl.find("f1"));
  ASSERT_TRUE(loc_f1.has_value());
  EXPECT_EQ(loc_f1->segment, 1);
  // Last flip-flop's Q is "the scan-out" = segment len.
  auto loc_f6 = m.chain_location(e.nl.find("f6"));
  ASSERT_TRUE(loc_f6.has_value());
  EXPECT_EQ(loc_f6->segment, 6);
  // Non-chain nets have no location.
  EXPECT_FALSE(m.chain_location(e.nl.find("en")).has_value());
}

TEST(ScanModeModel, Figure2SideAttachments) {
  ExampleDesign e = paper_figure2();
  const Levelizer lv(e.nl);
  const ScanModeModel m(lv, e.design);
  // en is the side input of AND 'a'; b is the side of OR 'd6'.
  const auto& en_sides = m.side_attachments(e.nl.find("en"));
  ASSERT_EQ(en_sides.size(), 1u);
  EXPECT_EQ(en_sides[0].loc.segment, 5);
  EXPECT_EQ(en_sides[0].gate_type, GateType::And);
  const auto& b_sides = m.side_attachments(e.nl.find("b"));
  ASSERT_EQ(b_sides.size(), 1u);
  EXPECT_EQ(b_sides[0].gate_type, GateType::Or);
  // X-valued nets are never recorded as sides.
  EXPECT_TRUE(m.side_attachments(e.nl.find("f1")).empty());
}

TEST(ScanModeModel, MaxChainLengthAndScanOuts) {
  ExampleDesign e = paper_figure2();
  const Levelizer lv(e.nl);
  const ScanModeModel m(lv, e.design);
  EXPECT_EQ(m.max_chain_length(), 6u);
  ASSERT_EQ(m.scan_outs().size(), 1u);
  EXPECT_EQ(m.scan_outs()[0], e.nl.find("f6"));
  // How a test is applied: flush 2*6+8 cycles, observe 6+2 after a load.
  EXPECT_EQ(m.flush_cycles(), 20u);
  EXPECT_EQ(m.observe_cycles(), 8u);
  // The scan-out f6 is also the only PO: it is observed once.
  EXPECT_EQ(m.observe(), std::vector<NodeId>{e.nl.find("f6")});
}

TEST(ScanModeModel, ObserveListsPosThenScanOuts) {
  ExampleDesign e = paper_figure2();
  const NodeId f6 = e.nl.find("f6");
  const NodeId d6 = e.nl.find("d6");
  e.nl.unmark_output(f6);
  e.nl.mark_output(d6);
  const Levelizer lv(e.nl);
  const ScanModeModel m(lv, e.design);
  EXPECT_EQ(m.observe(), (std::vector<NodeId>{d6, f6}));
}

TEST(ScanModeModel, TpiDesignsSatisfyInvariant) {
  for (std::uint64_t seed : {10ull, 20ull, 30ull}) {
    RandomCircuitSpec spec;
    spec.num_gates = 250;
    spec.num_ffs = 20;
    spec.seed = seed;
    Netlist nl = make_random_sequential(spec);
    const ScanDesign d = run_tpi(nl);
    const Levelizer lv(nl);
    const ScanModeModel m(lv, d);
    EXPECT_EQ(m.check(), "") << "seed " << seed;
    // Every chain net is X (carries data).
    for (const ScanChain& c : d.chains) {
      for (const ScanSegment& s : c.segments) {
        for (NodeId g : s.path) {
          EXPECT_EQ(m.values()[g], kX) << nl.node_name(g);
        }
      }
    }
  }
}

TEST(ScanModeModel, MuxSegmentsRecordScanModeAsSide) {
  Netlist nl = small_counter();
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel m(lv, d);
  // Find a dedicated mux segment; its select (scan_mode) must be a side.
  bool found_mux = false;
  for (const ScanChain& c : d.chains) {
    for (const ScanSegment& s : c.segments) {
      if (!s.functional) {
        found_mux = true;
        const auto& sides = m.side_attachments(d.scan_mode);
        EXPECT_FALSE(sides.empty());
      }
    }
  }
  EXPECT_TRUE(found_mux);
}

TEST(ScanModeModel, SideNetListSortedUnique) {
  ExampleDesign e = paper_figure2();
  const Levelizer lv(e.nl);
  const ScanModeModel m(lv, e.design);
  const auto& sides = m.side_nets();
  EXPECT_TRUE(std::is_sorted(sides.begin(), sides.end()));
  EXPECT_EQ(std::adjacent_find(sides.begin(), sides.end()), sides.end());
  for (NodeId n : sides) {
    EXPECT_NE(m.values()[n], kX);
  }
}

}  // namespace
}  // namespace fsct
