#include "core/reduced_atpg.h"

#include <gtest/gtest.h>

#include "bench_circuits/paper_examples.h"
#include "core/classify.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;

struct Built {
  ExampleDesign e;
  Levelizer lv;
  ScanModeModel model;
  ReducedCircuitBuilder builder;
  explicit Built(ExampleDesign ed)
      : e(std::move(ed)), lv(e.nl), model(lv, e.design), builder(model) {}
};

AtpgGroup window_group(std::size_t idx, int chain, int lo, int hi) {
  AtpgGroup g;
  g.kind = 1;
  g.fault_indices = {idx};
  g.window = {{chain, lo, hi}};
  return g;
}

TEST(ReducedAtpg, FramesForWindow) {
  Built b(paper_figure2());
  AtpgGroup g = window_group(0, 0, 2, 5);
  EXPECT_EQ(b.builder.frames_for(g), 3 + 4);  // spread 3 + slack 4
  EXPECT_EQ(b.builder.frames_for(g, 8), 15);
  ReducedModelOptions opt;
  opt.frame_cap = 5;
  ReducedCircuitBuilder capped(b.model, opt);
  EXPECT_EQ(capped.frames_for(g), 5);
}

TEST(ReducedAtpg, BuildsPrunedModel) {
  Built b(paper_figure2());
  const Fault f = paper_figure2_fault(b.e.nl);
  const AtpgGroup g = window_group(0, 0, 5, 5);
  const ReducedModel rm = b.builder.build(g, std::span(&f, 1));
  EXPECT_EQ(rm.um.nl.validate(), "");
  EXPECT_GT(rm.um.observe.size(), 0u);
  // The controllable prefix f1..f5 gives five controllable state inputs.
  int controllable_states = 0;
  for (std::size_t i = 0; i < rm.um.init_state.size(); ++i) {
    if (rm.um.init_state[i] != kNullNode &&
        rm.um.controllable[rm.um.init_state[i]]) {
      ++controllable_states;
    }
  }
  EXPECT_EQ(controllable_states, 5);
}

TEST(ReducedAtpg, DetectsTheFigure2Fault) {
  Built b(paper_figure2());
  const Fault f = paper_figure2_fault(b.e.nl);
  const AtpgGroup g = window_group(0, 0, 5, 5);
  const ReducedModel rm = b.builder.build(g, std::span(&f, 1));
  const auto sites = rm.um.map_fault(f);
  ASSERT_FALSE(sites.empty());
  const AtpgResult r = rm.podem->generate(sites);
  EXPECT_EQ(r.status, AtpgStatus::Detected);
}

TEST(ReducedAtpg, ExtractedTestVerifiesEndToEnd) {
  Built b(paper_figure2());
  const Fault f = paper_figure2_fault(b.e.nl);
  const AtpgGroup g = window_group(0, 0, 5, 5);
  const ReducedModel rm = b.builder.build(g, std::span(&f, 1));
  const AtpgResult r = rm.podem->generate(rm.um.map_fault(f));
  ASSERT_EQ(r.status, AtpgStatus::Detected);

  const SeqTest t = rm.um.base_inputs(r.assignment);
  const TestSequence seq = b.builder.realize(t);
  std::vector<NodeId> observe = b.e.nl.outputs();
  SeqFaultSim sim(b.lv, observe);
  const Fault faults[] = {f};
  const auto sr = sim.run_serial(seq, faults);
  EXPECT_GE(sr.detect_cycle[0], 0)
      << "sequential ATPG test must really detect the fault";
}

TEST(ReducedAtpg, ChainStuckFaultAlsoDetectable) {
  Built b(paper_figure2());
  const Fault f{b.e.nl.find("a"), -1, true};  // category-1 style
  const AtpgGroup g = window_group(0, 0, 5, 5);
  const ReducedModel rm = b.builder.build(g, std::span(&f, 1));
  const AtpgResult r = rm.podem->generate(rm.um.map_fault(f));
  EXPECT_EQ(r.status, AtpgStatus::Detected);
}

TEST(ReducedAtpg, WindowFromClassifier) {
  Built b(paper_figure3());
  ChainFaultClassifier cls(b.model);
  const Fault f = paper_figure3_fault(b.e.nl);
  const ChainFaultInfo info = cls.classify(f);
  const FaultWindow w = make_fault_window(0, info);
  AtpgGroup g;
  g.kind = 1;
  g.fault_indices = {0};
  g.window = w.chains;
  const ReducedModel rm = b.builder.build(g, std::span(&f, 1));
  const AtpgResult r = rm.podem->generate(rm.um.map_fault(f));
  ASSERT_EQ(r.status, AtpgStatus::Detected);

  const SeqTest t = rm.um.base_inputs(r.assignment);
  const TestSequence seq = b.builder.realize(t);
  SeqFaultSim sim(b.lv, b.e.nl.outputs());
  const Fault faults[] = {f};
  EXPECT_GE(sim.run_serial(seq, faults).detect_cycle[0], 0);
}

TEST(ReducedAtpg, RealizeUsesLoadThenFramesThenFlush) {
  Built b(paper_figure2());
  SeqTest t;
  t.init_state.assign(b.e.nl.dffs().size(), Val::X);
  t.init_state[0] = k1;
  t.pi_frames.assign(2, std::vector<Val>(b.e.nl.inputs().size(), Val::X));
  const TestSequence seq = b.builder.realize(t);
  // load (6 = chain length) + 2 frames + 8 (6 + 2) flush.
  EXPECT_EQ(seq.size(), 6u + 2u + 8u);
  // Every cycle keeps the scan-mode constraints.
  for (const auto& v : seq) {
    for (std::size_t i = 0; i < b.e.nl.inputs().size(); ++i) {
      if (b.e.nl.inputs()[i] == b.e.design.scan_mode) {
        EXPECT_EQ(v[i], k1);
      }
      if (b.e.nl.inputs()[i] == b.e.nl.find("en")) {
        EXPECT_EQ(v[i], k1);
      }
    }
  }
}

}  // namespace
}  // namespace fsct
