#include "core/diagnose.h"

#include <gtest/gtest.h>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "scan/scan_sequences.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

struct World {
  Netlist nl;
  ScanDesign design;
  Levelizer lv;
  ScanModeModel model;
  explicit World(std::uint64_t seed)
      : nl(make(seed)), design(run_tpi(nl)), lv(nl), model(lv, design) {}
  static Netlist make(std::uint64_t seed) {
    RandomCircuitSpec spec;
    spec.num_gates = 220;
    spec.num_ffs = 16;
    spec.num_pis = 7;
    spec.num_pos = 5;
    spec.seed = seed;
    return make_random_sequential(spec);
  }
  TestSequence stimulus() const {
    const ScanSequenceBuilder& sb = model.sequences();
    TestSequence seq = sb.alternating(model.flush_cycles());
    // A second phase with inverted fill exercises more of the chain logic.
    TestSequence more = sb.alternating(model.max_chain_length(), Val::One);
    seq.insert(seq.end(), more.begin(), more.end());
    return seq;
  }
};

TEST(Diagnose, DefaultObservationPointsArePosAndScanOuts) {
  World w(70);
  ChainDiagnoser diag(w.model);
  EXPECT_GE(diag.observe().size(),
            w.nl.outputs().size());
}

TEST(Diagnose, TrueFaultRanksFirst) {
  World w(71);
  ChainDiagnoser diag(w.model);
  const auto faults = collapsed_fault_list(w.nl);
  // Pick a handful of chain-affecting injected "defects" and check ranking.
  ChainFaultClassifier cls(w.model);
  int tried = 0, top5 = 0;
  const TestSequence seq = w.stimulus();
  for (const Fault& f : faults) {
    const ChainFaultInfo info = cls.classify(f);
    if (info.category == ChainFaultCategory::NotAffecting) continue;
    if (++tried > 10) break;
    const ObservedResponse obs = diag.make_response(seq, f);
    const auto ranked = diag.diagnose(obs, faults, 5);
    ASSERT_FALSE(ranked.empty());
    // The injected fault must be perfectly consistent.
    bool in_top5 = false;
    for (const auto& c : ranked) {
      if (c.fault == f) {
        in_top5 = true;
        EXPECT_EQ(c.contradictions, 0) << fault_name(w.nl, f);
      }
    }
    top5 += in_top5;
  }
  ASSERT_GT(tried, 5);
  // The true defect (or an equivalent fault with identical signature) must
  // essentially always make the top-5.
  EXPECT_GE(top5 * 10, (tried - 1) * 9) << top5 << "/" << tried;
}

TEST(Diagnose, HealthyResponseHasNoSymptoms) {
  World w(72);
  ChainDiagnoser diag(w.model);
  const TestSequence seq = w.stimulus();
  // Observe the good machine itself.
  SeqSim sim(w.lv);
  ObservedResponse obs;
  obs.sequence = seq;
  for (const auto& pi : seq) {
    const auto& v = sim.step(pi);
    std::vector<Val> row;
    for (NodeId o : diag.observe()) row.push_back(v[o]);
    obs.observed.push_back(std::move(row));
  }
  const auto faults = collapsed_fault_list(w.nl);
  const auto ranked = diag.diagnose(obs, faults, 0);
  for (const auto& c : ranked) {
    EXPECT_EQ(c.explained, 0) << fault_name(w.nl, c.fault);
  }
}

TEST(Diagnose, MaskedObservationsAreNeutral) {
  World w(73);
  ChainDiagnoser diag(w.model);
  const auto faults = collapsed_fault_list(w.nl);
  const Fault f = faults[faults.size() / 2];
  const TestSequence seq = w.stimulus();
  ObservedResponse obs = diag.make_response(seq, f);
  // Mask everything: every candidate becomes perfectly consistent.
  for (auto& row : obs.observed) {
    for (Val& v : row) v = Val::X;
  }
  const auto ranked = diag.diagnose(obs, faults, 0);
  for (const auto& c : ranked) {
    EXPECT_EQ(c.contradictions, 0);
    EXPECT_EQ(c.explained, 0);
  }
}

TEST(Diagnose, TopKLimitsOutput) {
  World w(74);
  ChainDiagnoser diag(w.model);
  const auto faults = collapsed_fault_list(w.nl);
  const ObservedResponse obs = diag.make_response(w.stimulus(), faults[0]);
  EXPECT_EQ(diag.diagnose(obs, faults, 3).size(), 3u);
  EXPECT_EQ(diag.diagnose(obs, faults, 0).size(), faults.size());
}

TEST(Diagnose, Figure2FaultLocalisedToLastSegment) {
  ExampleDesign e = paper_figure2();
  const Levelizer lv(e.nl);
  const ScanModeModel model(lv, e.design);
  ChainDiagnoser diag(model);
  ScanSequenceBuilder sb(e.nl, e.design);
  // Alternating alone cannot see this fault; add a marker load.
  TestSequence seq = sb.alternating(24);
  std::vector<std::vector<Val>> marker = {{Val::One, Val::Zero, Val::Zero,
                                           Val::One, Val::Zero, Val::One}};
  const TestSequence load = sb.load_state(marker);
  seq.insert(seq.end(), load.begin(), load.end());
  for (int i = 0; i < 8; ++i) seq.push_back(sb.base_vector(Val::Zero));

  const Fault f = paper_figure2_fault(e.nl);
  const ObservedResponse obs = diag.make_response(seq, f);
  const auto faults = collapsed_fault_list(e.nl);
  const auto ranked = diag.diagnose(obs, faults, 5);
  ASSERT_FALSE(ranked.empty());
  EXPECT_GT(ranked.front().explained, 0) << "symptoms must exist";
  bool found = false;
  for (const auto& c : ranked) found |= (c.fault == f);
  EXPECT_TRUE(found) << "the real defect must rank in the top 5";
}

}  // namespace
}  // namespace fsct
