// Cross-module integration: TPI -> scan-mode model -> classification ->
// full pipeline, on real (s27) and generated circuits, including end-to-end
// verification that step-3 sequential-ATPG tests detect their faults on the
// unmodified circuit.
#include <gtest/gtest.h>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "core/pipeline.h"
#include "core/reduced_atpg.h"
#include "core/test_export.h"
#include "netlist/bench_io.h"
#include "netlist/levelize.h"
#include "scan/mux_scan.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

TEST(Integration, S27FullFlow) {
  Netlist nl = iscas_s27();
  TpiStats stats;
  const ScanDesign d = run_tpi(nl, {}, &stats);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  ASSERT_EQ(model.check(), "");
  const auto faults = collapsed_fault_list(nl);
  PipelineOptions opt;
  opt.verify_easy = true;
  const PipelineResult r = run_fsct_pipeline(model, faults, opt);
  EXPECT_GT(r.affecting(), 0u);
  EXPECT_EQ(r.easy_verified, r.easy);
  EXPECT_EQ(r.final_undetected(), 0u) << "s27 should be fully resolved";
}

TEST(Integration, TpiCircuitSurvivesBenchRoundTrip) {
  Netlist nl = iscas_s27();
  run_tpi(nl);
  const std::string text = write_bench_string(nl);
  const Netlist nl2 = read_bench_string(text, "rt");
  EXPECT_EQ(nl2.validate(), "");
  EXPECT_EQ(nl2.num_gates(), nl.num_gates());
  EXPECT_EQ(nl2.dffs().size(), nl.dffs().size());
}

TEST(Integration, Step3TestsVerifiedEndToEnd) {
  // Build a circuit, push every hard fault through the reduced-model ATPG
  // directly, and check each Detected result against the real circuit.
  RandomCircuitSpec spec;
  spec.num_gates = 220;
  spec.num_ffs = 16;
  spec.num_pis = 7;
  spec.num_pos = 5;
  spec.seed = 777;
  Netlist nl = make_random_sequential(spec);
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  ChainFaultClassifier cls(model);
  const auto faults = collapsed_fault_list(nl);

  ReducedCircuitBuilder builder(model);
  std::vector<NodeId> observe = nl.outputs();
  for (NodeId so : model.scan_outs()) observe.push_back(so);
  SeqFaultSim sim(lv, observe);

  int tried = 0, detected = 0, verified = 0;
  for (const Fault& f : faults) {
    const ChainFaultInfo info = cls.classify(f);
    if (info.category != ChainFaultCategory::Hard) continue;
    if (++tried > 12) break;  // keep the test fast
    AtpgGroup g;
    g.kind = 1;
    g.fault_indices = {0};
    g.window = make_fault_window(0, info).chains;
    const ReducedModel rm = builder.build(g, std::span(&f, 1));
    const auto sites = rm.um.map_fault(f);
    if (sites.empty()) continue;
    const AtpgResult r = rm.podem->generate(sites);
    if (r.status != AtpgStatus::Detected) continue;
    ++detected;
    const TestSequence seq =
        builder.realize(rm.um.base_inputs(r.assignment));
    const Fault one[] = {f};
    if (sim.run_serial(seq, one).detect_cycle[0] >= 0) ++verified;
  }
  EXPECT_GT(detected, 0);
  // Sequential-ATPG answers must be real on the actual circuit.
  EXPECT_GE(verified * 10, detected * 8)
      << verified << "/" << detected << " verified";
}

TEST(Integration, PipelineOnMidSizeCircuit) {
  RandomCircuitSpec spec;
  spec.num_gates = 650;
  spec.num_ffs = 64;
  spec.num_pis = 16;
  spec.num_pos = 10;
  spec.seed = 4242;
  Netlist nl = make_random_sequential(spec);
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  const auto faults = collapsed_fault_list(nl);
  const PipelineResult r = run_fsct_pipeline(model, faults);
  // Shape assertions in the spirit of the paper's totals:
  // a large minority of faults touch the chain; few are hard; almost none
  // stay undetected.
  EXPECT_GT(r.affecting(), r.total_faults / 20);
  EXPECT_LT(r.hard, r.affecting());
  EXPECT_LE(r.final_undetected() * 20, r.affecting());
}

TEST(Integration, MuxScanBaselineAlternatingCatchesEverythingAffecting) {
  // With conventional MUX scan (dedicated paths), every chain-affecting
  // fault is category 1 — the motivation for Figure 2.
  Netlist nl = small_counter();
  const ScanDesign d = insert_mux_scan(nl);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  ChainFaultClassifier cls(model);
  const auto faults = collapsed_fault_list(nl);
  for (const Fault& f : faults) {
    if (cls.classify(f).category != ChainFaultCategory::Hard) continue;
    // The only functional logic inside a MUX-scan chain is the scan-enable:
    // every category-2 fault must involve the scan_mode signal.
    const NodeId seen = (f.pin >= 0)
                            ? nl.fanins(f.node)[static_cast<std::size_t>(
                                  f.pin)]
                            : f.node;
    EXPECT_EQ(seen, d.scan_mode)
        << fault_name(nl, f) << " is category-2 but unrelated to scan_mode";
  }
}

TEST(Integration, ChainTestProgramScreensEveryCoveredFault) {
  // The exported tester program (flush + step-2 vectors + verified step-3
  // sequences) must fail on *every* fault the pipeline claims covered —
  // 3-valued detection from the all-X state is monotone under concatenation,
  // so this is a hard guarantee, not a statistic.
  RandomCircuitSpec spec;
  spec.num_gates = 240;
  spec.num_ffs = 18;
  spec.num_pis = 8;
  spec.num_pos = 5;
  spec.seed = 31337;
  Netlist nl = make_random_sequential(spec);
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  const auto faults = collapsed_fault_list(nl);
  const PipelineResult r = run_fsct_pipeline(model, faults);

  const TestProgram prog = make_chain_test_program(model, r);
  EXPECT_EQ(run_test_program(lv, prog), 0u) << "healthy device must pass";

  std::size_t covered = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultOutcome o = r.outcome[i];
    if (o != FaultOutcome::EasyAlternating &&
        o != FaultOutcome::DetectedFlush && o != FaultOutcome::DetectedComb &&
        o != FaultOutcome::DetectedSeq && o != FaultOutcome::DetectedFinal) {
      continue;
    }
    ++covered;
    EXPECT_GT(run_test_program(lv, prog, &faults[i]), 0u)
        << fault_name(nl, faults[i]) << " claimed covered but passes";
  }
  EXPECT_GT(covered, 0u);
}

}  // namespace
}  // namespace fsct
