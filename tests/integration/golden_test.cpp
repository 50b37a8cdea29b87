// Golden regression pins: exact end-to-end numbers on fixed inputs.  These
// WILL move when algorithms are intentionally changed — update them together
// with a DESIGN.md note; unexpected movement means a behavioural regression.
#include <gtest/gtest.h>

#include <algorithm>

#include "bench_circuits/paper_examples.h"
#include "bench_circuits/suite.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "fault/fault.h"
#include "netlist/stats.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

TEST(Golden, S27TpiShape) {
  Netlist nl = iscas_s27();
  TpiStats stats;
  const ScanDesign d = run_tpi(nl, {}, &stats);
  EXPECT_EQ(stats.functional_segments, 1);
  EXPECT_EQ(stats.mux_segments, 2);
  EXPECT_EQ(stats.test_points, 1);
  ASSERT_EQ(d.chains.size(), 1u);
  EXPECT_EQ(d.chains[0].length(), 3u);
}

TEST(Golden, S27PipelineNumbers) {
  Netlist nl = iscas_s27();
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  const auto faults = collapsed_fault_list(nl);
  EXPECT_EQ(faults.size(), 46u);

  PipelineOptions opt;
  opt.verify_easy = true;
  const PipelineResult r = run_fsct_pipeline(model, faults, opt);
  EXPECT_EQ(r.easy, 11u);
  EXPECT_EQ(r.hard, 4u);
  EXPECT_EQ(r.easy_verified, 11u);
  // With dominance on (the default), the alternating-flush credit pre-pass
  // already proves all four hard faults, so step 2 never fires PODEM.
  EXPECT_EQ(r.dominance_targets, 4u);
  EXPECT_EQ(r.flush_detected, 4u);
  EXPECT_EQ(r.s2_detected, 0u);
  EXPECT_EQ(r.s3_undetected, 0u);

  // --no-dominance restores the historical behaviour exactly.
  opt.dominance = false;
  const PipelineResult p = run_fsct_pipeline(model, faults, opt);
  EXPECT_EQ(p.dominance_targets, 0u);
  EXPECT_EQ(p.flush_detected, 0u);
  EXPECT_EQ(p.s2_detected, 4u);
  EXPECT_EQ(p.s3_undetected, 0u);
}

// Conformance table: per-circuit fault-list sizes at each collapsing level.
// Uncollapsed = every pin/output stuck-at pair; equivalence = the repo's
// structural equivalence classes; dominance = PODEM targets after
// collapse_dominant().  Pure list construction — no simulation — so the whole
// suite is cheap to pin.
TEST(Golden, FaultCollapsingConformanceTable) {
  struct Row {
    const char* name;
    std::size_t uncollapsed, equivalence, dominance;
  };
  const Row kTable[] = {
      {"s1423", 3762, 2270, 1850},    {"s1488", 3702, 2372, 1914},
      {"s1494", 3662, 2336, 1866},    {"s3330", 10182, 6297, 5081},
      {"s4863", 13186, 8265, 6655},   {"s5378", 15740, 9757, 7868},
      {"s9234", 31510, 19726, 15801}, {"s13207", 45150, 27732, 22454},
      {"s15850", 55242, 34267, 27444}, {"s35932", 91168, 55176, 44914},
      {"s38417", 125004, 76697, 61908}, {"s38584", 108792, 67070, 54187},
  };
  {
    const Netlist nl = iscas_s27();
    const auto col = collapsed_fault_list(nl);
    EXPECT_EQ(all_faults(nl).size(), 52u);
    EXPECT_EQ(col.size(), 26u);
    EXPECT_EQ(collapse_dominant(nl, col).targets.size(), 21u);
  }
  for (const Row& row : kTable) {
    const Netlist nl = build_suite_circuit(suite_entry(row.name));
    const auto col = collapsed_fault_list(nl);
    const DominanceInfo di = collapse_dominant(nl, col);
    EXPECT_EQ(all_faults(nl).size(), row.uncollapsed) << row.name;
    EXPECT_EQ(col.size(), row.equivalence) << row.name;
    EXPECT_EQ(di.targets.size(), row.dominance) << row.name;
    // Expansion-table conformance: rep is total, every representative is a
    // kept fixpoint, and the kept set is exactly the distinct representatives.
    ASSERT_EQ(di.rep.size(), col.size()) << row.name;
    std::vector<char> is_target(col.size(), 0);
    for (std::size_t t : di.targets) is_target[t] = 1;
    for (std::size_t i = 0; i < col.size(); ++i) {
      const std::size_t r = di.rep[i];
      ASSERT_LT(r, col.size()) << row.name;
      EXPECT_EQ(di.rep[r], r) << row.name << " fault " << i;
      EXPECT_TRUE(is_target[r]) << row.name << " fault " << i;
    }
    EXPECT_TRUE(std::is_sorted(di.targets.begin(), di.targets.end()))
        << row.name;
  }
}

// End-to-end coverage pins for the fast suite circuits (wall < ~100 ms each;
// the larger circuits are covered statistically by the bench harness).  The
// PPSFP columns pin the step-2 fault-simulation work itself: any change to
// event propagation order or fault dropping moves them.
TEST(Golden, SuiteCoverageConformance) {
  struct Pin {
    const char* name;
    std::size_t easy, hard, dom_targets, flush, s2_det, s2_undetectable,
        s3_det, s3_undetected;
    std::uint64_t ppsfp_blocks, ppsfp_fault_sims, ppsfp_events,
        ppsfp_faults_dropped;
  };
  const Pin kPins[] = {
      {"s1488", 49, 42, 27, 21, 20, 1, 0, 0, 2, 22, 376, 20},
      {"s1494", 40, 10, 8, 2, 1, 5, 2, 0, 2, 13, 134, 3},
  };
  for (const Pin& p : kPins) {
    const SuiteEntry e = suite_entry(p.name);
    Netlist nl = build_suite_circuit(e);
    TpiOptions topt;
    topt.num_chains = e.chains;
    const ScanDesign d = run_tpi(nl, topt);
    const Levelizer lv(nl);
    const ScanModeModel model(lv, d);
    const auto faults = collapsed_fault_list(nl);
    PipelineOptions opt;
    opt.verify_easy = true;
    ObsRegistry obs;
    opt.obs = &obs;
    const PipelineResult r = run_fsct_pipeline(model, faults, opt);
    EXPECT_EQ(r.easy, p.easy) << p.name;
    EXPECT_EQ(r.easy_verified, p.easy) << p.name;
    EXPECT_EQ(r.hard, p.hard) << p.name;
    EXPECT_EQ(r.dominance_targets, p.dom_targets) << p.name;
    EXPECT_EQ(r.flush_detected, p.flush) << p.name;
    EXPECT_EQ(r.s2_detected, p.s2_det) << p.name;
    EXPECT_EQ(r.s2_undetectable, p.s2_undetectable) << p.name;
    EXPECT_EQ(r.s3_detected, p.s3_det) << p.name;
    EXPECT_EQ(r.s3_undetected, p.s3_undetected) << p.name;
    EXPECT_EQ(obs.total(Ctr::PpsfpBlocks), p.ppsfp_blocks) << p.name;
    EXPECT_EQ(obs.total(Ctr::PpsfpFaultSims), p.ppsfp_fault_sims) << p.name;
    EXPECT_EQ(obs.total(Ctr::PpsfpEvents), p.ppsfp_events) << p.name;
    EXPECT_EQ(obs.total(Ctr::PpsfpFaultsDropped), p.ppsfp_faults_dropped)
        << p.name;
  }
}

// Pins the PODEM search on s1423 at its suite chain count, the `fsct test
// s1423` run: its step-3 finals abort on long time-frame-expanded models, so
// any change to objective order, backtrace choice or backtracking moves these
// counts.  They are identical at any job count.
TEST(Golden, S1423PodemSearch) {
  const SuiteEntry e = suite_entry("s1423");
  Netlist nl = build_suite_circuit(e);
  TpiOptions topt;
  topt.num_chains = e.chains;
  const ScanDesign d = run_tpi(nl, topt);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  const auto faults = collapsed_fault_list(nl);
  for (int jobs : {1, 4}) {
    PipelineOptions opt;
    opt.verify_easy = true;
    opt.jobs = jobs;
    ObsRegistry obs;
    opt.obs = &obs;
    run_fsct_pipeline(model, faults, opt);
    EXPECT_EQ(obs.total(Ctr::PodemCalls), 87u) << "jobs=" << jobs;
    EXPECT_EQ(obs.total(Ctr::PodemDecisions), 41849u) << "jobs=" << jobs;
    EXPECT_EQ(obs.total(Ctr::PodemBacktracks), 41693u) << "jobs=" << jobs;
    EXPECT_EQ(obs.total(Ctr::PodemAborts), 7u) << "jobs=" << jobs;
  }
}

// The same pin on s4863, whose step-3 search is about 2.6 times longer and
// backtracks almost as often as it decides, so every un-assignment restore
// is on the path to these counts.
TEST(Golden, S4863PodemSearch) {
  const SuiteEntry e = suite_entry("s4863");
  Netlist nl = build_suite_circuit(e);
  TpiOptions topt;
  topt.num_chains = e.chains;
  const ScanDesign d = run_tpi(nl, topt);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  const auto faults = collapsed_fault_list(nl);
  for (int jobs : {1, 4}) {
    PipelineOptions opt;
    opt.verify_easy = true;
    opt.jobs = jobs;
    ObsRegistry obs;
    opt.obs = &obs;
    run_fsct_pipeline(model, faults, opt);
    EXPECT_EQ(obs.total(Ctr::PodemCalls), 122u) << "jobs=" << jobs;
    EXPECT_EQ(obs.total(Ctr::PodemDecisions), 108515u) << "jobs=" << jobs;
    EXPECT_EQ(obs.total(Ctr::PodemBacktracks), 108080u) << "jobs=" << jobs;
    EXPECT_EQ(obs.total(Ctr::PodemAborts), 22u) << "jobs=" << jobs;
  }
}

// Pins the sequential-simulation work of `fsct test s9234` at lane width
// 256: step-2 verification runs vector 0 fault-parallel and the later
// vectors as (fault, vector) pair waves of a fixed size (DESIGN.md §5o), so
// these counts move with the wave plan and are identical at any job count.
TEST(Golden, S9234SeqSimCounters) {
  const SuiteEntry e = suite_entry("s9234");
  Netlist nl = build_suite_circuit(e);
  TpiOptions topt;
  topt.num_chains = e.chains;
  const ScanDesign d = run_tpi(nl, topt);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  const auto faults = collapsed_fault_list(nl);
  for (int jobs : {1, 4}) {
    PipelineOptions opt;
    opt.verify_easy = true;
    opt.jobs = jobs;
    opt.simd_width = 256;
    ObsRegistry obs;
    opt.obs = &obs;
    run_fsct_pipeline(model, faults, opt);
    EXPECT_EQ(obs.total(Ctr::SeqSimPackedPasses), 15u) << "jobs=" << jobs;
    EXPECT_EQ(obs.total(Ctr::SeqSimCycles), 2074u) << "jobs=" << jobs;
  }
}

TEST(Golden, Figure2Model) {
  ExampleDesign e = paper_figure2();
  const NetlistStats s = compute_stats(e.nl);
  EXPECT_EQ(s.gates, 4u);
  EXPECT_EQ(s.ffs, 6u);
  const Levelizer lv(e.nl);
  const ScanModeModel m(lv, e.design);
  EXPECT_EQ(m.side_nets().size(), 2u);  // en and b
}

TEST(Golden, S27Stats) {
  const NetlistStats s = compute_stats(iscas_s27());
  EXPECT_EQ(s.nodes, 17u);
  EXPECT_EQ(s.max_depth, 6);
  EXPECT_EQ(s.max_fanout, 3u);
}

}  // namespace
}  // namespace fsct
