// Option coverage for the screening pipeline: every knob must keep the
// accounting invariants, and the verified-sequence bookkeeping must line up.
#include <gtest/gtest.h>

#include "bench_circuits/generator.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "core/selfcheck.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

struct World {
  Netlist nl;
  ScanDesign design;
  Levelizer lv;
  ScanModeModel model;
  std::vector<Fault> faults;
  explicit World(std::uint64_t seed, int gates = 220, int ffs = 16)
      : nl(make(seed, gates, ffs)), design(run_tpi(nl)), lv(nl),
        model(lv, design), faults(collapsed_fault_list(nl)) {}
  static Netlist make(std::uint64_t seed, int gates, int ffs) {
    RandomCircuitSpec spec;
    spec.num_gates = gates;
    spec.num_ffs = ffs;
    spec.num_pis = 7;
    spec.num_pos = 5;
    spec.seed = seed;
    return make_random_sequential(spec);
  }
};

void check_invariants(const PipelineResult& r) {
  EXPECT_EQ(r.affecting(), r.easy + r.hard);
  EXPECT_EQ(r.hard, r.flush_detected + r.s2_detected + r.s2_undetectable +
                        r.s2_undetected);
  EXPECT_EQ(r.s2_undetected,
            r.s3_detected + r.s3_undetectable + r.s3_undetected);
}

TEST(PipelineOptions, NoRandomPatternsPureAtpg) {
  World w(500);
  PipelineOptions opt;
  opt.random_patterns = 0;
  const PipelineResult r = run_fsct_pipeline(w.model, w.faults, opt);
  check_invariants(r);
  // Pure deterministic step 2 can now prove faults undetectable.
  EXPECT_GT(r.s2_detected + r.s2_undetectable, 0u);
}

TEST(PipelineOptions, WithAndWithoutPoObservation) {
  World w(501);
  PipelineOptions with;
  PipelineOptions without;
  without.observe_pos = false;
  const PipelineResult a = run_fsct_pipeline(w.model, w.faults, with);
  const PipelineResult b = run_fsct_pipeline(w.model, w.faults, without);
  check_invariants(a);
  check_invariants(b);
  // Dropping the PO observation can only lose step-3 coverage.
  EXPECT_LE(b.s3_detected, a.s3_detected + a.s3_undetectable +
                               a.s3_undetected);
}

TEST(PipelineOptions, ManualDistanceParams) {
  World w(502);
  PipelineOptions opt;
  opt.auto_dist = false;
  opt.dist.large_dist = 4;
  opt.dist.med_dist = 2;
  opt.dist.dist = 1;
  const PipelineResult r = run_fsct_pipeline(w.model, w.faults, opt);
  check_invariants(r);
}

TEST(PipelineOptions, VerifiedSequencesAlignWithDetections) {
  World w(503);
  const PipelineResult r = run_fsct_pipeline(w.model, w.faults);
  EXPECT_EQ(r.s3_sequences.size(), r.s3_sequence_fault.size());
  EXPECT_EQ(r.s3_sequences.size(), r.s3_detected);
  for (std::size_t k = 0; k < r.s3_sequence_fault.size(); ++k) {
    const FaultOutcome o = r.outcome[r.s3_sequence_fault[k]];
    EXPECT_TRUE(o == FaultOutcome::DetectedSeq ||
                o == FaultOutcome::DetectedFinal);
    EXPECT_FALSE(r.s3_sequences[k].empty());
  }
}

TEST(PipelineOptions, TinyFrameCapDegradesGracefully) {
  World w(504);
  PipelineOptions opt;
  opt.frame_cap = 3;
  const PipelineResult r = run_fsct_pipeline(w.model, w.faults, opt);
  check_invariants(r);  // fewer frames may cost coverage, never consistency
}

// The three retired wall-clock budget fields are inert: a run with 1 ms in
// each is the default run, outcome for outcome and counter for counter.  On
// this circuit several PODEM calls search for tens of milliseconds (about
// 4 800 decisions in all), so a clock-checked search would be cut short.
TEST(PipelineOptions, TimeLimitFieldsAreIgnored) {
  World w(508, 400, 24);
  ObsRegistry base_obs;
  PipelineOptions base;
  base.obs = &base_obs;
  ObsRegistry tight_obs;
  PipelineOptions tight;
  tight.obs = &tight_obs;
  tight.comb_time_limit_ms = 1;
  tight.seq_time_limit_ms = 1;
  tight.final_time_limit_ms = 1;
  const PipelineResult a = run_fsct_pipeline(w.model, w.faults, base);
  const PipelineResult b = run_fsct_pipeline(w.model, w.faults, tight);
  check_invariants(b);
  EXPECT_EQ(diff_pipeline_results(a, b), "");
  EXPECT_EQ(base_obs.counters_json(), tight_obs.counters_json());
}

TEST(PipelineOptions, ExplicitObserveCyclesRespected) {
  World w(506);
  PipelineOptions a;
  a.observe_cycles = 1;  // too short to flush everything out
  PipelineOptions b;
  b.observe_cycles = 2 * w.model.max_chain_length();
  const PipelineResult ra = run_fsct_pipeline(w.model, w.faults, a);
  const PipelineResult rb = run_fsct_pipeline(w.model, w.faults, b);
  check_invariants(ra);
  check_invariants(rb);
  // Longer observation windows never reduce step-2 coverage.
  EXPECT_LE(ra.s2_detected, rb.s2_detected);
}

}  // namespace
}  // namespace fsct
