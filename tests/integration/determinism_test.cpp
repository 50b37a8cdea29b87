// Whole-flow determinism: identical inputs must give bit-identical results
// run to run (no unordered-container iteration order leaking into decisions,
// no hidden global randomness).  Reproducibility is what makes the benches
// in bench/ meaningful.
#include <gtest/gtest.h>

#include "bench_circuits/generator.h"
#include "core/pipeline.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

Netlist circuit() {
  RandomCircuitSpec spec;
  spec.num_gates = 240;
  spec.num_ffs = 18;
  spec.num_pis = 8;
  spec.num_pos = 5;
  spec.seed = 999;
  return make_random_sequential(spec);
}

TEST(Determinism, TpiProducesIdenticalChains) {
  Netlist nl1 = circuit();
  Netlist nl2 = circuit();
  const ScanDesign d1 = run_tpi(nl1);
  const ScanDesign d2 = run_tpi(nl2);
  ASSERT_EQ(d1.chains.size(), d2.chains.size());
  for (std::size_t c = 0; c < d1.chains.size(); ++c) {
    EXPECT_EQ(d1.chains[c].ffs, d2.chains[c].ffs);
    ASSERT_EQ(d1.chains[c].segments.size(), d2.chains[c].segments.size());
    for (std::size_t k = 0; k < d1.chains[c].segments.size(); ++k) {
      EXPECT_EQ(d1.chains[c].segments[k].path, d2.chains[c].segments[k].path);
      EXPECT_EQ(d1.chains[c].segments[k].inverting,
                d2.chains[c].segments[k].inverting);
    }
  }
  EXPECT_EQ(d1.pi_constraints, d2.pi_constraints);
  EXPECT_EQ(d1.test_points, d2.test_points);
}

TEST(Determinism, PipelineProducesIdenticalOutcomes) {
  Netlist nl1 = circuit();
  Netlist nl2 = circuit();
  const ScanDesign d1 = run_tpi(nl1);
  const ScanDesign d2 = run_tpi(nl2);
  const Levelizer lv1(nl1), lv2(nl2);
  const ScanModeModel m1(lv1, d1), m2(lv2, d2);
  const auto f1 = collapsed_fault_list(nl1);
  const auto f2 = collapsed_fault_list(nl2);
  ASSERT_EQ(f1, f2);

  PipelineOptions opt;
  const PipelineResult r1 = run_fsct_pipeline(m1, f1, opt);
  const PipelineResult r2 = run_fsct_pipeline(m2, f2, opt);

  EXPECT_EQ(r1.easy, r2.easy);
  EXPECT_EQ(r1.hard, r2.hard);
  EXPECT_EQ(r1.s2_detected, r2.s2_detected);
  EXPECT_EQ(r1.s2_vectors, r2.s2_vectors);
  EXPECT_EQ(r1.s3_detected, r2.s3_detected);
  EXPECT_EQ(r1.s3_undetected, r2.s3_undetected);
  ASSERT_EQ(r1.outcome.size(), r2.outcome.size());
  for (std::size_t i = 0; i < r1.outcome.size(); ++i) {
    EXPECT_EQ(r1.outcome[i], r2.outcome[i]) << fault_name(nl1, f1[i]);
  }
  EXPECT_EQ(r1.detection_curve, r2.detection_curve);
}

// The concurrency determinism contract (DESIGN.md "Concurrency
// architecture"): the fault-parallel execution layer must produce bitwise
// identical pipeline results at any worker count — same per-fault outcomes,
// same detection curve, same step-2 vector set, same realised step-3
// sequences, in the same order.
TEST(Determinism, PipelineIdenticalAtAnyJobCount) {
  Netlist nl1 = circuit();
  Netlist nl2 = circuit();
  const ScanDesign d1 = run_tpi(nl1);
  const ScanDesign d2 = run_tpi(nl2);
  const Levelizer lv1(nl1), lv2(nl2);
  const ScanModeModel m1(lv1, d1), m2(lv2, d2);
  const auto f1 = collapsed_fault_list(nl1);
  const auto f2 = collapsed_fault_list(nl2);

  PipelineOptions opt;
  opt.verify_easy = true;
  opt.jobs = 1;
  const PipelineResult serial = run_fsct_pipeline(m1, f1, opt);
  opt.jobs = 4;
  const PipelineResult parallel = run_fsct_pipeline(m2, f2, opt);

  EXPECT_EQ(serial.jobs_used, 1u);
  EXPECT_EQ(parallel.jobs_used, 4u);
  EXPECT_EQ(serial.easy, parallel.easy);
  EXPECT_EQ(serial.hard, parallel.hard);
  EXPECT_EQ(serial.easy_verified, parallel.easy_verified);
  EXPECT_EQ(serial.s2_detected, parallel.s2_detected);
  EXPECT_EQ(serial.s2_undetectable, parallel.s2_undetectable);
  EXPECT_EQ(serial.s2_undetected, parallel.s2_undetected);
  EXPECT_EQ(serial.s2_vectors, parallel.s2_vectors);
  EXPECT_EQ(serial.s3_detected, parallel.s3_detected);
  EXPECT_EQ(serial.s3_undetectable, parallel.s3_undetectable);
  EXPECT_EQ(serial.s3_undetected, parallel.s3_undetected);
  EXPECT_EQ(serial.s3_unverified, parallel.s3_unverified);
  EXPECT_EQ(serial.s3_circuits_group, parallel.s3_circuits_group);
  EXPECT_EQ(serial.s3_circuits_final, parallel.s3_circuits_final);

  // Per-fault outcomes.
  ASSERT_EQ(serial.outcome.size(), parallel.outcome.size());
  for (std::size_t i = 0; i < serial.outcome.size(); ++i) {
    EXPECT_EQ(serial.outcome[i], parallel.outcome[i]) << fault_name(nl1, f1[i]);
  }
  // Figure-5 curve and the step-2 vector set, element for element.
  EXPECT_EQ(serial.detection_curve, parallel.detection_curve);
  EXPECT_EQ(serial.vectors, parallel.vectors);
  // Realised step-3 sequences, including their order.
  EXPECT_EQ(serial.s3_sequence_fault, parallel.s3_sequence_fault);
  EXPECT_EQ(serial.s3_sequences, parallel.s3_sequences);
}

TEST(Determinism, ClassifierParallelMatchesSerial) {
  Netlist nl = circuit();
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel m(lv, d);
  const auto faults = collapsed_fault_list(nl);
  const auto serial = ChainFaultClassifier(m).classify_all(faults);
  ThreadPool pool(4);
  const auto parallel =
      ChainFaultClassifier::classify_all_parallel(m, faults, pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].category, parallel[i].category);
    EXPECT_EQ(serial[i].locations, parallel[i].locations);
    EXPECT_EQ(serial[i].multi_chain, parallel[i].multi_chain);
  }
}

TEST(Determinism, ClassifierIsPureFunction) {
  Netlist nl = circuit();
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel m(lv, d);
  ChainFaultClassifier cls(m);
  const auto faults = collapsed_fault_list(nl);
  const auto a = cls.classify_all(faults);
  const auto b = cls.classify_all(faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].locations, b[i].locations);
  }
}

}  // namespace
}  // namespace fsct
