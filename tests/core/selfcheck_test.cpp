// Tests for the differential self-check subsystem (core/selfcheck.h): the
// oracles pass on known-good circuits, the result differ catches fabricated
// divergence, the shrinker minimizes under a structural predicate, and the
// fuzz loop is deterministic in (seed, offset).
#include "core/selfcheck.h"

#include <gtest/gtest.h>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "core/pipeline.h"
#include "netlist/bench_io.h"
#include "netlist/levelize.h"
#include "scan/scan_mode_model.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

TEST(Selfcheck, OracleMaskParsing) {
  EXPECT_EQ(parse_oracle_mask("all"), kOracleAll);
  EXPECT_EQ(parse_oracle_mask("packed-sim"), kOraclePackedSim);
  EXPECT_EQ(parse_oracle_mask("cat3-scanout,jobs-identity"),
            kOracleCat3 | kOracleJobs);
  EXPECT_THROW(parse_oracle_mask("frobnicate"), std::runtime_error);
  for (std::size_t i = 0; i < kNumOracles; ++i) {
    EXPECT_EQ(parse_oracle_mask(oracle_name(i)), 1u << i);
  }
}

TEST(Selfcheck, S27CleanBothScanStyles) {
  const Netlist s27 = iscas_s27();
  for (const bool tpi : {true, false}) {
    SelfcheckConfig cfg;
    cfg.use_tpi = tpi;
    cfg.jobs = 3;
    std::uint64_t ran[kNumOracles] = {};
    EXPECT_EQ(selfcheck_circuit(s27, cfg, &ran), "");
    // Every default oracle runs; the resume oracle is opt-in by name and
    // must NOT run under `all`.
    for (std::size_t i = 0; i < kNumOracles; ++i) {
      EXPECT_EQ(ran[i], (kOracleAll >> i) & 1u) << oracle_name(i);
    }
  }
}

TEST(Selfcheck, RandomCircuitsClean) {
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    RandomCircuitSpec spec;
    spec.name = "sc" + std::to_string(seed);
    spec.seed = seed;
    spec.num_gates = 40;
    spec.num_ffs = 6;
    SelfcheckConfig cfg;
    cfg.use_tpi = (seed & 1) != 0;
    cfg.check_seed = seed;
    EXPECT_EQ(selfcheck_circuit(make_random_sequential(spec), cfg), "")
        << "seed " << seed;
  }
}

TEST(Selfcheck, DiffCatchesFabricatedDivergence) {
  Netlist nl = iscas_s27();
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  const auto faults = collapsed_fault_list(nl);
  PipelineOptions opt;
  opt.jobs = 1;
  const PipelineResult a = run_fsct_pipeline(model, faults, opt);
  EXPECT_EQ(diff_pipeline_results(a, a), "");

  PipelineResult b = a;
  ++b.s2_detected;
  EXPECT_NE(diff_pipeline_results(a, b).find("s2_detected"),
            std::string::npos);

  PipelineResult c = a;
  ASSERT_FALSE(c.outcome.empty());
  c.outcome[0] = c.outcome[0] == FaultOutcome::Undetected
                     ? FaultOutcome::DetectedComb
                     : FaultOutcome::Undetected;
  EXPECT_NE(diff_pipeline_results(a, c), "");

  PipelineResult e = a;
  if (!e.vectors.empty()) {
    e.vectors[0].pi_vals[0] =
        e.vectors[0].pi_vals[0] == Val::One ? Val::Zero : Val::One;
    EXPECT_NE(diff_pipeline_results(a, e).find("vector"), std::string::npos);
  }
}

TEST(Selfcheck, ShrinkerMinimizesUnderStructuralPredicate) {
  RandomCircuitSpec spec;
  spec.name = "shrinkme";
  spec.seed = 99;
  spec.num_gates = 120;
  spec.num_ffs = 8;
  const Netlist start = make_random_sequential(spec);

  auto has_xor = [](const Netlist& nl) {
    for (NodeId id = 0; id < nl.size(); ++id) {
      if (nl.type(id) == GateType::Xor || nl.type(id) == GateType::Xnor) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(has_xor(start));
  const Netlist min = shrink_netlist(start, has_xor, 400);
  EXPECT_TRUE(has_xor(min));
  EXPECT_LT(min.size(), start.size() / 2);
  EXPECT_EQ(min.validate(), "");
  // The minimized circuit round-trips through .bench text.
  const Netlist reread = read_bench_string(write_bench_string(min), "rt");
  EXPECT_EQ(reread.size(), min.size());
}

TEST(Selfcheck, ShrinkerReturnsInputWhenPredicateNeverHolds) {
  RandomCircuitSpec spec;
  spec.name = "noshrink";
  spec.seed = 7;
  spec.num_gates = 30;
  const Netlist start = make_random_sequential(spec);
  const Netlist out = shrink_netlist(
      start, [](const Netlist&) { return false; }, 50);
  EXPECT_EQ(out.size(), start.size());
}

TEST(Selfcheck, FuzzSmokeAndDeterminism) {
  FuzzOptions opt;
  opt.seed = 77;
  opt.iterations = 6;
  opt.jobs = 2;
  opt.max_gates = 40;
  opt.max_ffs = 6;
  const FuzzReport a = run_fuzz(opt);
  EXPECT_TRUE(a.ok()) << (a.failures.empty() ? "" : a.failures[0].diagnostic);
  EXPECT_EQ(a.iterations, 6);
  for (std::size_t i = 0; i < kNumOracles; ++i) {
    EXPECT_EQ(a.oracle_runs[i], ((kOracleAll >> i) & 1u) ? 6u : 0u)
        << oracle_name(i);
  }
  EXPECT_EQ(a.parser_probes, 6u);

  // Same options → identical report; offset slicing → same per-iteration work.
  const FuzzReport b = run_fuzz(opt);
  EXPECT_EQ(b.failures.size(), a.failures.size());
  FuzzOptions tail = opt;
  tail.offset = 4;
  tail.iterations = 2;
  const FuzzReport c = run_fuzz(tail);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.iterations, 2);
}

TEST(Selfcheck, OracleSubsetRunsOnlySelected) {
  FuzzOptions opt;
  opt.seed = 5;
  opt.iterations = 3;
  opt.oracles = kOraclePackedSim | kOracleCat3;
  opt.parser_stress = false;
  const FuzzReport r = run_fuzz(opt);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.oracle_runs[0], 3u);
  EXPECT_EQ(r.oracle_runs[1], 0u);
  EXPECT_EQ(r.oracle_runs[2], 3u);
  EXPECT_EQ(r.oracle_runs[3], 0u);
  EXPECT_EQ(r.oracle_runs[4], 0u);
  EXPECT_EQ(r.oracle_runs[5], 0u);
  EXPECT_EQ(r.parser_probes, 0u);
}

}  // namespace
}  // namespace fsct
