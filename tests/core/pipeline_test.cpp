#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "bench_circuits/suite.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "core/pipeline_exec.h"
#include "core/report.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

struct Built {
  Netlist nl;
  ScanDesign design;
  Levelizer lv;
  ScanModeModel model;
  std::vector<Fault> faults;
  explicit Built(Netlist n, TpiOptions topt = {})
      : nl(std::move(n)),
        design(run_tpi(nl, topt)),
        lv(nl),
        model(lv, design),
        faults(collapsed_fault_list(nl)) {}
  Built(ExampleDesign e)
      : nl(std::move(e.nl)),
        design(std::move(e.design)),
        lv(nl),
        model(lv, design),
        faults(collapsed_fault_list(nl)) {}
};

TEST(Pipeline, Figure2EndToEnd) {
  Built b(paper_figure2());
  PipelineOptions opt;
  opt.verify_easy = true;
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults, opt);
  EXPECT_EQ(r.total_faults, b.faults.size());
  EXPECT_GT(r.easy, 0u);
  EXPECT_GT(r.hard, 0u);
  // Everything classified Easy is really caught by the alternating flush.
  EXPECT_EQ(r.easy_verified, r.easy);
  // The headline fault (en s-a-0) ends up detected by step 2 or 3.
  std::size_t en_idx = b.faults.size();
  const Fault en_fault = paper_figure2_fault(b.nl);
  for (std::size_t i = 0; i < b.faults.size(); ++i) {
    if (b.faults[i] == en_fault) en_idx = i;
  }
  ASSERT_LT(en_idx, b.faults.size());
  EXPECT_TRUE(r.outcome[en_idx] == FaultOutcome::DetectedFlush ||
              r.outcome[en_idx] == FaultOutcome::DetectedComb ||
              r.outcome[en_idx] == FaultOutcome::DetectedSeq ||
              r.outcome[en_idx] == FaultOutcome::DetectedFinal)
      << static_cast<int>(r.outcome[en_idx]);
  EXPECT_EQ(r.final_undetected(), 0u);
}

TEST(Pipeline, AccountingAddsUp) {
  Built b(small_pipeline());
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults);
  EXPECT_EQ(r.affecting(), r.easy + r.hard);
  EXPECT_EQ(r.hard, r.flush_detected + r.s2_detected + r.s2_undetectable +
                        r.s2_undetected);
  EXPECT_EQ(r.s2_undetected, r.s3_detected + r.s3_undetectable +
                                 r.s3_undetected);
  // Outcomes agree with counters.
  std::size_t flush = 0, det2 = 0, det3 = 0, undetectable = 0, undetected = 0;
  for (FaultOutcome o : r.outcome) {
    flush += (o == FaultOutcome::DetectedFlush);
    det2 += (o == FaultOutcome::DetectedComb);
    det3 += (o == FaultOutcome::DetectedSeq || o == FaultOutcome::DetectedFinal);
    undetectable += (o == FaultOutcome::Undetectable);
    undetected += (o == FaultOutcome::Undetected);
  }
  EXPECT_EQ(flush, r.flush_detected);
  EXPECT_EQ(det2, r.s2_detected);
  EXPECT_EQ(det3, r.s3_detected);
  EXPECT_EQ(undetectable, r.s2_undetectable + r.s3_undetectable);
  EXPECT_EQ(undetected, r.s3_undetected);
}

TEST(Pipeline, NoDominanceReportsNoDominanceActivity) {
  Built b(small_pipeline());
  PipelineOptions opt;
  opt.dominance = false;
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults, opt);
  EXPECT_EQ(r.dominance_targets, 0u);
  EXPECT_EQ(r.flush_detected, 0u);
  EXPECT_EQ(r.ledger_dropped, 0u);
  for (FaultOutcome o : r.outcome) {
    EXPECT_NE(o, FaultOutcome::DetectedFlush);
  }
}

TEST(Pipeline, DominanceModesAgreeOnDetectedStatus) {
  // Dominance is an ordering + crediting layer: for this suite circuit both
  // modes must cover exactly the same fault set, even though the *step* that
  // covers a given fault may move (flush credit, ledger credit).
  Built b(small_pipeline());
  PipelineOptions opt;
  opt.verify_easy = true;
  const PipelineResult with = run_fsct_pipeline(b.model, b.faults, opt);
  opt.dominance = false;
  const PipelineResult without = run_fsct_pipeline(b.model, b.faults, opt);
  ASSERT_EQ(with.outcome.size(), without.outcome.size());
  EXPECT_EQ(with.easy, without.easy);
  EXPECT_EQ(with.hard, without.hard);
  auto detected = [](FaultOutcome o) {
    return o == FaultOutcome::DetectedFlush || o == FaultOutcome::DetectedComb ||
           o == FaultOutcome::DetectedSeq || o == FaultOutcome::DetectedFinal;
  };
  for (std::size_t i = 0; i < with.outcome.size(); ++i) {
    EXPECT_EQ(detected(with.outcome[i]), detected(without.outcome[i]))
        << fault_name(b.nl, b.faults[i]);
  }
}

TEST(Pipeline, DetectionCurveMonotone) {
  Built b(small_counter());
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults);
  EXPECT_EQ(r.detection_curve.size(), r.s2_vectors);
  for (std::size_t i = 1; i < r.detection_curve.size(); ++i) {
    EXPECT_GE(r.detection_curve[i], r.detection_curve[i - 1]);
  }
  if (!r.detection_curve.empty()) {
    EXPECT_EQ(r.detection_curve.back(), r.s2_detected);
  }
}

class PipelineRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineRandom, HighCoverageOnRandomCircuits) {
  RandomCircuitSpec spec;
  spec.num_gates = 300;
  spec.num_ffs = 24;
  spec.num_pis = 8;
  spec.num_pos = 6;
  spec.seed = GetParam();
  Built b(make_random_sequential(spec));
  PipelineOptions opt;
  opt.verify_easy = true;
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults, opt);
  EXPECT_GT(r.affecting(), 0u);
  // The paper reaches ~99.98% of chain-affecting faults; demand >= 95% here.
  EXPECT_LE(r.final_undetected() * 20, r.affecting())
      << "undetected " << r.s3_undetected << " of " << r.affecting();
  // Alternating covers all classified-easy faults.
  EXPECT_EQ(r.easy_verified, r.easy) << "a category-1 fault escaped the flush";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineRandom,
                         ::testing::Values(101ull, 202ull, 303ull));

TEST(Pipeline, ReportRowsMatchResult) {
  Built b(small_pipeline());
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults);
  const Table2Row t2 = to_table2("x", r);
  EXPECT_EQ(t2.easy, r.easy);
  EXPECT_EQ(t2.hard, r.hard);
  const Table3Row t3 = to_table3("x", r);
  EXPECT_EQ(t3.s2_det, r.s2_detected);
  EXPECT_EQ(t3.s3_undetected, r.s3_undetected);
}

TEST(Pipeline, MultiChainCircuit) {
  RandomCircuitSpec spec;
  spec.num_gates = 260;
  spec.num_ffs = 20;
  spec.seed = 404;
  TpiOptions topt;
  topt.num_chains = 2;
  Built b(make_random_sequential(spec), topt);
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults);
  EXPECT_GT(r.affecting(), 0u);
  EXPECT_LE(r.final_undetected() * 10, r.affecting());
}

// ---- step-2 verification waves ---------------------------------------------

// The per-vector loop step 2 verified with before it ran in waves: each
// vector's sequence against the faults no earlier vector detected.
std::vector<int> per_vector_first(const ScanModeModel& model,
                                  std::span<const Fault> faults,
                                  std::span<const ScanVector> vectors,
                                  std::span<const std::size_t> ids) {
  const ScanSequenceBuilder sb(model.levelizer().netlist(), model.design());
  const SeqFaultSim ssim(model.levelizer(), pipeline_observe_list(model), 64);
  std::vector<int> first(ids.size(), -1);
  for (std::size_t vi = 0; vi < vectors.size(); ++vi) {
    std::vector<Fault> open;
    std::vector<std::size_t> pos;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (first[k] < 0) {
        open.push_back(faults[ids[k]]);
        pos.push_back(k);
      }
    }
    if (open.empty()) break;
    const TestSequence seq =
        sb.apply_comb_vector(vectors[vi].ff_state, vectors[vi].pi_vals,
                             model.max_chain_length() + 2);
    const SeqFaultSimResult r = ssim.run(seq, open);
    for (std::size_t m = 0; m < open.size(); ++m) {
      if (r.detect_cycle[m] >= 0) first[pos[m]] = static_cast<int>(vi);
    }
  }
  return first;
}

// Waves after vector 0 that s2_first_vec plans for the verdicts `first`.
std::size_t waves_after_first(const std::vector<int>& first,
                              std::size_t num_vectors) {
  std::size_t waves = 0;
  for (std::size_t v0 = 1; v0 < num_vectors;) {
    const std::size_t open = static_cast<std::size_t>(
        std::count_if(first.begin(), first.end(), [&](int f) {
          return f < 0 || f >= static_cast<int>(v0);
        }));
    if (open == 0) break;
    ++waves;
    v0 += s2_wave_vectors(open);
  }
  return waves;
}

// Checks LocalExec::s2_first_vec against the per-vector loop at jobs 1 and 4
// and every lane width, and that its counters do not depend on the job
// count.  Returns the number of waves after vector 0.
std::size_t check_waves(const Built& b, std::span<const ScanVector> vectors,
                        std::span<const std::size_t> ids,
                        const std::string& what) {
  const std::vector<int> want =
      per_vector_first(b.model, b.faults, vectors, ids);
  for (int width : {64, 256, 512}) {
    std::string counters;
    for (int jobs : {1, 4}) {
      ObsRegistry obs;
      PipelineOptions opt;
      opt.jobs = jobs;
      opt.simd_width = width;
      opt.obs = &obs;
      ThreadPool pool(jobs);
      LocalExec exec(b.model, b.faults, opt, pool);
      EXPECT_EQ(exec.s2_first_vec(vectors, ids), want)
          << what << " width " << width << " jobs " << jobs;
      if (jobs == 1) {
        counters = obs.counters_json();
      } else {
        EXPECT_EQ(obs.counters_json(), counters)
            << what << " width " << width;
      }
    }
  }
  return waves_after_first(want, vectors.size());
}

// check_waves on the vectors and open faults the pipeline hands to step-2
// verification.
std::size_t check_pipeline_waves(const Built& b, const std::string& what) {
  std::vector<ScanVector> vectors;
  std::vector<std::size_t> ids;
  PipelineHooks hooks;
  hooks.safe_point = [&](const PipelineState& st) {
    if (st.next != PipelinePhase::S2Verify) return true;
    vectors = st.res.vectors;
    ids = open_hard_faults(st.res);
    return false;
  };
  PipelineOptions opt;
  opt.verify_easy = true;
  opt.hooks = &hooks;
  EXPECT_THROW(run_fsct_pipeline(b.model, b.faults, opt), PipelineStopped);
  return check_waves(b, vectors, ids, what);
}

TEST(LocalExec, WavePlanIsFixed) {
  EXPECT_EQ(s2_wave_vectors(0), kS2WavePairs);
  EXPECT_EQ(s2_wave_vectors(1), kS2WavePairs);
  EXPECT_EQ(s2_wave_vectors(23), kS2WavePairs / 23);
  EXPECT_EQ(s2_wave_vectors(kS2WavePairs), 1u);
  EXPECT_EQ(s2_wave_vectors(kS2WavePairs + 1), 1u);
}

TEST(LocalExec, FirstVectorWavesMatchPerVectorLoop) {
  // Random circuits, random vectors, every collapsed fault or every third:
  // hundreds of faults stay open after vector 0, so the later vectors take
  // many waves, one-vector waves among them.
  for (std::uint64_t seed : {11ull, 12ull}) {
    RandomCircuitSpec spec;
    spec.num_gates = 300;
    spec.num_ffs = 20;
    spec.seed = seed;
    const Built b(make_random_sequential(spec));
    std::mt19937_64 rng(seed);
    auto bit = [&] { return (rng() & 1) ? Val::One : Val::Zero; };
    std::vector<ScanVector> vectors(40);
    for (ScanVector& v : vectors) {
      for (std::size_t i = 0; i < b.nl.inputs().size(); ++i) {
        v.pi_vals.push_back(bit());
      }
      for (std::size_t i = 0; i < b.nl.dffs().size(); ++i) {
        v.ff_state.push_back(bit());
      }
    }
    const std::string what = "random seed " + std::to_string(seed);
    for (std::size_t stride : {1, 3}) {
      std::vector<std::size_t> ids;
      for (std::size_t j = 0; j < b.faults.size(); j += stride) {
        ids.push_back(j);
      }
      const std::string sub = what + " stride " + std::to_string(stride);
      EXPECT_GT(check_waves(b, vectors, ids, sub), 2u) << sub;
    }
    check_pipeline_waves(b, what);
  }
  for (const char* name : {"s1423", "s9234"}) {
    const SuiteEntry& e = suite_entry(name);
    TpiOptions topt;
    topt.num_chains = e.chains;
    const Built b(build_suite_circuit(e), topt);
    EXPECT_GE(check_pipeline_waves(b, name), 1u) << name;
  }
}

}  // namespace
}  // namespace fsct
