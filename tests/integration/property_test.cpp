// Property-style sweeps over generated circuits:
//  P1  category-3 faults never change the scan-out stream,
//  P2  category-1 faults are always caught by the alternating flush,
//  P3  the TPI shift invariant holds for arbitrary scan-in data,
//  P4  combinationally-untestable verdicts survive a random-pattern attack.
#include <gtest/gtest.h>

#include <random>

#include "atpg/podem.h"
#include "atpg/unroll.h"
#include "bench_circuits/generator.h"
#include "core/classify.h"
#include "fault/comb_fault_sim.h"
#include "fault/seq_fault_sim.h"
#include "netlist/levelize.h"
#include "scan/scan_sequences.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;

struct World {
  Netlist nl;
  ScanDesign design;
  Levelizer lv;
  ScanModeModel model;
  explicit World(std::uint64_t seed, int gates = 260, int ffs = 20)
      : nl(make(seed, gates, ffs)),
        design(run_tpi(nl)),
        lv(nl),
        model(lv, design) {}
  static Netlist make(std::uint64_t seed, int gates, int ffs) {
    RandomCircuitSpec spec;
    spec.num_gates = gates;
    spec.num_ffs = ffs;
    spec.num_pis = 8;
    spec.num_pos = 6;
    spec.seed = seed;
    return make_random_sequential(spec);
  }
};

TestSequence random_scan_stream(const World& w, std::size_t cycles,
                                std::uint64_t seed) {
  const ScanSequenceBuilder sb(w.nl, w.design);
  std::mt19937_64 rng(seed);
  TestSequence seq;
  for (std::size_t t = 0; t < cycles; ++t) {
    std::vector<Val> v = sb.base_vector(k0);
    for (const ScanChain& c : w.design.chains) {
      for (std::size_t i = 0; i < w.nl.inputs().size(); ++i) {
        if (w.nl.inputs()[i] == c.scan_in) {
          v[i] = (rng() & 1) ? k1 : k0;
        }
      }
    }
    seq.push_back(std::move(v));
  }
  return seq;
}

class PropertySeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySeed, P1_Category3FaultsNeverTouchScanOut) {
  World w(GetParam());
  ChainFaultClassifier cls(w.model);
  const auto faults = collapsed_fault_list(w.nl);
  std::vector<Fault> cat3;
  for (const Fault& f : faults) {
    if (cls.classify(f).category == ChainFaultCategory::NotAffecting) {
      cat3.push_back(f);
    }
  }
  ASSERT_FALSE(cat3.empty());
  SeqFaultSim sim(w.lv, w.model.scan_outs());  // scan-outs only, not POs
  const TestSequence seq = random_scan_stream(w, 80, GetParam() * 3 + 1);
  const auto r = sim.run(seq, cat3);
  for (std::size_t i = 0; i < cat3.size(); ++i) {
    EXPECT_EQ(r.detect_cycle[i], -1)
        << fault_name(w.nl, cat3[i])
        << " classified category-3 but corrupted the scan-out";
  }
}

TEST_P(PropertySeed, P2_Category1FaultsCaughtByAlternatingFlush) {
  World w(GetParam());
  ChainFaultClassifier cls(w.model);
  const auto faults = collapsed_fault_list(w.nl);
  std::vector<Fault> cat1;
  for (const Fault& f : faults) {
    if (cls.classify(f).category == ChainFaultCategory::Easy) {
      cat1.push_back(f);
    }
  }
  ASSERT_FALSE(cat1.empty());
  SeqFaultSim sim(w.lv, w.model.observe());
  const auto r = sim.run(
      w.model.sequences().alternating(w.model.flush_cycles()), cat1);
  for (std::size_t i = 0; i < cat1.size(); ++i) {
    EXPECT_GE(r.detect_cycle[i], 0)
        << fault_name(w.nl, cat1[i]) << " escaped the alternating sequence";
  }
}

TEST_P(PropertySeed, P3_ShiftInvariantUnderRandomData) {
  World w(GetParam());
  SeqSim sim(w.lv);
  sim.reset(k0);
  std::vector<int> ff_index(w.nl.size(), -1);
  for (std::size_t i = 0; i < w.nl.dffs().size(); ++i) {
    ff_index[w.nl.dffs()[i]] = static_cast<int>(i);
  }
  const TestSequence seq = random_scan_stream(w, 60, GetParam() + 5);
  for (const auto& v : seq) {
    const std::vector<Val> before = sim.state();
    sim.step(v);
    for (const ScanChain& c : w.design.chains) {
      // Scan-in value of this cycle:
      Val sin = k0;
      for (std::size_t i = 0; i < w.nl.inputs().size(); ++i) {
        if (w.nl.inputs()[i] == c.scan_in) sin = v[i];
      }
      for (std::size_t k = 0; k < c.length(); ++k) {
        const Val prev =
            (k == 0) ? sin
                     : before[static_cast<std::size_t>(
                           ff_index[c.ffs[k - 1]])];
        const Val want = c.segments[k].inverting ? !prev : prev;
        ASSERT_EQ(
            sim.state()[static_cast<std::size_t>(ff_index[c.ffs[k]])], want);
      }
    }
  }
}

TEST_P(PropertySeed, P4_UntestableVerdictsSurviveRandomAttack) {
  World w(GetParam(), 180, 12);
  // Combinational scan-mode model, all state controllable/observable.
  UnrollSpec spec;
  spec.base = &w.lv;
  spec.frames = 1;
  spec.fixed_pis = w.design.pi_constraints;
  spec.controllable_state.assign(w.nl.dffs().size(), 1);
  spec.observable_ff.assign(w.nl.dffs().size(), 1);
  const UnrolledModel um = unroll(spec);
  Levelizer ulv(um.nl);
  Podem podem(ulv, um.controllable, um.observe, AtpgOptions{2000});

  std::vector<NodeId> observe = w.nl.outputs();
  for (NodeId ff : w.nl.dffs()) observe.push_back(ff);
  CombFaultSim ppsfp(w.lv, observe);

  const auto faults = collapsed_fault_list(w.nl);
  std::vector<Fault> untestable;
  for (std::size_t i = 0; i < faults.size() && untestable.size() < 40; i += 3) {
    const AtpgResult r = podem.generate(um.map_fault(faults[i]));
    if (r.status == AtpgStatus::Untestable) untestable.push_back(faults[i]);
  }
  if (untestable.empty()) GTEST_SKIP() << "no untestable faults sampled";

  // 512 random scan-mode patterns must not detect any of them.
  std::mt19937_64 rng(GetParam() * 7 + 3);
  std::vector<CombPattern> pats(512);
  const ScanSequenceBuilder sb(w.nl, w.design);
  for (auto& p : pats) {
    p.resize(w.nl.inputs().size() + w.nl.dffs().size());
    for (auto& x : p) x = (rng() & 1) ? k1 : k0;
    // Respect the scan-mode constraints.
    const auto base = sb.base_vector(k0);
    for (std::size_t i = 0; i < w.nl.inputs().size(); ++i) {
      if (w.design.is_constrained(w.nl.inputs()[i])) p[i] = base[i];
    }
  }
  const auto r = ppsfp.run(pats, untestable);
  for (std::size_t i = 0; i < untestable.size(); ++i) {
    EXPECT_EQ(r.detect_pattern[i], -1)
        << fault_name(w.nl, untestable[i])
        << " declared untestable but a random pattern detects it";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeed,
                         ::testing::Values(1001ull, 2002ull, 3003ull,
                                           4004ull, 5005ull));

}  // namespace
}  // namespace fsct
