#include "core/test_export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "bench_circuits/suite.h"
#include "core/classify.h"
#include "scan/scan_sequences.h"
#include "scan/tpi.h"
#include "sim/seq_sim.h"

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
    spec.num_gates = 180;
    spec.num_ffs = 12;
    spec.num_pis = 6;
    spec.num_pos = 4;
    spec.seed = seed;
    return make_random_sequential(spec);
  }
  TestSequence stimulus() const {
    return model.sequences().alternating(model.flush_cycles());
  }
};

TEST(TestExport, ProgramRecordsGoodResponses) {
  World w(80);
  const TestProgram p = make_test_program(w.model, {w.stimulus()});
  EXPECT_EQ(p.circuit, w.nl.name());
  EXPECT_EQ(p.input_names.size(), w.nl.inputs().size());
  ASSERT_EQ(p.stimulus.size(), p.expected.size());
  // A healthy device must pass its own program.
  EXPECT_EQ(run_test_program(w.lv, p), 0u);
}

TEST(TestExport, RoundTripsThroughText) {
  World w(81);
  const TestProgram p = make_test_program(w.model, {w.stimulus()});
  const std::string text = write_test_program_string(p);
  const TestProgram q = read_test_program_string(text);
  EXPECT_EQ(q.circuit, p.circuit);
  EXPECT_EQ(q.input_names, p.input_names);
  EXPECT_EQ(q.observe_names, p.observe_names);
  EXPECT_EQ(q.stimulus, p.stimulus);
  EXPECT_EQ(q.expected, p.expected);
}

TEST(TestExport, FaultyDeviceFailsTheProgram) {
  World w(82);
  const TestProgram p = make_test_program(w.model, {w.stimulus()});
  ChainFaultClassifier cls(w.model);
  const auto faults = collapsed_fault_list(w.nl);
  int easy_checked = 0;
  for (const Fault& f : faults) {
    if (cls.classify(f).category != ChainFaultCategory::Easy) continue;
    EXPECT_GT(run_test_program(w.lv, p, &f), 0u) << fault_name(w.nl, f);
    if (++easy_checked >= 10) break;
  }
  EXPECT_GE(easy_checked, 3);
}

TEST(TestExport, BindReordersInputsByName) {
  World w(83);
  TestProgram p = make_test_program(w.model, {w.stimulus()});
  // Shuffle the input columns; binding must undo it.
  std::reverse(p.input_names.begin(), p.input_names.end());
  for (auto& row : p.stimulus) std::reverse(row.begin(), row.end());
  EXPECT_EQ(run_test_program(w.lv, p), 0u);
}

TEST(TestExport, BindRejectsUnknownNames) {
  World w(84);
  TestProgram p = make_test_program(w.model, {w.stimulus()});
  p.observe_names.push_back("ghost_net");
  for (auto& row : p.expected) row.push_back(Val::X);
  EXPECT_THROW(bind_test_program(w.nl, p), std::runtime_error);
}

TEST(TestExport, ParserRejectsMalformedInput) {
  EXPECT_THROW(read_test_program_string("nonsense"), std::runtime_error);
  EXPECT_THROW(read_test_program_string("FSCT-TEST 1\ncycles 1\n"),
               std::runtime_error);
  EXPECT_THROW(read_test_program_string(
                   "FSCT-TEST 1\ninputs a\nobserve y\ncycles 1\nv 01 | 0\n"),
               std::runtime_error);  // stimulus width mismatch
}

TEST(TestExport, CommentsAndBlankLinesIgnored) {
  World w(85);
  const TestProgram p = make_test_program(w.model, {w.stimulus()});
  std::string text = "# tester program\n\n" + write_test_program_string(p);
  const TestProgram q = read_test_program_string(text);
  EXPECT_EQ(q.stimulus, p.stimulus);
}

// The reference the segmented export must reproduce: one scalar SeqSim run
// over the whole flat stimulus from power-up.
std::vector<std::vector<Val>> scalar_trace(const Levelizer& lv,
                                           const TestProgram& p) {
  const BoundTestProgram b = bind_test_program(lv.netlist(), p);
  SeqSim sim(lv);
  std::vector<std::vector<Val>> rows;
  for (const auto& pi : b.stimulus) {
    const auto& v = sim.step(pi);
    std::vector<Val> row;
    for (NodeId o : b.observe) row.push_back(v[o]);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string row_string(const std::vector<Val>& row) {
  std::string s;
  for (Val v : row) s += val_char(v);
  return s;
}

// Byte-identical to the flat scalar trace of the same stimulus.
void expect_scalar_exact(const Levelizer& lv, const TestProgram& p,
                         const std::string& what) {
  TestProgram ref = p;
  ref.expected = scalar_trace(lv, p);
  ASSERT_EQ(ref.expected.size(), p.expected.size()) << what;
  for (std::size_t t = 0; t < ref.expected.size(); ++t) {
    ASSERT_EQ(row_string(p.expected[t]), row_string(ref.expected[t]))
        << what << ", cycle " << t;
  }
  EXPECT_EQ(write_test_program_string(p), write_test_program_string(ref))
      << what;
}

// Chain-test-shaped segments: the flush, `vectors` random scan loads with
// observe, then one random free-running sequence (random X-laced stimulus on
// every PI, like a step-3 test leaving scan mode).
std::vector<TestSequence> random_segments(const ScanModeModel& model,
                                          std::size_t vectors,
                                          std::mt19937_64& rng) {
  const Netlist& nl = model.levelizer().netlist();
  const ScanSequenceBuilder& sb = model.sequences();
  auto rand_3val = [&rng]() {
    const auto r = rng() & 7;
    return r < 2 ? Val::X : (r & 1) ? Val::One : Val::Zero;
  };
  std::vector<TestSequence> segs{sb.alternating(model.flush_cycles())};
  for (std::size_t k = 0; k < vectors; ++k) {
    std::vector<Val> ff(nl.dffs().size()), pi(nl.inputs().size());
    for (Val& v : ff) v = rand_3val();
    for (Val& v : pi) v = rand_3val();
    segs.push_back(sb.apply_comb_vector(ff, pi, model.observe_cycles()));
  }
  TestSequence free_run(12, std::vector<Val>(nl.inputs().size()));
  for (auto& row : free_run) {
    for (Val& v : row) v = rand_3val();
  }
  segs.push_back(std::move(free_run));
  return segs;
}

// One case per circuit (s27, then the paper suite at its chain counts), so
// ctest spreads the suite over its workers.  Each case draws its segments
// from its own mt19937_64(13).
struct SuiteCircuit {
  std::string name;
};
void PrintTo(const SuiteCircuit& c, std::ostream* os) { *os << c.name; }

std::vector<SuiteCircuit> suite_circuits() {
  std::vector<SuiteCircuit> out{{"s27"}};
  for (const SuiteEntry& e : paper_suite()) out.push_back({e.name});
  return out;
}

class TestExport : public ::testing::TestWithParam<SuiteCircuit> {};

TEST_P(TestExport, SegmentedTraceMatchesScalarOnSuite) {
  const std::string& name = GetParam().name;
  const bool s27 = name == "s27";
  const Netlist base =
      s27 ? iscas_s27() : build_suite_circuit(suite_entry(name));
  std::mt19937_64 rng(13);
  for (const int permille : {1000, 400}) {
    Netlist nl = base;
    TpiOptions topt;
    topt.num_chains = s27 ? 1 : suite_entry(name).chains;
    topt.scan_permille = permille;
    const ScanDesign d = run_tpi(nl, topt);
    const Levelizer lv(nl);
    const ScanModeModel model(lv, d);
    const TestProgram p =
        make_test_program(model, random_segments(model, 4, rng));
    expect_scalar_exact(lv, p,
                        nl.name() + " permille " + std::to_string(permille));
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, TestExport,
                         ::testing::ValuesIn(suite_circuits()));

TEST(TestExport, ChainProgramWithStep3SequencesMatchesScalar) {
  World w(83);
  const PipelineResult r =
      run_fsct_pipeline(w.model, collapsed_fault_list(w.nl));
  ASSERT_FALSE(r.s3_sequences.empty());
  expect_scalar_exact(w.lv, make_chain_test_program(w.model, r), "seed 83");
}

// The chain program plays the model's flush, then one scan load plus
// observe_cycles() segment per step-2 vector, then the step-3 sequences.
TEST(TestExport, ChainProgramSegmentLengths) {
  World w(83);
  const PipelineResult r =
      run_fsct_pipeline(w.model, collapsed_fault_list(w.nl));
  ASSERT_FALSE(r.vectors.empty());
  const TestProgram p = make_chain_test_program(w.model, r);
  const ScanSequenceBuilder& sb = w.model.sequences();
  std::size_t at = 0;
  auto expect_segment = [&](const TestSequence& seg, std::size_t len,
                            const std::string& what) {
    ASSERT_EQ(seg.size(), len) << what;
    ASSERT_LE(at + len, p.stimulus.size()) << what;
    EXPECT_TRUE(std::equal(seg.begin(), seg.end(),
                           p.stimulus.begin() + static_cast<std::ptrdiff_t>(at)))
        << what;
    at += len;
  };
  expect_segment(sb.alternating(w.model.flush_cycles()),
                 w.model.flush_cycles(), "flush");
  for (std::size_t k = 0; k < r.vectors.size(); ++k) {
    const ScanVector& v = r.vectors[k];
    expect_segment(
        sb.apply_comb_vector(v.ff_state, v.pi_vals, w.model.observe_cycles()),
        w.model.max_chain_length() + w.model.observe_cycles(),
        "step-2 vector " + std::to_string(k));
  }
  for (const TestSequence& seq : r.s3_sequences) {
    expect_segment(seq, seq.size(), "step-3 sequence");
  }
  EXPECT_EQ(at, p.stimulus.size());
}

TEST(TestExport, MoreSegmentsThanLanesMatchScalar) {
  World w(86);
  std::mt19937_64 rng(86);
  const std::vector<TestSequence> segs = random_segments(w.model, 150, rng);
  ASSERT_GT(segs.size(), 128u);  // three 64-lane blocks
  expect_scalar_exact(w.lv, make_test_program(w.model, segs), "150 vectors");
  // Cutting the same stimulus differently never changes the program.
  TestSequence flat;
  for (const TestSequence& s : segs) flat.insert(flat.end(), s.begin(), s.end());
  EXPECT_EQ(write_test_program_string(make_test_program(w.model, {flat})),
            write_test_program_string(make_test_program(w.model, segs)));
}

TEST(TestExport, StickyStateNeedsOnePassPerSegment) {
  // q = DFF(OR(q, set)): X from power-up, 1 forever once `set` pulses in
  // the first segment.  Segment k only sees q = 1 after k + 1 passes, so a
  // trace that stops after fewer passes leaves X where the device shows 1.
  Netlist nl("sticky");
  const NodeId set = nl.add_input("set");
  const NodeId q = nl.add_dff_floating("q");
  const NodeId d = nl.add_gate(GateType::Or, {q, set}, "d");
  nl.set_fanin(q, 0, d);
  nl.mark_output(q);
  const Levelizer lv(nl);
  const ScanDesign none;
  const ScanModeModel model(lv, none);
  std::vector<TestSequence> segs{{{Val::Zero}, {Val::One}, {Val::Zero}}};
  for (int k = 0; k < 70; ++k) segs.push_back({{Val::Zero}, {Val::Zero}});
  const TestProgram p = make_test_program(model, segs);
  expect_scalar_exact(lv, p, "sticky");
  EXPECT_EQ(p.expected.back()[0], Val::One);
}

TEST(TestExport, Figure2ProgramFromPipelineVectors) {
  ExampleDesign e = paper_figure2();
  const Levelizer lv(e.nl);
  const ScanModeModel model(lv, e.design);
  const TestProgram p =
      make_test_program(model, {model.sequences().alternating(20)});
  EXPECT_EQ(run_test_program(lv, p), 0u);
  const Fault f{e.nl.find("a"), -1, true};  // category-1 chain fault
  EXPECT_GT(run_test_program(lv, p, &f), 0u);
}

}  // namespace
}  // namespace fsct
