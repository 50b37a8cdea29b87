#include "core/selfcheck.h"

#include <algorithm>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "bench_circuits/generator.h"
#include "core/checkpoint.h"
#include "core/classify.h"
#include "core/test_export.h"
#include "fault/comb_fault_sim.h"
#include "fault/seq_fault_sim.h"
#include "netlist/bench_io.h"
#include "netlist/levelize.h"
#include "scan/mux_scan.h"
#include "scan/scan_sequences.h"
#include "scan/tpi.h"
#include "sim/seq_sim.h"
#include "sim/soa_circuit.h"

namespace fsct {
namespace {

constexpr const char* kOracleNames[kNumOracles] = {
    "packed-sim", "ppsfp-seq", "cat3-scanout", "jobs-identity",
    "export-replay", "dominance", "simd", "resume"};

/// splitmix64: decorrelates per-iteration / per-oracle seeds so running a
/// subset of oracles (e.g. during shrinking) draws the same random data as
/// the full run.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Val rand_bit(std::mt19937_64& rng) {
  return (rng() & 1) ? Val::One : Val::Zero;
}

/// The scan-inserted circuit plus everything the oracles need.  The netlist
/// is owned here, so Levelizer/model references stay valid.
struct ScannedWorld {
  Netlist nl;
  ScanDesign design;
  std::optional<Levelizer> lv;
  std::optional<ScanModeModel> model;
  std::vector<Fault> faults;           // collapsed universe
  std::vector<ChainFaultInfo> info;    // per fault
  std::size_t chain_ffs = 0;           // total FFs on chains
};

std::string build_world(const Netlist& pre_scan, const SelfcheckConfig& cfg,
                        ScannedWorld& w) {
  w.nl = pre_scan;
  try {
    if (cfg.use_tpi) {
      TpiOptions topt;
      topt.num_chains = cfg.chains;
      topt.scan_permille = cfg.scan_permille;
      w.design = run_tpi(w.nl, topt);
    } else {
      MuxScanOptions mopt;
      mopt.num_chains = cfg.chains;
      w.design = insert_mux_scan(w.nl, mopt);
    }
  } catch (const std::exception& e) {
    return std::string("scan insertion threw: ") + e.what();
  }
  if (std::string err = w.nl.validate(); !err.empty()) {
    return "scan insertion produced invalid netlist: " + err;
  }
  w.lv.emplace(w.nl);
  w.model.emplace(*w.lv, w.design);
  if (std::string err = w.model->check(); !err.empty()) {
    return "scan-mode invariant violated: " + err;
  }
  for (const ScanChain& c : w.design.chains) w.chain_ffs += c.length();
  w.faults = collapsed_fault_list(w.nl);
  ChainFaultClassifier cls(*w.model);
  w.info = cls.classify_all(w.faults);
  return "";
}

// ---- O1: WideSim at every lane width == scalar sim, X allowed on sources --

/// Loads lane k of every source from `scalar[k]`, runs one WideSim<NW> pass
/// and compares every net of every lane against the scalar values.
template <int NW>
std::string packed_vs_scalar(const ScannedWorld& w,
                             const std::vector<NodeId>& sources,
                             const std::vector<std::vector<Val>>& scalar) {
  WideSim<NW> sim(SoaCircuit::compile(*w.lv));
  for (NodeId s : sources) {
    for (unsigned k = 0; k < WideVal<NW>::kLanes; ++k) {
      sim.value(s).set(k, scalar[k][s]);
    }
  }
  sim.run();
  for (unsigned k = 0; k < WideVal<NW>::kLanes; ++k) {
    for (NodeId id = 0; id < w.nl.size(); ++id) {
      const Val packed = sim.value(id).at(k);
      if (packed != scalar[k][id]) {
        return std::string(kOracleNames[0]) + ": net " + w.nl.node_name(id) +
               " lane " + std::to_string(k) + " of " +
               std::to_string(WideVal<NW>::kLanes) + ": packed=" +
               val_char(packed) + " serial=" + val_char(scalar[k][id]);
      }
    }
  }
  return "";
}

std::string oracle_packed_sim(const ScannedWorld& w, std::mt19937_64 rng) {
  const Netlist& nl = w.nl;
  std::vector<NodeId> sources = nl.inputs();
  for (NodeId ff : nl.dffs()) sources.push_back(ff);

  // One scalar run per lane of the widest engine; the narrower engines take
  // the leading lanes.  A quarter of the source values are X.
  const CombSim csim(*w.lv);
  std::vector<std::vector<Val>> scalar(WideVal<8>::kLanes,
                                       std::vector<Val>(nl.size(), Val::X));
  for (std::vector<Val>& values : scalar) {
    for (NodeId s : sources) {
      values[s] = (rng() & 3) == 0 ? Val::X : rand_bit(rng);
    }
    csim.run(values);
  }
  if (std::string d = packed_vs_scalar<1>(w, sources, scalar); !d.empty()) {
    return d;
  }
  if (std::string d = packed_vs_scalar<4>(w, sources, scalar); !d.empty()) {
    return d;
  }
  return packed_vs_scalar<8>(w, sources, scalar);
}

// ---- O2: PPSFP detections of chain-untouched faults reproduce as scan
//          sequences (full-scan designs only) -------------------------------

std::string oracle_ppsfp_seq(const ScannedWorld& w, std::mt19937_64 rng) {
  const Netlist& nl = w.nl;
  if (w.chain_ffs != nl.dffs().size() || w.chain_ffs == 0) return "";

  const ScanSequenceBuilder sb(nl, w.design);
  const std::size_t maxlen = w.model->max_chain_length();
  const std::vector<Val> base = sb.base_vector(Val::Zero);

  // 64 random scan-mode patterns.  Scan-in PIs are held at the shift fill
  // value (0) so the pattern matches what apply_comb_vector presents during
  // the observe cycles.  A quarter of the free bits are X: PPSFP detection is
  // binary-opposite-only, and refining X to a concrete value (which the scan
  // load does for FF state) can never flip a binary node, so any detection
  // claimed here must survive the conversion.
  std::vector<char> is_scan_in(nl.size(), 0);
  for (const ScanChain& c : w.design.chains) is_scan_in[c.scan_in] = 1;
  auto rand_3val = [&rng]() {
    const auto r = rng() & 7;
    return r < 2 ? Val::X : (r & 1) ? Val::One : Val::Zero;
  };
  std::vector<CombPattern> pats(64);
  for (auto& p : pats) {
    p.resize(nl.inputs().size() + nl.dffs().size());
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const NodeId pi = nl.inputs()[i];
      p[i] = w.design.is_constrained(pi) ? base[i]
             : is_scan_in[pi]            ? Val::Zero
                                         : rand_3val();
    }
    for (std::size_t i = nl.inputs().size(); i < p.size(); ++i) {
      p[i] = rand_3val();
    }
  }

  std::vector<NodeId> comb_observe = nl.outputs();
  for (NodeId ff : nl.dffs()) comb_observe.push_back(ff);
  const CombFaultSim ppsfp(*w.lv, comb_observe);
  const CombFaultSimResult cr = ppsfp.run(pats, w.faults);

  std::vector<NodeId> seq_observe = nl.outputs();
  for (NodeId so : w.model->scan_outs()) {
    if (std::find(seq_observe.begin(), seq_observe.end(), so) ==
        seq_observe.end()) {
      seq_observe.push_back(so);
    }
  }
  const SeqFaultSim ssim(*w.lv, seq_observe);

  int converted = 0;
  for (std::size_t fi = 0; fi < w.faults.size(); ++fi) {
    if (cr.detect_pattern[fi] < 0) continue;
    if (w.info[fi].category != ChainFaultCategory::NotAffecting) continue;
    if (++converted > 24) break;  // bound per-circuit cost
    const CombPattern& p =
        pats[static_cast<std::size_t>(cr.detect_pattern[fi])];
    const std::vector<Val> pi_vals(p.begin(),
                                   p.begin() + static_cast<std::ptrdiff_t>(
                                                   nl.inputs().size()));
    const std::vector<Val> ff_state(
        p.begin() + static_cast<std::ptrdiff_t>(nl.inputs().size()), p.end());
    const TestSequence seq = sb.apply_comb_vector(ff_state, pi_vals,
                                                  maxlen + 2);
    const Fault one[1] = {w.faults[fi]};
    if (ssim.run_serial(seq, one).detect_cycle[0] < 0) {
      return std::string(kOracleNames[1]) + ": " + fault_name(nl, w.faults[fi]) +
             " detected by PPSFP pattern " +
             std::to_string(cr.detect_pattern[fi]) +
             " but its converted scan sequence misses it";
    }
  }
  return "";
}

// ---- O3: category-3 faults never corrupt the scan-out stream --------------

std::string oracle_cat3(const ScannedWorld& w, std::mt19937_64 rng) {
  const Netlist& nl = w.nl;
  std::vector<Fault> cat3;
  for (std::size_t i = 0; i < w.faults.size(); ++i) {
    if (w.info[i].category == ChainFaultCategory::NotAffecting) {
      cat3.push_back(w.faults[i]);
    }
  }
  std::vector<NodeId> scan_outs = w.model->scan_outs();
  scan_outs.erase(std::remove(scan_outs.begin(), scan_outs.end(), kNullNode),
                  scan_outs.end());
  if (cat3.empty() || scan_outs.empty()) return "";

  // Random shift data AND random free-PI data: chain transparency is
  // established structurally by TPI, so category-3 cleanliness may not depend
  // on the mission inputs either.
  const ScanSequenceBuilder sb(nl, w.design);
  std::vector<char> is_scan_in(nl.size(), 0);
  for (const ScanChain& c : w.design.chains) is_scan_in[c.scan_in] = 1;
  const std::size_t cycles = 2 * w.model->max_chain_length() + 16;
  TestSequence seq;
  seq.reserve(cycles);
  for (std::size_t t = 0; t < cycles; ++t) {
    std::vector<Val> v = sb.base_vector(Val::Zero);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      if (!w.design.is_constrained(nl.inputs()[i])) v[i] = rand_bit(rng);
    }
    seq.push_back(std::move(v));
  }

  const SeqFaultSim sim(*w.lv, scan_outs);
  const SeqFaultSimResult r = sim.run(seq, cat3);
  for (std::size_t i = 0; i < cat3.size(); ++i) {
    if (r.detect_cycle[i] >= 0) {
      return std::string(kOracleNames[2]) + ": " + fault_name(nl, cat3[i]) +
             " classified category-3 but corrupts the scan-out at cycle " +
             std::to_string(r.detect_cycle[i]);
    }
  }
  return "";
}

// ---- O4/O5 shared pipeline run --------------------------------------------

PipelineOptions fuzz_pipeline_options(int jobs) {
  PipelineOptions opt;
  opt.jobs = jobs;
  opt.verify_easy = true;
  opt.comb_backtrack_limit = 300;
  opt.seq_backtrack_limit = 600;
  opt.final_backtrack_limit = 1200;
  opt.random_patterns = 16;
  opt.frame_cap = 48;
  opt.final_extra_frames = 4;
  return opt;
}

std::string oracle_jobs_identity(const ScannedWorld& w,
                                 const PipelineResult& serial, int jobs) {
  const PipelineResult parallel_r =
      run_fsct_pipeline(*w.model, w.faults, fuzz_pipeline_options(jobs));
  if (std::string d = diff_pipeline_results(serial, parallel_r); !d.empty()) {
    return std::string(kOracleNames[3]) + ": jobs=1 vs jobs=" +
           std::to_string(jobs) + ": " + d;
  }
  return "";
}

// Stops a serial run at a random safe point (a pure function of the oracle
// seed), round-trips the checkpoint through the text format and resumes it
// at `jobs`: the result must equal the serial run.  A first hooked run at
// `jobs` counts the safe points and must itself equal the serial run.
std::string oracle_resume(const ScannedWorld& w, const PipelineResult& serial,
                          int jobs, std::mt19937_64 rng) {
  const std::string tag = std::string(kOracleNames[7]) + ": ";
  const std::uint64_t hash =
      checkpoint_binding_hash(*w.model, w.faults, fuzz_pipeline_options(1));
  std::size_t seen = 0, stop_at = 0;  // 0: count only, never stop
  std::string text;
  PipelineHooks hooks;
  hooks.safe_point = [&](const PipelineState& st) {
    if (++seen != stop_at) return true;
    text = serialize_checkpoint(make_checkpoint(st, hash, nullptr));
    return false;
  };
  auto run = [&](int run_jobs, const PipelineState* rz) {
    PipelineOptions opt = fuzz_pipeline_options(run_jobs);
    opt.hooks = rz ? nullptr : &hooks;
    opt.resume = rz;
    return run_fsct_pipeline(*w.model, w.faults, opt);
  };
  try {
    if (std::string d = diff_pipeline_results(serial, run(jobs, nullptr));
        !d.empty()) {
      return tag + "hooked run at jobs=" + std::to_string(jobs) + ": " + d;
    }
    stop_at = 1 + rng() % seen;
    seen = 0;
    try {
      run(1, nullptr);
      return tag + "run did not stop at safe point " + std::to_string(stop_at);
    } catch (const PipelineStopped&) {
    }
    const PipelineState rz =
        restore_checkpoint(parse_checkpoint(text, "checkpoint"), hash,
                           w.faults.size(), nullptr, "checkpoint");
    if (std::string d = diff_pipeline_results(serial, run(jobs, &rz));
        !d.empty()) {
      return tag + "resume from safe point " + std::to_string(stop_at) +
             " at jobs=" + std::to_string(jobs) + ": " + d;
    }
  } catch (const std::exception& e) {
    return tag + "threw: " + e.what();
  }
  return "";
}

std::string oracle_export_replay(const ScannedWorld& w,
                                 const PipelineResult& serial,
                                 std::mt19937_64 rng) {
  const Netlist& nl = w.nl;
  const TestProgram p = make_chain_test_program(*w.model, serial);
  TestProgram q;
  try {
    q = read_test_program_string(write_test_program_string(p));
  } catch (const std::exception& e) {
    return std::string(kOracleNames[4]) + ": round-trip parse threw: " +
           e.what();
  }
  if (q.input_names != p.input_names || q.observe_names != p.observe_names ||
      q.stimulus != p.stimulus || q.expected != p.expected) {
    return std::string(kOracleNames[4]) +
           ": program changed across write/read round-trip";
  }
  // Every expected cell must equal a scalar good-machine trace, X included:
  // the replay below treats X as don't-care on either side, so it cannot see
  // an export that wrote X where the good machine is binary.
  {
    const BoundTestProgram b = bind_test_program(nl, q);
    SeqSim sim(*w.lv);
    for (std::size_t t = 0; t < b.stimulus.size(); ++t) {
      const auto& v = sim.step(b.stimulus[t]);
      for (std::size_t o = 0; o < b.observe.size(); ++o) {
        const Val want = v[b.observe[o]];
        const Val got = (*b.expected)[t][o];
        if (got != want) {
          return std::string(kOracleNames[4]) + ": cycle " +
                 std::to_string(t) + " net " + q.observe_names[o] +
                 " exported '" + val_char(got) + "', scalar trace gives '" +
                 val_char(want) + "'";
        }
      }
    }
  }
  if (const std::size_t mm = run_test_program(*w.lv, q); mm != 0) {
    return std::string(kOracleNames[4]) + ": fault-free replay reports " +
           std::to_string(mm) + " strobe mismatches";
  }
  // Covered faults must be killed on replay (3-valued monotonicity: a test
  // verified from the all-X state still detects from any concrete state).
  std::vector<std::size_t> covered;
  for (std::size_t i = 0; i < w.faults.size(); ++i) {
    const FaultOutcome o = serial.outcome[i];
    if (o == FaultOutcome::EasyAlternating && serial.easy_verified !=
        serial.easy) {
      continue;  // only sample easy faults when step 1 verified all of them
    }
    if (o == FaultOutcome::EasyAlternating ||
        o == FaultOutcome::DetectedFlush || o == FaultOutcome::DetectedComb ||
        o == FaultOutcome::DetectedSeq || o == FaultOutcome::DetectedFinal) {
      covered.push_back(i);
    }
  }
  std::shuffle(covered.begin(), covered.end(), rng);
  if (covered.size() > 6) covered.resize(6);
  for (std::size_t i : covered) {
    if (run_test_program(*w.lv, q, &w.faults[i]) == 0) {
      return std::string(kOracleNames[4]) + ": " + fault_name(nl, w.faults[i]) +
             " is covered by the program but replay shows no mismatch";
    }
  }
  return "";
}

// ---- O6: dominance + ledger credit agrees with the plain pipeline ----------
//
// The two modes may legitimately disagree on *how* a fault is covered (a
// comb-untestable fault can still be flush-detectable; vector sets and abort
// budgets differ once the target order changes), so raw outcome equality is
// the wrong check.  The ground truth is the exported program: whenever the
// detected status differs, the side claiming detection must back the claim
// with real strobe mismatches on replay.

bool claims_detected(FaultOutcome o) {
  return o == FaultOutcome::DetectedFlush || o == FaultOutcome::DetectedComb ||
         o == FaultOutcome::DetectedSeq || o == FaultOutcome::DetectedFinal;
}

std::string oracle_dominance(const ScannedWorld& w,
                             const PipelineResult& dom_r,
                             std::mt19937_64 rng) {
  const Netlist& nl = w.nl;
  PipelineOptions nopt = fuzz_pipeline_options(1);
  nopt.dominance = false;
  const PipelineResult plain = run_fsct_pipeline(*w.model, w.faults, nopt);

  if (dom_r.easy != plain.easy || dom_r.hard != plain.hard) {
    return std::string(kOracleNames[5]) +
           ": classification depends on the dominance flag (easy " +
           std::to_string(dom_r.easy) + " vs " + std::to_string(plain.easy) +
           ", hard " + std::to_string(dom_r.hard) + " vs " +
           std::to_string(plain.hard) + ")";
  }
  if (plain.dominance_targets != 0 || plain.flush_detected != 0 ||
      plain.ledger_dropped != 0) {
    return std::string(kOracleNames[5]) +
           ": --no-dominance run reports dominance-layer activity";
  }

  const TestProgram dp = make_chain_test_program(*w.model, dom_r);
  const TestProgram pp = make_chain_test_program(*w.model, plain);
  std::vector<std::size_t> credit_sample;  // agreeing dominance detections
  for (std::size_t i = 0; i < w.faults.size(); ++i) {
    const bool d1 = claims_detected(dom_r.outcome[i]);
    const bool d0 = claims_detected(plain.outcome[i]);
    if (d1 == d0) {
      // Spot-check the credit paths even when both sides agree: flush and
      // ledger verdicts (DetectedFlush / DetectedSeq) rest on simulation
      // credit, so sample them for replay below.
      if (d1 && (dom_r.outcome[i] == FaultOutcome::DetectedFlush ||
                 dom_r.outcome[i] == FaultOutcome::DetectedSeq)) {
        credit_sample.push_back(i);
      }
      continue;
    }
    const TestProgram& claim = d1 ? dp : pp;
    if (run_test_program(*w.lv, claim, &w.faults[i]) == 0) {
      return std::string(kOracleNames[5]) + ": " + fault_name(nl, w.faults[i]) +
             (d1 ? " detected only with dominance"
                 : " detected only without dominance") +
             " and the claiming program shows no mismatch on replay";
    }
  }
  std::shuffle(credit_sample.begin(), credit_sample.end(), rng);
  if (credit_sample.size() > 6) credit_sample.resize(6);
  for (std::size_t i : credit_sample) {
    if (run_test_program(*w.lv, dp, &w.faults[i]) == 0) {
      return std::string(kOracleNames[5]) + ": " + fault_name(nl, w.faults[i]) +
             " carries dominance-mode detection credit but the exported "
             "program shows no mismatch on replay";
    }
  }
  return "";
}

// ---- O7: serial vs W-wide sequential fault simulation ----------------------

std::string oracle_simd(const ScannedWorld& w, std::mt19937_64 rng) {
  const Netlist& nl = w.nl;
  std::vector<NodeId> observe = nl.outputs();
  for (NodeId so : w.model->scan_outs()) {
    if (so != kNullNode &&
        std::find(observe.begin(), observe.end(), so) == observe.end()) {
      observe.push_back(so);
    }
  }
  if (observe.empty()) return "";

  // Random stimulus with a mix of binary and X data, long enough for fault
  // effects to reach the chain; random initial state.
  const std::size_t cycles = w.model->max_chain_length() + 8;
  auto rand_3val = [&rng]() {
    const auto r = rng() & 7;
    return r < 2 ? Val::X : (r & 1) ? Val::One : Val::Zero;
  };
  TestSequence seq;
  seq.reserve(cycles);
  for (std::size_t t = 0; t < cycles; ++t) {
    std::vector<Val> v(nl.inputs().size());
    for (Val& x : v) x = rand_3val();
    seq.push_back(std::move(v));
  }
  const Val init = (rng() & 1) ? Val::X : Val::Zero;

  // Enough random faults to span several packed words at every width.
  std::vector<Fault> fs = w.faults;
  std::shuffle(fs.begin(), fs.end(), rng);
  if (fs.size() > 96) fs.resize(96);

  const SeqFaultSim ref(*w.lv, observe, 64);
  const SeqFaultSimResult want = ref.run_serial(seq, fs, init);

  for (const int width : kSimdWidths) {
    const SeqFaultSim sim(*w.lv, observe, width);
    const SeqFaultSimResult got = sim.run(seq, fs, init);
    for (std::size_t i = 0; i < fs.size(); ++i) {
      if (got.detect_cycle[i] != want.detect_cycle[i]) {
        return std::string(kOracleNames[6]) + ": " + fault_name(nl, fs[i]) +
               " width " + std::to_string(width) + " run() detect cycle " +
               std::to_string(got.detect_cycle[i]) + " vs serial " +
               std::to_string(want.detect_cycle[i]);
      }
    }
    std::vector<FaultSeqPair> pairs;
    pairs.reserve(fs.size());
    for (const Fault& f : fs) pairs.push_back({f, &seq});
    const std::vector<int> pg = sim.run_pairs(pairs, init);
    for (std::size_t i = 0; i < fs.size(); ++i) {
      if (pg[i] != want.detect_cycle[i]) {
        return std::string(kOracleNames[6]) + ": " + fault_name(nl, fs[i]) +
               " width " + std::to_string(width) + " run_pairs() detect cycle " +
               std::to_string(pg[i]) + " vs serial " +
               std::to_string(want.detect_cycle[i]);
      }
    }
  }
  return "";
}

}  // namespace

const char* oracle_name(std::size_t index) { return kOracleNames[index]; }

unsigned parse_oracle_mask(const std::string& csv) {
  if (csv == "all" || csv.empty()) return kOracleAll;
  unsigned mask = 0;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    bool found = false;
    for (std::size_t i = 0; i < kNumOracles; ++i) {
      if (tok == kOracleNames[i]) {
        mask |= 1u << i;
        found = true;
      }
    }
    if (!found) {
      std::string names;
      for (std::size_t i = 0; i < kNumOracles; ++i) {
        names += std::string(i ? ", " : "") + kOracleNames[i];
      }
      throw std::runtime_error("unknown oracle '" + tok + "' (known: " +
                               names + ", all)");
    }
  }
  return mask;
}

std::string diff_pipeline_results(const PipelineResult& a,
                                  const PipelineResult& b) {
  auto num = [](std::size_t x) { return std::to_string(x); };
  if (a.total_faults != b.total_faults) {
    return "total_faults " + num(a.total_faults) + " vs " + num(b.total_faults);
  }
  if (a.easy != b.easy) return "easy " + num(a.easy) + " vs " + num(b.easy);
  if (a.hard != b.hard) return "hard " + num(a.hard) + " vs " + num(b.hard);
  if (a.easy_verified != b.easy_verified) {
    return "easy_verified " + num(a.easy_verified) + " vs " +
           num(b.easy_verified);
  }
  if (a.dominance_targets != b.dominance_targets) {
    return "dominance_targets " + num(a.dominance_targets) + " vs " +
           num(b.dominance_targets);
  }
  if (a.flush_detected != b.flush_detected) {
    return "flush_detected " + num(a.flush_detected) + " vs " +
           num(b.flush_detected);
  }
  if (a.ledger_dropped != b.ledger_dropped) {
    return "ledger_dropped " + num(a.ledger_dropped) + " vs " +
           num(b.ledger_dropped);
  }
  if (a.s2_detected != b.s2_detected) {
    return "s2_detected " + num(a.s2_detected) + " vs " + num(b.s2_detected);
  }
  if (a.s2_undetectable != b.s2_undetectable) {
    return "s2_undetectable " + num(a.s2_undetectable) + " vs " +
           num(b.s2_undetectable);
  }
  if (a.s2_undetected != b.s2_undetected) {
    return "s2_undetected " + num(a.s2_undetected) + " vs " +
           num(b.s2_undetected);
  }
  if (a.s2_vectors != b.s2_vectors || a.vectors != b.vectors) {
    return "step-2 vector set differs";
  }
  if (a.detection_curve != b.detection_curve) return "detection_curve differs";
  if (a.s3_circuits_group != b.s3_circuits_group ||
      a.s3_circuits_final != b.s3_circuits_final) {
    return "s3 circuit-model counts differ";
  }
  if (a.s3_detected != b.s3_detected) {
    return "s3_detected " + num(a.s3_detected) + " vs " + num(b.s3_detected);
  }
  if (a.s3_undetectable != b.s3_undetectable) {
    return "s3_undetectable " + num(a.s3_undetectable) + " vs " +
           num(b.s3_undetectable);
  }
  if (a.s3_undetected != b.s3_undetected) {
    return "s3_undetected " + num(a.s3_undetected) + " vs " +
           num(b.s3_undetected);
  }
  if (a.s3_unverified != b.s3_unverified) {
    return "s3_unverified " + num(a.s3_unverified) + " vs " +
           num(b.s3_unverified);
  }
  if (a.s3_sequence_fault != b.s3_sequence_fault) {
    return "s3 sequence fault order differs";
  }
  if (a.s3_sequences != b.s3_sequences) return "s3 sequence contents differ";
  for (std::size_t i = 0; i < a.outcome.size(); ++i) {
    if (a.outcome[i] != b.outcome[i]) {
      return "outcome[" + num(i) + "] " +
             num(static_cast<std::size_t>(a.outcome[i])) + " vs " +
             num(static_cast<std::size_t>(b.outcome[i]));
    }
  }
  return "";
}

std::string selfcheck_circuit(const Netlist& pre_scan,
                              const SelfcheckConfig& cfg,
                              std::uint64_t (*ran)[kNumOracles]) {
  ScannedWorld w;
  if (std::string err = build_world(pre_scan, cfg, w); !err.empty()) {
    return err;
  }
  if (w.chain_ffs == 0) return "";  // no chain, nothing to cross-check

  auto oracle_rng = [&](std::size_t i) {
    return std::mt19937_64(mix(cfg.check_seed + 0x517fc8ecull * (i + 1)));
  };
  auto count = [&](std::size_t i) {
    if (ran != nullptr) ++(*ran)[i];
  };

  if (cfg.oracles & kOraclePackedSim) {
    count(0);
    if (std::string d = oracle_packed_sim(w, oracle_rng(0)); !d.empty()) {
      return d;
    }
  }
  if (cfg.oracles & kOraclePpsfpSeq) {
    count(1);
    if (std::string d = oracle_ppsfp_seq(w, oracle_rng(1)); !d.empty()) {
      return d;
    }
  }
  if (cfg.oracles & kOracleCat3) {
    count(2);
    if (std::string d = oracle_cat3(w, oracle_rng(2)); !d.empty()) return d;
  }
  if (cfg.oracles & kOracleSimd) {
    count(6);
    if (std::string d = oracle_simd(w, oracle_rng(6)); !d.empty()) return d;
  }
  if (cfg.oracles &
      (kOracleJobs | kOracleExport | kOracleDominance | kOracleResume)) {
    const PipelineResult serial =
        run_fsct_pipeline(*w.model, w.faults, fuzz_pipeline_options(1));
    if (cfg.oracles & kOracleJobs) {
      count(3);
      if (std::string d = oracle_jobs_identity(w, serial, cfg.jobs);
          !d.empty()) {
        return d;
      }
    }
    if (cfg.oracles & kOracleExport) {
      count(4);
      if (std::string d = oracle_export_replay(w, serial, oracle_rng(4));
          !d.empty()) {
        return d;
      }
    }
    if (cfg.oracles & kOracleDominance) {
      count(5);
      if (std::string d = oracle_dominance(w, serial, oracle_rng(5));
          !d.empty()) {
        return d;
      }
    }
    if (cfg.oracles & kOracleResume) {
      count(7);
      if (std::string d = oracle_resume(w, serial, cfg.jobs, oracle_rng(7));
          !d.empty()) {
        return d;
      }
    }
  }
  return "";
}

// ---- shrinker --------------------------------------------------------------

namespace {

/// One structural edit applied while re-emitting the netlist as .bench text.
struct EmitEdit {
  NodeId skip = kNullNode;          ///< drop this node's definition
  NodeId replace_from = kNullNode;  ///< reads of this node ...
  NodeId replace_to = kNullNode;    ///< ... become reads of this node
  NodeId drop_po = kNullNode;       ///< remove this PO marking
  NodeId prune_gate = kNullNode;    ///< drop pin `prune_pin` of this gate
  int prune_pin = -1;
  const std::vector<char>* live = nullptr;  ///< emit only flagged nodes
};

/// Re-emits `nl` with `e` applied and reparses.  Returns nullopt when the
/// edit yields an unparsable or invalid circuit (cycle, bad arity, ...).
std::optional<Netlist> rebuild(const Netlist& nl, const EmitEdit& e) {
  auto alive = [&](NodeId id) {
    return id != e.skip && (e.live == nullptr || (*e.live)[id] != 0);
  };
  auto read_name = [&](NodeId id) -> const std::string& {
    return nl.node_name(id == e.replace_from ? e.replace_to : id);
  };
  std::ostringstream out;
  for (NodeId id : nl.inputs()) {
    if (alive(id)) out << "INPUT(" << nl.node_name(id) << ")\n";
  }
  bool have_po = false;
  for (NodeId id : nl.outputs()) {
    if (id == e.drop_po) continue;
    NodeId o = (id == e.replace_from) ? e.replace_to : id;
    if (o == e.skip || !alive(o)) continue;
    out << "OUTPUT(" << nl.node_name(o) << ")\n";
    have_po = true;
  }
  if (!have_po) return std::nullopt;
  for (NodeId id = 0; id < nl.size(); ++id) {
    if (nl.type(id) == GateType::Input || !alive(id)) continue;
    out << nl.node_name(id) << " = " << gate_type_name(nl.type(id)) << "(";
    bool first = true;
    const auto fins = nl.fanins(id);
    for (std::size_t p = 0; p < fins.size(); ++p) {
      if (id == e.prune_gate && static_cast<int>(p) == e.prune_pin) continue;
      const NodeId f = fins[p];
      if (!alive(f == e.replace_from ? e.replace_to : f)) return std::nullopt;
      if (!first) out << ", ";
      first = false;
      out << read_name(f);
    }
    out << ")\n";
  }
  try {
    Netlist c = read_bench_string(out.str(), nl.name());
    if (!c.validate().empty() || c.inputs().empty() || c.outputs().empty()) {
      return std::nullopt;
    }
    return c;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Live flags: everything backward-reachable from the POs (through DFFs).
std::vector<char> live_set(const Netlist& nl) {
  std::vector<char> live(nl.size(), 0);
  std::vector<NodeId> work;
  for (NodeId id : nl.outputs()) {
    if (!live[id]) {
      live[id] = 1;
      work.push_back(id);
    }
  }
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    for (NodeId f : nl.fanins(id)) {
      if (f != kNullNode && !live[f]) {
        live[f] = 1;
        work.push_back(f);
      }
    }
  }
  // PIs stay in the interface (dropping them is a separate, explicit edit).
  for (NodeId id : nl.inputs()) live[id] = 1;
  return live;
}

}  // namespace

Netlist shrink_netlist(const Netlist& start,
                       const std::function<bool(const Netlist&)>& still_fails,
                       int budget) {
  Netlist cur = start;
  int evals = 0;
  auto try_accept = [&](std::optional<Netlist> cand) {
    if (!cand || evals >= budget) return false;
    ++evals;
    if (!still_fails(*cand)) return false;
    cur = std::move(*cand);
    return true;
  };

  bool progress = true;
  while (progress && evals < budget) {
    progress = false;

    // Strip dead logic first: free size reduction when the failure persists.
    {
      const std::vector<char> live = live_set(cur);
      if (std::count(live.begin(), live.end(), 0) > 0) {
        EmitEdit e;
        e.live = &live;
        progress |= try_accept(rebuild(cur, e));
      }
    }

    // Bypass gates / flip-flops, highest id (latest logic) first.
    for (NodeId id = static_cast<NodeId>(cur.size()); id-- > 0 && !progress;) {
      const GateType t = cur.type(id);
      if (t == GateType::Input) continue;
      std::vector<NodeId> tried;
      for (NodeId f : cur.fanins(id)) {
        if (std::find(tried.begin(), tried.end(), f) != tried.end()) continue;
        tried.push_back(f);
        EmitEdit e;
        e.skip = id;
        e.replace_from = id;
        e.replace_to = f;
        if (try_accept(rebuild(cur, e))) {
          progress = true;
          break;
        }
        if (evals >= budget) break;
      }
    }
    if (progress) continue;

    // Drop a PO marking (keep at least one).
    if (cur.outputs().size() > 1) {
      for (NodeId po : cur.outputs()) {
        EmitEdit e;
        e.drop_po = po;
        if (try_accept(rebuild(cur, e))) {
          progress = true;
          break;
        }
        if (evals >= budget) break;
      }
    }
    if (progress) continue;

    // Prune one fanin of a multi-input gate.
    for (NodeId id = static_cast<NodeId>(cur.size()); id-- > 0 && !progress;) {
      const GateType t = cur.type(id);
      if (t == GateType::Mux || t == GateType::Dff || !is_combinational(t)) {
        continue;
      }
      const std::size_t n = cur.fanins(id).size();
      if (n < 2) continue;
      for (std::size_t p = 0; p < n; ++p) {
        EmitEdit e;
        e.prune_gate = id;
        e.prune_pin = static_cast<int>(p);
        if (try_accept(rebuild(cur, e))) {
          progress = true;
          break;
        }
        if (evals >= budget) break;
      }
    }

    // Drop an unused PI (keep at least two so TPI has a free PI to pin).
    for (std::size_t i = cur.inputs().size();
         i-- > 0 && !progress && cur.inputs().size() > 2;) {
      const NodeId pi = cur.inputs()[i];
      bool used = false;
      for (NodeId id = 0; id < cur.size() && !used; ++id) {
        for (NodeId f : cur.fanins(id)) used |= (f == pi);
      }
      if (used || cur.is_output(pi)) continue;
      EmitEdit e;
      e.skip = pi;
      if (try_accept(rebuild(cur, e))) progress = true;
      if (evals >= budget) break;
    }
  }
  return cur;
}

// ---- fuzz driver -----------------------------------------------------------

namespace {

/// Randomly corrupts bench text; the parser must reject or accept it without
/// crashing.  Returns a diagnostic only for the "crash" class we can observe
/// in-process: an exception that is not std::exception.
std::string parser_probe(const std::string& text, std::mt19937_64& rng) {
  std::string s = text;
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int k = 0; k < edits && !s.empty(); ++k) {
    switch (rng() % 5) {
      case 0:  // flip one byte to a random printable / control character
        s[rng() % s.size()] = static_cast<char>(rng() % 96 + 32);
        break;
      case 1:  // truncate
        s.resize(rng() % s.size());
        break;
      case 2:  // duplicate a slice
        {
          const std::size_t a = rng() % s.size();
          const std::size_t n = std::min<std::size_t>(rng() % 40, s.size() - a);
          s.insert(rng() % s.size(), s.substr(a, n));
        }
        break;
      case 3:  // inject a hostile line
        {
          static const char* kLines[] = {
              "x = AND()", "x = MUX(a)", "y = DFF(y)", "INPUT()",
              "OUTPUT(nosuch)", "a = FROB(b)", "= AND(a, b)", "a = AND(a, a)",
              "INPUT(pi0)", "cycles 99999999999999999999",
          };
          s.insert(rng() % s.size(),
                   std::string("\n") + kLines[rng() % 10] + "\n");
        }
        break;
      case 4:  // delete a slice
        {
          const std::size_t a = rng() % s.size();
          s.erase(a, rng() % 40);
        }
        break;
    }
  }
  try {
    const Netlist nl = read_bench_string(s, "mutated");
    (void)nl;
  } catch (const std::exception&) {
    // rejected cleanly — fine
  } catch (...) {
    return "bench parser threw a non-std exception on mutated input";
  }
  return "";
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& opt) {
  FuzzReport rep;
  auto say = [&](const std::string& line) {
    if (opt.progress) opt.progress(line);
  };
  for (int i = 0; i < opt.iterations; ++i) {
    const int iter = opt.offset + i;
    std::mt19937_64 rng(mix(opt.seed ^ (0xa02bdbf7bb3c0a7ull *
                                        (static_cast<std::uint64_t>(iter) + 1))));
    RandomCircuitSpec spec;
    spec.name = "fuzz" + std::to_string(iter);
    spec.seed = rng();
    spec.num_gates = opt.min_gates +
                     static_cast<int>(rng() % static_cast<std::uint64_t>(
                                          opt.max_gates - opt.min_gates + 1));
    spec.num_ffs = opt.min_ffs +
                   static_cast<int>(rng() % static_cast<std::uint64_t>(
                                        opt.max_ffs - opt.min_ffs + 1));
    spec.num_pis = 4 + static_cast<int>(rng() % 5);
    spec.num_pos = 2 + static_cast<int>(rng() % 4);
    spec.locality_pct = 40 + static_cast<int>(rng() % 55);
    spec.control_pct = 5 + static_cast<int>(rng() % 30);

    SelfcheckConfig cfg;
    cfg.oracles = opt.oracles;
    cfg.jobs = opt.jobs;
    cfg.check_seed = rng();
    cfg.use_tpi = (rng() & 1) != 0;
    cfg.chains = 1 + static_cast<int>(rng() % 2);
    cfg.scan_permille =
        (cfg.use_tpi && rng() % 4 == 0)
            ? 600 + static_cast<int>(rng() % 401)
            : 1000;

    const Netlist pre = make_random_sequential(spec);
    std::string diag = selfcheck_circuit(pre, cfg, &rep.oracle_runs);

    if (diag.empty() && opt.parser_stress) {
      std::mt19937_64 prng(mix(cfg.check_seed ^ 0x70a3b6e5ull));
      ++rep.parser_probes;
      diag = parser_probe(write_bench_string(pre), prng);
    }

    if (!diag.empty()) {
      say("iteration " + std::to_string(iter) + " FAILED: " + diag);
      FuzzFailure f;
      f.iteration = iter;
      f.circuit_seed = spec.seed;
      f.config = cfg;
      f.diagnostic = diag;
      // Shrink against the failing configuration only (same check seed, so
      // the oracles redraw identical random data on every candidate), and
      // pinned to the same oracle: a candidate that merely breaks scan
      // insertion or trips a different check is not the same bug.
      if (opt.shrink) {
        const std::string want = diag.substr(0, diag.find(':'));
        auto still_fails = [&](const Netlist& cand) {
          const std::string d = selfcheck_circuit(cand, cfg);
          return !d.empty() && d.substr(0, d.find(':')) == want;
        };
        f.minimized = shrink_netlist(pre, still_fails, opt.shrink_budget);
        say("shrunk to " + std::to_string(f.minimized.size()) + " nodes (from " +
            std::to_string(pre.size()) + ")");
      } else {
        f.minimized = pre;
      }
      f.repro = "fsct fuzz --seed " + std::to_string(opt.seed) + " --offset " +
                std::to_string(iter) + " --iters 1";
      rep.failures.push_back(std::move(f));
    }
    ++rep.iterations;
  }
  return rep;
}

}  // namespace fsct
