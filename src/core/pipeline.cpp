#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <random>
#include <thread>

#include "core/obs.h"
#include "core/parallel.h"
#include "core/pipeline_exec.h"
#include "fault/comb_fault_sim.h"

namespace fsct {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Refuses a restored state that does not fit this run.  The binding hash
// covers the circuit and options but not the file's contents, so every index
// a later phase dereferences is checked here, once, before any phase runs.
void check_resume_state(const PipelineState& st, const ScanModeModel& model,
                        std::size_t n) {
  auto refuse_if = [](bool bad, const char* what) {
    if (bad) {
      throw std::runtime_error(std::string("resume: checkpoint ") + what);
    }
  };
  const PipelineResult& r = st.res;
  refuse_if(r.outcome.size() != n || r.info.size() != n,
            "fault count does not match this run's collapsed fault list");
  const std::vector<ScanChain>& chains = model.design().chains;
  std::size_t hard = 0;
  for (const ChainFaultInfo& ci : r.info) {
    hard += ci.category == ChainFaultCategory::Hard;
    for (const ChainLocation& loc : ci.locations) {
      refuse_if(loc.chain < 0 || std::size_t(loc.chain) >= chains.size() ||
                    loc.segment < 0 ||
                    std::size_t(loc.segment) > chains[loc.chain].length(),
                "chain location outside this run's scan design");
    }
  }
  refuse_if(r.hard != hard, "hard-fault tally disagrees with its fault info");
  refuse_if(st.podem_next > hard, "PODEM position beyond the hard faults");
  refuse_if(st.next == PipelinePhase::S2Podem && st.comb_covered.size() != n,
            "comb-covered set does not match fault count");
  auto bad_ids = [n](const std::vector<std::size_t>& ids) {
    return std::any_of(ids.begin(), ids.end(),
                       [n](std::size_t j) { return j >= n; });
  };
  refuse_if(bad_ids(r.s3_sequence_fault) ||
                r.s3_sequence_fault.size() != r.s3_sequences.size(),
            "sequence fault ids out of range or misaligned");
  refuse_if(st.groups_done.size() != st.groups.size() ||
                st.finals_done.size() != st.finals.size() ||
                (!st.finals.empty() &&
                 st.finals.size() != open_hard_faults(r).size()),
            "step-3 item slots do not match the open faults");
  // Vectors and sequences are simulated as they stand: widths must fit.
  const std::size_t pis = model.levelizer().netlist().inputs().size();
  const std::size_t ffs = model.levelizer().netlist().dffs().size();
  auto bad_seq = [pis](const TestSequence& seq) {
    return std::any_of(seq.begin(), seq.end(),
                       [pis](const auto& c) { return c.size() != pis; });
  };
  bool bad_width = std::any_of(r.s3_sequences.begin(), r.s3_sequences.end(),
                               bad_seq);
  for (const ScanVector& v : r.vectors) {
    bad_width |= v.pi_vals.size() != pis || v.ff_state.size() != ffs;
  }
  for (const GroupOutcome& g : st.groups) {
    refuse_if(bad_ids(g.detected) || bad_ids(g.credited) ||
                  g.seqs.size() != g.detected.size(),
              "group fault id out of range");
    bad_width |= std::any_of(g.seqs.begin(), g.seqs.end(), bad_seq);
  }
  for (const FinalOutcome& f : st.finals) bad_width |= bad_seq(f.seq);
  refuse_if(bad_width, "vector or sequence width does not match the circuit");
}

// One run of the skeleton over `st`, one member function per phase.  The
// other members are configuration or artifacts derived from `st.res` on
// first use, so a fresh and a resumed run build them the same way.
struct Skeleton {
  const ScanModeModel& model;
  std::span<const Fault> faults;
  const PipelineOptions& opt;
  ThreadPool& pool;
  PipelineExec& exec;
  PipelineState& st;
  PipelineResult& res = st.res;
  const Levelizer& lv = model.levelizer();
  const Netlist& nl = lv.netlist();
  ObsRegistry* const obs = opt.obs;
  const std::size_t maxlen = model.max_chain_length();
  const DistanceParams dist =
      opt.auto_dist ? DistanceParams::from_maxsize(maxlen) : opt.dist;
  const std::size_t flush_cycles =  // the exported alternating flush
      opt.alternating_cycles ? opt.alternating_cycles : 2 * maxlen + 8;
  const ScanSequenceBuilder sb{nl, model.design()};

  int step = -1;  // the step whose clock runs (see run)
  std::chrono::steady_clock::time_point t0 = {};
  double cpu0 = 0;
  std::optional<std::vector<std::size_t>> hard_idx = {};
  std::shared_ptr<const DominanceInfo> dom = {};
  std::shared_ptr<const FaultAdjacency> domsets = {};
  std::shared_ptr<const std::vector<Cost>> fcost = {};

  void run(PipelinePhase p) {
    // The paper's step of `p`.  Steps 2 and 3 span several phases and are
    // timed as one, from the first of their phases this process runs.
    const int p_step = p < PipelinePhase::FlushCredit ? static_cast<int>(p)
                       : p < PipelinePhase::S3Groups  ? 2
                                                      : 3;
    if (p_step != step) {
      step = p_step;
      t0 = std::chrono::steady_clock::now();
      cpu0 = process_cpu_seconds();
      if (step == 2 && obs) obs->begin_phase("step2.atpg", res.hard);
      if (step >= 2) test_phase_sleep(step == 2 ? "s2" : "s3");
    }
    // The phase list: one member function per PipelinePhase, in order.
    static constexpr void (Skeleton::*kPhases[])() = {
        &Skeleton::classify,  &Skeleton::step1,     &Skeleton::flush_credit,
        &Skeleton::s2_podem,  &Skeleton::s2_verify, &Skeleton::s3_groups,
        &Skeleton::s3_ledger, &Skeleton::s3_final};
    static_assert(std::size(kPhases) == std::size_t(PipelinePhase::Done));
    (this->*kPhases[static_cast<std::size_t>(p)])();
  }

  void classify();
  void step1();
  void flush_credit();
  void s2_podem();
  void s2_verify();
  void s3_groups();
  void s3_ledger();
  void s3_final();

  bool hook_says_go() {
    return !opt.hooks || !opt.hooks->safe_point || opt.hooks->safe_point(st);
  }
  // Passes the state to the hook; a stop verdict becomes PipelineStopped.
  void safe_point() {
    if (!hook_says_go()) {
      throw PipelineStopped(std::string("pipeline stopped before ") +
                            pipeline_phase_name(st.next));
    }
  }
  // The per-item safe point of a step-3 phase: marks the item done in `mask`
  // and records a stop verdict in `stop`.
  PipelineExec::ItemDone item_safe_point(std::vector<char>& mask, bool& stop) {
    return [this, &mask, &stop](std::size_t item) {
      mask[item] = 1;
      stop = !hook_says_go();
      return !stop;
    };
  }

  [[gnu::format(printf, 2, 3)]] void progress(const char* fmt, ...) {
    if (!obs || !obs->progress_enabled()) return;
    char buf[192];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    obs->progress_line(buf);
  }

  // Category-2 fault ids, ascending.
  const std::vector<std::size_t>& hard() {
    if (!hard_idx) {
      hard_idx.emplace();
      for (std::size_t i = 0; i < res.info.size(); ++i) {
        if (res.info[i].category == ChainFaultCategory::Hard) {
          hard_idx->push_back(i);
        }
      }
    }
    return *hard_idx;
  }

  void build_dominance();

  // Orders fault indices by representative (cheapest excitation first) so a
  // group's faults are contiguous.  Within a group the dominating (dropped)
  // output faults go *before* the representative: if the group is
  // untestable that is proven on the output fault first and propagates down
  // the dominance table, skipping the rest; if it is testable the screening
  // simulation of the first found vector still clears the whole group.
  auto dom_order() const {
    return [this](std::size_t a, std::size_t b) {
      const std::vector<Cost>& cost = *fcost;
      const std::size_t ra = dom->rep[a], rb = dom->rep[b];
      if (cost[ra] != cost[rb]) return cost[ra] < cost[rb];
      if (ra != rb) return ra < rb;
      if ((a == ra) != (b == rb)) return a != ra;
      return a < b;
    };
  }
};

// Dominance layer: expansion table plus SCOAP excitation costs, shared by
// the step-2 target ordering and the step-3 in-group ordering.  The table
// is used to *order* targets, to decide which screening simulation runs
// first, and — in the one sound direction — to transfer combinational
// *untestability* proofs: tests(F_in) ⊆ tests(F_out) per vector, so an
// empty test set for the dominating output fault empties every dominated
// set too (`domsets`).  Detection credit is never transferred through the
// table (unsound across multi-cycle sequential tests); every fault the
// simulations miss and no proof covers still gets its own ATPG call.
// All three artifacts are pure functions of (netlist, fault list), built by
// the first phase that needs them.
void Skeleton::build_dominance() {
  if (dom || !opt.dominance || hard().empty()) return;
  if (opt.compiled && opt.compiled->dom && opt.compiled->domsets &&
      opt.compiled->fcost) {
    // Served from a compiled-model cache: the artifacts are pure functions
    // of (netlist, fault list), so reuse is invisible to results.
    dom = opt.compiled->dom;
    domsets = opt.compiled->domsets;
    fcost = opt.compiled->fcost;
    return;
  }
  dom = std::make_shared<DominanceInfo>(collapse_dominant(nl, faults));
  domsets = std::make_shared<FaultAdjacency>(dominated_sets(nl, faults));
  std::vector<char> controllable(nl.size(), 0);
  for (NodeId pi : nl.inputs()) {
    controllable[pi] = !model.design().is_constrained(pi);
  }
  for (const ScanChain& c : model.design().chains) {
    for (NodeId ff : c.ffs) controllable[ff] = 1;
  }
  fcost = std::make_shared<std::vector<Cost>>(
      fault_excitation_costs(lv, controllable, faults));
}

// ---- step 0: classification -----------------------------------------------
void Skeleton::classify() {
  if (obs) obs->begin_phase("classify", faults.size());
  test_phase_sleep("classify");
  {
    const ObsSpan phase(obs, "classify");
    std::vector<std::size_t> all_ids(faults.size());
    for (std::size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
    res.info = exec.classify(all_ids);
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    switch (res.info[i].category) {
      case ChainFaultCategory::Easy:
        res.outcome[i] = FaultOutcome::EasyAlternating;
        ++res.easy;
        break;
      case ChainFaultCategory::Hard:
        res.outcome[i] = FaultOutcome::Undetected;  // until proven otherwise
        ++res.hard;
        break;
      default:
        break;
    }
  }
  res.classify_seconds = seconds_since(t0);
  res.classify_cpu_seconds = process_cpu_seconds() - cpu0;
  if (obs) obs->sample_rss("classify");
  progress("classify: %zu faults -> %zu easy, %zu hard (%.3fs)",
           res.total_faults, res.easy, res.hard, res.classify_seconds);

  build_dominance();
  if (!dom) return;
  res.dominance_targets = static_cast<std::size_t>(
      std::count_if(hard().begin(), hard().end(),
                    [this](std::size_t j) { return dom->rep[j] == j; }));
  const std::size_t dominated = hard().size() - res.dominance_targets;
  if (obs && dominated) obs->add(Ctr::DominanceDropped, dominated);
  progress("dominance: %zu targets represent %zu hard faults",
           res.dominance_targets, res.hard);
}

// ---- step 1: alternating flush (optional verification) --------------------
void Skeleton::step1() {
  if (!opt.verify_easy || res.easy == 0) return;
  if (obs) obs->begin_phase("step1.alternating", res.easy);
  const ObsSpan phase(obs, "step1.alternating");
  const std::size_t cycles = flush_cycles;
  std::vector<std::size_t> easy_idx;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (res.info[i].category == ChainFaultCategory::Easy) {
      easy_idx.push_back(i);
    }
  }
  const std::vector<char> det =
      exec.seq_detect(sb.alternating(cycles), easy_idx);
  res.easy_verified = 0;
  for (char d : det) res.easy_verified += d != 0;
  if (obs) {
    obs->add(Ctr::AlternatingCycles, cycles);
    obs->add(Ctr::AlternatingDetected, res.easy_verified);
  }
  res.alternating_seconds = seconds_since(t0);
  res.alternating_cpu_seconds = process_cpu_seconds() - cpu0;
  if (obs) obs->sample_rss("step1.alternating");
  progress("step1: alternating flush verified %zu/%zu easy (%.3fs)",
           res.easy_verified, res.easy, res.alternating_seconds);
}

// ---- step 2: combinational ATPG + sequential fault simulation -------------

// Flush-credit pre-pass: the alternating sequence heads every exported
// program anyway, so any category-2 fault it happens to kill needs no
// dedicated test.  Credit is simulation-earned (definite detection from the
// all-X start, so it survives any program position); the category-2
// classification itself is never overruled, only the targeting.
void Skeleton::flush_credit() {
  st.comb_covered.assign(faults.size(), 0);  // step 2's screened set
  if (!opt.dominance || hard().empty()) return;
  const ObsSpan span(obs, "step2.flush_credit");
  // Credit against a *prefix* of the exported flush: a definite detection
  // within the first cycles of the alternating stream survives in the full
  // program (all-X start, monotone).  maxlen+8 cycles see every stream bit
  // traverse the longest chain once, which catches the vast majority of
  // flush-detectable faults at half the simulation cost; late detectors
  // simply stay on the ordinary step-2 path.
  const std::size_t cycles = std::min(flush_cycles, maxlen + 8);
  const std::vector<char> det =
      exec.seq_detect(sb.alternating(cycles), hard());
  for (std::size_t k = 0; k < hard().size(); ++k) {
    if (det[k]) {
      res.outcome[hard()[k]] = FaultOutcome::DetectedFlush;
      ++res.flush_detected;
      if (obs) obs->charge(Attr::CreditEvents, hard()[k]);
    }
  }
  if (obs && res.flush_detected) {
    obs->add(Ctr::FlushCreditDetected, res.flush_detected);
  }
  progress("step2: flush credit dropped %zu/%zu hard faults",
           res.flush_detected, res.hard);
}

void Skeleton::s2_podem() {
  if (hard().empty()) return;
  build_dominance();
  const ObsSpan s2span(obs, "step2.atpg");
  std::vector<char>& comb_covered = st.comb_covered;
  UnrollSpec cspec;
  cspec.base = &nl;
  cspec.frames = 1;
  cspec.fixed_pis = model.design().pi_constraints;
  // Only scanned flip-flops are load/observe-able through the chains; in a
  // partial-scan design the rest stay uncontrolled (X) and unobserved.
  cspec.controllable_state.assign(nl.dffs().size(), 0);
  cspec.observable_ff.assign(nl.dffs().size(), 0);
  {
    std::vector<char> on_chain(nl.size(), 0);
    for (const ScanChain& c : model.design().chains) {
      for (NodeId ff : c.ffs) on_chain[ff] = 1;
    }
    for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
      cspec.controllable_state[i] = on_chain[nl.dffs()[i]];
      cspec.observable_ff[i] = on_chain[nl.dffs()[i]];
    }
  }
  cspec.observe_pos = true;
  UnrolledModel cm = unroll(cspec);
  Levelizer clv(cm.nl);
  AtpgOptions aopt;
  aopt.backtrack_limit = opt.comb_backtrack_limit;
  aopt.obs = obs;
  Podem podem(clv, cm.controllable, cm.observe, aopt);

  std::vector<NodeId> comb_observe = nl.outputs();
  for (NodeId ff : nl.dffs()) comb_observe.push_back(ff);
  CombFaultSim ppsfp(lv, comb_observe);

  const std::vector<Val> base_pi = sb.base_vector(Val::Zero);

  // PPSFP-screens `pats` against the open hard faults not yet covered and
  // marks the detected ones covered; returns which patterns detected any.
  auto screen = [&](std::span<const CombPattern> pats) {
    std::vector<Fault> open;
    std::vector<std::size_t> open_idx;
    for (std::size_t j : hard()) {
      if (!comb_covered[j] && res.outcome[j] == FaultOutcome::Undetected) {
        open.push_back(faults[j]);
        open_idx.push_back(j);
      }
    }
    const CombFaultSimResult fr = ppsfp.run(pats, open, &pool, obs);
    std::vector<char> useful(pats.size(), 0);
    std::uint64_t covered = 0;
    for (std::size_t k = 0; k < open.size(); ++k) {
      if (fr.detect_pattern[k] >= 0) {
        comb_covered[open_idx[k]] = 1;
        ++covered;
        useful[static_cast<std::size_t>(fr.detect_pattern[k])] = 1;
      }
    }
    if (obs) obs->phase_tick(covered);
    return useful;
  };

  // Random-pattern warm-up: cheap coverage of the easy majority of f_hard so
  // deterministic PODEM only sees the stubborn tail.  A resume that is
  // already inside the PODEM loop (podem_next > 0) has the warm-up's effects
  // in comb_covered/vectors and must not repeat it; podem_next == 0 means no
  // target completed yet, so the warm-up itself reruns.
  if (opt.random_patterns > 0 && st.podem_next == 0) {
    std::mt19937_64 rng(0xf5c7);
    std::vector<CombPattern> pats(
        static_cast<std::size_t>(opt.random_patterns));
    for (auto& pat : pats) {
      pat = base_pi;
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        if (!model.design().is_constrained(nl.inputs()[i])) {
          pat[i] = (rng() & 1) ? Val::One : Val::Zero;
        }
      }
      pat.resize(nl.inputs().size() + nl.dffs().size());
      for (std::size_t i = nl.inputs().size(); i < pat.size(); ++i) {
        pat[i] = (rng() & 1) ? Val::One : Val::Zero;
      }
    }
    const std::vector<char> pattern_useful = screen(pats);
    for (std::size_t pi = 0; pi < pats.size(); ++pi) {
      if (!pattern_useful[pi]) continue;
      ScanVector v;
      v.pi_vals.assign(pats[pi].begin(),
                       pats[pi].begin() +
                           static_cast<std::ptrdiff_t>(nl.inputs().size()));
      v.ff_state.assign(pats[pi].begin() +
                            static_cast<std::ptrdiff_t>(nl.inputs().size()),
                        pats[pi].end());
      res.vectors.push_back(std::move(v));
    }
  }

  // Deterministic PODEM target order.  With dominance on, groups go cheapest
  // SCOAP excitation first; inside a group the dominating output faults
  // precede the representative, so an untestable group is proven so once and
  // the proof propagates, while a testable group's first vector is
  // PPSFP-screened against the rest before PODEM sees them.
  std::vector<std::size_t> podem_order = hard();
  if (dom) std::sort(podem_order.begin(), podem_order.end(), dom_order());

  for (std::size_t ti = st.podem_next; ti < podem_order.size(); ++ti) {
    const std::size_t idx = podem_order[ti];
    if (!comb_covered[idx] && res.outcome[idx] == FaultOutcome::Undetected) {
      if (obs) obs->phase_tick();
      const AtpgResult r = podem.generate(cm.map_fault(faults[idx]),
                                          static_cast<std::int64_t>(idx));
      if (r.status == AtpgStatus::Untestable) {
        res.outcome[idx] = FaultOutcome::Undetectable;
        ++res.s2_undetectable;
        // Untestability propagates down the dominance relation: every test
        // for a dominated input fault would also detect this output fault,
        // so an empty test set here proves theirs empty too (transitively).
        // Faults a simulation already covered keep their concrete verdict.
        if (domsets) {
          std::uint64_t propagated = 0;
          std::vector<std::size_t> work = {idx};
          while (!work.empty()) {
            const std::size_t u = work.back();
            work.pop_back();
            for (std::size_t d : (*domsets)[u]) {
              if (comb_covered[d]) continue;
              if (res.outcome[d] != FaultOutcome::Undetected) continue;
              res.outcome[d] = FaultOutcome::Undetectable;
              ++res.s2_undetectable;
              ++propagated;
              work.push_back(d);
            }
          }
          if (obs && propagated) {
            obs->add(Ctr::UntestablePropagated, propagated);
            obs->phase_tick(propagated);
          }
        }
      } else if (r.status == AtpgStatus::Detected) {
        ScanVector v;
        v.pi_vals = base_pi;
        v.ff_state.assign(nl.dffs().size(), Val::Zero);
        for (auto [node, val] : r.assignment) {
          for (std::size_t i = 0; i < cm.init_state.size(); ++i) {
            if (cm.init_state[i] == node) v.ff_state[i] = val;
          }
          const auto& fpi = cm.frame_pi[0];
          for (std::size_t i = 0; i < fpi.size(); ++i) {
            if (fpi[i] == node) v.pi_vals[i] = val;
          }
        }
        // Screen the new vector against all still-open hard faults so most
        // faults never reach PODEM.
        CombPattern pat = v.pi_vals;
        pat.insert(pat.end(), v.ff_state.begin(), v.ff_state.end());
        screen(std::span(&pat, 1));
        res.vectors.push_back(std::move(v));
      }
      // Aborted targets fall through to step 3.
    }
    st.podem_next = ti + 1;
    safe_point();
  }
  res.s2_vectors = res.vectors.size();
}

// Sequential verification: the converting chain may be broken by the very
// fault under test, so detection only counts after sequential fault
// simulation of the full scan sequence (also yields the Figure 5 curve).
// The exec reports, per open fault, the first vector whose scan sequence
// detects it — equivalent to the historical per-vector loop — and the curve
// is rebuilt here by walking vectors in order.
void Skeleton::s2_verify() {
  if (!hard().empty()) {
    if (obs) obs->begin_phase("step2.seq_verify", res.vectors.size());
    const ObsSpan verify_span(obs, "step2.seq_verify");
    const std::vector<std::size_t> open0 = open_hard_faults(res);
    const std::vector<int> firstv = exec.s2_first_vec(res.vectors, open0);
    for (std::size_t vi = 0; vi < res.vectors.size(); ++vi) {
      if (obs) obs->phase_tick();
      for (std::size_t k = 0; k < open0.size(); ++k) {
        if (firstv[k] == static_cast<int>(vi)) {
          res.outcome[open0[k]] = FaultOutcome::DetectedComb;
          ++res.s2_detected;
        }
      }
      res.detection_curve.push_back(res.s2_detected);
    }
  }
  res.s2_undetected = res.hard - res.flush_detected - res.s2_detected -
                       res.s2_undetectable;
  res.s2_seconds = seconds_since(t0);
  res.s2_cpu_seconds = process_cpu_seconds() - cpu0;
  if (obs) obs->sample_rss("s2");
  progress("step2: %zu vectors, %zu detected, %zu undetectable, "
           "%zu remaining (%.3fs)",
           res.s2_vectors, res.s2_detected, res.s2_undetectable,
           res.s2_undetected, res.s2_seconds);
}

// ---- step 3: grouped sequential ATPG on reduced circuits ------------------

// One work item per group, each with its own reduced model and PODEM state.
// Items fill their slot of st.groups; the merge walks groups (and faults
// within a group) in order, so counters and the s3_sequences order are
// exactly the serial ones regardless of executor or completion order.
void Skeleton::s3_groups() {
  // Step-3 outcomes are written only by the merge below, so the open set
  // here is the same whether this phase runs fresh or resumes.
  std::vector<FaultWindow> windows;
  for (std::size_t j : open_hard_faults(res)) {
    windows.push_back(make_fault_window(j, res.info[j]));
  }
  std::vector<AtpgGroup> groups = make_groups(windows, dist);
  build_dominance();
  if (dom) {
    // Front the cheap representatives inside each group: their verified
    // sequences ride-along-screen the expensive tail before it is ever
    // targeted.
    for (AtpgGroup& g : groups) {
      std::sort(g.fault_indices.begin(), g.fault_indices.end(), dom_order());
    }
  }
  std::vector<GroupOutcome>& done = st.groups;
  std::vector<char>& mask = st.groups_done;
  for (std::size_t gi = groups.size(); gi < mask.size(); ++gi) {
    if (mask[gi]) throw std::runtime_error("resume: checkpoint group index "
                                           "out of range");
  }
  if (groups.empty()) return;
  done.resize(groups.size());
  mask.resize(groups.size());
  std::vector<std::size_t> todo;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (!mask[gi]) todo.push_back(gi);
  }
  bool stop = false;
  {
    if (obs) obs->begin_phase("step3.groups", groups.size());
    const ObsSpan phase(obs, "step3.groups");
    exec.run_groups(groups, todo, done, item_safe_point(mask, stop));
  }
  if (stop) throw PipelineStopped("pipeline stopped in s3.groups");
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    ++res.s3_circuits_group;
    if (obs) {
      obs->add(Ctr::S3Groups);
      obs->observe(Hist::S3GroupSize, groups[gi].fault_indices.size());
    }
    res.s3_unverified += done[gi].unverified;
    for (std::size_t k = 0; k < done[gi].detected.size(); ++k) {
      const std::size_t j = done[gi].detected[k];
      res.outcome[j] = FaultOutcome::DetectedSeq;
      ++res.s3_detected;
      res.s3_sequences.push_back(std::move(done[gi].seqs[k]));
      res.s3_sequence_fault.push_back(j);
    }
    for (std::size_t j : done[gi].credited) {
      res.outcome[j] = FaultOutcome::DetectedSeq;
      ++res.s3_detected;
      ++res.ledger_dropped;
    }
    if (obs && !done[gi].credited.empty()) {
      obs->add(Ctr::DroppedByLedger, done[gi].credited.size());
    }
  }
  done.clear();
  mask.clear();
}

// Cross-group ledger pass: every step-3 sequence ends up in the exported
// program, so one packed simulation of their concatenation against the
// still-open faults credits detections across group boundaries (the verdict
// is established from the all-X start, hence valid in any program
// position).  Credited faults skip the expensive final individual models.
void Skeleton::s3_ledger() {
  if (!opt.dominance || res.s3_sequences.empty()) return;
  const std::vector<std::size_t> open_idx = open_hard_faults(res);
  if (open_idx.empty()) return;
  const ObsSpan span(obs, "step3.ledger");
  TestSequence all;
  for (const TestSequence& s : res.s3_sequences) {
    all.insert(all.end(), s.begin(), s.end());
  }
  const std::vector<char> det = exec.seq_detect(all, open_idx);
  std::size_t credited = 0;
  for (std::size_t k = 0; k < open_idx.size(); ++k) {
    if (det[k]) {
      res.outcome[open_idx[k]] = FaultOutcome::DetectedSeq;
      ++res.s3_detected;
      ++credited;
      if (obs) obs->charge(Attr::CreditEvents, open_idx[k]);
    }
  }
  res.ledger_dropped += credited;
  if (obs && credited) obs->add(Ctr::DroppedByLedger, credited);
  if (credited) {
    progress("step3: ledger credited %zu cross-group detections", credited);
  }
}

// Final faults: individual maximal-window models, bigger budget.  One work
// item per final fault; merged in `final_idx` order (identical to the serial
// loop).  FinalOutcomes arrive verification-included, so a resumed slot
// carries exactly the verdict the original run would have merged.
void Skeleton::s3_final() {
  const std::vector<std::size_t> final_idx = open_hard_faults(res);
  std::vector<std::vector<ChainWindow>> fwin;
  fwin.reserve(final_idx.size());
  for (std::size_t j : final_idx) {
    fwin.push_back(make_fault_window(j, res.info[j]).chains);
  }
  st.finals.resize(final_idx.size());
  st.finals_done.resize(final_idx.size());
  std::vector<std::size_t> todo;
  for (std::size_t k = 0; k < final_idx.size(); ++k) {
    if (!st.finals_done[k]) todo.push_back(k);
  }
  bool stop = false;
  {
    if (obs) obs->begin_phase("step3.final", final_idx.size());
    const ObsSpan phase(obs, "step3.final");
    exec.run_finals(final_idx, fwin, todo, st.finals,
                     item_safe_point(st.finals_done, stop));
  }
  if (stop) throw PipelineStopped("pipeline stopped in s3.final");
  for (std::size_t k = 0; k < final_idx.size(); ++k) {
    const std::size_t j = final_idx[k];
    ++res.s3_circuits_final;
    if (obs) obs->add(Ctr::S3FinalFaults);
    switch (st.finals[k].verdict) {
      case FinalVerdict::Detected:
        res.outcome[j] = FaultOutcome::DetectedFinal;
        ++res.s3_detected;
        res.s3_sequences.push_back(std::move(st.finals[k].seq));
        res.s3_sequence_fault.push_back(j);
        break;
      case FinalVerdict::Unverified:
        ++res.s3_unverified;
        ++res.s3_undetected;  // in-model only; no silicon reproduction
        break;
      case FinalVerdict::Untestable:
        res.outcome[j] = FaultOutcome::Undetectable;
        ++res.s3_undetectable;
        break;
      case FinalVerdict::Aborted:
      case FinalVerdict::NoSites:
        ++res.s3_undetected;
        break;
    }
  }
  st.finals.clear();
  st.finals_done.clear();
  res.s3_seconds = seconds_since(t0);
  res.s3_cpu_seconds = process_cpu_seconds() - cpu0;
  if (obs) obs->sample_rss("s3");
  progress("step3: %zu group + %zu final models, %zu detected, "
           "%zu undetectable, %zu undetected (%.3fs)",
           res.s3_circuits_group, res.s3_circuits_final, res.s3_detected,
           res.s3_undetectable, res.s3_undetected, res.s3_seconds);
}

}  // namespace

// The pipeline skeleton: the PipelinePhase list, run in order over one
// PipelineState.  Control flow, merge order and counter charging live here
// and ONLY here; the data-parallel per-fault/per-group work is delegated to
// a PipelineExec (LocalExec by default, a caller's decorator when opt.exec
// is set).  Every merge walks items in canonical order, so the result is
// bitwise identical for any executor — the same argument that makes
// `--jobs N` deterministic.
//
// Checkpoint/resume: opt.hooks->safe_point sees the state after every phase,
// after every PODEM target and after every step-3 group/final item (reported
// by the exec through ItemDone, the same way with or without a hook);
// opt.resume continues from such a state at its `next` phase.
PipelineResult run_fsct_pipeline(const ScanModeModel& model,
                                 std::span<const Fault> faults,
                                 const PipelineOptions& opt) {
  ThreadPool pool(opt.jobs);
  ObsRegistry* const obs = opt.obs;
  PipelineState st;
  if (opt.resume && opt.resume->next != PipelinePhase::Classify) {
    check_resume_state(*opt.resume, model, faults.size());
    st = *opt.resume;
  } else {
    st.res.outcome.assign(faults.size(), FaultOutcome::NotAffecting);
  }
  st.res.jobs_used = pool.jobs();
  st.res.total_faults = faults.size();

  if (obs) {
    obs->set_gauge(Gauge::Jobs, static_cast<std::int64_t>(st.res.jobs_used));
    obs->set_gauge(Gauge::HardwareConcurrency,
                   static_cast<std::int64_t>(
                       std::thread::hardware_concurrency()));
    obs->set_gauge(Gauge::TotalFaults,
                   static_cast<std::int64_t>(faults.size()));
    obs->set_gauge(Gauge::MaxChainLength,
                   static_cast<std::int64_t>(model.max_chain_length()));
    // Expose this run to the SIGUSR1 / heartbeat monitor and let live
    // status dumps snapshot the pool while phases run.
    obs->attach_pool(&pool);
    // Size the per-fault attribution ledger before any task can charge it
    // (fault ids used throughout are indices into `faults`).
    if (obs->attribution_requested()) obs->init_attribution(faults.size());
  }
  // Detach + restore on every exit path, including PipelineStopped.
  struct ObsGuard {
    ObsRegistry* obs = nullptr;
    ObsRegistry* prev = nullptr;
    ~ObsGuard() {
      if (obs) {
        obs->detach_pool();
        set_status_registry(prev);
      }
    }
  } obs_guard;
  if (obs) {
    obs_guard.prev = set_status_registry(obs);
    obs_guard.obs = obs;
  }

  LocalExec local(model, faults, opt, pool);
  Skeleton sk{model, faults, opt, pool, opt.exec ? *opt.exec : local, st};
  if (opt.resume) {
    sk.progress("resume: continuing at phase %s",
                pipeline_phase_name(st.next));
  }
  for (PipelinePhase p = st.next; p != PipelinePhase::Done; p = st.next) {
    sk.run(p);
    st.next = static_cast<PipelinePhase>(static_cast<int>(p) + 1);
    sk.safe_point();
  }
  if (obs) {
    obs->capture_pool(pool);
    obs->end_phase();
  }
  return std::move(st.res);
}

}  // namespace fsct
