#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
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

}  // namespace

// The pipeline skeleton.  Control flow, merge order and counter charging live
// here and ONLY here; the data-parallel per-fault/per-group work is delegated
// to a PipelineExec (LocalExec by default, a caller's decorator when
// opt.exec is set).  Every merge walks items in canonical order, so the
// result is bitwise identical for any executor — the same argument that makes
// `--jobs N` deterministic.
//
// Checkpoint/resume: opt.hooks->safe_point fires at phase boundaries, after
// every PODEM target and after every step-3 group/final item (reported by
// the exec through ItemDone, passed only when a hook is set).  opt.resume
// restores the state such a callback observed and skips the completed work.
// Step-3 outcome/counter merges happen only in the post-phase merge loops,
// so mid-phase checkpoints never contain half-merged state: the
// groups_done/finals_done maps carry the completed items and the merge runs
// exactly once, in the run that finishes the phase.
PipelineResult run_fsct_pipeline(const ScanModeModel& model,
                                 std::span<const Fault> faults,
                                 const PipelineOptions& opt) {
  const Levelizer& lv = model.levelizer();
  const Netlist& nl = lv.netlist();
  ThreadPool pool(opt.jobs);
  ObsRegistry* const obs = opt.obs;
  PipelineResult res;

  const PipelineResume* const rz = opt.resume;
  const PipelinePhase start = rz ? rz->phase : PipelinePhase::Classify;
  if (rz && start > PipelinePhase::Classify) {
    res = rz->partial;
    if (res.outcome.size() != faults.size() ||
        res.info.size() != faults.size()) {
      throw std::runtime_error(
          "resume: checkpoint fault count does not match this run's "
          "collapsed fault list");
    }
  } else {
    res.outcome.assign(faults.size(), FaultOutcome::NotAffecting);
  }
  res.jobs_used = pool.jobs();
  res.total_faults = faults.size();

  const std::size_t maxlen = model.max_chain_length();
  if (obs) {
    obs->set_gauge(Gauge::Jobs, static_cast<std::int64_t>(res.jobs_used));
    obs->set_gauge(Gauge::HardwareConcurrency,
                   static_cast<std::int64_t>(
                       std::thread::hardware_concurrency()));
    obs->set_gauge(Gauge::TotalFaults,
                   static_cast<std::int64_t>(faults.size()));
    obs->set_gauge(Gauge::MaxChainLength, static_cast<std::int64_t>(maxlen));
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
  char pbuf[192];
  const bool verbose = obs != nullptr && obs->progress_enabled();
  const DistanceParams dist =
      opt.auto_dist ? DistanceParams::from_maxsize(maxlen) : opt.dist;

  LocalExec local(model, faults, opt, pool);
  PipelineExec* const exec = opt.exec ? opt.exec : &local;

  // Safe-point plumbing.  `pg` views live skeleton storage; hook_check
  // refreshes the cheap fields and reports the callback's verdict, safe_point
  // turns a stop verdict into PipelineStopped.
  std::vector<char> comb_covered(faults.size(), 0);  // PPSFP-screened
  if (rz && start == PipelinePhase::S2Podem) {
    if (rz->comb_covered.size() != faults.size()) {
      throw std::runtime_error(
          "resume: checkpoint comb-covered set does not match fault count");
    }
    comb_covered = rz->comb_covered;
  }
  std::size_t podem_done =
      (rz && start == PipelinePhase::S2Podem) ? rz->podem_next : 0;
  PipelineProgress pg;
  const bool hooked = opt.hooks && opt.hooks->safe_point;
  auto hook_check = [&](PipelinePhase next) -> bool {
    if (!hooked) return true;
    pg.next = next;
    pg.res = &res;
    pg.comb_covered = &comb_covered;
    pg.podem_next = podem_done;
    return opt.hooks->safe_point(pg);
  };
  auto safe_point = [&](PipelinePhase next) {
    if (!hook_check(next)) {
      throw PipelineStopped(std::string("pipeline stopped before ") +
                            pipeline_phase_name(next));
    }
  };
  // The per-item safe point of step-3 phase `phase`: marks the item done in
  // `mask` and records a stop verdict in `stop`.  Empty when unhooked.
  auto item_safe_point = [&](PipelinePhase phase, std::vector<char>& mask,
                             bool& stop) -> PipelineExec::ItemDone {
    if (!hooked) return {};
    return [&hook_check, &mask, &stop, phase](std::size_t item) {
      mask[item] = 1;
      stop = !hook_check(phase);
      return !stop;
    };
  };
  if (verbose && rz) {
    std::snprintf(pbuf, sizeof pbuf, "resume: continuing at phase %s",
                  pipeline_phase_name(start));
    obs->progress_line(pbuf);
  }

  // ---- step 0: classification ---------------------------------------------
  auto t0 = std::chrono::steady_clock::now();
  double cpu0 = process_cpu_seconds();
  std::vector<std::size_t> hard_idx;
  if (start <= PipelinePhase::Classify) {
    if (obs) obs->begin_phase("classify", faults.size());
    test_phase_sleep("classify");
    {
      const ObsSpan phase(obs, "classify");
      std::vector<std::size_t> all_ids(faults.size());
      for (std::size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
      res.info = exec->classify(all_ids);
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      switch (res.info[i].category) {
        case ChainFaultCategory::Easy:
          res.outcome[i] = FaultOutcome::EasyAlternating;
          ++res.easy;
          break;
        case ChainFaultCategory::Hard:
          res.outcome[i] = FaultOutcome::Undetected;  // until proven otherwise
          hard_idx.push_back(i);
          ++res.hard;
          break;
        default:
          break;
      }
    }
    res.classify_seconds = seconds_since(t0);
    res.classify_cpu_seconds = process_cpu_seconds() - cpu0;
    if (obs) obs->sample_rss("classify");
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "classify: %zu faults -> %zu easy, %zu hard (%.3fs)",
                    res.total_faults, res.easy, res.hard,
                    res.classify_seconds);
      obs->progress_line(pbuf);
    }
  } else {
    // Restored: res.info/res.outcome/easy/hard came from the checkpoint;
    // rebuild the hard-index list they imply.
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (res.info[i].category == ChainFaultCategory::Hard) {
        hard_idx.push_back(i);
      }
    }
  }

  ScanSequenceBuilder sb(nl, model.design());

  // Dominance layer: expansion table plus SCOAP excitation costs, shared by
  // the step-2 target ordering and the step-3 in-group ordering.  The table
  // is used to *order* targets, to decide which screening simulation runs
  // first, and — in the one sound direction — to transfer combinational
  // *untestability* proofs: tests(F_in) ⊆ tests(F_out) per vector, so an
  // empty test set for the dominating output fault empties every dominated
  // set too (`domsets`).  Detection credit is never transferred through the
  // table (unsound across multi-cycle sequential tests); every fault the
  // simulations miss and no proof covers still gets its own ATPG call.
  // All three artifacts are pure functions of (netlist, fault list), so a
  // resumed run rebuilds exactly the values the original run used (skipped
  // entirely when every phase that consumes them is already complete).
  std::shared_ptr<const DominanceInfo> dom;
  std::shared_ptr<const std::vector<std::vector<std::size_t>>> domsets_sp;
  std::shared_ptr<const std::vector<Cost>> fcost_sp;
  if (opt.dominance && !hard_idx.empty() && start <= PipelinePhase::S3Groups) {
    if (opt.compiled && opt.compiled->dom && opt.compiled->domsets &&
        opt.compiled->fcost) {
      // Served from a compiled-model cache: the artifacts are pure functions
      // of (netlist, fault list), so reuse is invisible to results.
      dom = opt.compiled->dom;
      domsets_sp = opt.compiled->domsets;
      fcost_sp = opt.compiled->fcost;
    } else {
      dom = std::make_shared<DominanceInfo>(collapse_dominant(nl, faults));
      domsets_sp = std::make_shared<std::vector<std::vector<std::size_t>>>(
          dominated_sets(nl, faults));
      std::vector<char> controllable(nl.size(), 0);
      for (NodeId pi : nl.inputs()) {
        controllable[pi] = !model.design().is_constrained(pi);
      }
      for (const ScanChain& c : model.design().chains) {
        for (NodeId ff : c.ffs) controllable[ff] = 1;
      }
      fcost_sp = std::make_shared<std::vector<Cost>>(
          fault_excitation_costs(lv, controllable, faults));
    }
    if (start <= PipelinePhase::Classify) {
      std::size_t dominated = 0;
      for (std::size_t j : hard_idx) {
        if (dom->rep[j] == j) {
          ++res.dominance_targets;
        } else {
          ++dominated;
        }
      }
      if (obs && dominated) obs->add(Ctr::DominanceDropped, dominated);
      if (verbose) {
        std::snprintf(pbuf, sizeof pbuf,
                      "dominance: %zu targets represent %zu hard faults",
                      res.dominance_targets, res.hard);
        obs->progress_line(pbuf);
      }
    }
  }
  const std::vector<std::vector<std::size_t>> no_domsets;
  const std::vector<Cost> no_fcost;
  const std::vector<std::vector<std::size_t>>& domsets =
      domsets_sp ? *domsets_sp : no_domsets;
  const std::vector<Cost>& fcost = fcost_sp ? *fcost_sp : no_fcost;
  // Orders fault indices by representative (cheapest excitation first) so a
  // group's faults are contiguous.  Within a group the dominating (dropped)
  // output faults go *before* the representative: if the group is untestable
  // that is proven on the output fault first and propagates down the
  // dominance table, skipping the rest; if it is testable the screening
  // simulation of the first found vector still clears the whole group.
  auto dom_less = [&](std::size_t a, std::size_t b) {
    const std::size_t ra = dom->rep[a], rb = dom->rep[b];
    if (fcost[ra] != fcost[rb]) return fcost[ra] < fcost[rb];
    if (ra != rb) return ra < rb;
    if ((a == ra) != (b == rb)) return a != ra;
    return a < b;
  };
  safe_point(PipelinePhase::Step1);

  // ---- step 1: alternating flush (optional verification) -------------------
  if (start <= PipelinePhase::Step1 && opt.verify_easy && res.easy > 0) {
    if (obs) obs->begin_phase("step1.alternating", res.easy);
    t0 = std::chrono::steady_clock::now();
    cpu0 = process_cpu_seconds();
    const ObsSpan phase(obs, "step1.alternating");
    const std::size_t cycles = opt.alternating_cycles
                                   ? opt.alternating_cycles
                                   : 2 * maxlen + 8;
    std::vector<std::size_t> easy_idx;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (res.info[i].category == ChainFaultCategory::Easy) {
        easy_idx.push_back(i);
      }
    }
    const std::vector<char> det = exec->seq_detect(sb.alternating(cycles),
                                                   easy_idx);
    res.easy_verified = 0;
    for (char d : det) res.easy_verified += d != 0;
    if (obs) {
      obs->add(Ctr::AlternatingCycles, cycles);
      obs->add(Ctr::AlternatingDetected, res.easy_verified);
    }
    res.alternating_seconds = seconds_since(t0);
    res.alternating_cpu_seconds = process_cpu_seconds() - cpu0;
    if (obs) obs->sample_rss("step1.alternating");
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "step1: alternating flush verified %zu/%zu easy (%.3fs)",
                    res.easy_verified, res.easy, res.alternating_seconds);
      obs->progress_line(pbuf);
    }
  }
  safe_point(PipelinePhase::FlushCredit);

  // ---- step 2: combinational ATPG + sequential fault simulation ------------
  if (start <= PipelinePhase::S2Verify) {
    if (obs) obs->begin_phase("step2.atpg", res.hard);
    t0 = std::chrono::steady_clock::now();
    cpu0 = process_cpu_seconds();
    test_phase_sleep("s2");
  }
  std::vector<ScanVector>& vectors = res.vectors;

  // Flush-credit pre-pass: the alternating sequence heads every exported
  // program anyway, so any category-2 fault it happens to kill needs no
  // dedicated test.  Credit is simulation-earned (definite detection from
  // the all-X start, so it survives any program position); the category-2
  // classification itself is never overruled, only the targeting.
  if (start <= PipelinePhase::FlushCredit && opt.dominance &&
      !hard_idx.empty()) {
    const ObsSpan span(obs, "step2.flush_credit");
    // Credit against a *prefix* of the exported flush: a definite detection
    // within the first cycles of the alternating stream survives in the full
    // program (all-X start, monotone).  maxlen+8 cycles see every stream bit
    // traverse the longest chain once, which catches the vast majority of
    // flush-detectable faults at half the simulation cost; late detectors
    // simply stay on the ordinary step-2 path.
    const std::size_t exported =
        opt.alternating_cycles ? opt.alternating_cycles : 2 * maxlen + 8;
    const std::size_t cycles = std::min(exported, maxlen + 8);
    const std::vector<char> det = exec->seq_detect(sb.alternating(cycles),
                                                   hard_idx);
    for (std::size_t k = 0; k < hard_idx.size(); ++k) {
      if (det[k]) {
        res.outcome[hard_idx[k]] = FaultOutcome::DetectedFlush;
        ++res.flush_detected;
        if (obs) obs->charge(Attr::CreditEvents, hard_idx[k]);
      }
    }
    if (obs && res.flush_detected) {
      obs->add(Ctr::FlushCreditDetected, res.flush_detected);
    }
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "step2: flush credit dropped %zu/%zu hard faults",
                    res.flush_detected, res.hard);
      obs->progress_line(pbuf);
    }
  }
  safe_point(PipelinePhase::S2Podem);

  if (start <= PipelinePhase::S2Podem && !hard_idx.empty()) {
    const ObsSpan s2span(obs, "step2.atpg");
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
    aopt.time_limit_ms = opt.comb_time_limit_ms;
    aopt.obs = obs;
    Podem podem(clv, cm.controllable, cm.observe, aopt);

    std::vector<NodeId> comb_observe = nl.outputs();
    for (NodeId ff : nl.dffs()) comb_observe.push_back(ff);
    CombFaultSim ppsfp(lv, comb_observe);

    const std::vector<Val> base_pi = sb.base_vector(Val::Zero);

    // Random-pattern warm-up: cheap coverage of the easy majority of f_hard
    // so deterministic PODEM only sees the stubborn tail.  A resume that is
    // already inside the PODEM loop (podem_next > 0) has the warm-up's
    // effects in comb_covered/vectors and must not repeat it; podem_next == 0
    // means no target completed yet, so the warm-up itself reruns.
    const bool mid_podem = podem_done > 0;
    if (opt.random_patterns > 0 && !mid_podem) {
      std::mt19937_64 rng(0xf5c7);
      std::vector<Fault> open;
      std::vector<std::size_t> open_idx;
      for (std::size_t j : hard_idx) {
        if (res.outcome[j] != FaultOutcome::Undetected) continue;
        open.push_back(faults[j]);
        open_idx.push_back(j);
      }
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
      const CombFaultSimResult fr = ppsfp.run(pats, open, &pool, obs);
      std::vector<char> pattern_useful(pats.size(), 0);
      std::uint64_t warmup_covered = 0;
      for (std::size_t k = 0; k < open.size(); ++k) {
        if (fr.detect_pattern[k] >= 0) {
          comb_covered[open_idx[k]] = 1;
          ++warmup_covered;
          pattern_useful[static_cast<std::size_t>(fr.detect_pattern[k])] = 1;
        }
      }
      if (obs) obs->phase_tick(warmup_covered);
      for (std::size_t pi = 0; pi < pats.size(); ++pi) {
        if (!pattern_useful[pi]) continue;
        ScanVector v;
        v.pi_vals.assign(pats[pi].begin(),
                         pats[pi].begin() +
                             static_cast<std::ptrdiff_t>(nl.inputs().size()));
        v.ff_state.assign(pats[pi].begin() +
                              static_cast<std::ptrdiff_t>(nl.inputs().size()),
                          pats[pi].end());
        vectors.push_back(std::move(v));
      }
    }

    // Deterministic PODEM target order.  With dominance on, groups go
    // cheapest SCOAP excitation first; inside a group the dominating output
    // faults precede the representative, so an untestable group is proven so
    // once and the proof propagates, while a testable group's first vector
    // is PPSFP-screened against the rest before PODEM sees them.
    std::vector<std::size_t> podem_order = hard_idx;
    if (dom) std::sort(podem_order.begin(), podem_order.end(), dom_less);

    for (std::size_t ti = podem_done; ti < podem_order.size(); ++ti) {
      const std::size_t idx = podem_order[ti];
      if (!comb_covered[idx] &&
          res.outcome[idx] == FaultOutcome::Undetected) {
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
          if (!domsets.empty()) {
            std::uint64_t propagated = 0;
            std::vector<std::size_t> work = {idx};
            while (!work.empty()) {
              const std::size_t u = work.back();
              work.pop_back();
              for (std::size_t d : domsets[u]) {
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
          // Screen the new vector against all still-open hard faults (PPSFP)
          // so most faults never reach PODEM.
          std::vector<Fault> open;
          std::vector<std::size_t> open_idx;
          for (std::size_t j : hard_idx) {
            if (!comb_covered[j] &&
                res.outcome[j] == FaultOutcome::Undetected) {
              open.push_back(faults[j]);
              open_idx.push_back(j);
            }
          }
          CombPattern pat = v.pi_vals;
          pat.insert(pat.end(), v.ff_state.begin(), v.ff_state.end());
          const CombFaultSimResult fr =
              ppsfp.run(std::span(&pat, 1), open, &pool, obs);
          std::uint64_t screened = 0;
          for (std::size_t k = 0; k < open.size(); ++k) {
            if (fr.detect_pattern[k] >= 0) {
              comb_covered[open_idx[k]] = 1;
              ++screened;
            }
          }
          if (obs) obs->phase_tick(screened);
          vectors.push_back(std::move(v));
        }
        // Aborted targets fall through to step 3.
      }
      podem_done = ti + 1;
      safe_point(PipelinePhase::S2Podem);
    }
    res.s2_vectors = vectors.size();
  }
  safe_point(PipelinePhase::S2Verify);

  if (start <= PipelinePhase::S2Verify) {
    if (!hard_idx.empty()) {
      // Sequential verification: the converting chain may be broken by the
      // very fault under test, so detection only counts after sequential
      // fault simulation of the full scan sequence (also yields the Figure 5
      // curve).  The exec reports, per open fault, the first vector whose
      // scan sequence detects it — equivalent to the historical per-vector
      // loop — and the curve is rebuilt here by walking vectors in order.
      if (obs) obs->begin_phase("step2.seq_verify", vectors.size());
      const ObsSpan verify_span(obs, "step2.seq_verify");
      std::vector<std::size_t> open0;
      for (std::size_t j : hard_idx) {
        if (res.outcome[j] == FaultOutcome::Undetected) open0.push_back(j);
      }
      const std::vector<int> firstv = exec->s2_first_vec(vectors, open0);
      for (std::size_t vi = 0; vi < vectors.size(); ++vi) {
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
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "step2: %zu vectors, %zu detected, %zu undetectable, "
                    "%zu remaining (%.3fs)",
                    res.s2_vectors, res.s2_detected, res.s2_undetectable,
                    res.s2_undetected, res.s2_seconds);
      obs->progress_line(pbuf);
    }
  }
  safe_point(PipelinePhase::S3Groups);

  // ---- step 3: grouped sequential ATPG on reduced circuits -----------------
  if (start <= PipelinePhase::S3Final) {
    t0 = std::chrono::steady_clock::now();
    cpu0 = process_cpu_seconds();
    test_phase_sleep("s3");
  }

  if (start <= PipelinePhase::S3Groups) {
    // Step-3 outcomes are written only by the merge loop below, so the open
    // set here is the same whether this phase runs fresh or resumes.
    std::vector<std::size_t> remaining;
    for (std::size_t j : hard_idx) {
      if (res.outcome[j] == FaultOutcome::Undetected) remaining.push_back(j);
    }
    if (!remaining.empty()) {
      std::vector<FaultWindow> windows;
      windows.reserve(remaining.size());
      for (std::size_t j : remaining) {
        windows.push_back(make_fault_window(j, res.info[j]));
      }
      std::vector<AtpgGroup> groups = make_groups(windows, dist);
      if (dom) {
        // Front the cheap representatives inside each group: their verified
        // sequences ride-along-screen the expensive tail before it is ever
        // targeted.
        for (AtpgGroup& g : groups) {
          std::sort(g.fault_indices.begin(), g.fault_indices.end(), dom_less);
        }
      }

      // One work item per group, each with its own reduced model and PODEM
      // state.  Items fill their slot of `done`; the merge below walks groups
      // (and faults within a group) in order, so counters and the
      // s3_sequences order are exactly the serial ones regardless of executor
      // or completion order.
      std::vector<GroupOutcome> done(groups.size());
      std::vector<char> gmask(groups.size(), 0);
      if (rz && start == PipelinePhase::S3Groups) {
        for (const auto& [gi, go] : rz->groups_done) {
          if (gi >= groups.size()) {
            throw std::runtime_error(
                "resume: checkpoint group index out of range");
          }
          done[gi] = go;
          gmask[gi] = 1;
        }
      }
      std::vector<std::size_t> todo;
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        if (!gmask[gi]) todo.push_back(gi);
      }
      pg.groups = &done;
      pg.groups_done = &gmask;
      bool stop = false;
      const PipelineExec::ItemDone on_group_done =
          item_safe_point(PipelinePhase::S3Groups, gmask, stop);
      {
        if (obs) obs->begin_phase("step3.groups", groups.size());
        const ObsSpan phase(obs, "step3.groups");
        exec->run_groups(groups, todo, done, on_group_done);
      }
      pg.groups = nullptr;
      pg.groups_done = nullptr;
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
    }
  }
  safe_point(PipelinePhase::S3Ledger);

  // Cross-group ledger pass: every step-3 sequence ends up in the exported
  // program, so one packed simulation of their concatenation against the
  // still-open faults credits detections across group boundaries (the
  // verdict is established from the all-X start, hence valid in any program
  // position).  Credited faults skip the expensive final individual models.
  if (start <= PipelinePhase::S3Ledger && opt.dominance &&
      !res.s3_sequences.empty()) {
    std::vector<std::size_t> open_idx;
    for (std::size_t j : hard_idx) {
      if (res.outcome[j] == FaultOutcome::Undetected) open_idx.push_back(j);
    }
    if (!open_idx.empty()) {
      const ObsSpan span(obs, "step3.ledger");
      TestSequence all;
      for (const TestSequence& s : res.s3_sequences) {
        all.insert(all.end(), s.begin(), s.end());
      }
      const std::vector<char> det = exec->seq_detect(all, open_idx);
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
      if (verbose && credited) {
        std::snprintf(pbuf, sizeof pbuf,
                      "step3: ledger credited %zu cross-group detections",
                      credited);
        obs->progress_line(pbuf);
      }
    }
  }
  safe_point(PipelinePhase::S3Final);

  // Final faults: individual maximal-window models, bigger budget.  One work
  // item per final fault; merged in `final_idx` order (identical to the
  // serial loop).  FinalOutcomes arrive verification-included, so a resumed
  // slot carries exactly the verdict the original run would have merged.
  if (start <= PipelinePhase::S3Final) {
    std::vector<std::size_t> final_idx;
    for (std::size_t j : hard_idx) {
      if (res.outcome[j] == FaultOutcome::Undetected) final_idx.push_back(j);
    }
    std::vector<std::vector<ChainWindow>> fwin;
    fwin.reserve(final_idx.size());
    for (std::size_t j : final_idx) {
      fwin.push_back(make_fault_window(j, res.info[j]).chains);
    }
    std::vector<FinalOutcome> fdone(final_idx.size());
    std::vector<char> fmask(final_idx.size(), 0);
    if (rz && start == PipelinePhase::S3Final && !rz->finals_done.empty()) {
      std::map<std::size_t, std::size_t> slot_of;
      for (std::size_t k = 0; k < final_idx.size(); ++k) {
        slot_of[final_idx[k]] = k;
      }
      for (const auto& [id, fo] : rz->finals_done) {
        const auto it = slot_of.find(id);
        if (it == slot_of.end()) {
          throw std::runtime_error(
              "resume: checkpoint final fault not in this run's final set");
        }
        fdone[it->second] = fo;
        fmask[it->second] = 1;
      }
    }
    std::vector<std::size_t> todo;
    for (std::size_t k = 0; k < final_idx.size(); ++k) {
      if (!fmask[k]) todo.push_back(k);
    }
    pg.finals = &fdone;
    pg.finals_done = &fmask;
    pg.final_ids = &final_idx;
    bool stop = false;
    const PipelineExec::ItemDone on_final_done =
        item_safe_point(PipelinePhase::S3Final, fmask, stop);
    {
      if (obs) obs->begin_phase("step3.final", final_idx.size());
      const ObsSpan phase(obs, "step3.final");
      exec->run_finals(final_idx, fwin, todo, fdone, on_final_done);
    }
    pg.finals = nullptr;
    pg.finals_done = nullptr;
    pg.final_ids = nullptr;
    if (stop) throw PipelineStopped("pipeline stopped in s3.final");
    for (std::size_t k = 0; k < final_idx.size(); ++k) {
      const std::size_t j = final_idx[k];
      ++res.s3_circuits_final;
      if (obs) obs->add(Ctr::S3FinalFaults);
      switch (fdone[k].verdict) {
        case FinalVerdict::Detected:
          res.outcome[j] = FaultOutcome::DetectedFinal;
          ++res.s3_detected;
          res.s3_sequences.push_back(std::move(fdone[k].seq));
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
    res.s3_seconds = seconds_since(t0);
    res.s3_cpu_seconds = process_cpu_seconds() - cpu0;
    if (obs) obs->sample_rss("s3");
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "step3: %zu group + %zu final models, %zu detected, "
                    "%zu undetectable, %zu undetected (%.3fs)",
                    res.s3_circuits_group, res.s3_circuits_final,
                    res.s3_detected, res.s3_undetectable, res.s3_undetected,
                    res.s3_seconds);
      obs->progress_line(pbuf);
    }
  }
  safe_point(PipelinePhase::Done);
  if (obs) {
    obs->capture_pool(pool);
    obs->end_phase();
  }
  return res;
}

}  // namespace fsct
