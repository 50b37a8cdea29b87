#include "core/pipeline_exec.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/obs.h"
#include "core/parallel.h"

namespace fsct {
namespace {

// The reporting path of the step-3 phases (DESIGN.md §5l).  Each item runs
// on a one-item LocalExec charging a private registry.  The calling
// (skeleton) thread folds finished items into opt.obs, between its own
// items and after the loop, moves each outcome into `done` and only then
// reports it, so at every on_done the run's totals hold exactly the
// reported items.  After a false return no item starts, and items still in
// flight are discarded, outcome and charges alike.
template <class Outcome, class RunOne>
void run_reported(const ScanModeModel& model, std::span<const Fault> faults,
                  const PipelineOptions& opt, ThreadPool& pool,
                  const char* span_name, std::span<const std::size_t> todo,
                  std::vector<Outcome>& done,
                  const PipelineExec::ItemDone& on_done,
                  const RunOne& run_one) {
  struct Finished {
    std::size_t item;
    Outcome out;
    std::unique_ptr<ObsRegistry> reg;
  };
  ObsRegistry* const obs = opt.obs;
  std::mutex m;
  std::vector<Finished> ready;
  std::atomic<bool> stop{false};
  const std::thread::id skeleton = std::this_thread::get_id();
  auto fold = [&] {
    std::vector<Finished> batch;
    {
      const std::lock_guard<std::mutex> lk(m);
      batch.swap(ready);
    }
    for (Finished& f : batch) {
      if (stop.load(std::memory_order_relaxed)) return;
      if (obs) {
        obs->merge_from(*f.reg);
        obs->phase_tick();
      }
      done[f.item] = std::move(f.out);
      if (!on_done(f.item)) stop.store(true, std::memory_order_relaxed);
    }
  };
  parallel_for(pool, todo.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      if (stop.load(std::memory_order_relaxed)) return;
      Finished f{todo[i], Outcome{}, nullptr};
      PipelineOptions one_opt = opt;
      if (obs) {
        f.reg = std::make_unique<ObsRegistry>();
        if (obs->attribution_enabled()) f.reg->init_attribution(faults.size());
      }
      one_opt.obs = f.reg.get();
      {
        const ObsSpan span(obs, span_name);
        test_phase_sleep(span_name);
        LocalExec one(model, faults, one_opt, pool);
        f.out = run_one(one, f.item);
      }
      {
        const std::lock_guard<std::mutex> lk(m);
        ready.push_back(std::move(f));
      }
      if (std::this_thread::get_id() == skeleton) {
        try {
          fold();
        } catch (...) {  // e.g. a failed checkpoint write: start no item
          stop.store(true, std::memory_order_relaxed);
          throw;
        }
      }
    }
  });
  fold();
}

constexpr std::size_t kOnlyItem[1] = {0};  // `todo` of a one-item call

}  // namespace

const char* pipeline_phase_name(PipelinePhase p) {
  switch (p) {
    case PipelinePhase::Classify: return "classify";
    case PipelinePhase::Step1: return "step1";
    case PipelinePhase::FlushCredit: return "flush_credit";
    case PipelinePhase::S2Podem: return "s2.podem";
    case PipelinePhase::S2Verify: return "s2.verify";
    case PipelinePhase::S3Groups: return "s3.groups";
    case PipelinePhase::S3Ledger: return "s3.ledger";
    case PipelinePhase::S3Final: return "s3.final";
    case PipelinePhase::Done: return "done";
  }
  return "?";
}

bool pipeline_phase_from_name(const std::string& name, PipelinePhase* out) {
  for (int p = 0; p <= static_cast<int>(PipelinePhase::Done); ++p) {
    const auto ph = static_cast<PipelinePhase>(p);
    if (name == pipeline_phase_name(ph)) {
      if (out) *out = ph;
      return true;
    }
  }
  return false;
}

std::vector<std::size_t> open_hard_faults(const PipelineResult& res) {
  std::vector<std::size_t> open;
  for (std::size_t j = 0; j < res.info.size(); ++j) {
    if (res.info[j].category == ChainFaultCategory::Hard &&
        res.outcome[j] == FaultOutcome::Undetected) {
      open.push_back(j);
    }
  }
  return open;
}

std::vector<NodeId> pipeline_observe_list(const ScanModeModel& model) {
  const Netlist& nl = model.levelizer().netlist();
  std::vector<NodeId> observe = nl.outputs();
  for (NodeId so : model.scan_outs()) {
    if (std::find(observe.begin(), observe.end(), so) == observe.end()) {
      observe.push_back(so);
    }
  }
  return observe;
}

LocalExec::LocalExec(const ScanModeModel& model, std::span<const Fault> faults,
                     const PipelineOptions& opt, ThreadPool& pool)
    : model_(model),
      faults_(faults),
      opt_(opt),
      pool_(pool),
      obs_(opt.obs),
      observe_(pipeline_observe_list(model)),
      maxlen_(model.max_chain_length()) {}

std::vector<ChainFaultInfo> LocalExec::classify(
    std::span<const std::size_t> ids) {
  // Identity fast path: the full-run call classifies the span in place (the
  // historical code path, byte-for-byte).
  bool identity = ids.size() == faults_.size();
  for (std::size_t i = 0; identity && i < ids.size(); ++i) {
    identity = ids[i] == i;
  }
  if (identity) {
    return ChainFaultClassifier::classify_all_parallel(model_, faults_, pool_,
                                                       obs_);
  }
  std::vector<Fault> sub;
  sub.reserve(ids.size());
  for (std::size_t id : ids) sub.push_back(faults_[id]);
  return ChainFaultClassifier::classify_all_parallel(model_, sub, pool_, obs_);
}

std::vector<char> LocalExec::seq_detect(const TestSequence& seq,
                                        std::span<const std::size_t> ids) {
  std::vector<char> det(ids.size(), 0);
  if (ids.empty()) return det;
  std::vector<Fault> fv;
  fv.reserve(ids.size());
  for (std::size_t id : ids) fv.push_back(faults_[id]);
  SeqFaultSim sim(model_.levelizer(), observe_, opt_.simd_width);
  const SeqFaultSimResult r = sim.run(seq, fv, Val::X, &pool_, obs_, ids);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    det[k] = r.detect_cycle[k] >= 0;
  }
  return det;
}

std::vector<int> LocalExec::s2_first_vec(std::span<const ScanVector> vectors,
                                         std::span<const std::size_t> ids) {
  std::vector<int> first(ids.size(), -1);
  if (ids.empty() || vectors.empty()) return first;
  const std::size_t observe_cycles =
      opt_.observe_cycles ? opt_.observe_cycles : maxlen_ + 2;
  ScanSequenceBuilder sb(model_.levelizer().netlist(), model_.design());
  SeqFaultSim ssim(model_.levelizer(), observe_, opt_.simd_width);
  std::vector<char> det(ids.size(), 0);
  for (std::size_t vi = 0; vi < vectors.size(); ++vi) {
    std::vector<Fault> open;
    std::vector<std::size_t> open_pos;
    std::vector<std::size_t> open_ids;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (!det[k]) {
        open.push_back(faults_[ids[k]]);
        open_pos.push_back(k);
        open_ids.push_back(ids[k]);
      }
    }
    if (open.empty()) break;  // every later vector sees an empty open set too
    const TestSequence seq = sb.apply_comb_vector(
        vectors[vi].ff_state, vectors[vi].pi_vals, observe_cycles);
    const SeqFaultSimResult r =
        ssim.run(seq, open, Val::X, &pool_, obs_, open_ids);
    for (std::size_t m = 0; m < open.size(); ++m) {
      if (r.detect_cycle[m] >= 0) {
        det[open_pos[m]] = 1;
        first[open_pos[m]] = static_cast<int>(vi);
      }
    }
  }
  return first;
}

void LocalExec::run_groups(const std::vector<AtpgGroup>& groups,
                           std::span<const std::size_t> todo,
                           std::vector<GroupOutcome>& done,
                           const ItemDone& on_done) {
  if (on_done) {
    run_reported(model_, faults_, opt_, pool_, "s3.group", todo, done, on_done,
                 [&](LocalExec& one, std::size_t gi) {
                   std::vector<GroupOutcome> out(1);
                   one.run_groups({groups[gi]}, kOnlyItem, out, {});
                   return std::move(out[0]);
                 });
    return;
  }
  SeqFaultSim s3sim(model_.levelizer(), observe_, opt_.simd_width);
  // Realises an in-model detection and (optionally) verifies it end to end.
  // Returns the realised sequence when the detection stands, nullopt when it
  // does not reproduce.  Pure w.r.t. shared state, so group tasks can call it
  // concurrently; the skeleton merges into the result serially.
  auto realize_s3_detection =
      [&](const ReducedCircuitBuilder& bld, const ReducedModel& rm,
          const AtpgResult& ar,
          std::size_t fault_idx) -> std::optional<TestSequence> {
    const SeqTest t = bld.extract_test(rm, ar);
    TestSequence seq = bld.realize(t, maxlen_ + 2);
    if (opt_.verify_seq) {
      const Fault one[1] = {faults_[fault_idx]};
      const std::size_t aid[1] = {fault_idx};
      if (s3sim.run_serial(seq, one, Val::X, obs_, aid).detect_cycle[0] < 0) {
        return std::nullopt;
      }
    }
    return seq;
  };

  ReducedModelOptions ropt;
  ropt.frame_slack = opt_.frame_slack;
  ropt.frame_cap = opt_.frame_cap;
  ropt.observe_pos = opt_.observe_pos;
  ropt.atpg.backtrack_limit = opt_.seq_backtrack_limit;
  ropt.atpg.obs = obs_;
  ReducedCircuitBuilder builder(model_, ropt);

  ObsRegistry* const obs = obs_;
  auto run_group = [&](std::size_t gi) {
    const ObsSpan span(obs, "s3.group");
    const AtpgGroup& g = groups[gi];
    std::vector<Fault> gf;
    for (std::size_t j : g.fault_indices) gf.push_back(faults_[j]);
    const ReducedModel rm = builder.build(g, gf);
    std::vector<char> credited(g.fault_indices.size(), 0);
    for (std::size_t k = 0; k < g.fault_indices.size(); ++k) {
      const std::size_t j = g.fault_indices[k];
      if (credited[k]) continue;  // this group's ledger already covers it
      const auto sites = rm.um.map_fault(faults_[j]);
      if (sites.empty()) continue;  // pruned away: retried in final pass
      const AtpgResult r =
          rm.podem->generate(sites, static_cast<std::int64_t>(j));
      if (r.status != AtpgStatus::Detected) continue;
      // Untestable in a *shared* window is not conclusive for absorbed
      // faults (they may have more ctrl/obs alone): final pass decides.
      auto seq = realize_s3_detection(builder, rm, r, j);
      if (!seq) {
        ++done[gi].unverified;
        continue;
      }
      // Ledger ride-along: simulate the verified sequence against the
      // group's still-open tail; whatever it detects (from the all-X
      // start, so the verdict survives concatenation into the exported
      // program) is credited instead of re-targeted.  Group-local state
      // only, so tasks stay schedule-independent.
      if (opt_.dominance && k + 1 < g.fault_indices.size()) {
        std::vector<Fault> open;
        std::vector<std::size_t> open_pos;
        std::vector<std::size_t> open_ids;
        for (std::size_t m = k + 1; m < g.fault_indices.size(); ++m) {
          if (!credited[m]) {
            open.push_back(faults_[g.fault_indices[m]]);
            open_pos.push_back(m);
            open_ids.push_back(g.fault_indices[m]);
          }
        }
        if (!open.empty()) {
          const SeqFaultSimResult rr =
              s3sim.run(*seq, open, Val::X, nullptr, obs, open_ids);
          for (std::size_t m = 0; m < open.size(); ++m) {
            if (rr.detect_cycle[m] >= 0) {
              credited[open_pos[m]] = 1;
              done[gi].credited.push_back(g.fault_indices[open_pos[m]]);
              // Which faults earn ride-along credit is schedule-independent
              // (group-local state), so this charge keeps the ledger
              // deterministic even though it happens inside a pool task.
              if (obs) obs->charge(Attr::CreditEvents, open_ids[m]);
            }
          }
        }
      }
      done[gi].detected.push_back(j);
      done[gi].seqs.push_back(std::move(*seq));
    }
    if (obs) obs->phase_tick();
  };
  parallel_for(pool_, todo.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) run_group(todo[i]);
  });
}

void LocalExec::run_finals(std::span<const std::size_t> final_ids,
                           const std::vector<std::vector<ChainWindow>>& windows,
                           std::span<const std::size_t> todo,
                           std::vector<FinalOutcome>& fdone,
                           const ItemDone& on_done) {
  if (on_done) {
    // One item per call, so each final detection is verified before it is
    // reported.
    run_reported(model_, faults_, opt_, pool_, "s3.final", todo, fdone,
                 on_done, [&](LocalExec& one, std::size_t k) {
                   const std::size_t id[1] = {final_ids[k]};
                   std::vector<FinalOutcome> out(1);
                   one.run_finals(id, {windows[k]}, kOnlyItem, out, {});
                   return std::move(out[0]);
                 });
    return;
  }
  SeqFaultSim s3sim(model_.levelizer(), observe_, opt_.simd_width);
  ReducedModelOptions fopt;
  fopt.frame_slack = opt_.frame_slack;
  fopt.frame_cap = opt_.frame_cap;
  fopt.observe_pos = opt_.observe_pos;
  fopt.atpg.backtrack_limit = opt_.final_backtrack_limit;
  fopt.atpg.obs = obs_;
  ReducedCircuitBuilder final_builder(model_, fopt);

  ObsRegistry* const obs = obs_;
  auto run_final = [&](std::size_t k) {
    const ObsSpan span(obs, "s3.final");
    struct Tick {
      ObsRegistry* obs;
      ~Tick() {
        if (obs) obs->phase_tick();
      }
    } tick{obs};
    const std::size_t j = final_ids[k];
    AtpgGroup g;
    g.kind = 1;
    g.fault_indices = {j};
    g.window = windows[k];
    const Fault f = faults_[j];
    const ReducedModel rm =
        final_builder.build(g, std::span(&f, 1), opt_.final_extra_frames);
    const auto sites = rm.um.map_fault(f);
    if (sites.empty()) return;  // NoSites
    const AtpgResult r =
        rm.podem->generate(sites, static_cast<std::int64_t>(j));
    if (r.status == AtpgStatus::Detected) {
      // Realise the in-model test now; end-to-end verification of all final
      // detections is batched below as (fault, sequence) pairs so many
      // replays retire per packed sweep.
      const SeqTest t = final_builder.extract_test(rm, r);
      fdone[k].seq = final_builder.realize(t, maxlen_ + 2);
      fdone[k].verdict = FinalVerdict::Detected;
    } else if (r.status == AtpgStatus::Untestable) {
      fdone[k].verdict = FinalVerdict::Untestable;
    } else {
      fdone[k].verdict = FinalVerdict::Aborted;
    }
  };
  parallel_for(pool_, todo.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) run_final(todo[i]);
  });
  // Batched verification: each (fault, realised sequence) pair is an
  // independent replay, so the verdicts are identical to a serial
  // one-run-per-fault loop.  A FinalOutcome::Detected leaving this call has
  // therefore already survived end-to-end verification.
  if (opt_.verify_seq) {
    std::vector<FaultSeqPair> vpairs;
    std::vector<std::size_t> vslot;
    std::vector<std::size_t> vids;
    for (std::size_t k : todo) {
      if (fdone[k].verdict == FinalVerdict::Detected) {
        vpairs.push_back({faults_[final_ids[k]], &fdone[k].seq});
        vslot.push_back(k);
        vids.push_back(final_ids[k]);
      }
    }
    if (!vpairs.empty()) {
      const ObsSpan span(obs, "step3.final_verify");
      const std::vector<int> vr =
          s3sim.run_pairs(vpairs, Val::X, &pool_, obs, vids);
      for (std::size_t i = 0; i < vpairs.size(); ++i) {
        if (vr[i] < 0) {
          fdone[vslot[i]].verdict = FinalVerdict::Unverified;
          fdone[vslot[i]].seq.clear();
        }
      }
    }
  }
}

}  // namespace fsct
