#include "core/pipeline_exec.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/obs.h"
#include "core/parallel.h"

namespace fsct {
namespace {

// The one way a step-3 item runs (DESIGN.md §5l).  Each item of `todo` is
// one pool task: run_one(item, item_obs) computes its outcome, verification
// included, charging `item_obs`, a private registry when the run is
// observed (its spans go straight to the run's trace).  The calling
// (skeleton) thread folds finished items into `obs`, between its own items
// and after the loop, moves each outcome into `done` and only then reports
// it, so at every on_done the run's totals hold exactly the reported items.
// After a false return no item starts, and items still in flight are
// discarded, outcome and charges alike.
template <class Outcome, class RunOne>
void run_items(ObsRegistry* obs, std::size_t num_faults, ThreadPool& pool,
               const char* span_name, std::span<const std::size_t> todo,
               std::vector<Outcome>& done,
               const PipelineExec::ItemDone& on_done, const RunOne& run_one) {
  struct Finished {
    std::size_t item;
    Outcome out;
    std::unique_ptr<ObsRegistry> reg;
  };
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
      if (obs) {
        f.reg = std::make_unique<ObsRegistry>();
        f.reg->forward_trace_to(*obs);
        if (obs->attribution_enabled()) f.reg->init_attribution(num_faults);
      }
      {
        const ObsSpan span(obs, span_name);
        test_phase_sleep(span_name);
        f.out = run_one(f.item, f.reg.get());
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

// Reduced-model options of a step-3 item, charging `obs`.
ReducedModelOptions item_model_options(const PipelineOptions& opt,
                                       int backtrack_limit, ObsRegistry* obs) {
  ReducedModelOptions ropt;
  ropt.frame_cap = opt.frame_cap;
  ropt.atpg.backtrack_limit = backtrack_limit;
  ropt.atpg.obs = obs;
  return ropt;
}

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
  return model.observe();
}

LocalExec::LocalExec(const ScanModeModel& model, std::span<const Fault> faults,
                     const PipelineOptions& opt, ThreadPool& pool)
    : model_(model), faults_(faults), opt_(opt), pool_(pool), obs_(opt.obs) {}

std::vector<ChainFaultInfo> LocalExec::classify(
    std::span<const std::size_t> ids) {
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
  SeqFaultSim sim(model_.levelizer(), model_.observe(), opt_.simd_width);
  const SeqFaultSimResult r = sim.run(seq, fv, Val::X, &pool_, obs_, ids);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    det[k] = r.detect_cycle[k] >= 0;
  }
  return det;
}

std::size_t s2_wave_vectors(std::size_t open_faults) {
  return std::max<std::size_t>(1, kS2WavePairs / std::max<std::size_t>(
                                                     1, open_faults));
}

// Vector 0 is a wave of its own: it takes almost every detection.  Each
// later wave takes the next s2_wave_vectors(|open|) vectors against the
// faults still open.  A one-vector wave runs fault-parallel; a longer one
// runs its (fault, vector) pairs in one run_pairs call on the pool.  A
// fault's verdict is the smallest vector index among its detecting pairs,
// which is exactly the first vector that detects it (DESIGN.md §5o).
std::vector<int> LocalExec::s2_first_vec(std::span<const ScanVector> vectors,
                                         std::span<const std::size_t> ids) {
  std::vector<int> first(ids.size(), -1);
  if (ids.empty() || vectors.empty()) return first;
  const ScanSequenceBuilder& sb = model_.sequences();
  const SeqFaultSim ssim(model_.levelizer(), model_.observe(),
                         opt_.simd_width);
  // Built once per phase, as each wave first needs them; the pairs point in.
  std::vector<TestSequence> seqs;
  seqs.reserve(vectors.size());
  std::vector<std::size_t> open(ids.size());  // positions in `ids`
  std::iota(open.begin(), open.end(), 0);
  std::vector<Fault> wave_faults;
  std::vector<FaultSeqPair> pairs;
  std::vector<std::size_t> wave_ids;
  for (std::size_t v0 = 0, v1 = 0; v0 < vectors.size() && !open.empty();
       v0 = v1) {
    v1 = v0 == 0 ? 1
                 : std::min(vectors.size(), v0 + s2_wave_vectors(open.size()));
    for (std::size_t vi = seqs.size(); vi < v1; ++vi) {
      seqs.push_back(sb.apply_comb_vector(vectors[vi].ff_state,
                                          vectors[vi].pi_vals,
                                          model_.observe_cycles()));
    }
    // Detect cycle per pair, vector-major: pair p is vector v0 + p / |open|
    // against fault open[p % |open|].
    std::vector<int> det;
    wave_ids.clear();
    if (v1 - v0 == 1) {
      wave_faults.clear();
      for (std::size_t k : open) {
        wave_faults.push_back(faults_[ids[k]]);
        wave_ids.push_back(ids[k]);
      }
      det = ssim.run(seqs[v0], wave_faults, Val::X, &pool_, obs_, wave_ids)
                .detect_cycle;
    } else {
      pairs.clear();
      for (std::size_t vi = v0; vi < v1; ++vi) {
        for (std::size_t k : open) {
          pairs.push_back({faults_[ids[k]], &seqs[vi]});
          wave_ids.push_back(ids[k]);
        }
      }
      det = ssim.run_pairs(pairs, Val::X, &pool_, obs_, wave_ids);
    }
    for (std::size_t p = 0; p < det.size(); ++p) {
      const std::size_t k = open[p % open.size()];
      if (det[p] >= 0 && first[k] < 0) {
        first[k] = static_cast<int>(v0 + p / open.size());
      }
    }
    std::erase_if(open, [&](std::size_t k) { return first[k] >= 0; });
  }
  return first;
}

void LocalExec::run_groups(const std::vector<AtpgGroup>& groups,
                           std::span<const std::size_t> todo,
                           std::vector<GroupOutcome>& done,
                           const ItemDone& on_done) {
  run_items(obs_, faults_.size(), pool_, "s3.group", todo, done, on_done,
            [&](std::size_t gi, ObsRegistry* obs) {
              return run_group(groups[gi], obs);
            });
}

void LocalExec::run_finals(std::span<const std::size_t> final_ids,
                           const std::vector<std::vector<ChainWindow>>& windows,
                           std::span<const std::size_t> todo,
                           std::vector<FinalOutcome>& fdone,
                           const ItemDone& on_done) {
  run_items(obs_, faults_.size(), pool_, "s3.final", todo, fdone, on_done,
            [&](std::size_t k, ObsRegistry* obs) {
              return run_final(final_ids[k], windows[k], obs);
            });
}

// One group model: targets the group's faults in order, verifies each
// in-model detection end to end with one serial replay, and credits the
// group's still-open tail with whatever a verified sequence also detects.
GroupOutcome LocalExec::run_group(const AtpgGroup& g, ObsRegistry* obs) const {
  GroupOutcome out;
  const ReducedCircuitBuilder builder(
      model_, item_model_options(opt_, opt_.seq_backtrack_limit, obs));
  const SeqFaultSim s3sim(model_.levelizer(), model_.observe(),
                          opt_.simd_width);
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
    // Untestable in a *shared* window is not conclusive for absorbed
    // faults (they may have more ctrl/obs alone): final pass decides.
    if (r.status != AtpgStatus::Detected) continue;
    TestSequence seq = builder.realize(rm.um.base_inputs(r.assignment));
    const Fault one[1] = {faults_[j]};
    const std::size_t aid[1] = {j};
    if (s3sim.run_serial(seq, one, Val::X, obs, aid).detect_cycle[0] < 0) {
      ++out.unverified;  // the in-model detection does not reproduce
      continue;
    }
    // Ledger ride-along: simulate the verified sequence against the
    // group's still-open tail; whatever it detects (from the all-X start,
    // so the verdict survives concatenation into the exported program) is
    // credited instead of re-targeted.  Group-local state only, so the
    // credit (and its attribution charge) is schedule-independent.
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
            s3sim.run(seq, open, Val::X, nullptr, obs, open_ids);
        for (std::size_t m = 0; m < open.size(); ++m) {
          if (rr.detect_cycle[m] >= 0) {
            credited[open_pos[m]] = 1;
            out.credited.push_back(open_ids[m]);
            if (obs) obs->charge(Attr::CreditEvents, open_ids[m]);
          }
        }
      }
    }
    out.detected.push_back(j);
    out.seqs.push_back(std::move(seq));
  }
  return out;
}

// One final individual model over fault j's maximal window, with the bigger
// budget; a detection is verified end to end with one serial replay, the
// engine a group item verifies with.
FinalOutcome LocalExec::run_final(std::size_t j,
                                  const std::vector<ChainWindow>& window,
                                  ObsRegistry* obs) const {
  FinalOutcome out;
  const ReducedCircuitBuilder builder(
      model_, item_model_options(opt_, opt_.final_backtrack_limit, obs));
  AtpgGroup g;
  g.kind = 1;
  g.fault_indices = {j};
  g.window = window;
  const Fault f = faults_[j];
  const ReducedModel rm =
      builder.build(g, std::span(&f, 1), opt_.final_extra_frames);
  const auto sites = rm.um.map_fault(f);
  if (sites.empty()) return out;  // NoSites
  const AtpgResult r = rm.podem->generate(sites, static_cast<std::int64_t>(j));
  if (r.status == AtpgStatus::Untestable) {
    out.verdict = FinalVerdict::Untestable;
  } else if (r.status != AtpgStatus::Detected) {
    out.verdict = FinalVerdict::Aborted;
  } else {
    TestSequence seq = builder.realize(rm.um.base_inputs(r.assignment));
    const SeqFaultSim sim(model_.levelizer(), model_.observe(),
                          opt_.simd_width);
    const Fault one[1] = {f};
    const std::size_t aid[1] = {j};
    if (sim.run_serial(seq, one, Val::X, obs, aid).detect_cycle[0] < 0) {
      out.verdict = FinalVerdict::Unverified;
    } else {
      out.verdict = FinalVerdict::Detected;
      out.seq = std::move(seq);
    }
  }
  return out;
}

}  // namespace fsct
