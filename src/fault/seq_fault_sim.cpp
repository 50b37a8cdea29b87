#include "fault/seq_fault_sim.h"

#include <algorithm>
#include <bit>

#include "core/obs.h"

namespace fsct {

SeqFaultSim::SeqFaultSim(const Levelizer& lv, std::vector<NodeId> observe,
                         int simd_width)
    : lv_(lv),
      observe_(std::move(observe)),
      soa_(SoaCircuit::compile(lv)),
      width_(simd_width ? simd_width : default_simd_width()) {
  if (!is_valid_simd_width(width_)) {
    throw std::invalid_argument("SIMD width must be 64, 256 or 512");
  }
}

SeqFaultSimResult SeqFaultSim::run_serial(
    const TestSequence& seq, std::span<const Fault> faults, Val initial_state,
    ObsRegistry* obs, std::span<const std::size_t> attr_ids) const {
  SeqFaultSimResult res;
  res.detect_cycle.assign(faults.size(), -1);

  // Good machine trace at the observation points.
  std::vector<std::vector<Val>> good_obs(seq.size());
  {
    SeqSim good(lv_);
    good.reset(initial_state);
    for (std::size_t t = 0; t < seq.size(); ++t) {
      const auto& v = good.step(seq[t]);
      good_obs[t].reserve(observe_.size());
      for (NodeId n : observe_) good_obs[t].push_back(v[n]);
    }
  }

  std::uint64_t cycles = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const Injection inj[1] = {to_injection(faults[fi])};
    SeqSim faulty(lv_);
    faulty.reset(initial_state);
    for (std::size_t t = 0; t < seq.size() && res.detect_cycle[fi] < 0; ++t) {
      ++cycles;
      const auto& v = faulty.step(seq[t], inj);
      for (std::size_t o = 0; o < observe_.size(); ++o) {
        const Val g = good_obs[t][o];
        const Val f = v[observe_[o]];
        if (g != Val::X && f != Val::X && g != f) {
          res.detect_cycle[fi] = static_cast<int>(t);
          break;
        }
      }
    }
  }
  if (obs) {
    obs->add(Ctr::SeqSimSerialRuns);
    obs->add(Ctr::SeqSimCycles, cycles);
    obs->add(Ctr::SeqSimFaultsDropped, res.num_detected());
    if (!attr_ids.empty()) {
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        const int dc = res.detect_cycle[fi];
        obs->charge(Attr::SeqSims, attr_ids[fi]);
        obs->charge(Attr::SeqCycles, attr_ids[fi],
                    dc >= 0 ? static_cast<std::uint64_t>(dc) + 1
                            : static_cast<std::uint64_t>(seq.size()));
      }
    }
  }
  return res;
}

namespace {

template <int NW>
bool all_zero(const std::uint64_t (&m)[NW]) {
  std::uint64_t acc = 0;
  for (int w = 0; w < NW; ++w) acc |= m[w];
  return acc == 0;
}

}  // namespace

// One packed pass: per 64-bit word, bit 0 carries the good machine and bits
// 1..63 carry faulty machines, NW words per lane block.  Broadcast PI loading
// replicates the good machine into bit 0 of every word for free, so each
// word's detection test is local: good-binary vs the word's faulty planes.
template <int NW>
void SeqFaultSim::run_width(const TestSequence& seq,
                            std::span<const Fault> faults, Val initial_state,
                            ThreadPool* pool, ObsRegistry* obs,
                            std::span<const std::size_t> attr_ids,
                            SeqFaultSimResult& res) const {
  constexpr std::size_t kPerWord = 63;
  constexpr std::size_t kPerPass = kPerWord * NW;

  auto packed_pass = [&](std::size_t base) {
    const ObsSpan span(obs, "seqsim.pass");
    const std::size_t chunk = std::min(kPerPass, faults.size() - base);
    std::vector<WideVal<NW>> pi(soa_->inputs().size());
    std::vector<WideInjection<NW>> inj;
    inj.reserve(chunk);
    for (std::size_t k = 0; k < chunk; ++k) {
      // Fault k rides word k/63, bit 1 + k%63 (bit 0 = good machine).
      inj.push_back(to_wide_injection<NW>(
          faults[base + k],
          static_cast<unsigned>(((k / kPerWord) << 6) + 1 + k % kPerWord)));
    }

    std::uint64_t undet[NW];
    for (int w = 0; w < NW; ++w) {
      const std::size_t in_word = std::min<std::size_t>(
          kPerWord, chunk > w * kPerWord ? chunk - w * kPerWord : 0);
      undet[w] =
          (in_word == kPerWord) ? ~1ull : ((1ull << (in_word + 1)) - 2);
    }

    WideSeqSim<NW> sim(soa_);
    sim.reset(initial_state);
    std::uint64_t cycles = 0, dropped = 0;
    for (std::size_t t = 0; t < seq.size() && !all_zero<NW>(undet); ++t) {
      ++cycles;
      for (std::size_t i = 0; i < pi.size(); ++i) {
        pi[i] = WideVal<NW>::broadcast(seq[t][i]);
      }
      const WideSim<NW>& v = sim.step(pi, inj);
      for (NodeId n : observe_) {
        const WideVal<NW>& pv = v.value(n);
        for (int w = 0; w < NW; ++w) {
          const std::uint64_t z = pv.zero[w], o = pv.one[w];
          std::uint64_t det = (z & 1) ? o : (o & 1) ? z : 0;
          det &= undet[w];
          while (det != 0) {
            const unsigned bit = static_cast<unsigned>(std::countr_zero(det));
            det &= det - 1;
            undet[w] &= ~(1ull << bit);
            res.detect_cycle[base + w * kPerWord + bit - 1] =
                static_cast<int>(t);
            ++dropped;
          }
        }
      }
    }
    if (obs) {
      obs->add(Ctr::SeqSimPackedPasses);
      obs->add(Ctr::SeqSimCycles, cycles);
      obs->add(Ctr::SeqSimFaultsDropped, dropped);
      if (!attr_ids.empty()) {
        // Charged as resolved cycles (a pure per-fault function), not the
        // pass's shared cycle count — see the attribution contract in the
        // header.  Writes land in this pass's disjoint id slice, so the
        // parallel dispatch needs no extra synchronisation beyond the
        // sharded ledger itself.
        for (std::size_t k = 0; k < chunk; ++k) {
          const int dc = res.detect_cycle[base + k];
          obs->charge(Attr::SeqSims, attr_ids[base + k]);
          obs->charge(Attr::SeqCycles, attr_ids[base + k],
                      dc >= 0 ? static_cast<std::uint64_t>(dc) + 1
                              : static_cast<std::uint64_t>(seq.size()));
        }
      }
    }
  };

  const std::size_t passes = (faults.size() + kPerPass - 1) / kPerPass;
  if (pool != nullptr && pool->jobs() > 1 && passes > 1) {
    parallel_for(*pool, passes, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t p = b; p < e; ++p) packed_pass(p * kPerPass);
    });
  } else {
    for (std::size_t p = 0; p < passes; ++p) packed_pass(p * kPerPass);
  }
}

SeqFaultSimResult SeqFaultSim::run(const TestSequence& seq,
                                   std::span<const Fault> faults,
                                   Val initial_state,
                                   ThreadPool* pool,
                                   ObsRegistry* obs,
                                   std::span<const std::size_t> attr_ids) const {
  SeqFaultSimResult res;
  res.detect_cycle.assign(faults.size(), -1);
  // Small batches clamp to the narrowest lane width that still fits in one
  // pass: lanes past the fault count simulate nothing, so a wide pass over a
  // tiny batch is pure overhead.  Outcomes are width-independent, and the
  // counter contract is preserved — a batch that fits one narrow pass also
  // takes exactly one pass at the configured width, with identical early
  // exit, so passes/cycles stay a pure function of (count, width).
  int w = width_;
  if (faults.size() <= 63) w = 64;
  else if (faults.size() <= 63 * 4 && w > 256) w = 256;
  switch (w) {
    case 64:
      run_width<1>(seq, faults, initial_state, pool, obs, attr_ids, res);
      break;
    case 256:
      run_width<4>(seq, faults, initial_state, pool, obs, attr_ids, res);
      break;
    default:
      run_width<8>(seq, faults, initial_state, pool, obs, attr_ids, res);
      break;
  }
  return res;
}

// One pair pass: pair q of the pass rides word q/32, lanes 2*(q%32) (good)
// and 2*(q%32)+1 (faulty).  Each pair follows its own sequence, so PI lanes
// are loaded per sequence through the lane mask of the pairs that follow it
// (step-2 waves put many pairs on one sequence); a pair's lanes go X (and
// its undet bit is retired) once its sequence is exhausted.
template <int NW>
void SeqFaultSim::run_pairs_width(std::span<const FaultSeqPair> pairs,
                                  Val initial_state, ThreadPool* pool,
                                  ObsRegistry* obs,
                                  std::span<const std::size_t> attr_ids,
                                  std::vector<int>& out) const {
  constexpr std::size_t kPerWord = 32;
  constexpr std::size_t kPerPass = kPerWord * NW;
  constexpr std::uint64_t kEven = 0x5555555555555555ull;

  // The sequences of one pass, each with the lanes of the pairs that
  // follow it (both lanes of each pair).
  struct SeqLanes {
    const TestSequence* seq;
    std::uint64_t lanes[NW];
  };

  auto pair_pass = [&](std::size_t base) {
    const ObsSpan span(obs, "seqsim.pass");
    const std::size_t chunk = std::min(kPerPass, pairs.size() - base);
    std::size_t max_len = 0;
    std::vector<WideInjection<NW>> inj;
    inj.reserve(chunk);
    std::vector<SeqLanes> seqs;
    std::uint64_t undet[NW] = {};
    for (std::size_t q = 0; q < chunk; ++q) {
      const TestSequence* s = pairs[base + q].seq;
      inj.push_back(to_wide_injection<NW>(
          pairs[base + q].fault,
          static_cast<unsigned>(((q / kPerWord) << 6) + 2 * (q % kPerWord) +
                                1)));
      undet[q / kPerWord] |= 1ull << (2 * (q % kPerWord));
      max_len = std::max(max_len, s->size());
      // Newest first: pairs on one sequence tend to be adjacent.
      auto it = std::find_if(seqs.rbegin(), seqs.rend(),
                             [&](const SeqLanes& g) { return g.seq == s; });
      SeqLanes& g =
          it != seqs.rend() ? *it : seqs.emplace_back(SeqLanes{s, {}});
      g.lanes[q / kPerWord] |= 3ull << (2 * (q % kPerWord));
    }

    std::vector<WideVal<NW>> pi(soa_->inputs().size());
    WideSeqSim<NW> sim(soa_);
    sim.reset(initial_state);
    std::uint64_t cycles = 0, dropped = 0;
    for (std::size_t t = 0; t < max_len; ++t) {
      // Retire pairs whose sequence ended; stop when none are live.
      for (const SeqLanes& g : seqs) {
        if (g.seq->size() != t) continue;
        for (int w = 0; w < NW; ++w) undet[w] &= ~g.lanes[w];
      }
      if (all_zero<NW>(undet)) break;
      ++cycles;
      for (auto& v : pi) v = WideVal<NW>::broadcast(Val::X);
      for (const SeqLanes& g : seqs) {
        if (t >= g.seq->size()) continue;
        const std::vector<Val>& row = (*g.seq)[t];
        for (std::size_t i = 0; i < pi.size(); ++i) {
          if (row[i] == Val::X) continue;
          std::uint64_t* plane = row[i] == Val::Zero ? pi[i].zero : pi[i].one;
          for (int w = 0; w < NW; ++w) plane[w] |= g.lanes[w];
        }
      }
      const WideSim<NW>& v = sim.step(pi, inj);
      for (NodeId n : observe_) {
        const WideVal<NW>& pv = v.value(n);
        for (int w = 0; w < NW; ++w) {
          const std::uint64_t gz = pv.zero[w] & kEven;
          const std::uint64_t go = pv.one[w] & kEven;
          const std::uint64_t fz = (pv.zero[w] >> 1) & kEven;
          const std::uint64_t fo = (pv.one[w] >> 1) & kEven;
          std::uint64_t det = ((gz & fo) | (go & fz)) & undet[w];
          while (det != 0) {
            const unsigned bit = static_cast<unsigned>(std::countr_zero(det));
            det &= det - 1;
            undet[w] &= ~(1ull << bit);
            out[base + w * kPerWord + bit / 2] = static_cast<int>(t);
            ++dropped;
          }
        }
      }
    }
    if (obs) {
      obs->add(Ctr::SeqSimPackedPasses);
      obs->add(Ctr::SeqSimCycles, cycles);
      obs->add(Ctr::SeqSimFaultsDropped, dropped);
      if (!attr_ids.empty()) {
        // Resolved cycles against the pair's own sequence length (pairs in
        // one pass can follow sequences of different lengths).
        for (std::size_t q = 0; q < chunk; ++q) {
          const int dc = out[base + q];
          obs->charge(Attr::PairReplays, attr_ids[base + q]);
          obs->charge(
              Attr::SeqCycles, attr_ids[base + q],
              dc >= 0 ? static_cast<std::uint64_t>(dc) + 1
                      : static_cast<std::uint64_t>(pairs[base + q].seq->size()));
        }
      }
    }
  };

  const std::size_t passes = (pairs.size() + kPerPass - 1) / kPerPass;
  if (pool != nullptr && pool->jobs() > 1 && passes > 1) {
    parallel_for(*pool, passes, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t p = b; p < e; ++p) pair_pass(p * kPerPass);
    });
  } else {
    for (std::size_t p = 0; p < passes; ++p) pair_pass(p * kPerPass);
  }
}

std::vector<int> SeqFaultSim::run_pairs(
    std::span<const FaultSeqPair> pairs, Val initial_state, ThreadPool* pool,
    ObsRegistry* obs, std::span<const std::size_t> attr_ids) const {
  std::vector<int> out(pairs.size(), -1);
  // Same small-batch clamp as run(): 32 pairs per word.
  int w = width_;
  if (pairs.size() <= 32) w = 64;
  else if (pairs.size() <= 32 * 4 && w > 256) w = 256;
  switch (w) {
    case 64:
      run_pairs_width<1>(pairs, initial_state, pool, obs, attr_ids, out);
      break;
    case 256:
      run_pairs_width<4>(pairs, initial_state, pool, obs, attr_ids, out);
      break;
    default:
      run_pairs_width<8>(pairs, initial_state, pool, obs, attr_ids, out);
      break;
  }
  return out;
}

}  // namespace fsct
