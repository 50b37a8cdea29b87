#include "scan/scan_sequences.h"

#include <algorithm>
#include <stdexcept>

namespace fsct {

ScanSequenceBuilder::ScanSequenceBuilder(const Netlist& nl,
                                         const ScanDesign& design)
    : nl_(nl), design_(design) {
  pi_index_.assign(nl.size(), -1);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    pi_index_[nl.inputs()[i]] = static_cast<int>(i);
  }
  dff_index_.assign(nl.size(), -1);
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    dff_index_[nl.dffs()[i]] = static_cast<int>(i);
  }
  ff_pos_.assign(nl.dffs().size(), {-1, -1});
  for (std::size_t c = 0; c < design.chains.size(); ++c) {
    const auto& ffs = design.chains[c].ffs;
    for (std::size_t k = 0; k < ffs.size(); ++k) {
      const int i = ffs[k] < nl.size() ? dff_index_[ffs[k]] : -1;
      if (i >= 0 && ff_pos_[i].first < 0) {  // first listing wins
        ff_pos_[i] = {static_cast<int>(c), static_cast<int>(k)};
      }
    }
  }
}

std::size_t ScanSequenceBuilder::max_chain_length() const {
  std::size_t m = 0;
  for (const ScanChain& c : design_.chains) m = std::max(m, c.length());
  return m;
}

std::pair<int, int> ScanSequenceBuilder::chain_position(NodeId ff) const {
  const int i = ff < dff_index_.size() ? dff_index_[ff] : -1;
  return i < 0 ? std::make_pair(-1, -1) : ff_pos_[i];
}

std::vector<Val> ScanSequenceBuilder::base_vector(Val fill) const {
  std::vector<Val> v(nl_.inputs().size(), fill);
  for (auto [pi, val] : design_.pi_constraints) {
    if (pi_index_[pi] >= 0) v[static_cast<std::size_t>(pi_index_[pi])] = val;
  }
  return v;
}

TestSequence ScanSequenceBuilder::alternating(std::size_t cycles,
                                              Val free_value) const {
  TestSequence seq;
  seq.reserve(cycles);
  for (std::size_t t = 0; t < cycles; ++t) {
    std::vector<Val> v = base_vector(free_value);
    const Val bit = ((t / 2) % 2 == 0) ? Val::Zero : Val::One;  // 0,0,1,1,...
    for (const ScanChain& c : design_.chains) {
      if (pi_index_[c.scan_in] >= 0) {
        v[static_cast<std::size_t>(pi_index_[c.scan_in])] = bit;
      }
    }
    seq.push_back(std::move(v));
  }
  return seq;
}

TestSequence ScanSequenceBuilder::load_state(
    const std::vector<std::vector<Val>>& state,
    const std::vector<Val>& free_pi_values, Val fill) const {
  if (state.size() != design_.chains.size()) {
    throw std::invalid_argument("load_state: one state vector per chain");
  }
  const std::size_t len = max_chain_length();
  TestSequence seq;
  seq.reserve(len);
  for (std::size_t t = 0; t < len; ++t) {
    std::vector<Val> v;
    if (!free_pi_values.empty()) {
      if (free_pi_values.size() != nl_.inputs().size()) {
        throw std::invalid_argument("load_state: free PI vector size");
      }
      v = free_pi_values;
      for (auto [pi, val] : design_.pi_constraints) {
        if (pi_index_[pi] >= 0) {
          v[static_cast<std::size_t>(pi_index_[pi])] = val;
        }
      }
    } else {
      v = base_vector(fill);
    }
    for (std::size_t c = 0; c < design_.chains.size(); ++c) {
      const ScanChain& chain = design_.chains[c];
      const std::size_t L = chain.length();
      if (pi_index_[chain.scan_in] < 0 || L == 0) continue;
      // After `len` clocks, the value injected at clock t sits in position
      // L-1-(t - (len-L)) ... align shorter chains to finish together: start
      // shifting a length-L chain at clock len-L.
      Val bit = fill;
      if (t >= len - L) {
        const std::size_t j = t - (len - L);     // chain-local shift index
        const std::size_t k = L - 1 - j;         // final position of this bit
        Val want = (k < state[c].size()) ? state[c][k] : Val::X;
        if (want == Val::X) want = fill;
        bit = chain.parity_to(k) ? !want : want;
      }
      v[static_cast<std::size_t>(pi_index_[chain.scan_in])] = bit;
    }
    seq.push_back(std::move(v));
  }
  return seq;
}

TestSequence ScanSequenceBuilder::apply_comb_vector(
    const std::vector<Val>& ff_state, const std::vector<Val>& free_pi_values,
    std::size_t observe_cycles) const {
  if (ff_state.size() != nl_.dffs().size()) {
    throw std::invalid_argument("apply_comb_vector: ff_state size");
  }
  std::vector<std::vector<Val>> per_chain(design_.chains.size());
  for (std::size_t c = 0; c < design_.chains.size(); ++c) {
    per_chain[c].assign(design_.chains[c].length(), Val::X);
  }
  for (std::size_t i = 0; i < ff_state.size(); ++i) {
    const auto [c, k] = ff_pos_[i];
    if (c >= 0 && ff_state[i] != Val::X) {
      per_chain[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)] =
          ff_state[i];
    }
  }
  TestSequence seq = load_state(per_chain, free_pi_values);
  // Keep shifting so the captured response reaches the scan-outs; hold the
  // vector's free-PI values (they may be needed to keep POs sensitized).
  for (std::size_t t = 0; t < observe_cycles; ++t) {
    std::vector<Val> v;
    if (!free_pi_values.empty()) {
      v = free_pi_values;
      for (auto [pi, val] : design_.pi_constraints) {
        if (pi_index_[pi] >= 0) {
          v[static_cast<std::size_t>(pi_index_[pi])] = val;
        }
      }
    } else {
      v = base_vector(Val::Zero);
    }
    for (const ScanChain& c : design_.chains) {
      if (pi_index_[c.scan_in] >= 0) {
        v[static_cast<std::size_t>(pi_index_[c.scan_in])] = Val::Zero;
      }
    }
    seq.push_back(std::move(v));
  }
  return seq;
}

}  // namespace fsct
