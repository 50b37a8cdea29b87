#include "scan/scan_mode_model.h"

#include <algorithm>

#include "sim/comb_sim.h"

namespace fsct {

ScanModeModel::ScanModeModel(const Levelizer& lv, const ScanDesign& design)
    : lv_(lv),
      design_(design),
      observe_(lv.netlist().outputs()),
      sequences_(lv.netlist(), design),
      max_len_(design.max_chain_length()),
      flush_cycles_(2 * max_len_ + 8),
      observe_cycles_(max_len_ + 2) {
  const Netlist& nl = lv.netlist();
  for (NodeId so : scan_outs()) {
    if (std::find(observe_.begin(), observe_.end(), so) == observe_.end()) {
      observe_.push_back(so);
    }
  }
  values_.assign(nl.size(), Val::X);
  for (auto [pi, v] : design.pi_constraints) values_[pi] = v;
  CombSim sim(lv);
  sim.run(values_);

  chain_loc_.assign(nl.size(), ChainLocation{});
  for (std::size_t c = 0; c < design.chains.size(); ++c) {
    const ScanChain& chain = design.chains[c];
    for (std::size_t k = 0; k < chain.segments.size(); ++k) {
      const ScanSegment& seg = chain.segments[k];
      const ChainLocation loc{static_cast<int>(c), static_cast<int>(k)};
      // The feeding net (previous Q or scan-in) corrupts capture into ffs[k].
      chain_loc_[seg.from] = loc;
      NodeId prev = seg.from;
      for (NodeId g : seg.path) {
        chain_loc_[g] = loc;
        // Side pins of this path gate.
        const auto fins = nl.fanins(g);
        std::size_t cont = fins.size();
        for (std::size_t p = 0; p < fins.size(); ++p) {
          if (fins[p] == prev) {
            cont = p;
            break;
          }
        }
        for (std::size_t p = 0; p < fins.size(); ++p) {
          if (p == cont) continue;
          const NodeId s = fins[p];
          if (values_[s] == Val::X) continue;  // cannot mask shift data
          auto& lst = sides_[s];
          if (std::find_if(lst.begin(), lst.end(), [&](const SideAttachment& a) {
                return a.loc == loc;
              }) == lst.end()) {
            lst.push_back({loc, nl.type(g)});
          }
        }
        prev = g;
      }
    }
    // The last flip-flop's Q is the scan-out itself.
    if (!chain.ffs.empty()) {
      chain_loc_[chain.ffs.back()] = ChainLocation{
          static_cast<int>(c), static_cast<int>(chain.length())};
    }
  }
  side_net_list_.reserve(sides_.size());
  for (const auto& [n, lst] : sides_) side_net_list_.push_back(n);
  std::sort(side_net_list_.begin(), side_net_list_.end());
}

std::vector<NodeId> ScanModeModel::scan_outs() const {
  std::vector<NodeId> outs;
  for (const ScanChain& c : design_.chains) {
    if (!c.ffs.empty()) outs.push_back(c.scan_out());
  }
  return outs;
}

std::string ScanModeModel::check() const {
  const Netlist& nl = lv_.netlist();
  for (const auto& [n, lst] : sides_) {
    for (const SideAttachment& a : lst) {
      const Val v = values_[n];
      switch (a.gate_type) {
        case GateType::And:
        case GateType::Nand:
          if (v != Val::One) {
            return "side net " + nl.node_name(n) + " of AND-family gate not 1";
          }
          break;
        case GateType::Or:
        case GateType::Nor:
          if (v != Val::Zero) {
            return "side net " + nl.node_name(n) + " of OR-family gate not 0";
          }
          break;
        default:
          if (v == Val::X) {
            return "recorded side net " + nl.node_name(n) + " is X";
          }
          break;
      }
    }
  }
  return {};
}

}  // namespace fsct
