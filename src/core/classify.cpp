#include "core/classify.h"

#include <algorithm>

#include "core/obs.h"

namespace fsct {

namespace {
constexpr int kEvalCap = 8;  // oscillation guard on sequential loops
}

ChainFaultClassifier::ChainFaultClassifier(const ScanModeModel& model)
    : model_(model),
      lv_(model.levelizer()),
      seq_(lv_.netlist(), model.design()) {
  const Netlist& nl = lv_.netlist();
  cur_ = model.values();
  queued_.assign(nl.size(), 0);
  eval_count_.assign(nl.size(), 0);
  in_dirty_.assign(nl.size(), 0);
}

void ChainFaultClassifier::touch(NodeId id, Val v) {
  if (cur_[id] == v) return;
  ++events_;
  if (!in_dirty_[id]) {
    in_dirty_[id] = 1;
    dirty_.push_back(id);
  }
  cur_[id] = v;
  for (NodeId s : lv_.fanouts(id)) {
    if (!queued_[s]) {
      queued_[s] = 1;
      worklist_.push_back(s);
    }
  }
}

ChainFaultInfo ChainFaultClassifier::classify(const Fault& f) {
  const Netlist& nl = lv_.netlist();
  const std::vector<Val>& good = model_.values();
  const Val sv = f.stuck_one ? Val::One : Val::Zero;

  dirty_.clear();
  worklist_.clear();

  struct Event {
    ChainLocation loc;
    bool hard;  // category-2 style (unknown / polarity change)
  };
  std::vector<Event> events;

  // Seed.
  if (f.pin == -1) {
    touch(f.node, sv);
  } else {
    if (!queued_[f.node]) {
      queued_[f.node] = 1;
      worklist_.push_back(f.node);
    }
    // A stuck D pin of a chain flip-flop is itself a stuck capture.
    if (nl.type(f.node) == GateType::Dff) {
      const auto [c, k] = seq_.chain_position(f.node);
      if (c >= 0) events.push_back({{c, k}, false});
    }
    // A stuck pin of a chain-path gate can reroute or re-polarise the shift
    // function without changing any 3-valued net value: a scan mux whose
    // select pin is stuck picks the mission D instead of the chain, an XOR
    // side pin stuck at the flipped value inverts the data.  Record those as
    // category-2 events directly.
    const GateType gt = nl.type(f.node);
    if (auto loc = model_.chain_location(f.node);
        loc && is_combinational(gt)) {
      const Val pv =
          good[nl.fanins(f.node)[static_cast<std::size_t>(f.pin)]];
      if (pv != sv) {
        if (gt == GateType::Mux && f.pin == 0) {
          events.push_back({*loc, true});
        } else if ((gt == GateType::Xor || gt == GateType::Xnor) &&
                   pv != Val::X) {
          events.push_back({*loc, true});
        }
      }
    }
  }

  // Fixed-point propagation (crosses flip-flops: a constant D implies a
  // constant Q in steady state; oscillating loops decay to X).
  Val ins[kMaxFanin];
  for (std::size_t head = 0; head < worklist_.size(); ++head) {
    const NodeId id = worklist_[head];
    queued_[id] = 0;
    const GateType t = nl.type(id);
    if (!is_combinational(t) && t != GateType::Dff) continue;  // sources
    if (f.pin == -1 && f.node == id) continue;  // output-stuck site is pinned
    if (eval_count_[id] >= kEvalCap) {
      touch(id, Val::X);  // oscillation decays to unknown
      continue;
    }
    ++eval_count_[id];
    Val out;
    if (t == GateType::Dff) {
      out = cur_[nl.fanins(id)[0]];
      if (f.pin == 0 && f.node == id) out = sv;
    } else {
      const auto fins = nl.fanins(id);
      for (std::size_t p = 0; p < fins.size(); ++p) {
        ins[p] = cur_[fins[p]];
        if (f.node == id && f.pin == static_cast<int>(p)) ins[p] = sv;
      }
      out = eval_gate(t, ins, fins.size());
    }
    touch(id, out);
  }

  // Collect events from changed nets.
  for (NodeId n : dirty_) {
    if (cur_[n] == good[n]) continue;
    if (auto loc = model_.chain_location(n); loc && cur_[n] != Val::X) {
      events.push_back({*loc, false});  // chain net pinned to a constant
    }
    for (const SideAttachment& a : model_.side_attachments(n)) {
      if (cur_[n] == Val::X) {
        events.push_back({a.loc, true});
      } else if (a.gate_type == GateType::Xor ||
                 a.gate_type == GateType::Xnor ||
                 a.gate_type == GateType::Mux) {
        events.push_back({a.loc, true});  // polarity / routing change
      }
    }
  }

  // Restore scratch state.
  for (NodeId n : dirty_) {
    cur_[n] = good[n];
    in_dirty_[n] = 0;
  }
  for (NodeId n : worklist_) {
    eval_count_[n] = 0;
    queued_[n] = 0;
  }

  ChainFaultInfo info;
  if (events.empty()) return info;

  for (const Event& e : events) info.locations.push_back(e.loc);
  std::sort(info.locations.begin(), info.locations.end());
  info.locations.erase(
      std::unique(info.locations.begin(), info.locations.end()),
      info.locations.end());
  info.multi_chain =
      info.locations.front().chain != info.locations.back().chain;

  // Per-chain last-event kind: Easy iff some chain's last affected location
  // carries only category-1 events.
  bool any_easy_chain = false;
  for (const ChainLocation& loc : info.locations) {
    bool last = true;
    for (const ChainLocation& o : info.locations) {
      if (o.chain == loc.chain && o.segment > loc.segment) {
        last = false;
        break;
      }
    }
    if (!last) continue;
    bool has_hard = false, has_easy = false;
    for (const Event& e : events) {
      if (e.loc == loc) (e.hard ? has_hard : has_easy) = true;
    }
    if (has_easy && !has_hard) any_easy_chain = true;
  }
  info.category =
      any_easy_chain ? ChainFaultCategory::Easy : ChainFaultCategory::Hard;
  return info;
}

std::vector<ChainFaultInfo> ChainFaultClassifier::classify_all(
    std::span<const Fault> faults) {
  std::vector<ChainFaultInfo> out;
  out.reserve(faults.size());
  for (const Fault& f : faults) out.push_back(classify(f));
  return out;
}

std::vector<ChainFaultInfo> ChainFaultClassifier::classify_all_parallel(
    const ScanModeModel& model, std::span<const Fault> faults,
    ThreadPool& pool, ObsRegistry* obs) {
  if (pool.jobs() <= 1) {
    ChainFaultClassifier cls(model);
    auto out = cls.classify_all(faults);
    if (obs) {
      obs->add(Ctr::ClassifyFaults, faults.size());
      obs->add(Ctr::ClassifyEvents, cls.events());
      obs->phase_tick(faults.size());
    }
    return out;
  }
  std::vector<ChainFaultInfo> out(faults.size());
  // Coarse chunks: each chunk pays one classifier construction (O(circuit)),
  // so it should amortise over many faults.
  const std::size_t grain = parallel_grain(faults.size(), pool.jobs(), 64);
  parallel_for(pool, faults.size(), grain,
               [&](std::size_t b, std::size_t e) {
                 const ObsSpan span(obs, "classify.chunk");
                 ChainFaultClassifier cls(model);
                 for (std::size_t i = b; i < e; ++i) {
                   out[i] = cls.classify(faults[i]);
                 }
                 if (obs) {
                   obs->add(Ctr::ClassifyFaults, e - b);
                   obs->add(Ctr::ClassifyEvents, cls.events());
                   obs->phase_tick(e - b);
                 }
               });
  return out;
}

}  // namespace fsct
