// Good/faulty pair simulation for ATPG (the 5-valued D-calculus: a net whose
// pair is (1,0) carries D, (0,1) carries D').
//
// PairSim works on a *pure combinational* netlist (sources are Input/Const
// nodes only — sequential circuits are first unrolled, see unroll.h).  The
// fault is a set of FaultSite overrides applied to the faulty component only;
// multiple sites model the same stuck-at fault replicated across time frames.
//
// set_source() performs event-driven forward update, so a PODEM assignment
// costs only the affected cone.  Every change after init() is recorded on an
// undo trail: PODEM un-assigns a decision with undo_to(mark) and gets back
// the exact values it held before, without re-evaluating the cone.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/levelize.h"
#include "sim/soa_circuit.h"
#include "sim/value.h"

namespace fsct {

/// Good/faulty value pair of one net.
struct PairVal {
  Val g = Val::X;  ///< fault-free machine
  Val f = Val::X;  ///< faulty machine
  friend bool operator==(const PairVal&, const PairVal&) = default;
};

/// True when the net carries a definite fault effect (D or D').
inline bool has_effect(PairVal v) {
  return v.g != Val::X && v.f != Val::X && v.g != v.f;
}

/// One stuck-at override in the faulty machine.  pin == -1 forces the node's
/// output; pin >= 0 forces what the node sees on that fanin pin.
struct FaultSite {
  NodeId node = kNullNode;
  int pin = -1;
  Val value = Val::X;
};

/// Event-driven good/faulty pair simulator.
class PairSim {
 public:
  explicit PairSim(const Levelizer& lv);

  /// Resets all nets to X, installs the fault sites, settles the circuit
  /// (constants propagate) and empties the undo trail.  Must be called
  /// before set_source.
  void init(std::span<const FaultSite> sites);

  /// Assigns the good value of a source node (Val::X un-assigns) and
  /// propagates.  The faulty component follows the good one except where a
  /// site overrides it.
  void set_source(NodeId src, Val v);

  /// Current position of the undo trail.
  std::size_t mark() const { return trail_.size(); }

  /// Restores every net to its value at `mark` (a value of mark() taken
  /// since the last init()), newest change first.  The state is a pure
  /// function of the source assignments, so undoing an assignment gives
  /// exactly what set_source(src, Val::X) would compute.
  void undo_to(std::size_t mark);

  /// Current pair value of a net.
  PairVal value(NodeId n) const { return node_[n].val; }

  /// True if any net currently carries D/D'.
  bool any_effect() const { return effect_count_ > 0; }

  /// Marks the nets whose effects any_observed_effect() reports (`mask`
  /// sized netlist.size()).  Survives init(); PODEM sets its observation
  /// points once and gets an O(1) "detected" predicate.
  void set_observed(std::span<const char> mask);

  /// True if any net marked by set_observed() currently carries D/D'.
  bool any_observed_effect() const { return observed_effect_count_ > 0; }

  /// Nets currently carrying D/D' (compacted on call).
  const std::vector<NodeId>& effect_nets();

  const Levelizer& levelizer() const { return lv_; }

  /// The flat compiled view this simulator runs on (shared with PODEM for
  /// combinational-fanout walks).
  const SoaCircuit& soa() const { return *soa_; }

 private:
  // Everything propagation touches per node, in one 8-byte record: the
  // level (read on every enqueue), the pair, the faulty output force and
  // the flag bits.
  struct NodeState {
    std::uint32_t level = 0;
    PairVal val;
    Val out_override = Val::X;  // faulty output force (X = none)
    std::uint8_t flags = 0;     // k* bits below
  };
  static_assert(sizeof(NodeState) == 8);
  static constexpr std::uint8_t kPinSites = 1;      // has entries in pin_sites_
  static constexpr std::uint8_t kEffect = 2;        // carries D/D' now
  static constexpr std::uint8_t kInEffectList = 4;  // listed in effect_list_
  static constexpr std::uint8_t kObserved = 8;      // set_observed() mask
  static constexpr std::uint8_t kQueued = 16;       // in a propagation bucket

  struct TrailEntry {
    NodeId node;
    PairVal old;
  };

  PairVal eval_node(NodeId id) const;
  void propagate_from(NodeId src);
  void note_change(NodeId id, PairVal nv);
  void record_change(NodeId id, PairVal nv);

  const Levelizer& lv_;
  std::shared_ptr<const SoaCircuit> soa_;
  std::vector<NodeState> node_;
  std::vector<FaultSite> pin_sites_;  // the pin sites, stably sorted by node
  std::vector<NodeId> effect_list_;   // may contain stale entries; compacted
  std::size_t effect_count_ = 0;
  std::size_t observed_effect_count_ = 0;
  std::vector<TrailEntry> trail_;  // (net, value before the change)
  // scratch for propagation: one bucket per level, and a bitmap of the
  // levels whose bucket is non-empty
  std::vector<std::vector<NodeId>> buckets_;
  std::vector<std::uint64_t> level_bits_;
};

}  // namespace fsct
