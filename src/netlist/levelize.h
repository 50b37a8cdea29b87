// Derived structural views of a Netlist: fanout lists, logic levels and a
// topological order of the combinational gates.  These are consumed by every
// simulator and by ATPG.  A Levelizer snapshot is invalidated by any netlist
// mutation; rebuild after TPI / scan insertion.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace fsct {

/// Per-snapshot memo cell for artifacts derived from one Levelizer (today:
/// the SoaCircuit flat compilation, see SoaCircuit::compile).  Type-erased so
/// this layer stays below the simulators that fill it.  Copies of a Levelizer
/// share the cell — a copy is the same snapshot — which is also why the cell
/// lives behind a shared_ptr instead of as direct members (a mutex member
/// would make Levelizer non-copyable).
struct LevelizerMemo {
  std::mutex m;
  std::shared_ptr<const void> value;
};

/// Immutable structural snapshot of a netlist.
class Levelizer {
 public:
  /// Builds fanouts, levels and topological order.  Throws std::runtime_error
  /// if the netlist has combinational cycles or unconnected pins.
  explicit Levelizer(const Netlist& nl);

  /// Fanout node ids of `id` (sinks whose fanin list contains `id`), in
  /// ascending sink id.  A sink appears once per pin it connects on.
  std::span<const NodeId> fanouts(NodeId id) const {
    return {fanout_.data() + fanout_off_[id],
            fanout_.data() + fanout_off_[id + 1]};
  }

  /// Logic level: 0 for PIs, constants and DFF outputs; otherwise
  /// 1 + max(level of fanins).
  int level(NodeId id) const { return levels_[id]; }

  /// Maximum level over all nodes.
  int max_level() const { return max_level_; }

  /// Combinational gates in topological (level-compatible) order.
  const std::vector<NodeId>& topo_order() const { return topo_; }

  /// All node ids reachable from `from` through combinational gates (forward,
  /// including `from` itself).  Propagation stops at DFF D-pins: the DFF node
  /// itself is included (the fault reaches its D input) but nothing beyond.
  std::vector<NodeId> forward_cone(NodeId from) const;

  /// All node ids in the transitive fanin of `to` (backward, including `to`),
  /// stopping at PIs, constants and DFF outputs (which are included).
  std::vector<NodeId> backward_cone(NodeId to) const;

  const Netlist& netlist() const { return nl_; }

  /// The snapshot's derived-artifact memo (never null).
  const std::shared_ptr<LevelizerMemo>& memo() const { return memo_; }

 private:
  const Netlist& nl_;
  // fanouts(id) is fanout_[fanout_off_[id], fanout_off_[id + 1]).
  std::vector<std::uint32_t> fanout_off_;  // size() + 1 entries
  std::vector<NodeId> fanout_;
  std::vector<int> levels_;
  std::vector<NodeId> topo_;
  int max_level_ = 0;
  std::shared_ptr<LevelizerMemo> memo_ = std::make_shared<LevelizerMemo>();
};

}  // namespace fsct
