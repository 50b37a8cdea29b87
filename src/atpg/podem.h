// PODEM test generation on a pure combinational model with good/faulty pair
// simulation.  Works unchanged for sequential targets: unroll the circuit
// first (unroll.h) and pass the per-frame fault sites.
//
// Decisions are made only at controllable Input nodes; implication is full
// event-driven forward simulation (PairSim), so the search is the classic
// PODEM decision tree over primary-input assignments with backtrace guided by
// SCOAP controllability and a static distance-to-observation measure.
// Backtracking un-assigns a decision by rolling PairSim back to the trail
// mark the decision recorded, which restores the exact pre-decision state.
//
// Backtrace consults a dead-walk table built once per model: a walk that
// reaches an entry the table marks dead returns false at once instead of
// following the scan-mux/buffer chain down to an uncontrollable input.  The
// table is exact with respect to the walk (it marks only entries whose walk
// fails in every simulation state), so decisions and results are unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/pair_sim.h"
#include "atpg/scoap.h"
#include "netlist/levelize.h"

namespace fsct {

class ObsRegistry;

enum class AtpgStatus : std::uint8_t {
  Detected,    ///< a test was found; see AtpgResult::assignment
  Untestable,  ///< decision space exhausted — no test exists in this model
  Aborted,     ///< backtrack limit hit — undecided
};

struct AtpgOptions {
  /// Backtracks per generate() call before it returns Aborted (the role of
  /// the CPU limit the paper gives stg3, as a deterministic work budget).
  int backtrack_limit = 2000;
  /// D-frontier gates considered per objective round (closest-to-observation
  /// first); bounds per-iteration work on very wide cones.
  int frontier_cap = 16;
  /// Observability sink (counters + decision-depth histogram, recorded once
  /// per generate() call).  nullptr = record nothing.
  ObsRegistry* obs = nullptr;
};

struct AtpgResult {
  AtpgStatus status = AtpgStatus::Aborted;
  /// Binary values of the controllable inputs of the detecting test
  /// (unlisted inputs are don't-care).
  std::vector<std::pair<NodeId, Val>> assignment;
  int decisions = 0;
  int backtracks = 0;
};

/// PODEM engine bound to one (unrolled) combinational model.  Reusable across
/// many faults on the same model.
class Podem {
 public:
  /// `controllable` sized nl.size(), true at assignable Input nodes;
  /// `observe` lists the nets checked for fault effects.
  Podem(const Levelizer& lv, std::vector<char> controllable,
        std::vector<NodeId> observe, AtpgOptions opt = {});

  /// Generates a test for the fault given by its site overrides.  When
  /// `attr_fault` >= 0 and the obs sink has attribution enabled, the call's
  /// work (calls/decisions/backtracks plus wall nanoseconds) is charged to
  /// that fault id in the per-fault attribution ledger.
  AtpgResult generate(std::span<const FaultSite> sites,
                      std::int64_t attr_fault = -1);

  const Levelizer& levelizer() const { return lv_; }

  /// True when the dead-walk table marks (net, v): a backtrace walk that
  /// reaches `net` at X with value `v` wanted returns false.
  bool walk_dead(NodeId net, Val v) const {
    return (dead_[net] >> static_cast<unsigned>(v)) & 1u;
  }

 private:
  struct Objective {
    NodeId net = kNullNode;
    Val val = Val::X;
  };

  AtpgResult generate_impl(std::span<const FaultSite> sites);
  bool detected() const;
  void find_objectives(std::span<const FaultSite> sites,
                       std::vector<Objective>& out);
  void side_input_objectives(NodeId gate, std::vector<Objective>& out) const;
  bool backtrace(Objective obj, NodeId& pi, Val& pv) const;
  bool x_path_exists(NodeId from);
  void build_dead_walk_table();

  const Levelizer& lv_;
  std::vector<char> controllable_;
  std::vector<NodeId> observe_;
  std::vector<char> observed_;
  std::vector<int> obs_dist_;  // static gate-distance to nearest observation
  Scoap scoap_;
  AtpgOptions opt_;
  PairSim sim_;
  std::vector<std::uint8_t> dead_;  // bit v set: walk_dead(net, v)
  std::vector<char> xpath_mark_;     // scratch
  std::vector<NodeId> xpath_stack_;  // scratch: x_path_exists DFS
  std::vector<NodeId> xpath_visited_;
  std::vector<NodeId> frontier_;     // scratch: find_objectives D-frontier
  std::vector<char> frontier_mark_;  // scratch: D-frontier dedupe
};

}  // namespace fsct
