// The scan-mode circuit model: the TPI'd netlist with its scan-mode PI
// constraints propagated, plus net-level maps of where each net sits relative
// to the scan chains.  This is the structure sections 2–3 of the paper reason
// about: chain nets carry shift data (X in 3-valued scan-mode simulation),
// side-input nets of chain gates are binary non-controlling constants.
//
// The model is also the one owner of how a test is applied in scan mode:
// the observation points, the sequence builder (and with it the flip-flop ->
// chain position table) and the flush and observe lengths.  The pipeline
// that claims detections and the export that ships them both read these, so
// every claimed detection replays through the exported program.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netlist/levelize.h"
#include "scan/scan_chain.h"
#include "scan/scan_sequences.h"

namespace fsct {

/// A position on a scan chain: `segment` k is the link capturing into
/// chain.ffs[k]; the value `chain.length()` denotes "at the scan-out itself"
/// (a corrupted Q of the last flip-flop).
struct ChainLocation {
  int chain = -1;
  int segment = -1;
  friend bool operator==(const ChainLocation&, const ChainLocation&) = default;
  friend auto operator<=>(const ChainLocation&, const ChainLocation&) = default;
};

/// One side-input attachment of a net: feeding a path gate of type
/// `gate_type` at chain position `loc`.
struct SideAttachment {
  ChainLocation loc;
  GateType gate_type = GateType::And;
};

class ScanModeModel {
 public:
  /// `lv` must be built on the post-TPI netlist.
  ScanModeModel(const Levelizer& lv, const ScanDesign& design);

  /// 3-valued scan-mode values: constrained PIs at their constants, free PIs
  /// and flip-flops at X.
  const std::vector<Val>& values() const { return values_; }

  /// Chain location of a shift-data-carrying net (path gates, chain FF Qs,
  /// scan-in PIs); nullopt for all other nets.
  std::optional<ChainLocation> chain_location(NodeId n) const {
    return chain_loc_[n].chain < 0 ? std::nullopt
                                   : std::make_optional(chain_loc_[n]);
  }

  /// Side-input attachments of a net (empty for non-side nets).  Only sides
  /// whose scan-mode value is binary are recorded — an X side (e.g. the
  /// mission-D input of a scan mux) cannot mask shift data.
  const std::vector<SideAttachment>& side_attachments(NodeId n) const {
    static const std::vector<SideAttachment> kEmpty;
    auto it = sides_.find(n);
    return it == sides_.end() ? kEmpty : it->second;
  }

  /// All nets with at least one side attachment.
  const std::vector<NodeId>& side_nets() const { return side_net_list_; }

  const ScanDesign& design() const { return design_; }
  const Levelizer& levelizer() const { return lv_; }

  /// Longest chain length (the paper's `maxsize`).
  std::size_t max_chain_length() const { return max_len_; }

  /// Scan-out Q nodes, one per chain (observed every cycle in scan mode).
  std::vector<NodeId> scan_outs() const;

  /// What every sequential simulation of a scan-mode test observes: the
  /// primary outputs, then the scan-outs that are not already among them.
  const std::vector<NodeId>& observe() const { return observe_; }

  /// The sequence builder of this design; its ff_positions() is the one
  /// flip-flop -> (chain, position) table.
  const ScanSequenceBuilder& sequences() const { return sequences_; }

  /// Cycles of the alternating flush that heads every test program.
  std::size_t flush_cycles() const { return flush_cycles_; }

  /// Shift cycles after a scan load (or a sequential test) that bring the
  /// captured response out to the scan-outs.
  std::size_t observe_cycles() const { return observe_cycles_; }

  /// Checks the TPI invariant: every recorded non-XOR/MUX side input is at
  /// its non-controlling value.  Returns empty string if OK.
  std::string check() const;

 private:
  const Levelizer& lv_;
  const ScanDesign& design_;
  std::vector<Val> values_;
  std::vector<ChainLocation> chain_loc_;
  std::unordered_map<NodeId, std::vector<SideAttachment>> sides_;
  std::vector<NodeId> side_net_list_;
  std::vector<NodeId> observe_;
  ScanSequenceBuilder sequences_;
  std::size_t max_len_;
  std::size_t flush_cycles_;
  std::size_t observe_cycles_;
};

}  // namespace fsct
