// Builds the enhanced-controllability/observability circuit models of
// section 5 and runs sequential ATPG (time-frame PODEM) on them.
//
// For a group with window [min,max] on a chain, flip-flops before `min` are
// fault-free-and-controllable (their frame-0 state becomes a pseudo primary
// input; it is realised later by shifting through the healthy chain prefix),
// flip-flops at/after `max` are fault-free-and-observable (their captures
// become pseudo primary outputs in every frame).  Unaffected chains are fully
// controllable and observable.  The unrolled model is value-aware pruned:
// nets frozen to binary constants in scan mode (and outside the group's
// fault cones) fold away, which is what makes sequential ATPG cheap here —
// the paper's observation that "the fault-free scan-mode circuit is simply a
// shift register".
#pragma once

#include <memory>
#include <span>

#include "atpg/podem.h"
#include "atpg/scoap.h"
#include "atpg/unroll.h"
#include "fault/fault.h"
#include "core/grouping.h"
#include "fault/seq_fault_sim.h"
#include "scan/scan_mode_model.h"
#include "scan/scan_sequences.h"

namespace fsct {

struct ReducedModelOptions {
  int frame_slack = 4;
  int frame_cap = 96;      ///< hard bound on time frames per model
  bool observe_pos = true; ///< also observe POs inside the fault cones
  AtpgOptions atpg;
};

/// One built group model, ready to target that group's faults.
struct ReducedModel {
  UnrolledModel um;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<Podem> podem;
  int frames = 0;
};

/// A sequential test in base-circuit terms, extracted from a PODEM solution.
struct SeqTest {
  std::vector<Val> init_state;              ///< per base FF (X = don't care)
  std::vector<std::vector<Val>> pi_frames;  ///< per frame, per base PI (X = dc)
};

/// SCOAP excitation cost per fault: the controllability cost of driving the
/// fault site (the faulted net for a stem, the driving net for a pin fault)
/// to the value opposite its stuck-at polarity.  `controllable` flags the
/// sources assignable in scan mode (free PIs plus chain flip-flops).
std::vector<Cost> fault_excitation_costs(const Levelizer& lv,
                                         const std::vector<char>& controllable,
                                         std::span<const Fault> faults);

/// Orders `targets` (indices into the cost table) cheapest-to-excite first,
/// ties broken by index: fronting the easy faults makes each generated test
/// screen the largest possible share of the still-open list.
std::vector<std::size_t> scoap_target_order(
    std::span<const Cost> cost, std::span<const std::size_t> targets);

class ReducedCircuitBuilder {
 public:
  ReducedCircuitBuilder(const ScanModeModel& model,
                        ReducedModelOptions opt = {});

  /// Builds the group's reduced unrolled model.  `group_faults` are the
  /// actual faults (for forward-cone computation); `extra_frames` widens the
  /// window (used for the final-faults retry).
  ReducedModel build(const AtpgGroup& g, std::span<const Fault> group_faults,
                     int extra_frames = 0) const;

  /// Frames a window needs: spread + slack, capped.
  int frames_for(const AtpgGroup& g, int extra_frames = 0) const;

  /// Maps a PODEM solution on `rm` back to base-circuit terms.
  SeqTest extract_test(const ReducedModel& rm, const AtpgResult& res) const;

  /// Expands a SeqTest into a full clocked PI sequence: scan-load the wanted
  /// state, apply the per-frame PI vectors, then `observe_cycles` flush
  /// cycles.  Don't-care values become 0.
  TestSequence realize(const SeqTest& t, std::size_t observe_cycles) const;

  const ScanModeModel& scan_model() const { return model_; }
  const ReducedModelOptions& options() const { return opt_; }

 private:
  const ScanModeModel& model_;
  ReducedModelOptions opt_;
  ScanSequenceBuilder seq_builder_;
};

}  // namespace fsct
