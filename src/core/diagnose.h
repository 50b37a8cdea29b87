// Scan-chain fault diagnosis: given the tester's observed responses to the
// chain test set (flush + FSCT vectors), rank candidate faults by how well
// their simulated faulty responses explain the observation.
//
// This is the natural companion of chain *testing*: once the screening flow
// of the paper flags a part as failing, the same scan-mode machinery locates
// the broken segment / suspect fault.  Scoring is signature matching under
// 3-valued simulation: a candidate is consistent when it predicts every
// observed binary value (X predictions are neutral), and candidates are
// ranked by explained mismatches of the good machine.
#pragma once

#include <span>
#include <vector>

#include "core/classify.h"
#include "fault/seq_fault_sim.h"
#include "scan/scan_mode_model.h"

namespace fsct {

/// What the tester saw: for each cycle of `sequence`, the values at the
/// diagnoser's observation points (X = not recorded / masked).
struct ObservedResponse {
  TestSequence sequence;
  std::vector<std::vector<Val>> observed;
};

struct DiagnosisCandidate {
  Fault fault;
  /// (cycle, observe-point) pairs where the candidate's prediction is a
  /// binary value different from an observed binary value.  0 = consistent.
  int contradictions = 0;
  /// Observed good-machine mismatches the candidate reproduces exactly.
  int explained = 0;
  /// explained - contradictions, the ranking key.
  int score() const { return explained - contradictions; }
};

class ChainDiagnoser {
 public:
  /// Observes the model's observe() points.
  explicit ChainDiagnoser(const ScanModeModel& model) : model_(model) {}

  /// Simulates `fault` over `sequence` and returns the response in
  /// ObservedResponse form — the test-bench side of a diagnosis round trip.
  ObservedResponse make_response(const TestSequence& sequence,
                                 const Fault& fault) const;

  /// Ranks `candidates` against the observation; returns the `top_k` best
  /// (all of them if top_k == 0), best first.  Deterministic order.
  std::vector<DiagnosisCandidate> diagnose(const ObservedResponse& response,
                                           std::span<const Fault> candidates,
                                           std::size_t top_k = 10) const;

  const std::vector<NodeId>& observe() const { return model_.observe(); }

 private:
  const ScanModeModel& model_;
};

}  // namespace fsct
