// Test-set compaction and truncation for the step-2 scan vectors.
//
// The paper observes (Figure 5) that "the large majority of detected faults
// are detected by the beginning part of the test sequence, thus the test set
// can be reduced with only a small increase in the number of undetected
// faults".  This module quantifies that trade-off two ways:
//   * truncation — keep only the first k vectors,
//   * reverse-order greedy compaction — keep a vector only if it detects a
//     fault no later-kept vector covers (classic static compaction).
#pragma once

#include <span>
#include <vector>

#include "core/pipeline.h"
#include "fault/seq_fault_sim.h"
#include "scan/scan_mode_model.h"

namespace fsct {

/// Per-vector detection sets against a fault list: detects[v] lists the
/// indices (into `targets`) of faults vector v detects, each vector applied
/// from the all-X power-up state via scan-load + flush.
std::vector<std::vector<std::size_t>> per_vector_detections(
    const ScanModeModel& model, std::span<const ScanVector> vectors,
    std::span<const Fault> targets);

struct CompactionResult {
  std::vector<std::size_t> kept;   ///< indices of retained vectors, in order
  std::size_t covered_full = 0;    ///< faults the full set detects
  std::size_t covered_kept = 0;    ///< faults the compacted set detects
};

/// Reverse-order greedy compaction (lossless: covered_kept == covered_full).
CompactionResult compact_vectors(const ScanModeModel& model,
                                 std::span<const ScanVector> vectors,
                                 std::span<const Fault> targets);

/// Truncation curve: entry k = #faults detected by the first k+1 vectors
/// (recomputed from the detection sets, so usable on any vector ordering).
std::vector<std::size_t> truncation_curve(
    const std::vector<std::vector<std::size_t>>& detections,
    std::size_t num_targets);

}  // namespace fsct
