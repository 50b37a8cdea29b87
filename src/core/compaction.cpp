#include "core/compaction.h"

#include <algorithm>

namespace fsct {

std::vector<std::vector<std::size_t>> per_vector_detections(
    const ScanModeModel& model, std::span<const ScanVector> vectors,
    std::span<const Fault> targets) {
  const SeqFaultSim sim(model.levelizer(), model.observe());
  std::vector<std::vector<std::size_t>> detects(vectors.size());
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    const TestSequence seq = model.sequences().apply_comb_vector(
        vectors[v].ff_state, vectors[v].pi_vals, model.observe_cycles());
    const SeqFaultSimResult r = sim.run(seq, targets);
    for (std::size_t f = 0; f < targets.size(); ++f) {
      if (r.detect_cycle[f] >= 0) detects[v].push_back(f);
    }
  }
  return detects;
}

CompactionResult compact_vectors(const ScanModeModel& model,
                                 std::span<const ScanVector> vectors,
                                 std::span<const Fault> targets) {
  const auto detects = per_vector_detections(model, vectors, targets);

  CompactionResult res;
  std::vector<char> covered_by_full(targets.size(), 0);
  for (const auto& d : detects) {
    for (std::size_t f : d) covered_by_full[f] = 1;
  }
  res.covered_full = static_cast<std::size_t>(
      std::count(covered_by_full.begin(), covered_by_full.end(), 1));

  // Reverse-order pass: keep a vector only if it contributes a fault not yet
  // covered by the (later) vectors already kept.
  std::vector<char> covered(targets.size(), 0);
  std::vector<std::size_t> kept_rev;
  for (std::size_t i = vectors.size(); i-- > 0;) {
    bool contributes = false;
    for (std::size_t f : detects[i]) {
      if (!covered[f]) {
        contributes = true;
        break;
      }
    }
    if (!contributes) continue;
    kept_rev.push_back(i);
    for (std::size_t f : detects[i]) covered[f] = 1;
  }
  res.kept.assign(kept_rev.rbegin(), kept_rev.rend());
  res.covered_kept = static_cast<std::size_t>(
      std::count(covered.begin(), covered.end(), 1));
  return res;
}

std::vector<std::size_t> truncation_curve(
    const std::vector<std::vector<std::size_t>>& detections,
    std::size_t num_targets) {
  std::vector<char> covered(num_targets, 0);
  std::vector<std::size_t> curve;
  std::size_t n = 0;
  for (const auto& d : detections) {
    for (std::size_t f : d) {
      if (!covered[f]) {
        covered[f] = 1;
        ++n;
      }
    }
    curve.push_back(n);
  }
  return curve;
}

}  // namespace fsct
