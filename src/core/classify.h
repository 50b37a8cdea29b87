// Section 3 of the paper: find the faults that affect the functional scan
// chain, by forward implication of each fault on the scan-mode circuit model,
// and sort them into the three categories:
//   1 (Easy)         — some chain net becomes a binary constant; the
//                      alternating flush sequence will catch it,
//   2 (Hard)         — some forced side input becomes unknown (or, beyond
//                      the paper's model, changes polarity on an XOR/MUX
//                      path gate); needs dedicated tests,
//   3 (NotAffecting) — the chain is untouched.
// Category 2 takes priority: a fault is Easy only when the *last* location
// it reaches on some chain is a pure category-1 event (a stuck capture at the
// last location is guaranteed to reach the scan-out).
#pragma once

#include <vector>

#include "core/parallel.h"
#include "fault/fault.h"
#include "scan/scan_mode_model.h"

namespace fsct {

class ObsRegistry;

enum class ChainFaultCategory : std::uint8_t {
  NotAffecting,  ///< paper's category 3
  Easy,          ///< paper's category 1
  Hard,          ///< paper's category 2
};

/// Classification result for one fault.
struct ChainFaultInfo {
  ChainFaultCategory category = ChainFaultCategory::NotAffecting;
  /// Every chain location the fault reaches (sorted, deduped).
  std::vector<ChainLocation> locations;
  /// True if more than one chain is affected.
  bool multi_chain = false;
};

/// Forward-implication classifier.  Reusable across faults; not thread-safe.
class ChainFaultClassifier {
 public:
  explicit ChainFaultClassifier(const ScanModeModel& model);

  ChainFaultInfo classify(const Fault& f);

  /// Convenience: classify a whole list.
  std::vector<ChainFaultInfo> classify_all(std::span<const Fault> faults);

  /// Classifies a whole list on `pool`, sharding the fault indices across the
  /// executors (each shard gets its own classifier instance — the per-fault
  /// forward implication is independent).  Results are written by fault index,
  /// so the output is identical to classify_all at any job count.  `obs`
  /// (optional) receives fault/implication-event counters and per-chunk
  /// trace spans; per-fault work is state-restored between faults, so event
  /// totals are chunk- and schedule-independent.
  static std::vector<ChainFaultInfo> classify_all_parallel(
      const ScanModeModel& model, std::span<const Fault> faults,
      ThreadPool& pool, ObsRegistry* obs = nullptr);

  /// Net-value changes recorded by touch() since construction.
  std::uint64_t events() const { return events_; }

 private:
  void touch(NodeId id, Val v);

  std::uint64_t events_ = 0;

  const ScanModeModel& model_;
  const Levelizer& lv_;
  std::vector<Val> cur_;           // faulty values (dirty-restored)
  std::vector<NodeId> dirty_;
  std::vector<char> in_dirty_;
  std::vector<char> queued_;
  std::vector<int> eval_count_;    // oscillation guard across DFF loops
  std::vector<NodeId> worklist_;
};

}  // namespace fsct
