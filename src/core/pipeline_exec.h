// Execution-strategy layer under run_fsct_pipeline.
//
// The pipeline keeps ONE serial skeleton (the control flow that defines the
// bitwise contract: phase order, merge order, counter charging) and delegates
// its data-parallel, per-fault/per-group phases to a PipelineExec.  LocalExec
// runs them on the in-process thread pool; a caller may pass a wrapper of it
// (a tracing decorator, say) as PipelineOptions::exec.
//
// Results are bitwise identical at any job count because every per-item
// computation the interface exposes is a pure function of (model, options,
// item) and every merge the skeleton performs walks items in canonical
// (fault / group / final-slot) order (DESIGN.md §5c).
//
// The skeleton runs the PipelinePhase list in order over one PipelineState,
// the whole resumable state of a run.  Safe points (PipelineHooks) fire
// after every phase, after every PODEM target and after every completed
// step-3 group/final item, each passing the state as it stands; a run
// resumed from such a state (PipelineOptions::resume) starts at its `next`
// phase.  Per-item safe points ride on ItemDone, which the skeleton always
// passes: LocalExec reports each finished step-3 item on the skeleton thread
// with its charges already folded into the run's registry (DESIGN.md §5l).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/pipeline.h"

namespace fsct {

class ObsRegistry;
class ThreadPool;

/// Outcome of one step-3 group model: faults its verified sequences detect
/// (in in-group target order, aligned with `seqs`), faults credited by the
/// group-local ride-along ledger, and in-model detections whose realised
/// test failed end-to-end verification.
struct GroupOutcome {
  std::vector<std::size_t> detected;
  std::vector<TestSequence> seqs;
  std::vector<std::size_t> credited;
  std::size_t unverified = 0;
};

/// Verdict of one final-pass individual model (verification included: a
/// Detected here has already survived its pair replay).
enum class FinalVerdict : std::uint8_t {
  Detected,
  Unverified,
  Untestable,
  Aborted,
  NoSites,
};

struct FinalOutcome {
  FinalVerdict verdict = FinalVerdict::NoSites;
  TestSequence seq;  ///< realised sequence when Detected, else empty
};

/// Phases of the skeleton, in execution order.  PipelineState::next names
/// the first phase that still has to run.
enum class PipelinePhase : std::uint8_t {
  Classify = 0,
  Step1,        ///< alternating-flush verification of f_easy
  FlushCredit,  ///< dominance flush-credit pre-pass over f_hard
  S2Podem,      ///< warm-up + combinational PODEM loop (vector generation)
  S2Verify,     ///< sequential verification of the step-2 vector set
  S3Groups,     ///< grouped sequential ATPG
  S3Ledger,     ///< cross-group detection-ledger pass
  S3Final,      ///< final individual models
  Done,
};

/// Stable name for checkpoints and diagnostics ("classify", "s3.groups", ...).
const char* pipeline_phase_name(PipelinePhase p);
/// Reverse lookup; false on unknown names.
bool pipeline_phase_from_name(const std::string& name, PipelinePhase* out);

/// The whole resumable state of a run, owned by the skeleton and passed to
/// every safe point.  Everything else the phases use (hard-fault list,
/// dominance tables, groups, target order) is a pure function of this state
/// and the run's inputs, rebuilt the same way in a fresh and a resumed run,
/// so a resume at any job count continues bitwise-identically.
struct PipelineState {
  PipelinePhase next = PipelinePhase::Classify;  ///< first incomplete phase
  /// Every result field the completed phases produced (outcomes, info,
  /// vectors, curve, sequences, tallies).  Step-3 phases merge into it only
  /// once all their items are done, so it never holds half a phase.
  PipelineResult res;
  std::vector<char> comb_covered;  ///< step 2: PPSFP-screened flags per fault
  std::size_t podem_next = 0;      ///< step 2: PODEM targets fully processed
  /// Finished items of the step-3 phase in progress (`next`), empty in any
  /// other phase.  Slot gi of `groups` holds group gi's outcome once
  /// groups_done[gi] is set; slot k of `finals` belongs to fault
  /// open_hard_faults(res)[k].
  std::vector<GroupOutcome> groups;
  std::vector<char> groups_done;
  std::vector<FinalOutcome> finals;
  std::vector<char> finals_done;
};

/// The hard (category-2) faults still Undetected in `res`, ascending: the
/// open set each phase after classification works on.
std::vector<std::size_t> open_hard_faults(const PipelineResult& res);

struct PipelineHooks {
  /// Called at every safe point.  Return false to stop: the skeleton throws
  /// PipelineStopped immediately after (the state stays as the callback saw
  /// it, so a checkpoint taken inside the callback can be resumed).
  std::function<bool(const PipelineState&)> safe_point;
};

/// Raised by the skeleton when a safe-point callback returns false.
struct PipelineStopped : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strategy interface for the data-parallel phases.  `ids` are indices into
/// the run's collapsed fault list; outputs align with the input order.
class PipelineExec {
 public:
  /// Per-item completion callback for the step-3 phases, invoked on the
  /// skeleton thread after `done[item]` is final and the item's charges are
  /// in the run's registry.  Returning false asks the exec to start no
  /// further item and return early; items in flight are discarded.  The
  /// skeleton always passes one; without a safe-point hook it only marks the
  /// item done.
  using ItemDone = std::function<bool(std::size_t)>;

  virtual ~PipelineExec() = default;

  /// Chain-fault classification of faults[ids]; aligned with `ids`.
  virtual std::vector<ChainFaultInfo> classify(
      std::span<const std::size_t> ids) = 0;

  /// Simulates `seq` against faults[ids] from the all-X state; returns a
  /// 0/1 detected flag per id.  Used for the step-1 verification, the
  /// flush-credit pre-pass and the cross-group ledger pass.
  virtual std::vector<char> seq_detect(const TestSequence& seq,
                                       std::span<const std::size_t> ids) = 0;

  /// Step-2 sequential verification of faults[ids] against the scan
  /// sequences of `vectors`, each simulated from all-X; returns, per id, the
  /// smallest index of a vector whose sequence detects it, or -1.  Each
  /// (fault, sequence) detection is independent of every other, so any
  /// schedule that finds that minimum returns what a per-vector loop over a
  /// shrinking open set returns.
  virtual std::vector<int> s2_first_vec(std::span<const ScanVector> vectors,
                                        std::span<const std::size_t> ids) = 0;

  /// Runs the step-3 group models named by `todo` (indices into `groups`),
  /// filling `done[gi]` for each.  Entries outside `todo` are left alone
  /// (resume pre-fills them).
  virtual void run_groups(const std::vector<AtpgGroup>& groups,
                          std::span<const std::size_t> todo,
                          std::vector<GroupOutcome>& done,
                          const ItemDone& on_done) = 0;

  /// Runs the final-pass individual models for slots `todo` (indices into
  /// `final_ids`/`windows`/`fdone`), verification included.
  virtual void run_finals(std::span<const std::size_t> final_ids,
                          const std::vector<std::vector<ChainWindow>>& windows,
                          std::span<const std::size_t> todo,
                          std::vector<FinalOutcome>& fdone,
                          const ItemDone& on_done) = 0;
};

/// Step-2 verification after vector 0 runs in waves of about this many
/// (open fault, vector) pairs.  A fixed constant, so the wave plan, and with
/// it every counter, is the same at any job count and lane width.
inline constexpr std::size_t kS2WavePairs = 1024;

/// Vectors in the next step-2 wave when `open_faults` faults are still open:
/// max(1, kS2WavePairs / open_faults).
std::size_t s2_wave_vectors(std::size_t open_faults);

/// The in-process executor: every call runs on `pool`.  Each step-3 group
/// or final item is one pool task that verifies its own detections and, in
/// an observed run, charges a private registry the skeleton thread folds in
/// before it reports the item (DESIGN.md §5l).  Step-2 verification runs
/// vector 0 fault-parallel, then the later vectors in waves (DESIGN.md §5o).
class LocalExec : public PipelineExec {
 public:
  LocalExec(const ScanModeModel& model, std::span<const Fault> faults,
            const PipelineOptions& opt, ThreadPool& pool);

  std::vector<ChainFaultInfo> classify(
      std::span<const std::size_t> ids) override;
  std::vector<char> seq_detect(const TestSequence& seq,
                               std::span<const std::size_t> ids) override;
  std::vector<int> s2_first_vec(std::span<const ScanVector> vectors,
                                std::span<const std::size_t> ids) override;
  void run_groups(const std::vector<AtpgGroup>& groups,
                  std::span<const std::size_t> todo,
                  std::vector<GroupOutcome>& done,
                  const ItemDone& on_done) override;
  void run_finals(std::span<const std::size_t> final_ids,
                  const std::vector<std::vector<ChainWindow>>& windows,
                  std::span<const std::size_t> todo,
                  std::vector<FinalOutcome>& fdone,
                  const ItemDone& on_done) override;

 private:
  GroupOutcome run_group(const AtpgGroup& g, ObsRegistry* obs) const;
  FinalOutcome run_final(std::size_t j, const std::vector<ChainWindow>& window,
                         ObsRegistry* obs) const;

  const ScanModeModel& model_;
  std::span<const Fault> faults_;
  const PipelineOptions& opt_;
  ThreadPool& pool_;
  ObsRegistry* obs_;
  std::vector<NodeId> observe_;
  std::size_t maxlen_;
};

/// The observation list every sequential simulation of the pipeline uses:
/// primary outputs plus the scan-out ports (deduped, in that order).
std::vector<NodeId> pipeline_observe_list(const ScanModeModel& model);

}  // namespace fsct
