// Checkpoint/resume (DESIGN.md §5l): the `fsct-ckpt-v1` file, the one
// serializer of a PipelineState taken at a safe point (core/pipeline_exec.h),
// and run_checkpointed_pipeline, the in-process entry point that writes and
// resumes it.  The format is NDJSON, so a truncated file is detected
// structurally (the `end` sentinel carries the expected line count) and
// every parse error is anchored "<path>: line N: ...".
//
// A checkpoint binds to the run that wrote it through `hash`
// (checkpoint_binding_hash); resuming against a different circuit or config
// is refused up front instead of producing a silently wrong report; since
// the hash does not cover the contents, run_fsct_pipeline also refuses a
// restored state that does not fit the run before any phase runs.
//
// Writes are atomic and durable: `<path>.tmp` is fsynced and renamed over
// `<path>`, then the directory is fsynced so the rename survives a crash.
// Once write_checkpoint_atomic returns, `<path>` holds the new checkpoint
// even after power loss; a crash before that leaves the previous checkpoint
// (or a stray temp file), never a half-written one under the real name.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline_exec.h"

namespace fsct {

/// Everything a checkpoint stores: the pipeline state plus the
/// observability totals accumulated so far (merged counters, histogram
/// buckets, per-fault attribution), so a resumed run's report carries the
/// full-run tallies rather than only the post-resume slice.
struct CheckpointData {
  std::uint64_t hash = 0;  ///< checkpoint_binding_hash of the writing run
  PipelineState state;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  struct HistState {
    std::string name;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;
  };
  std::vector<HistState> hists;
  struct AttrCell {
    std::size_t fault = 0;
    std::string column;
    std::uint64_t count = 0;
  };
  std::vector<AttrCell> attr;
};

/// Serializes to the NDJSON text (terminating newline included).
std::string serialize_checkpoint(const CheckpointData& data);

/// Parses checkpoint text.  `name` anchors error messages (usually the file
/// path).  Throws JsonParseError on malformed lines, truncation (missing or
/// wrong `end` sentinel), unknown schema, or internally inconsistent state.
CheckpointData parse_checkpoint(const std::string& text,
                                const std::string& name);

/// Atomic, durable write: <path>.tmp + fsync + rename + fsync of the parent
/// directory.  Throws std::runtime_error on any I/O failure (the temp file is
/// removed best-effort); a call that returns has the checkpoint on disk.
void write_checkpoint_atomic(const std::string& path,
                             const CheckpointData& data);

/// Reads and parses `path`; throws on I/O or parse failure.
CheckpointData read_checkpoint(const std::string& path);

/// Digest binding a checkpoint to the run that wrote it: post-TPI netlist,
/// scan design (mode pin, PI constraints, chains), collapsed fault list and
/// every result-affecting pipeline option.  Deliberately excludes execution
/// knobs that cannot change the result (jobs, simd_width, observability), so
/// a run may resume at another job count or lane width.
std::uint64_t checkpoint_binding_hash(const ScanModeModel& model,
                                      std::span<const Fault> faults,
                                      const PipelineOptions& opt);

/// Snapshot of the run at a safe point: the state `st` plus, when `obs` is
/// set, its counter, histogram and attribution totals.
CheckpointData make_checkpoint(const PipelineState& st, std::uint64_t hash,
                               const ObsRegistry* obs);

/// Checks `data` against this run's binding `hash`, adds the interrupted
/// run's observability totals to `obs` (if set; attribution sized for
/// `num_faults`), and returns the state to pass as PipelineOptions::resume.
/// Throws std::runtime_error, naming `name`, on a hash mismatch, an unknown
/// metric name or an attribution cell beyond `num_faults`.
PipelineState restore_checkpoint(CheckpointData data, std::uint64_t hash,
                                 std::size_t num_faults, ObsRegistry* obs,
                                 const std::string& name);

struct CheckpointOptions {
  std::string path;  ///< checkpoint file; empty = no checkpointing
  /// Minimum ms between periodic writes, the first counted from the start;
  /// 0 = every safe point.  A stop always writes one last checkpoint.
  int interval_ms = 0;
  std::string resume_path;  ///< resume from this checkpoint; empty = fresh
  /// Test hook: stop at the Nth safe point (0 = never), as a signal would.
  int stop_after_safepoints = 0;
};

/// Runs the pipeline with checkpoint hooks: resumes from `resume_path`,
/// writes `path` at safe points (every finished step-3 group and final item
/// among them) and stops at the test hook or, while a `path` is set, on
/// SIGTERM/SIGINT (the handlers are restored on return).  `opt.hooks/resume`
/// are replaced.  Throws PipelineStopped after a stop (the checkpoint is on
/// disk) and std::runtime_error when a resume is refused or a checkpoint
/// cannot be read or written.
PipelineResult run_checkpointed_pipeline(const ScanModeModel& model,
                                         std::span<const Fault> faults,
                                         const PipelineOptions& opt,
                                         const CheckpointOptions& copt);

}  // namespace fsct
