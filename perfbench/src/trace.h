// Benchmark-side tracing: an in-memory span log and a PipelineExec decorator
// that times every data-parallel phase the pipeline skeleton hands to its
// executor.  Nothing here reaches into src/: spans are recorded around the
// calls the benchmark makes and the calls the skeleton makes through
// PipelineOptions::exec.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/obs.h"
#include "core/pipeline_exec.h"

namespace perfbench {

/// One span: a named interval, the span that caused it, and the operation
/// (screening or request) it belongs to.
struct Span {
  std::string name;
  double start = 0;  ///< steady-clock seconds
  double end = 0;
  int parent = -1;   ///< index into the log, -1 = root
  std::uint64_t op = 0;
};

/// Thread-safe append-only span store; written out once, at exit.
class SpanLog {
 public:
  int begin(const std::string& name, int parent, std::uint64_t op);
  void end(int id);
  int add(const Span& s);

  /// Self time per span name: each span's duration minus the part of it
  /// its children cover.  Only spans of operations in [op_lo, op_hi).
  std::map<std::string, double> self_seconds(std::uint64_t op_lo,
                                             std::uint64_t op_hi) const;
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// Wall time, CPU time and deterministic counter deltas of one phase.
struct PhaseCost {
  double wall = 0;
  double cpu = 0;
  std::array<std::uint64_t, fsct::kNumCounters> ctr{};

  std::uint64_t delta(fsct::Ctr c) const {
    return ctr[static_cast<std::size_t>(c)];
  }
  PhaseCost& operator+=(const PhaseCost& o);
};

/// Names of the phases TracingExec reports, in skeleton order.  "s2_atpg" is
/// the skeleton interval between the flush-credit pass and s2_first_vec (RPG
/// warm-up, PPSFP and combinational PODEM), which runs on the skeleton
/// thread and so is bracketed by the calls around it.
inline constexpr const char* kPhases[] = {"classify", "seq_detect", "s2_atpg",
                                          "s2_verify", "s3_groups",
                                          "s3_final"};

/// Decorator over another executor: forwards every call unchanged and
/// records a span plus a PhaseCost for it.  Results are the inner
/// executor's, bit for bit.
class TracingExec : public fsct::PipelineExec {
 public:
  TracingExec(fsct::PipelineExec& inner, const fsct::ObsRegistry& reg,
              SpanLog& log, int parent_span, std::uint64_t op);

  std::vector<fsct::ChainFaultInfo> classify(
      std::span<const std::size_t> ids) override;
  std::vector<char> seq_detect(const fsct::TestSequence& seq,
                               std::span<const std::size_t> ids) override;
  std::vector<int> s2_first_vec(std::span<const fsct::ScanVector> vectors,
                                std::span<const std::size_t> ids) override;
  void run_groups(const std::vector<fsct::AtpgGroup>& groups,
                  std::span<const std::size_t> todo,
                  std::vector<fsct::GroupOutcome>& done,
                  const ItemDone& on_done) override;
  void run_finals(std::span<const std::size_t> final_ids,
                  const std::vector<std::vector<fsct::ChainWindow>>& windows,
                  std::span<const std::size_t> todo,
                  std::vector<fsct::FinalOutcome>& fdone,
                  const ItemDone& on_done) override;

  /// Accumulated cost per phase name (see kPhases).
  const std::map<std::string, PhaseCost>& phases() const { return phases_; }

 private:
  struct Mark {
    double wall = 0;
    double cpu = 0;
    std::array<std::uint64_t, fsct::kNumCounters> ctr{};
  };
  Mark mark() const;
  void record(const char* phase, const Mark& a, const Mark& b);
  template <class F>
  auto timed(const char* phase, F&& f);

  fsct::PipelineExec& inner_;
  const fsct::ObsRegistry& reg_;
  SpanLog& log_;
  int parent_;
  std::uint64_t op_;
  Mark last_end_;  ///< end of the previous forwarded call
  bool have_last_ = false;
  std::map<std::string, PhaseCost> phases_;
};

}  // namespace perfbench
