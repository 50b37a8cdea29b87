// Pipeline observability: a thread-safe, low-overhead metrics registry,
// RAII scoped-span timers emitting Chrome trace-event JSON, and a structured
// JSON run-report serializer.
//
// Three design rules keep it cheap and deterministic:
//
//  * **Null sink by default.**  Every producer holds an `ObsRegistry*` that
//    defaults to nullptr; all record paths start with an inline null check,
//    so a run without observability executes one predictable branch per
//    *coarse* operation (per ATPG call, per fault-sim pass — never inside a
//    simulation inner loop).
//  * **Sharded counters, commutative merge.**  Counters and histogram buckets
//    are relaxed atomics sharded by pool executor id (ThreadPool::
//    current_executor()) to avoid cache-line ping-pong; reading merges shards
//    by unsigned addition, which is order-independent, so the merged totals
//    of the deterministic work counters are bitwise identical at any
//    `--jobs N` (the same per-fault work runs, only on different executors).
//    Scheduler statistics (tasks/steals/idle per worker) are inherently
//    schedule-dependent and are reported separately, never merged into the
//    deterministic counter set.
//  * **Spans only where tasks are coarse.**  ObsSpan records begin/end pairs
//    (ph "B"/"E") on the executor's own trace track; producers emit one span
//    per phase / chunk / packed pass / ATPG group, so trace files stay small
//    and the disabled path costs a single load.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.h"

namespace fsct {

struct PipelineResult;

/// Deterministic work counters: totals depend only on the work performed,
/// not on the schedule, so they are identical at any job count.
enum class Ctr : std::uint16_t {
  ClassifyFaults,        ///< faults pushed through forward implication
  ClassifyEvents,        ///< net-value changes during implication
  AlternatingCycles,     ///< cycles of the step-1 flush sequence simulated
  AlternatingDetected,   ///< easy faults the flush sequence really detects
  PodemCalls,            ///< Podem::generate invocations (comb + sequential)
  PodemDetected,         ///< ... that returned Detected
  PodemUntestable,       ///< ... that exhausted the decision space
  PodemAborts,           ///< ... that gave up (backtrack budget)
  PodemDecisions,        ///< PI decisions across all calls
  PodemBacktracks,       ///< backtracks across all calls
  PpsfpBlocks,           ///< 64-pattern PPSFP blocks simulated
  PpsfpFaultSims,        ///< single-fault propagations (fault x block)
  PpsfpEvents,           ///< event-driven net updates during propagation
  PpsfpFaultsDropped,    ///< faults first detected (dropped) per PPSFP run
  SeqSimPackedPasses,    ///< 63-fault packed sequential passes
  SeqSimSerialRuns,      ///< serial (verification) sequential runs
  SeqSimCycles,          ///< machine-cycles simulated (packed + serial)
  SeqSimFaultsDropped,   ///< faults detected (dropped) by sequential sim
  S3Groups,              ///< reduced group models built in step 3
  S3FinalFaults,         ///< individual final-pass models built in step 3
  DominanceDropped,      ///< faults collapsed away by dominance this run
  FlushCreditDetected,   ///< hard faults credited to the alternating flush
  DroppedByLedger,       ///< faults dropped from later phases by earned credit
  UntestablePropagated,  ///< untestability proofs transferred down dominance
  TraceEventsDropped,    ///< spans discarded by the --trace-max-mb cap
  kCount,
};

/// Set-once run facts (serial writes from the pipeline thread only).
enum class Gauge : std::uint16_t {
  Jobs,                  ///< executors actually used
  HardwareConcurrency,   ///< std::thread::hardware_concurrency of the host
  TotalFaults,
  MaxChainLength,
  CurrentRssKb,          ///< resident set at the last sample_rss() call
  PeakRssKb,             ///< process high-water RSS at the last sample
  kCount,
};

/// Power-of-two histograms: bucket 0 counts value 0, bucket i >= 1 counts
/// values in [2^(i-1), 2^i - 1]; the last bucket absorbs the tail.
enum class Hist : std::uint16_t {
  PodemDecisionDepth,    ///< decisions per Podem::generate call
  PodemBacktracksPerCall,
  S3GroupSize,           ///< faults per step-3 group model
  kCount,
};

/// Per-fault work-attribution columns.  Every column except WallNanos is
/// deterministic: the units charged to a fault id depend only on the work the
/// pipeline performed *for that fault*, never on the schedule or the SIMD
/// lane width, so merged tables are bitwise identical at any `--jobs N` and
/// `--simd-width 64/256/512`.  Sequential-sim cost is charged as **resolved
/// cycles** (cycles until the fault's own detection, or the full sequence
/// length when it stays undetected) — a pure per-fault function — rather
/// than the pass-granular SeqSimCycles counter, which legitimately varies
/// with lane packing.  WallNanos is wall-clock and schedule-dependent by
/// nature; it is the ranking signal for hotlists and is excluded from the
/// deterministic table/JSON.
enum class Attr : std::uint16_t {
  PodemCalls,       ///< Podem::generate calls targeting this fault
  PodemDecisions,   ///< PI decisions in those calls
  PodemBacktracks,  ///< backtracks in those calls
  SeqSims,          ///< sequential-sim resolutions of this fault
  SeqCycles,        ///< resolved machine-cycles across those resolutions
  PairReplays,      ///< (fault, sequence) pair-verification replays
  CreditEvents,     ///< ledger credits (flush, ride-along, cross-group)
  WallNanos,        ///< attributed PODEM wall ns (non-deterministic; last)
  kCount,
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Ctr::kCount);
inline constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kCount);
inline constexpr std::size_t kHistBuckets = 20;
inline constexpr std::size_t kNumAttrs = static_cast<std::size_t>(Attr::kCount);
/// The leading columns form the deterministic slice (all but WallNanos).
inline constexpr std::size_t kNumDetAttrs = kNumAttrs - 1;

const char* counter_name(Ctr c);
const char* gauge_name(Gauge g);
const char* hist_name(Hist h);
const char* attr_name(Attr a);

/// Optional sidecar naming the fault ids in attribution output; built by
/// make_attr_context (core/profile.h) from the netlist + collapsed fault
/// list so the obs layer itself stays netlist-free.
struct AttrContext {
  std::vector<std::string> fault_names;  ///< per fault id, "net s-a-v"
  std::vector<std::int32_t> rep;         ///< dominance representative id
  std::vector<std::int32_t> gate;        ///< owning gate NodeId
  std::vector<std::int32_t> level;       ///< owning gate's logic level
};

/// The registry.  One instance observes one pipeline run (or any sequence of
/// library calls); all record methods are safe to call concurrently from
/// pool tasks.  Passing nullptr everywhere disables observation entirely.
class ObsRegistry {
 public:
  ObsRegistry();
  ~ObsRegistry();
  ObsRegistry(const ObsRegistry&) = delete;
  ObsRegistry& operator=(const ObsRegistry&) = delete;

  // --- counters / gauges / histograms ------------------------------------
  void add(Ctr c, std::uint64_t n = 1) {
    shard().counters[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }
  void observe(Hist h, std::uint64_t value) {
    Shard& s = shard();
    s.hists[static_cast<std::size_t>(h)][bucket(value)].fetch_add(
        1, std::memory_order_relaxed);
    s.hist_sums[static_cast<std::size_t>(h)].fetch_add(
        value, std::memory_order_relaxed);
  }
  /// Last write wins; call from the coordinating thread only.
  void set_gauge(Gauge g, std::int64_t v) {
    gauges_[static_cast<std::size_t>(g)] = v;
  }

  /// Merged (schedule-independent) totals.
  std::uint64_t total(Ctr c) const;
  std::int64_t gauge(Gauge g) const {
    return gauges_[static_cast<std::size_t>(g)];
  }
  std::array<std::uint64_t, kHistBuckets> hist_total(Hist h) const;
  /// Merged sum of all observed samples of `h` (pairs with the bucket counts
  /// for the OpenMetrics `_sum` / `_count` samples).
  std::uint64_t hist_sum(Hist h) const;

  /// Log2 bucket index of a histogram sample.
  static std::size_t bucket(std::uint64_t value);

  // --- per-fault work attribution ----------------------------------------
  /// Asks the next pipeline run observed through this registry to enable the
  /// ledger: run_fsct_pipeline calls init_attribution with its collapsed
  /// fault count when it sees the request.  Coordinating thread only.
  void request_attribution() { attr_requested_ = true; }
  bool attribution_requested() const { return attr_requested_; }
  /// Sizes the ledger for fault ids [0, num_faults) and turns charging on.
  /// Call before any worker charges (task submission orders the plain
  /// writes); per-shard cell arrays are allocated lazily on first charge, so
  /// idle shards cost nothing.
  void init_attribution(std::size_t num_faults);
  bool attribution_enabled() const {
    return attr_on_.load(std::memory_order_relaxed);
  }
  std::size_t attribution_faults() const { return attr_faults_; }
  /// Charges `n` units of column `a` to fault id `fault`; any executor.
  /// Disabled attribution costs exactly this one predictable branch.
  void charge(Attr a, std::size_t fault, std::uint64_t n = 1) {
    if (!attr_on_.load(std::memory_order_relaxed)) return;
    charge_slow(a, fault, n);
  }
  /// Merged per-(fault, column) total (commutative shard sum).
  std::uint64_t attr_total(Attr a, std::size_t fault) const;
  /// Merged table, attribution_faults() x kNumDetAttrs row-major, WallNanos
  /// excluded: bitwise identical at any `--jobs N` and `--simd-width` (the
  /// deterministic-counter contract, per fault).
  std::vector<std::uint64_t> attribution_table() const;
  /// The deterministic table as one JSON object (all-zero rows elided);
  /// equal strings at any job count and lane width.
  std::string attribution_json() const;

  // --- trace spans --------------------------------------------------------
  void enable_trace(bool on = true) {
    trace_on_.store(on, std::memory_order_relaxed);
  }
  bool trace_enabled() const {
    return trace_on_.load(std::memory_order_relaxed);
  }
  /// Microseconds since registry construction (the trace time base).
  double now_us() const;
  /// Caps the in-memory trace buffer at roughly `bytes` of eventual JSON
  /// (0 = no cap, the default).  Once the cap is reached new spans are
  /// counted in Ctr::TraceEventsDropped and a single "trace.truncated"
  /// marker event is recorded in their place, so long runs on big generator
  /// circuits cannot fill the disk.
  void set_trace_limit_bytes(std::size_t bytes);
  /// Records one completed span on `tid`'s track (called by ObsSpan).
  void add_trace_event(const char* name, unsigned tid, double t0_us,
                       double t1_us);
  std::size_t trace_event_count() const;
  struct SpanEvent {
    std::string name;
    unsigned tid = 0;
    double t0_us = 0, t1_us = 0;
  };
  /// Copy of the recorded spans, for in-process profile aggregation.
  std::vector<SpanEvent> trace_snapshot() const;
  /// Chrome trace-event JSON ({"traceEvents": [...]}); loads in
  /// chrome://tracing and Perfetto.  One track ("thread") per pool executor;
  /// tid 0 is the submitting thread.
  void write_trace(std::ostream& os) const;

  // --- progress (-v) ------------------------------------------------------
  /// When set, phase-completion lines are delivered here (pipeline thread
  /// only); unset means no formatting work is done at all.
  std::function<void(const std::string&)> progress;
  bool progress_enabled() const { return static_cast<bool>(progress); }
  void progress_line(const std::string& line) const {
    if (progress) progress(line);
  }

  // --- phase progress (heartbeat / status dumps) -------------------------
  /// Marks `name` (a string literal with static storage) as the active
  /// phase with `total` units of work and resets the done count.  Pipeline
  /// thread only; readable concurrently via phase_progress().
  void begin_phase(const char* name, std::uint64_t total) {
    phase_done_.store(0, std::memory_order_relaxed);
    phase_total_.store(total, std::memory_order_relaxed);
    phase_name_.store(name, std::memory_order_release);
  }
  /// Marks no phase active.
  void end_phase() {
    phase_name_.store(nullptr, std::memory_order_release);
  }
  /// Adds finished work units to the active phase; any executor, relaxed —
  /// one add per chunk / fault / group, never inside a simulation loop.
  void phase_tick(std::uint64_t n = 1) {
    phase_done_.fetch_add(n, std::memory_order_relaxed);
  }
  struct PhaseProgress {
    const char* name = nullptr;  ///< nullptr = no phase active
    std::uint64_t done = 0, total = 0;
  };
  PhaseProgress phase_progress() const {
    PhaseProgress p;
    p.name = phase_name_.load(std::memory_order_acquire);
    p.done = phase_done_.load(std::memory_order_relaxed);
    p.total = phase_total_.load(std::memory_order_relaxed);
    return p;
  }

  // --- memory ------------------------------------------------------------
  /// Reads VmRSS/VmHWM from /proc/self/status in kB.  Returns false (zeros)
  /// off-Linux or when the pseudo-file is unreadable.
  static bool read_rss_kb(long& current_kb, long& peak_kb);
  /// Samples RSS, updates the two rss gauges, and remembers the current
  /// value under `phase` for the run report.  Pipeline thread only.
  void sample_rss(const char* phase);
  /// (phase, current-RSS-kB) samples in recording order.
  std::vector<std::pair<std::string, long>> rss_phases() const;

  // --- pool scheduler statistics -----------------------------------------
  /// Snapshots per-worker scheduler stats (call after the pool quiesced).
  void capture_pool(const ThreadPool& pool);
  const std::vector<ThreadPool::WorkerStats>& pool_stats() const {
    return pool_stats_;
  }
  /// Registers the pool currently driving this run so live status dumps can
  /// snapshot worker stats mid-flight; detach before the pool dies.
  void attach_pool(const ThreadPool* pool);
  void detach_pool() { attach_pool(nullptr); }

  /// Free-form label for the run this registry currently observes (circuit,
  /// jobs, bench rep ...); shown in heartbeat lines and status dumps so
  /// multi-rep benches are tellable apart.  Any thread.
  void set_context(std::string ctx);
  std::string context() const;

  /// Multi-line human-readable live status: elapsed, active phase +
  /// progress, RSS, live worker stats, and the counter totals.  Safe to
  /// call from a monitor thread while the pipeline is running.
  void write_status(std::ostream& os) const;

  // --- serialization ------------------------------------------------------
  /// The deterministic slice only — counters and histograms, no gauges, no
  /// pool stats — as one JSON object; equal strings at any job count.
  std::string counters_json() const;
  /// Full structured run report (`fsct-run-report-v2`): every PipelineResult
  /// field, the counters, histograms, gauges, per-worker pool statistics,
  /// and — when attribution ran — a size-bounded `attribution` section with
  /// the top-K hotlist (named via `ctx` when provided).
  void write_run_report(std::ostream& os, const PipelineResult& r,
                        const AttrContext* ctx = nullptr) const;
  /// OpenMetrics / Prometheus text exposition of the counters, gauges and
  /// histograms — the scrape surface `fsct serve` mounts at GET /metrics
  /// (src/serve/http.h; the daemon prepends its own fsct_serve_* series).
  /// Ends with the required "# EOF" terminator.
  void write_openmetrics(std::ostream& os) const;
  /// The exposition without the "# EOF" terminator, for embedding in a
  /// larger scrape page (the daemon's /metrics appends its own series and
  /// writes one terminator for the whole page).
  void write_openmetrics_body(std::ostream& os) const;

  /// Adds `other`'s merged counter and histogram totals (buckets + sums),
  /// and its attribution cells when this registry's ledger is on, into this
  /// registry's calling-thread shard.  `fsct serve` folds each finished
  /// session into its daemon-lifetime registry this way (cumulative
  /// /metrics); a checkpointed run folds each finished step-3 item's private
  /// registry into the run's.  Gauges are set-once run facts and are
  /// deliberately not merged.  Call once `other` is quiescent.
  void merge_from(const ObsRegistry& other);

  /// Adds pre-aggregated histogram state (per-bucket counts + sample sum)
  /// into the calling thread's shard — the import path for checkpoint
  /// restore, where only the serialized totals of a foreign registry are
  /// available.
  void import_hist(Hist h, std::span<const std::uint64_t> buckets,
                   std::uint64_t sum);

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
    std::array<std::atomic<std::uint64_t>, kNumHists> hist_sums{};
    std::array<std::array<std::atomic<std::uint64_t>, kHistBuckets>, kNumHists>
        hists{};
    /// Lazily allocated attribution cells (attr_faults x kNumAttrs,
    /// row-major); published with release so a racing reader only ever sees
    /// fully value-initialized (zeroed) memory.
    std::atomic<std::atomic<std::uint64_t>*> attr{nullptr};
  };

  Shard& shard() {
    const unsigned e = ThreadPool::current_executor();
    return shards_[e < kShards ? e : kShards - 1];
  }

  struct TraceEvent {
    const char* name;
    unsigned tid;
    double t0_us, t1_us;
  };

  /// Out-of-line slow path of charge(): resolves the shard, allocates its
  /// cell array on first use (mutex-guarded, double-checked), then one
  /// relaxed fetch_add.
  void charge_slow(Attr a, std::size_t fault, std::uint64_t n);

  // 1 submitting thread + up to 63 workers before shards are shared (sharing
  // is still correct — the slots are atomics — just slower).
  static constexpr std::size_t kShards = 64;
  std::unique_ptr<Shard[]> shards_;
  std::array<std::int64_t, kNumGauges> gauges_{};
  std::atomic<bool> trace_on_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex trace_m_;  // guards trace_events_ and the byte budget
  std::vector<TraceEvent> trace_events_;
  std::size_t trace_limit_bytes_ = 0;  // 0 = unlimited
  std::size_t trace_bytes_ = 0;        // estimated JSON bytes recorded so far
  bool trace_truncated_ = false;
  std::vector<ThreadPool::WorkerStats> pool_stats_;
  std::atomic<const char*> phase_name_{nullptr};
  std::atomic<std::uint64_t> phase_done_{0};
  std::atomic<std::uint64_t> phase_total_{0};
  bool attr_requested_ = false;
  std::atomic<bool> attr_on_{false};
  std::size_t attr_faults_ = 0;
  std::mutex attr_m_;  // serializes per-shard cell allocation
  mutable std::mutex live_m_;  // guards live_pool_, rss_phases_ and context_
  const ThreadPool* live_pool_ = nullptr;
  std::vector<std::pair<std::string, long>> rss_phases_;
  std::string context_;
};

/// RAII scoped span: records a begin/end pair on the current executor's
/// trace track.  With a null registry (or tracing disabled) construction and
/// destruction are a pointer test each.
class ObsSpan {
 public:
  ObsSpan(ObsRegistry* obs, const char* name)
      : obs_(obs && obs->trace_enabled() ? obs : nullptr), name_(name) {
    if (obs_) t0_us_ = obs_->now_us();
  }
  ~ObsSpan() {
    if (obs_) {
      obs_->add_trace_event(name_, ThreadPool::current_executor(), t0_us_,
                            obs_->now_us());
    }
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  ObsRegistry* obs_;
  const char* name_;
  double t0_us_ = 0;
};

/// Approximate quantile over a log2 bucket array using the Hist scheme
/// (bucket 0 counts value 0; bucket i >= 1 counts [2^(i-1), 2^i - 1]; the
/// last bucket absorbs the open-ended tail).  `q` is clamped to [0, 1] and
/// the result interpolates linearly inside the containing bucket, so it is
/// an estimate bounded by that bucket's range, not an exact order statistic.
/// Returns -1 on an empty histogram; a quantile landing in the tail bucket
/// reports the bucket's lower bound (a floor — the tail has no upper edge).
/// This is how `fsct stat` turns scraped latency buckets into p50/p90/p99.
double hist_quantile(const std::array<std::uint64_t, kHistBuckets>& buckets,
                     double q);

// --- long-run visibility ----------------------------------------------------

/// CPU seconds consumed by the whole process (all threads) so far; the
/// per-phase CPU figures in PipelineResult and the bench harness are deltas
/// of this clock.
double process_cpu_seconds();

/// Makes `reg` the process-wide "current run" that SIGUSR1 status dumps and
/// heartbeats read from (nullptr clears).  Returns the previous registry so
/// nested runs can restore it.  run_fsct_pipeline does this automatically
/// for its own obs sink.
ObsRegistry* set_status_registry(ObsRegistry* reg);

/// Pins the SIGUSR1 handler for the rest of the process (idempotent).  The
/// handler only sets a flag; an ObsMonitor polls it and prints the dump from
/// its own thread, so results are never touched from signal context.
///
/// Installation is sigaction-based and reference-counted: each ObsMonitor
/// acquires the handler on start and releases it on teardown, restoring the
/// previously installed action once the last monitor is gone — a daemon that
/// starts and stops a monitor per session never leaves a dangling handler
/// behind.  This function is the CLI's "keep it for the whole run" variant:
/// it installs the handler if needed and disables the restore-on-zero.  The
/// handler is installed without SA_RESTART so blocking syscalls wake with
/// EINTR (see core/io_util.h for the retry discipline this requires).
void install_sigusr1_handler();

/// Test hook: true while the fsct SIGUSR1 handler is the installed action.
bool sigusr1_handler_active();

/// Test failpoint: sleeps at the start of pipeline phase `phase` when the
/// environment variable FSCT_TEST_PHASE_SLEEP is set to "<phase>:<ms>"
/// (e.g. "s3:200").  Re-read on every call; unset means zero cost beyond
/// one getenv per coarse phase.  This is how the bench-harness tests inject
/// a deliberate, deterministic slowdown into one phase.
void test_phase_sleep(const char* phase);

/// Rolling-rate / ETA estimator behind the heartbeat line.  A pure object so
/// the window policy is unit-testable without a live monitor thread:
///
///  * the window resets when the phase changes (phase identity is the name
///    literal's address) **and** when `done` moves backwards — a daemon
///    re-running the pipeline reuses the same phase literals, so a fresh
///    phase with the same name would otherwise poison the rate with stale
///    samples and print an absurd ETA;
///  * remaining work is clamped at zero: mid-phase total shrinkage (ledger
///    drops reduce step-3 totals) can legitimately leave done > total, which
///    must read as "done any moment now", never as a negative or wrapped
///    ETA.
class HeartbeatRate {
 public:
  struct Estimate {
    double rate = 0;          ///< units/s over the rolling window
    double eta_seconds = -1;  ///< seconds to finish; < 0 = unknown
  };
  Estimate update(const char* phase, std::uint64_t done, std::uint64_t total,
                  std::chrono::steady_clock::time_point now);

 private:
  struct Sample {
    std::chrono::steady_clock::time_point t;
    std::uint64_t done;
  };
  std::vector<Sample> window_;  ///< rolling samples, oldest first
  const char* phase_ = nullptr;
};

/// A small background thread giving long runs a pulse: it polls the status
/// registry (set_status_registry) every poll_ms, prints a full status dump
/// whenever SIGUSR1 arrived, and — when heartbeat is enabled — emits a
/// one-line "phase / done/total / rate / ETA / RSS" heartbeat every
/// heartbeat_ms while a phase is active.  The rate is a rolling estimate
/// over the last few samples, so the ETA tracks the current phase's actual
/// throughput rather than its lifetime average.  All reads are atomics or
/// mutex-guarded snapshots; the monitored run is never perturbed beyond
/// them (verified bitwise by Bench.StatusDumpDoesNotPerturbResults).
class ObsMonitor {
 public:
  struct Options {
    int poll_ms = 100;          ///< SIGUSR1 responsiveness
    bool heartbeat = false;     ///< emit periodic heartbeat lines
    int heartbeat_ms = 1000;
    /// Receives every output line (no trailing newline); default writes
    /// "[fsct] <line>" to stderr through the EINTR-safe write_all path.
    std::function<void(const std::string&)> sink;
    /// When set, this monitor observes `registry` instead of the process-wide
    /// status registry — the per-session monitors of `fsct serve` each watch
    /// their own run.  The caller owns the registry and must keep it alive
    /// for the monitor's lifetime (destroy the monitor first).
    ObsRegistry* registry = nullptr;
    /// Acquire the SIGUSR1 handler and answer dumps.  Per-session monitors
    /// turn this off: only the daemon-wide (or CLI) monitor owns the signal.
    bool sigusr1 = true;
  };
  ObsMonitor();  // default options: SIGUSR1 dumps only, no heartbeat
  explicit ObsMonitor(Options opt);
  ~ObsMonitor();
  ObsMonitor(const ObsMonitor&) = delete;
  ObsMonitor& operator=(const ObsMonitor&) = delete;

  /// Prints a status dump immediately (same output as SIGUSR1); test hook.
  void dump_now();

 private:
  void loop();
  void emit_status();
  void emit_heartbeat();

  Options opt_;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  HeartbeatRate rate_;
  std::thread thread_;
};

}  // namespace fsct
