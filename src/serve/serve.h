// `fsct serve`: a long-running screening daemon that amortizes circuit
// compilation across requests (ROADMAP item 2).
//
// Protocol: newline-delimited JSON over a Unix-domain or loopback-TCP
// stream.  One request per line:
//
//   {"id": "r1", "circuit": "INPUT(G0)\n...", "priority": 5,
//    "progress": false, "use_result_cache": true,
//    "config": {"chains": 1, "partial": 1000, "jobs": 1, "simd_width": 0,
//               "dominance": true, "verify_easy": true}}
//
// `circuit` is the .bench text itself (the daemon never touches the client's
// filesystem).  Every config field is optional; the defaults above mirror
// `fsct test`.  Responses are one JSON object per line, tagged by request id:
//
//   {"id": "r1", "event": "progress", "line": "..."}            (0..n, opt-in)
//   {"id": "r1", "event": "result", "status": "ok",
//    "model_cache": "hit|miss|skipped", "result_cache": "hit|miss|off",
//    "report": { ...fsct-run-report-v2... }}
//
// A result-cache hit replays the stored report without consulting the model
// cache at all, so it tags "model_cache": "skipped" rather than claiming a
// hit on a model that may since have been evicted.
//   {"id": "r1", "event": "result", "status": "error",
//    "code": "bad_request|busy|draining", "message": "..."}
//
// Caching: the compiled-model cache is keyed by (FNV-1a 64 hash of the
// circuit text, chains, partial) — everything run_tpi's netlist mutation
// depends on — and holds the post-TPI netlist, Levelizer, ScanModeModel,
// collapsed fault list, dominance artifacts (PipelineCompiled) and the SoA
// compilation (via the Levelizer memo) behind one shared_ptr<const>, shared
// read-only across concurrent requests and LRU-evicted against --cache-mb.
// The result cache maps (model key, canonicalized config) to the finished
// report.  Determinism contract: a served report, timings/RSS stripped (see
// normalized_report), is bitwise identical to the same request through
// `fsct test --metrics` — caches only skip recomputing pure functions.
//
// Drain: SIGTERM/SIGINT (or request_stop()) stops accepting, rejects new
// requests with code "draining", finishes everything queued and in flight,
// flushes the responses, then joins all threads and returns from run().
//
// Observability plane (PR 9): an embedded GET-only HTTP listener
// (serve/http.h) mounts /metrics (OpenMetrics: daemon fsct_serve_* series +
// the daemon-lifetime pipeline registry), /healthz, /readyz (draining ⇒ 503)
// and /statusz (JSON snapshot of in-flight sessions + the recent-request
// ring).  Every request gets a server-assigned `request_id`, echoed on its
// progress/result events, stamped into the report's "serve" section (which
// normalized_report drops — serve metadata stays out of the deterministic
// slice) and used to key one NDJSON line in the structured request log.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/obs.h"
#include "core/pipeline.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "scan/scan_mode_model.h"
#include "scan/tpi.h"

namespace fsct {

/// Canonical comparison form of a run report: parsed, every key containing
/// "seconds"/"time"/"passes"/"cycles"/"rss" dropped recursively (the width-
/// sweep normalization: timings, RSS and pass counts legitimately vary),
/// keys sorted, re-serialized compactly.  Two reports describe the same
/// screening result iff their normalized forms are bytewise equal.
std::string normalized_report(const std::string& report_json);

/// One parsed screening request (defaults mirror `fsct test`).
struct ServeRequest {
  std::string id;
  std::string circuit;        ///< .bench text
  int chains = 1;
  int partial = 1000;         ///< scan permille
  int jobs = 1;
  int simd_width = 0;         ///< 0 = process default
  bool dominance = true;
  bool verify_easy = true;
  int priority = 0;           ///< higher runs first
  bool progress = false;      ///< stream heartbeat/progress events
  bool use_result_cache = true;
};

/// Everything derivable from (circuit text, chains, partial) alone, compiled
/// once and shared read-only (the pipeline only reads it; see
/// PipelineCompiled).  Heap-allocated and never copied or moved: lv/model
/// hold references into nl/design.
struct CompiledModel {
  Netlist nl;  ///< post-TPI
  ScanDesign design;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<ScanModeModel> model;
  std::vector<Fault> faults;
  PipelineCompiled compiled;
  std::size_t approx_bytes = 0;  ///< LRU accounting estimate
};

/// Counters the tests, the drain log and the /metrics exposition read;
/// returned by value as one consistent snapshot.  Every field is written and
/// read under stats_m_ only (the lock-discipline audit /metrics relies on);
/// cache sizes/bytes live under cache_m_ and queue depth under queue_m_ —
/// those are sampled separately by the scrape handler under their own locks.
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected_busy = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t models_compiled = 0;  ///< == model-cache misses
  std::uint64_t model_cache_hits = 0;
  std::uint64_t model_evictions = 0;
  std::uint64_t result_cache_hits = 0;
  std::uint64_t result_cache_misses = 0;
  std::uint64_t result_cache_evictions = 0;
  std::uint64_t queue_highwater = 0;  ///< deepest queue ever observed
};

struct ServeOptions {
  std::string unix_path;  ///< Unix-domain socket path; "" = use tcp_port
  int tcp_port = -1;      ///< loopback TCP port (0 = ephemeral); -1 = off
  int workers = 1;        ///< concurrent screening sessions
  std::size_t queue_limit = 16;   ///< queued requests beyond in-flight
  std::size_t cache_mb = 256;     ///< compiled-model cache budget
  std::size_t result_cache_entries = 128;
  bool verbose = false;
  /// Observability HTTP listener (serve/http.h): /metrics, /healthz,
  /// /readyz, /statusz.  Off unless a unix path or a port (-1 = off,
  /// 0 = ephemeral) is configured.
  std::string http_unix_path;
  int http_port = -1;
  /// Structured NDJSON request log: one line per request (request_id,
  /// circuit hash, priority, cache outcomes, phase latencies, status).
  /// Truncated at daemon start; "" = off.
  std::string request_log_path;
  /// Entries kept in the in-memory recent-request ring shown on /statusz;
  /// clamped to [1, kStatusRingMax] so no flood of tiny requests can grow
  /// daemon memory through it (same rationale as LineReader's line cap).
  std::size_t status_ring = 32;
  /// Daemon log sink (one line, no trailing newline); default writes
  /// "[fsct-serve] <line>" to stderr through the EINTR-safe path.
  std::function<void(const std::string&)> log;
};

/// Hard ceiling for ServeOptions::status_ring.
inline constexpr std::size_t kStatusRingMax = 256;

class HttpServer;
struct HttpResponse;

class ServeServer {
 public:
  /// Binds the listener (so clients can connect as soon as the constructor
  /// returns) but accepts nothing until run().  Throws on bind failure.
  explicit ServeServer(ServeOptions opt);
  ~ServeServer();
  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Serves until SIGTERM/SIGINT or request_stop(), then drains: stops
  /// accepting, finishes queued + in-flight requests, flushes responses,
  /// joins every thread.  Blocking; call from the owning thread.
  void run();

  /// In-process drain trigger (what the signal handler does); safe from any
  /// thread, idempotent.
  void request_stop();

  /// Actual TCP port when listening on TCP (resolves tcp_port = 0).
  int port() const { return port_; }

  /// Actual observability HTTP TCP port (resolves http_port = 0); -1 when
  /// the HTTP plane has no TCP listener.
  int http_port() const;

  ServeStats stats() const;

  /// Handles one request line synchronously and returns the result event
  /// line; progress events go to `progress_sink` when provided.  This is the
  /// exact path the socket workers run — exposed so tests can drive the
  /// cache and determinism contracts without a live socket.
  std::string process_line(
      const std::string& line,
      const std::function<void(const std::string&)>* progress_sink = nullptr);

 private:
  /// One client connection.  The fd closes when the last shared_ptr drops —
  /// normally right after the reader exits, later if a queued job's response
  /// is still being written.
  struct Conn {
    ~Conn();
    int fd = -1;
    std::mutex write_m;  ///< serializes response/progress lines
  };
  struct Job {
    std::shared_ptr<Conn> conn;
    std::string line;
    std::chrono::steady_clock::time_point enqueued;  ///< queue-wait t0
  };

  /// Per-request observability record, filled along the request path and
  /// flushed to the latency histograms + request log by process_line_timed.
  struct RequestRecord {
    std::uint64_t request_id = 0;
    std::string client_id;
    std::string circuit_hash;  ///< fnv1a64 of the circuit text, %016llx
    int priority = 0;
    const char* model_cache = "n/a";
    const char* result_cache = "n/a";
    const char* status = "error";
    std::uint64_t queue_us = 0, compile_us = 0, pipeline_us = 0,
                  serialize_us = 0;
  };

  /// One latency histogram (µs, ObsRegistry log2 buckets); lat_ is indexed
  /// by request phase and guarded by stats_m_.
  struct LatHist {
    std::array<std::uint64_t, kHistBuckets> buckets{};
    std::uint64_t sum = 0, count = 0;
  };
  enum LatPhase : std::size_t { kLatQueue, kLatCompile, kLatPipeline,
                                kLatSerialize, kLatCount };

  /// An in-flight screening session as /statusz sees it.  `reg` points at
  /// the session's stack ObsRegistry for phase/done/total; the entry is
  /// erased (under sessions_m_) before that registry is destroyed.
  struct SessionInfo {
    std::string client_id;
    std::string circuit_hash;
    std::chrono::steady_clock::time_point start;
    const ObsRegistry* reg = nullptr;
  };

  void reader(std::shared_ptr<Conn> conn, std::uint64_t id);
  void worker();
  void reap_finished_readers();  ///< joins reader threads that have exited
  bool enqueue(Job job, int priority);  ///< false when full
  bool dequeue(Job& out);               ///< false when draining and empty
  void respond(const std::shared_ptr<Conn>& conn, const std::string& line);
  std::shared_ptr<const CompiledModel> model_for(const ServeRequest& req,
                                                 bool& cache_hit);
  std::string run_request(
      const ServeRequest& req,
      const std::function<void(const std::string&)>* progress_sink,
      RequestRecord& rec);
  std::string process_line_timed(
      const std::string& line,
      const std::function<void(const std::string&)>* progress_sink,
      std::uint64_t queue_us);
  void log_line(const std::string& line);

  // --- observability plane -------------------------------------------------
  HttpResponse handle_http(const std::string& path);
  void write_metrics(std::ostream& os);
  std::string statusz_json();
  void record_request(const RequestRecord& rec);  ///< histograms + log + ring

  ServeOptions opt_;
  int listen_fd_ = -1;
  int port_ = 0;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};

  // Request queue: priority-major, FIFO within a priority.
  std::mutex queue_m_;
  std::condition_variable queue_cv_;
  std::map<int, std::list<Job>, std::greater<int>> queue_;
  std::size_t queue_size_ = 0;

  // Compiled-model LRU (front = most recent) + result cache.
  mutable std::mutex cache_m_;
  std::list<std::string> lru_;
  struct ModelEntry {
    std::shared_ptr<const CompiledModel> model;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, ModelEntry> models_;
  std::size_t model_bytes_ = 0;
  std::list<std::string> result_lru_;
  struct ResultEntry {
    std::string report;  ///< single-line report JSON
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, ResultEntry> results_;

  mutable std::mutex stats_m_;
  ServeStats stats_;
  std::array<LatHist, kLatCount> lat_;  ///< guarded by stats_m_

  // --- observability plane -------------------------------------------------
  std::unique_ptr<HttpServer> http_;  ///< scrape listener; null = off
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> next_request_id_{1};

  /// Daemon-lifetime pipeline registry: each finished session's ObsRegistry
  /// is folded in (merge_from), so /metrics exposes cumulative fsct_*
  /// pipeline counters across all requests.  merge_from / reads are shard
  /// atomics — no lock.
  ObsRegistry daemon_reg_;

  /// In-flight sessions for /statusz, keyed by request_id.
  std::mutex sessions_m_;
  std::map<std::uint64_t, SessionInfo> sessions_;

  /// Request log fd + recent-request ring (serialized NDJSON objects,
  /// newest last, capped at ring_cap_), both under log_m_.
  std::mutex log_m_;
  int request_log_fd_ = -1;
  std::size_t ring_cap_ = 32;
  std::deque<std::string> recent_;

  // Live connections and their reader threads.  A reader that sees EOF
  // erases its Conn from conns_ and queues its id on finished_readers_; the
  // accept loop joins those handles (reap_finished_readers), so a daemon
  // serving many short-lived connections holds bookkeeping only for live
  // ones.  All three are guarded by conns_m_.
  std::mutex conns_m_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::uint64_t next_reader_id_ = 0;
  std::unordered_map<std::uint64_t, std::thread> reader_threads_;
  std::vector<std::uint64_t> finished_readers_;
  std::vector<std::thread> worker_threads_;
};

}  // namespace fsct
