#include "core/obs.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <ostream>
#include <sstream>

#ifndef _WIN32
#include <signal.h>  // sigaction: save/restore needs more than std::signal
#endif

#include "core/io_util.h"
#include "core/json.h"
#include "core/pipeline.h"

namespace fsct {

namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "classify_faults",
    "classify_implication_events",
    "alternating_cycles",
    "alternating_detected",
    "podem_calls",
    "podem_detected",
    "podem_untestable",
    "podem_aborts",
    "podem_decisions",
    "podem_backtracks",
    "ppsfp_blocks",
    "ppsfp_fault_sims",
    "ppsfp_events",
    "ppsfp_faults_dropped",
    "seqsim_packed_passes",
    "seqsim_serial_runs",
    "seqsim_cycles",
    "seqsim_faults_dropped",
    "s3_groups",
    "s3_final_faults",
    "dominance_dropped",
    "flush_credit_detected",
    "dropped_by_ledger",
    "untestable_propagated",
    "trace_events_dropped",
};

constexpr const char* kGaugeNames[kNumGauges] = {
    "jobs",
    "hardware_concurrency",
    "total_faults",
    "max_chain_length",
    "current_rss_kb",
    "peak_rss_kb",
};

constexpr const char* kHistNames[kNumHists] = {
    "podem_decision_depth",
    "podem_backtracks_per_call",
    "s3_group_size",
};

constexpr const char* kAttrNames[kNumAttrs] = {
    "podem_calls",
    "podem_decisions",
    "podem_backtracks",
    "seq_sims",
    "seq_cycles",
    "pair_replays",
    "credit_events",
    "wall_nanos",
};

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_ts(double us) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

/// Histogram as a JSON array, trailing empty buckets trimmed.
std::string hist_json(const std::array<std::uint64_t, kHistBuckets>& b) {
  std::size_t last = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] != 0) last = i + 1;
  }
  std::string out = "[";
  for (std::size_t i = 0; i < last; ++i) {
    if (i) out += ", ";
    out += std::to_string(b[i]);
  }
  return out + "]";
}

}  // namespace

const char* counter_name(Ctr c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}
const char* gauge_name(Gauge g) {
  return kGaugeNames[static_cast<std::size_t>(g)];
}
const char* hist_name(Hist h) {
  return kHistNames[static_cast<std::size_t>(h)];
}
const char* attr_name(Attr a) {
  return kAttrNames[static_cast<std::size_t>(a)];
}

namespace {

// The status registry: one process-wide "current run" pointer the SIGUSR1 /
// heartbeat monitor reads.  The mutex covers both the pointer and every
// dereference from the monitor thread, so a registry can never be destroyed
// mid-dump (the destructor detaches under the same lock).
std::mutex g_status_m;
ObsRegistry* g_status_reg = nullptr;
// Lock-free atomic rather than volatile sig_atomic_t: the handler runs on
// whatever thread receives the signal while the monitor thread polls, so the
// flag needs both async-signal-safety and cross-thread ordering.
std::atomic<int> g_sigusr1_pending{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free flag");

void sigusr1_handler(int) {
  g_sigusr1_pending.store(1, std::memory_order_relaxed);
}

bool take_sigusr1() {
  return g_sigusr1_pending.exchange(0, std::memory_order_relaxed) != 0;
}

// Reference-counted sigaction installation.  A monitor acquires the handler
// on start and releases it on teardown; the action that was installed before
// the *first* acquire is restored when the count reaches zero, so a daemon
// cycling one monitor per session never leaves our handler pointing at a
// dead registry.  install_sigusr1_handler() sets g_sig_pinned, which keeps
// the handler installed for the rest of the process (the CLI's behaviour).
std::mutex g_sig_m;
int g_sig_refs = 0;
bool g_sig_pinned = false;
bool g_sig_installed = false;
#ifndef _WIN32
struct sigaction g_sig_prev {};

void sigusr1_install_locked() {
  struct sigaction sa {};
  sa.sa_handler = sigusr1_handler;
  sigemptyset(&sa.sa_mask);
  // Deliberately no SA_RESTART: blocking syscalls must wake with EINTR so a
  // serving daemon's poll/accept loops notice signals promptly.  Every write
  // on the status/heartbeat paths goes through core/io_util.h's retry
  // helpers, which absorb the interruptions this causes.
  sa.sa_flags = 0;
  sigaction(SIGUSR1, &sa, &g_sig_prev);
  g_sig_installed = true;
}
#endif

void sigusr1_acquire() {
#ifndef _WIN32
  std::lock_guard<std::mutex> lk(g_sig_m);
  if (g_sig_refs++ == 0 && !g_sig_installed) sigusr1_install_locked();
#endif
}

void sigusr1_release() {
#ifndef _WIN32
  std::lock_guard<std::mutex> lk(g_sig_m);
  if (--g_sig_refs == 0 && !g_sig_pinned) {
    sigaction(SIGUSR1, &g_sig_prev, nullptr);
    g_sig_installed = false;
  }
#endif
}

}  // namespace

ObsRegistry* set_status_registry(ObsRegistry* reg) {
  std::lock_guard<std::mutex> lk(g_status_m);
  ObsRegistry* prev = g_status_reg;
  g_status_reg = reg;
  return prev;
}

void install_sigusr1_handler() {
#ifndef _WIN32
  std::lock_guard<std::mutex> lk(g_sig_m);
  g_sig_pinned = true;
  if (!g_sig_installed) sigusr1_install_locked();
#endif
}

bool sigusr1_handler_active() {
#ifndef _WIN32
  struct sigaction cur {};
  if (sigaction(SIGUSR1, nullptr, &cur) != 0) return false;
  return cur.sa_handler == &sigusr1_handler;
#else
  return false;
#endif
}

double process_cpu_seconds() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

void test_phase_sleep(const char* phase) {
  const char* spec = std::getenv("FSCT_TEST_PHASE_SLEEP");
  if (!spec) return;
  const char* colon = std::strchr(spec, ':');
  if (!colon) return;
  if (std::strncmp(spec, phase, static_cast<std::size_t>(colon - spec)) != 0 ||
      std::strlen(phase) != static_cast<std::size_t>(colon - spec)) {
    return;
  }
  const long ms = std::strtol(colon + 1, nullptr, 10);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

ObsRegistry::ObsRegistry()
    : shards_(new Shard[kShards]),
      epoch_(std::chrono::steady_clock::now()) {}

ObsRegistry::~ObsRegistry() {
  {
    // Detach from the status registry first: the monitor dereferences the
    // registry only while holding g_status_m, so after this block no other
    // thread can observe the cells we free below.
    std::lock_guard<std::mutex> lk(g_status_m);
    if (g_status_reg == this) g_status_reg = nullptr;
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    delete[] shards_[s].attr.load(std::memory_order_relaxed);
  }
}

// --- per-fault work attribution ---------------------------------------------

void ObsRegistry::init_attribution(std::size_t num_faults) {
  attr_faults_ = num_faults;
  attr_on_.store(num_faults > 0, std::memory_order_relaxed);
}

void ObsRegistry::charge_slow(Attr a, std::size_t fault, std::uint64_t n) {
  Shard& s = shard();
  std::atomic<std::uint64_t>* cells = s.attr.load(std::memory_order_acquire);
  if (!cells) {
    std::lock_guard<std::mutex> lk(attr_m_);
    cells = s.attr.load(std::memory_order_relaxed);
    if (!cells) {
      cells = new std::atomic<std::uint64_t>[attr_faults_ * kNumAttrs]();
      s.attr.store(cells, std::memory_order_release);
    }
  }
  cells[fault * kNumAttrs + static_cast<std::size_t>(a)].fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t ObsRegistry::attr_total(Attr a, std::size_t fault) const {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::atomic<std::uint64_t>* cells =
        shards_[s].attr.load(std::memory_order_acquire);
    if (cells) {
      sum += cells[fault * kNumAttrs + static_cast<std::size_t>(a)].load(
          std::memory_order_relaxed);
    }
  }
  return sum;
}

std::vector<std::uint64_t> ObsRegistry::attribution_table() const {
  std::vector<std::uint64_t> out(attr_faults_ * kNumDetAttrs, 0);
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::atomic<std::uint64_t>* cells =
        shards_[s].attr.load(std::memory_order_acquire);
    if (!cells) continue;
    for (std::size_t f = 0; f < attr_faults_; ++f) {
      for (std::size_t a = 0; a < kNumDetAttrs; ++a) {
        out[f * kNumDetAttrs + a] +=
            cells[f * kNumAttrs + a].load(std::memory_order_relaxed);
      }
    }
  }
  return out;
}

std::string ObsRegistry::attribution_json() const {
  const std::vector<std::uint64_t> t = attribution_table();
  std::string out = "{\"faults\": " + std::to_string(attr_faults_) +
                    ", \"columns\": [";
  for (std::size_t a = 0; a < kNumDetAttrs; ++a) {
    if (a) out += ", ";
    out += "\"";
    out += kAttrNames[a];
    out += "\"";
  }
  out += "], \"rows\": {";
  bool first = true;
  for (std::size_t f = 0; f < attr_faults_; ++f) {
    bool any = false;
    for (std::size_t a = 0; a < kNumDetAttrs; ++a) {
      any |= t[f * kNumDetAttrs + a] != 0;
    }
    if (!any) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::to_string(f) + "\": [";
    for (std::size_t a = 0; a < kNumDetAttrs; ++a) {
      if (a) out += ", ";
      out += std::to_string(t[f * kNumDetAttrs + a]);
    }
    out += "]";
  }
  return out + "}}";
}

std::size_t ObsRegistry::bucket(std::uint64_t value) {
  return std::min<std::size_t>(std::bit_width(value), kHistBuckets - 1);
}

std::uint64_t ObsRegistry::total(Ctr c) const {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    sum += shards_[s].counters[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }
  return sum;
}

std::array<std::uint64_t, kHistBuckets> ObsRegistry::hist_total(Hist h) const {
  std::array<std::uint64_t, kHistBuckets> out{};
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto& hb = shards_[s].hists[static_cast<std::size_t>(h)];
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      out[i] += hb[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t ObsRegistry::hist_sum(Hist h) const {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    sum += shards_[s].hist_sums[static_cast<std::size_t>(h)].load(
        std::memory_order_relaxed);
  }
  return sum;
}

double ObsRegistry::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ObsRegistry::set_trace_limit_bytes(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(trace_m_);
  trace_limit_bytes_ = bytes;
}

void ObsRegistry::add_trace_event(const char* name, unsigned tid, double t0_us,
                                  double t1_us) {
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lk(trace_m_);
    // Conservative estimate of the two JSON lines a span becomes; keeping
    // the budget in eventual-output bytes makes --trace-max-mb honest.
    const std::size_t est = 96 + 2 * std::strlen(name);
    if (trace_limit_bytes_ != 0 && trace_bytes_ + est > trace_limit_bytes_) {
      if (!trace_truncated_) {
        trace_truncated_ = true;
        trace_events_.push_back({"trace.truncated", tid, t0_us, t1_us});
      }
      dropped = true;
    } else {
      trace_bytes_ += est;
      trace_events_.push_back({name, tid, t0_us, t1_us});
    }
  }
  if (dropped) add(Ctr::TraceEventsDropped);
}

std::size_t ObsRegistry::trace_event_count() const {
  std::lock_guard<std::mutex> lk(trace_m_);
  return trace_events_.size();
}

std::vector<ObsRegistry::SpanEvent> ObsRegistry::trace_snapshot() const {
  std::lock_guard<std::mutex> lk(trace_m_);
  std::vector<SpanEvent> out;
  out.reserve(trace_events_.size());
  for (const TraceEvent& e : trace_events_) {
    out.push_back({e.name, e.tid, e.t0_us, e.t1_us});
  }
  return out;
}

void ObsRegistry::write_trace(std::ostream& os) const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lk(trace_m_);
    events = trace_events_;
  }
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"name\": \"fsct pipeline\"}}";
  // One named track per executor seen in the events.
  std::vector<unsigned> tids;
  for (const TraceEvent& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  for (unsigned tid : tids) {
    os << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << tid << ", \"args\": {\"name\": \""
       << (tid == 0 ? "executor 0 (caller)"
                    : "executor " + std::to_string(tid) + " (worker)")
       << "\"}}";
  }
  for (const TraceEvent& e : events) {
    os << ",\n{\"name\": \"" << e.name
       << "\", \"ph\": \"B\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": " << fmt_ts(e.t0_us) << "}";
    os << ",\n{\"name\": \"" << e.name
       << "\", \"ph\": \"E\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": " << fmt_ts(e.t1_us) << "}";
  }
  os << "\n]\n}\n";
}

void ObsRegistry::capture_pool(const ThreadPool& pool) {
  pool_stats_ = pool.worker_stats();
}

bool ObsRegistry::read_rss_kb(long& current_kb, long& peak_kb) {
  current_kb = peak_kb = 0;
#ifdef __linux__
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      current_kb = std::strtol(line.c_str() + 6, nullptr, 10);
    } else if (line.rfind("VmHWM:", 0) == 0) {
      peak_kb = std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return current_kb != 0 || peak_kb != 0;
#else
  return false;
#endif
}

void ObsRegistry::sample_rss(const char* phase) {
  long cur = 0, peak = 0;
  if (!read_rss_kb(cur, peak)) return;
  set_gauge(Gauge::CurrentRssKb, cur);
  set_gauge(Gauge::PeakRssKb, peak);
  std::lock_guard<std::mutex> lk(live_m_);
  rss_phases_.emplace_back(phase, cur);
}

std::vector<std::pair<std::string, long>> ObsRegistry::rss_phases() const {
  std::lock_guard<std::mutex> lk(live_m_);
  return rss_phases_;
}

void ObsRegistry::attach_pool(const ThreadPool* pool) {
  std::lock_guard<std::mutex> lk(live_m_);
  live_pool_ = pool;
}

void ObsRegistry::set_context(std::string ctx) {
  std::lock_guard<std::mutex> lk(live_m_);
  context_ = std::move(ctx);
}

std::string ObsRegistry::context() const {
  std::lock_guard<std::mutex> lk(live_m_);
  return context_;
}

void ObsRegistry::write_status(std::ostream& os) const {
  os << "=== fsct status ===\n";
  {
    const std::string ctx = context();
    if (!ctx.empty()) os << "run: " << ctx << "\n";
  }
  os << "elapsed: " << fmt_double(now_us() / 1e6) << "s, cpu: "
     << fmt_double(process_cpu_seconds()) << "s\n";
  const PhaseProgress p = phase_progress();
  if (p.name) {
    os << "phase: " << p.name << " " << p.done << "/" << p.total;
    if (p.total > 0) {
      os << " (" << fmt_double(100.0 * static_cast<double>(p.done) /
                               static_cast<double>(p.total))
         << "%)";
    }
    os << "\n";
  } else {
    os << "phase: (idle)\n";
  }
  long cur = 0, peak = 0;
  if (read_rss_kb(cur, peak)) {
    os << "rss: current " << cur << " kB, peak " << peak << " kB\n";
  }
  {
    std::lock_guard<std::mutex> lk(live_m_);
    if (live_pool_) {
      const auto ws = live_pool_->worker_stats();
      os << "pool: " << live_pool_->jobs() << " executors, "
         << live_pool_->pending() << " pending tasks\n";
      for (std::size_t i = 0; i < ws.size(); ++i) {
        os << "  worker " << (i + 1) << ": tasks=" << ws[i].tasks
           << " steals=" << ws[i].steals
           << " global_pops=" << ws[i].global_pops
           << " idle=" << fmt_double(ws[i].idle_seconds) << "s\n";
      }
    }
  }
  os << "counters: " << counters_json() << "\n";
  os << "=== end status ===";
}

// --- ObsMonitor --------------------------------------------------------------

ObsMonitor::ObsMonitor() : ObsMonitor(Options()) {}

ObsMonitor::ObsMonitor(Options opt) : opt_(std::move(opt)) {
  if (!opt_.sink) {
    opt_.sink = [](const std::string& line) {
      // write_line, not fprintf: a SIGUSR1/SIGTERM landing mid-write must not
      // truncate a heartbeat line (handlers are installed without SA_RESTART).
      write_line(2, "[fsct] " + line);
    };
  }
  if (opt_.sigusr1) sigusr1_acquire();
  thread_ = std::thread([this] { loop(); });
}

ObsMonitor::~ObsMonitor() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  if (opt_.sigusr1) sigusr1_release();
}

void ObsMonitor::dump_now() { emit_status(); }

void ObsMonitor::loop() {
  auto next_heartbeat = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opt_.heartbeat_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_.wait_for(lk, std::chrono::milliseconds(opt_.poll_ms),
                   [this] { return stop_; });
      if (stop_) return;
    }
    if (opt_.sigusr1 && take_sigusr1()) emit_status();
    if (opt_.heartbeat &&
        std::chrono::steady_clock::now() >= next_heartbeat) {
      emit_heartbeat();
      next_heartbeat = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(opt_.heartbeat_ms);
    }
  }
}

void ObsMonitor::emit_status() {
  std::ostringstream oss;
  if (opt_.registry) {
    opt_.registry->write_status(oss);
  } else {
    std::lock_guard<std::mutex> lk(g_status_m);
    if (!g_status_reg) {
      opt_.sink("status: no active run");
      return;
    }
    g_status_reg->write_status(oss);
  }
  // One sink call per line so custom sinks (and stderr) stay line-atomic.
  std::istringstream iss(oss.str());
  for (std::string line; std::getline(iss, line);) opt_.sink(line);
}

HeartbeatRate::Estimate HeartbeatRate::update(
    const char* phase, std::uint64_t done, std::uint64_t total,
    std::chrono::steady_clock::time_point now) {
  // Reset on phase change (the name literal's identity is the phase's
  // identity) and on done moving backwards — a fresh pipeline run reusing
  // the same phase literal must not inherit the previous run's samples.
  if (phase != phase_ || (!window_.empty() && done < window_.back().done)) {
    window_.clear();
    phase_ = phase;
  }
  window_.push_back({now, done});
  while (window_.size() > 16) window_.erase(window_.begin());
  Estimate est;
  if (window_.size() >= 2) {
    const double dt =
        std::chrono::duration<double>(now - window_.front().t).count();
    if (dt > 0) {
      est.rate = static_cast<double>(done - window_.front().done) / dt;
    }
  }
  // Totals may legitimately shrink below done mid-phase (ledger drops cut
  // step-3 totals); clamp remaining work at zero so the ETA can never go
  // negative or wrap the unsigned subtraction into centuries.
  const std::uint64_t remaining = total > done ? total - done : 0;
  if (est.rate > 0) est.eta_seconds = static_cast<double>(remaining) / est.rate;
  return est;
}

void ObsMonitor::emit_heartbeat() {
  ObsRegistry::PhaseProgress p;
  std::string ctx;
  if (opt_.registry) {
    p = opt_.registry->phase_progress();
    ctx = opt_.registry->context();
  } else {
    std::lock_guard<std::mutex> lk(g_status_m);
    if (!g_status_reg) return;
    p = g_status_reg->phase_progress();
    ctx = g_status_reg->context();
  }
  if (!p.name) return;
  const HeartbeatRate::Estimate est =
      rate_.update(p.name, p.done, p.total, std::chrono::steady_clock::now());
  char buf[384];
  char eta[32] = "?";
  if (est.eta_seconds >= 0) {
    std::snprintf(eta, sizeof eta, "%.0fs", est.eta_seconds);
  }
  long cur = 0, peak = 0;
  ObsRegistry::read_rss_kb(cur, peak);
  char run[96] = "";
  if (!ctx.empty()) std::snprintf(run, sizeof run, "[%s] ", ctx.c_str());
  std::snprintf(buf, sizeof buf,
                "heartbeat %sphase=%s done=%llu/%llu rate=%.1f/s eta=%s "
                "rss=%ldMB peak=%ldMB",
                run, p.name, static_cast<unsigned long long>(p.done),
                static_cast<unsigned long long>(p.total), est.rate, eta,
                cur / 1024, peak / 1024);
  opt_.sink(buf);
}

std::string ObsRegistry::counters_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (i) out += ", ";
    out += "\"";
    out += kCounterNames[i];
    out += "\": ";
    out += std::to_string(total(static_cast<Ctr>(i)));
  }
  out += ", \"histograms\": {";
  for (std::size_t i = 0; i < kNumHists; ++i) {
    if (i) out += ", ";
    out += "\"";
    out += kHistNames[i];
    out += "\": ";
    out += hist_json(hist_total(static_cast<Hist>(i)));
  }
  return out + "}}";
}

double hist_quantile(const std::array<std::uint64_t, kHistBuckets>& buckets,
                     double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return -1;
  q = std::min(1.0, std::max(0.0, q));
  // The sample with (1-based) rank ceil(q * total); rank 0 maps to rank 1.
  const double want = q * static_cast<double>(total);
  std::uint64_t rank = static_cast<std::uint64_t>(want);
  if (static_cast<double>(rank) < want) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (cum + buckets[i] >= rank) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(std::uint64_t{1}
                                                           << (i - 1));
      if (i + 1 >= kHistBuckets) return lo;  // open tail: floor, no upper edge
      const double hi =
          i == 0 ? 0.0 : static_cast<double>((std::uint64_t{1} << i) - 1);
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(buckets[i]);
      return lo + (hi - lo) * frac;
    }
    cum += buckets[i];
  }
  return -1;  // unreachable: total > 0 puts some rank in some bucket
}

void ObsRegistry::merge_from(const ObsRegistry& other) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Ctr c = static_cast<Ctr>(i);
    if (const std::uint64_t n = other.total(c)) add(c, n);
  }
  Shard& s = shard();
  for (std::size_t h = 0; h < kNumHists; ++h) {
    const auto b = other.hist_total(static_cast<Hist>(h));
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      if (b[i]) s.hists[h][i].fetch_add(b[i], std::memory_order_relaxed);
    }
    if (const std::uint64_t sum = other.hist_sum(static_cast<Hist>(h))) {
      s.hist_sums[h].fetch_add(sum, std::memory_order_relaxed);
    }
  }
  if (!attribution_enabled()) return;
  const std::size_t cells_n =
      std::min(attr_faults_, other.attr_faults_) * kNumAttrs;
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    const std::atomic<std::uint64_t>* cells =
        other.shards_[sh].attr.load(std::memory_order_acquire);
    if (!cells) continue;
    for (std::size_t i = 0; i < cells_n; ++i) {
      if (const std::uint64_t n = cells[i].load(std::memory_order_relaxed)) {
        charge(static_cast<Attr>(i % kNumAttrs), i / kNumAttrs, n);
      }
    }
  }
}

void ObsRegistry::import_hist(Hist h, std::span<const std::uint64_t> buckets,
                              std::uint64_t sum) {
  Shard& s = shard();
  const std::size_t hi = static_cast<std::size_t>(h);
  const std::size_t n = std::min(buckets.size(), kHistBuckets);
  for (std::size_t i = 0; i < n; ++i) {
    if (buckets[i]) {
      s.hists[hi][i].fetch_add(buckets[i], std::memory_order_relaxed);
    }
  }
  if (sum) s.hist_sums[hi].fetch_add(sum, std::memory_order_relaxed);
}

void ObsRegistry::write_openmetrics(std::ostream& os) const {
  write_openmetrics_body(os);
  os << "# EOF\n";
}

void ObsRegistry::write_openmetrics_body(std::ostream& os) const {
  // Counters: the TYPE line names the metric family, samples carry the
  // mandatory `_total` suffix.
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    os << "# TYPE fsct_" << kCounterNames[i] << " counter\n";
    os << "fsct_" << kCounterNames[i] << "_total "
       << total(static_cast<Ctr>(i)) << "\n";
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    os << "# TYPE fsct_" << kGaugeNames[i] << " gauge\n";
    os << "fsct_" << kGaugeNames[i] << " " << gauges_[i] << "\n";
  }
  // Histograms: cumulative buckets with the log2 scheme's upper bounds
  // (bucket 0 holds value 0 -> le="0"; bucket i holds [2^(i-1), 2^i - 1]
  // -> le = 2^i - 1; the tail bucket becomes le="+Inf").
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const Hist h = static_cast<Hist>(i);
    const auto b = hist_total(h);
    os << "# TYPE fsct_" << kHistNames[i] << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t j = 0; j < kHistBuckets; ++j) {
      cum += b[j];
      os << "fsct_" << kHistNames[i] << "_bucket{le=\"";
      if (j == 0) {
        os << "0";
      } else if (j + 1 < kHistBuckets) {
        os << ((std::uint64_t{1} << j) - 1);
      } else {
        os << "+Inf";
      }
      os << "\"} " << cum << "\n";
    }
    os << "fsct_" << kHistNames[i] << "_sum " << hist_sum(h) << "\n";
    os << "fsct_" << kHistNames[i] << "_count " << cum << "\n";
  }
}

void ObsRegistry::write_run_report(std::ostream& os, const PipelineResult& r,
                                   const AttrContext* ctx) const {
  os << "{\n\"schema\": \"fsct-run-report-v2\",\n";

  // Every PipelineResult field; bulky vectors are reported as sizes plus the
  // derived data a consumer actually plots (the detection curve, the per-
  // outcome tally), never megabytes of raw test data.
  os << "\"result\": {\n";
  os << "  \"jobs_used\": " << r.jobs_used << ",\n";
  os << "  \"total_faults\": " << r.total_faults << ",\n";
  os << "  \"easy\": " << r.easy << ",\n";
  os << "  \"hard\": " << r.hard << ",\n";
  os << "  \"affecting\": " << r.affecting() << ",\n";
  os << "  \"classify_seconds\": " << fmt_double(r.classify_seconds) << ",\n";
  os << "  \"classify_cpu_seconds\": " << fmt_double(r.classify_cpu_seconds)
     << ",\n";
  os << "  \"easy_verified\": " << r.easy_verified << ",\n";
  os << "  \"alternating_seconds\": " << fmt_double(r.alternating_seconds)
     << ",\n";
  os << "  \"alternating_cpu_seconds\": "
     << fmt_double(r.alternating_cpu_seconds) << ",\n";
  os << "  \"dominance_targets\": " << r.dominance_targets << ",\n";
  os << "  \"flush_detected\": " << r.flush_detected << ",\n";
  os << "  \"ledger_dropped\": " << r.ledger_dropped << ",\n";
  os << "  \"s2_detected\": " << r.s2_detected << ",\n";
  os << "  \"s2_undetectable\": " << r.s2_undetectable << ",\n";
  os << "  \"s2_undetected\": " << r.s2_undetected << ",\n";
  os << "  \"s2_vectors\": " << r.s2_vectors << ",\n";
  os << "  \"s2_seconds\": " << fmt_double(r.s2_seconds) << ",\n";
  os << "  \"s2_cpu_seconds\": " << fmt_double(r.s2_cpu_seconds) << ",\n";
  os << "  \"detection_curve\": [";
  for (std::size_t i = 0; i < r.detection_curve.size(); ++i) {
    os << (i ? ", " : "") << r.detection_curve[i];
  }
  os << "],\n";
  os << "  \"s3_circuits_group\": " << r.s3_circuits_group << ",\n";
  os << "  \"s3_circuits_final\": " << r.s3_circuits_final << ",\n";
  os << "  \"s3_detected\": " << r.s3_detected << ",\n";
  os << "  \"s3_undetectable\": " << r.s3_undetectable << ",\n";
  os << "  \"s3_undetected\": " << r.s3_undetected << ",\n";
  os << "  \"s3_unverified\": " << r.s3_unverified << ",\n";
  os << "  \"s3_seconds\": " << fmt_double(r.s3_seconds) << ",\n";
  os << "  \"s3_cpu_seconds\": " << fmt_double(r.s3_cpu_seconds) << ",\n";
  os << "  \"s3_sequences\": " << r.s3_sequences.size() << ",\n";
  os << "  \"s3_sequence_fault\": [";
  for (std::size_t i = 0; i < r.s3_sequence_fault.size(); ++i) {
    os << (i ? ", " : "") << r.s3_sequence_fault[i];
  }
  os << "],\n";
  static constexpr const char* kOutcomeNames[] = {
      "not_affecting",  "easy_alternating", "detected_flush",
      "detected_comb",  "detected_seq",     "detected_final",
      "undetectable",   "undetected",
  };
  std::size_t tally[std::size(kOutcomeNames)] = {};
  for (FaultOutcome o : r.outcome) ++tally[static_cast<std::size_t>(o)];
  os << "  \"outcomes\": {";
  for (std::size_t i = 0; i < std::size(kOutcomeNames); ++i) {
    os << (i ? ", " : "") << "\"" << kOutcomeNames[i] << "\": " << tally[i];
  }
  os << "},\n";
  os << "  \"info\": " << r.info.size() << "\n";
  os << "},\n";

  os << "\"counters\": " << counters_json() << ",\n";

  os << "\"gauges\": {";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    os << (i ? ", " : "") << "\"" << kGaugeNames[i]
       << "\": " << gauges_[i];
  }
  os << "},\n";

  // Per-fault attribution hotlist, bounded to the top kTopK so reports stay
  // small on big circuits; the full deterministic table is available via
  // attribution_json() / `fsct profile`.
  os << "\"attribution\": ";
  if (!attribution_enabled()) {
    os << "{\"enabled\": false},\n";
  } else {
    constexpr std::size_t kTopK = 20;
    std::vector<std::size_t> ids;
    std::vector<std::array<std::uint64_t, kNumAttrs>> rows(attr_faults_);
    for (std::size_t f = 0; f < attr_faults_; ++f) {
      bool any = false;
      for (std::size_t a = 0; a < kNumAttrs; ++a) {
        rows[f][a] = attr_total(static_cast<Attr>(a), f);
        any |= rows[f][a] != 0;
      }
      if (any) ids.push_back(f);
    }
    auto col = [&](std::size_t f, Attr a) {
      return rows[f][static_cast<std::size_t>(a)];
    };
    std::sort(ids.begin(), ids.end(), [&](std::size_t x, std::size_t y) {
      if (col(x, Attr::WallNanos) != col(y, Attr::WallNanos)) {
        return col(x, Attr::WallNanos) > col(y, Attr::WallNanos);
      }
      if (col(x, Attr::PodemDecisions) != col(y, Attr::PodemDecisions)) {
        return col(x, Attr::PodemDecisions) > col(y, Attr::PodemDecisions);
      }
      if (col(x, Attr::SeqCycles) != col(y, Attr::SeqCycles)) {
        return col(x, Attr::SeqCycles) > col(y, Attr::SeqCycles);
      }
      return x < y;
    });
    os << "{\"enabled\": true, \"faults\": " << attr_faults_
       << ", \"active\": " << ids.size() << ", \"columns\": [";
    for (std::size_t a = 0; a < kNumAttrs; ++a) {
      os << (a ? ", " : "") << "\"" << kAttrNames[a] << "\"";
    }
    os << "], \"top\": [";
    const std::size_t k = std::min(kTopK, ids.size());
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t f = ids[i];
      os << (i ? ",\n  " : "\n  ") << "{\"id\": " << f;
      if (ctx && f < ctx->fault_names.size()) {
        os << ", \"name\": \"" << json_escape(ctx->fault_names[f])
           << "\", \"rep\": " << ctx->rep[f] << ", \"gate\": " << ctx->gate[f]
           << ", \"level\": " << ctx->level[f];
      }
      os << ", \"work\": [";
      for (std::size_t a = 0; a < kNumAttrs; ++a) {
        os << (a ? ", " : "") << rows[f][a];
      }
      os << "]}";
    }
    os << "]},\n";
  }

  // Per-phase resident-set samples (kB), taken at each phase boundary.
  os << "\"rss_phases\": {";
  {
    const auto samples = rss_phases();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      os << (i ? ", " : "") << "\"" << samples[i].first
         << "\": " << samples[i].second;
    }
  }
  os << "},\n";

  // Scheduler statistics: worker i here is executor i+1 in the trace (the
  // submitting thread, executor 0, runs chunks inline and is not a worker).
  os << "\"pool\": {\"workers\": [";
  for (std::size_t i = 0; i < pool_stats_.size(); ++i) {
    const ThreadPool::WorkerStats& w = pool_stats_[i];
    os << (i ? ", " : "") << "{\"executor\": " << (i + 1)
       << ", \"tasks\": " << w.tasks << ", \"steals\": " << w.steals
       << ", \"global_pops\": " << w.global_pops
       << ", \"idle_seconds\": " << fmt_double(w.idle_seconds) << "}";
  }
  os << "]},\n";

  os << "\"trace_events\": " << trace_event_count() << "\n}\n";
}

}  // namespace fsct
