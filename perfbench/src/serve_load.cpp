// The serve_mix workload: a closed loop of screening requests over the
// daemon's Unix socket, and the daemon probe of the traced screening runs.
//
// Every circuit is requested three ways, in order, on one connection: cold
// (model and result cache miss), with another lane width (model cache hit,
// result cache miss; the report must not change) and as an exact repeat
// (result cache hit).  Each series renames the nets afresh, so its cold
// request really is cold while the screening work stays the shape's.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "core/io_util.h"
#include "core/json.h"
#include "core/obs.h"
#include "netlist/bench_io.h"
#include "serve/net.h"
#include "serve/serve.h"
#include "trace.h"

namespace perfbench {

namespace {

// Bringing a daemon up takes well under a millisecond; many rounds keep
// the median steady.
constexpr int kSetupRounds = 15;
constexpr const char* kKinds[] = {"cold", "new_config", "repeat"};
// Lane width of the new_config request (the daemon default is the build's).
constexpr int kAltWidth = 64;
// Request spans are numbered from here, clear of the traced screenings.
constexpr std::uint64_t kServeOps = 1000000;

/// A daemon running on its own thread, stopped and joined on destruction.
class Daemon {
 public:
  Daemon(const std::string& socket, int workers, const std::string& log_path)
      : server_(options(socket, workers, log_path)),
        thread_([this] { server_.run(); }) {}
  ~Daemon() {
    server_.request_stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  fsct::ServeServer& server() { return server_; }

 private:
  static fsct::ServeOptions options(const std::string& socket, int workers,
                                    const std::string& log_path) {
    fsct::ServeOptions o;
    o.unix_path = socket;
    o.workers = workers;
    o.queue_limit = 4 * static_cast<std::size_t>(workers);
    o.request_log_path = log_path;
    o.log = [](const std::string&) {};
    return o;
  }

  fsct::ServeServer server_;
  std::thread thread_;
};

/// One client connection: sends a line, blocks for the reply line.
class Client {
 public:
  explicit Client(const std::string& socket)
      : fd_(fsct::connect_unix(socket)), reader_(fd_) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string call(const std::string& line) {
    std::string reply;
    if (!fsct::write_line(fd_, line) || !reader_.next(reply)) {
      throw std::runtime_error("daemon connection lost");
    }
    return reply;
  }

 private:
  int fd_;
  fsct::LineReader reader_;
};

std::string request_line(const std::string& id, const std::string& text,
                         int chains, int simd_width) {
  return "{\"id\": \"" + id + "\", \"circuit\": \"" + fsct::json_escape(text) +
         "\", \"config\": {\"chains\": " + std::to_string(chains) +
         ", \"jobs\": 1, \"simd_width\": " + std::to_string(simd_width) + "}}";
}

struct Reply {
  std::size_t series = 0;
  int shape = 0;  ///< index into the loop's shape list
  int kind = 0;   ///< index into kKinds
  double start = 0;  ///< seconds since the loop started
  double latency = 0;
  std::string text;
};

/// The report object of a result line, or "" when the line has none.
std::string report_of(const std::string& reply) {
  const std::string key = "\"report\": ";
  const std::size_t at = reply.find(key);
  if (at == std::string::npos || reply.empty() || reply.back() != '}') {
    return {};
  }
  const std::size_t from = at + key.size();
  return reply.substr(from, reply.size() - 1 - from);
}

std::string field_of(const fsct::JVal& v, const char* key) {
  const fsct::JVal* f = v.find(key);
  return f && f->kind == fsct::JVal::Str ? f->str : std::string();
}

struct LoopResult {
  std::vector<Reply> replies;
  /// The measurement window: the loop's first `window` seconds (or all of
  /// it, when it ends sooner), and the process CPU time spent in it.
  double window = 0;
  double window_cpu = 0;
  /// Requests completed in the window, an in-flight request counting with
  /// the share of its latency that fell inside.  Unlike a count of whole
  /// requests this does not jump with each multi-second request.
  double window_requests = 0;
  fsct::ServeStats stats;
  std::vector<std::string> log_lines;
};

/// Runs `connections` closed-loop clients against a fresh daemon until
/// `seconds` have passed (or `max_series` series were handed out); the
/// series cycle through `shapes`.
LoopResult serve_loop(const Args& a, const std::vector<std::string>& shapes,
                      int connections, double seconds,
                      std::size_t max_series, bool request_log, SpanLog& log,
                      std::uint64_t op_base) {
  const int nproc = static_cast<int>(fsct::resolve_jobs(0));
  const std::string socket =
      a.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const std::string log_path =
      request_log ? a.out_dir + "/serve-" + std::to_string(::getpid()) + ".log"
                  : std::string();
  LoopResult out;
  std::mutex m;
  std::vector<std::string> errors;
  {
    Daemon d(socket, nproc, log_path);
    std::atomic<std::size_t> next{0};
    std::atomic<int> running{connections};
    const double start = now_s();
    const double cpu0 = cpu_s();
    auto client = [&] {
      try {
        Client c(socket);
        for (;;) {
          if (now_s() - start >= seconds) break;
          const std::size_t k = next.fetch_add(1);
          if (k >= max_series) break;
          const int si = static_cast<int>(k % shapes.size());
          const fsct::SuiteEntry& e = fsct::suite_entry(shapes[si]);
          const std::string text =
              fsct::write_bench_string(make_circuit(e, a.seed, k + 1));
          for (int kind = 0; kind < 3; ++kind) {
            const std::string id = std::to_string(k) + "." + kKinds[kind];
            const std::uint64_t op = op_base + 3 * k + kind;
            const int span = log.begin("request " + shapes[si] + " " +
                                           kKinds[kind], -1, op);
            const double t0 = now_s();
            std::string reply = c.call(request_line(
                id, text, e.chains, kind == 1 ? kAltWidth : 0));
            const double lat = now_s() - t0;
            log.end(span);
            std::lock_guard<std::mutex> lk(m);
            out.replies.push_back(
                {k, si, kind, t0 - start, lat, std::move(reply)});
          }
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(m);
        errors.push_back(e.what());
      }
      --running;
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < connections; ++i) threads.emplace_back(client);
    while (running > 0 && now_s() - start < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    out.window = now_s() - start;
    out.window_cpu = cpu_s() - cpu0;
    for (std::thread& t : threads) t.join();
    out.stats = d.server().stats();
  }
  ::unlink(socket.c_str());
  if (!log_path.empty()) {
    std::ifstream is(log_path);
    std::string line;
    while (std::getline(is, line)) out.log_lines.push_back(line);
    ::unlink(log_path.c_str());
  }
  if (!errors.empty()) throw std::runtime_error("serve client: " + errors[0]);
  for (const Reply& r : out.replies) {
    const double inside = std::min(r.start + r.latency, out.window) - r.start;
    if (inside > 0) out.window_requests += std::min(1.0, inside / r.latency);
  }
  return out;
}

/// Checks every reply: status ok, the cache outcomes its kind implies, and a
/// report identical (timings stripped) to the series' cold report and, when
/// given, to the in-process reference for the shape.  Counts operations.
void check_replies(const LoopResult& lr,
                   const std::vector<std::string>& ref_norm, Report& rep) {
  std::map<std::size_t, std::array<const Reply*, 3>> by_series;
  for (const Reply& r : lr.replies) by_series[r.series][r.kind] = &r;
  static const char* kModel[] = {"miss", "hit", "skipped"};
  static const char* kResult[] = {"miss", "miss", "hit"};
  for (const auto& [k, rs] : by_series) {
    std::string cold_norm;
    for (int kind = 0; kind < 3; ++kind) {
      const Reply* r = rs[kind];
      if (!r) continue;  // the series was cut by a lost connection
      ++rep.attempted;
      const std::string id = std::to_string(k) + "." + kKinds[kind];
      try {
        fsct::JsonParser p(r->text, "reply " + id);
        const fsct::JVal v = p.parse();
        if (field_of(v, "status") != "ok") {
          rep.fail(id + ": status " + field_of(v, "status") + " " +
                   field_of(v, "message"));
          continue;
        }
        if (field_of(v, "model_cache") != kModel[kind] ||
            field_of(v, "result_cache") != kResult[kind]) {
          rep.fail(id + ": unexpected cache outcome " +
                   field_of(v, "model_cache") + "/" +
                   field_of(v, "result_cache"));
          continue;
        }
        const std::string norm = fsct::normalized_report(report_of(r->text));
        if (kind == 0) cold_norm = norm;
        const bool same_as_ref =
            ref_norm.empty() || norm == ref_norm[static_cast<std::size_t>(
                                            r->shape)];
        if (norm != cold_norm || !same_as_ref) {
          rep.fail(id + ": report differs from the " +
                   (same_as_ref ? "series' cold report"
                                : "in-process reference"));
        }
      } catch (const std::exception& e) {
        rep.fail(id + ": " + e.what());
      }
    }
  }
}

void set_serve_layers(const LoopResult& lr, Report& rep) {
  std::vector<double> q, c, p, s;
  for (const std::string& line : lr.log_lines) {
    fsct::JsonParser parser(line, "request log");
    const fsct::JVal v = parser.parse();
    const auto ms = [&](const char* k) {
      return fsct::json_num(parser, v, k) / 1e3;
    };
    q.push_back(ms("queue_us"));
    s.push_back(ms("serialize_us"));
    // A result-cache hit skips model lookup and pipeline.
    if (fsct::json_str(parser, v, "result_cache") == "hit") continue;
    c.push_back(ms("compile_us"));
    p.push_back(ms("pipeline_us"));
  }
  rep.set("serve.queue_ms.p50", median(q), "ms");
  rep.set("serve.compile_ms.p50", median(c), "ms");
  rep.set("serve.pipeline_ms.p50", median(p), "ms");
  rep.set("serve.serialize_ms.p50", median(s), "ms");
  rep.set("serve.model_cache_hits",
          static_cast<double>(lr.stats.model_cache_hits), "count");
  rep.set("serve.result_cache_hits",
          static_cast<double>(lr.stats.result_cache_hits), "count");
}

/// Daemon construction until it answers: a malformed request makes the full
/// trip through the accept loop, a reader, the queue and a worker.
double daemon_ready_seconds(const Args& a) {
  const std::string socket =
      a.out_dir + "/ready-" + std::to_string(::getpid()) + ".sock";
  const double t0 = now_s();
  double t1 = 0;
  {
    Daemon d(socket, static_cast<int>(fsct::resolve_jobs(0)), "");
    Client c(socket);
    c.call("{}");
    t1 = now_s();
  }
  ::unlink(socket.c_str());
  return t1 - t0;
}

/// The in-process screening of one series' circuit under the daemon's
/// request configuration, for comparison with what the daemon served.
struct Reference {
  std::string norm;
  std::size_t confirmed = 0, affecting = 0, aborted = 0, cycles = 0;
  bool ok = false;
};

Reference reference(const Args& a, const std::string& shape) {
  const fsct::SuiteEntry& e = fsct::suite_entry(shape);
  // Parsed from the request text, exactly as the daemon builds its model.
  const std::string text =
      fsct::write_bench_string(make_circuit(e, a.seed, 1));
  const auto p = prepare(e, fsct::read_bench_string(text, "request"));
  fsct::ObsRegistry reg;
  fsct::PipelineOptions opt = screening_options(1);
  opt.obs = &reg;
  const Screening s = screen(*p, opt);
  std::ostringstream os;
  reg.write_run_report(os, s.r, nullptr);
  Reference r;
  r.norm = fsct::normalized_report(os.str());
  fsct::ThreadPool pool(static_cast<int>(fsct::resolve_jobs(0)));
  const Grade g = grade(*p, s, 0, &pool);
  r.ok = g.ok;
  r.confirmed = g.confirmed;
  r.affecting = s.r.affecting();
  r.aborted = s.r.s3_undetected;
  r.cycles = g.cycles;
  return r;
}

/// Series order of serve_mix: the shapes of workload_shapes with s1488
/// repeated, so that a third of all requests (the replays) are faster than
/// every s1488 request and a third slower, and the median sits inside the
/// s1488 class rather than on a class boundary.
std::vector<std::string> series_order(const Args& a) {
  std::vector<std::string> shapes = workload_shapes(a);
  shapes.push_back(shapes[1]);
  return shapes;
}

}  // namespace

void serve_probe(const Args& a, const std::string& shape, SpanLog& log,
                 Report& rep) {
  const LoopResult lr =
      serve_loop(a, {shape}, 1, 1e9, 1, true, log, kServeOps);
  check_replies(lr, {}, rep);
  set_serve_layers(lr, rep);
}

void run_serve(const Args& a, SpanLog& log, Report& rep) {
  const int nproc = static_cast<int>(fsct::resolve_jobs(0));
  const std::vector<std::string> order = series_order(a);
  const std::size_t max_series =
      a.smoke ? order.size() : std::numeric_limits<std::size_t>::max();
  if (a.trace) {
    trace_layers(a, workload_shapes(a), log, rep);
    const LoopResult lr = serve_loop(a, order, nproc, a.seconds, max_series,
                                     true, log, kServeOps);
    check_replies(lr, {}, rep);
    set_serve_layers(lr, rep);
    return;
  }

  std::vector<double> ready;
  for (int i = 0; i < kSetupRounds; ++i) {
    ready.push_back(daemon_ready_seconds(a));
  }

  const LoopResult lr =
      serve_loop(a, order, nproc, a.seconds, max_series, false, log, 0);

  // Outside the timed window: reference screenings of each shape, which the
  // served reports must equal and which give the quality metrics.
  std::vector<std::string> ref_norm;
  std::size_t confirmed = 0, affecting = 0, aborted = 0, cycles = 0;
  for (const std::string& shape : order) {
    const Reference r = reference(a, shape);
    ref_norm.push_back(r.norm);
    if (!r.ok) rep.fail(shape + ": program misses a claimed detection");
    confirmed += r.confirmed;
    affecting += r.affecting;
    aborted += r.aborted;
    cycles += r.cycles;
  }
  check_replies(lr, ref_norm, rep);

  // A round is one series of every entry of `order`; screen_s is the
  // daemon's wall time per round at the loop's throughput.
  std::vector<double> lat;
  for (const Reply& r : lr.replies) lat.push_back(r.latency);
  const double rounds = lr.window_requests / (3.0 * order.size());
  rep.set("setup_s", median(ready), "s");
  rep.set("screen_s", lr.window / rounds, "s");
  rep.set("screen_cpu_s", lr.window_cpu / rounds, "s");
  rep.set("req_p50_ms", percentile(lat, 50) * 1e3, "ms");
  rep.set("req_p90_ms", percentile(lat, 90) * 1e3, "ms");
  rep.set("req_per_s", lr.window_requests / lr.window, "1/s");
  rep.set("chain_coverage_pct",
          100.0 * static_cast<double>(confirmed) /
              static_cast<double>(affecting),
          "%");
  rep.set("aborted_faults", static_cast<double>(aborted), "count");
  rep.set("test_cycles", static_cast<double>(cycles), "count");
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
