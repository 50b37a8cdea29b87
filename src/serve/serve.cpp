#include "serve/serve.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "core/io_util.h"
#include "core/json.h"
#include "core/obs.h"
#include "fault/fault.h"
#include "netlist/bench_io.h"
#include "serve/http.h"
#include "serve/net.h"
#include "sim/soa_circuit.h"

namespace fsct {

namespace {

/// Integers print as integers (counter values must round-trip bytewise);
/// everything else gets enough digits to be unambiguous.
std::string fmt_num(double d) {
  if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

bool normalized_drop(const std::string& key) {
  // The "serve" section is daemon metadata (request_id) stamped into the
  // report at response time: per-daemon state, not a screening result, so
  // the served-vs-CLI bitwise identity contract must not see it, nor the
  // scheduler-dependent "pool" worker stats.
  return key == "serve" || key == "pool" ||
         key.find("seconds") != std::string::npos ||
         key.find("time") != std::string::npos ||
         key.find("passes") != std::string::npos ||
         key.find("cycles") != std::string::npos ||
         key.find("rss") != std::string::npos;
}

void dump_normalized(const JVal& v, std::string& out) {
  switch (v.kind) {
    case JVal::Null: out += "null"; break;
    case JVal::Bool: out += v.b ? "true" : "false"; break;
    case JVal::Num: out += fmt_num(v.num); break;
    case JVal::Str:
      out += '"';
      out += json_escape(v.str);
      out += '"';
      break;
    case JVal::Arr:
      out += '[';
      for (std::size_t i = 0; i < v.arr.size(); ++i) {
        if (i) out += ',';
        dump_normalized(v.arr[i], out);
      }
      out += ']';
      break;
    case JVal::Obj: {
      std::vector<const std::pair<std::string, JVal>*> kept;
      for (const auto& kv : v.obj) {
        if (!normalized_drop(kv.first)) kept.push_back(&kv);
      }
      std::sort(kept.begin(), kept.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      out += '{';
      for (std::size_t i = 0; i < kept.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += json_escape(kept[i]->first);
        out += "\":";
        dump_normalized(kept[i]->second, out);
      }
      out += '}';
      break;
    }
  }
}

std::string id_of(const JVal& v) {
  const JVal* id = v.find("id");
  if (!id) return "";
  if (id->kind == JVal::Str) return id->str;
  if (id->kind == JVal::Num) return fmt_num(id->num);
  return "";
}

/// `request_id` is the server-assigned id (0 = none assigned yet: requests
/// rejected before the daemon committed to running them).
std::string error_event(const std::string& id, const char* code,
                        const std::string& message,
                        std::uint64_t request_id = 0) {
  std::string out = "{\"id\": \"" + json_escape(id) + "\"";
  if (request_id) out += ", \"request_id\": " + std::to_string(request_id);
  out += ", \"event\": \"result\", \"status\": \"error\", \"code\": \"";
  out += code;
  out += "\", \"message\": \"" + json_escape(message) + "\"}";
  return out;
}

std::string progress_event(const std::string& id, std::uint64_t request_id,
                           const std::string& line) {
  return "{\"id\": \"" + json_escape(id) +
         "\", \"request_id\": " + std::to_string(request_id) +
         ", \"event\": \"progress\", \"line\": \"" + json_escape(line) +
         "\"}";
}

/// Stamps the daemon's "serve" section (request_id) into a single-line run
/// report, just before its closing brace.  normalized_report drops the
/// section, so stamping is invisible to the determinism contract — which is
/// also why the result cache stores the *un*stamped report and every replay
/// is stamped fresh with its own request_id.
std::string with_serve_section(std::string report, std::uint64_t request_id) {
  const std::size_t brace = report.rfind('}');
  if (brace == std::string::npos) return report;  // not JSON; leave it alone
  report.insert(brace,
                ", \"serve\": {\"request_id\": " + std::to_string(request_id) +
                    "}");
  return report;
}

/// Microseconds elapsed since `t0`.
std::uint64_t us_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::string circuit_hash_of(const std::string& circuit) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(circuit)));
  return buf;
}

int int_field(const JsonParser& p, const JVal& obj, const char* key,
              int fallback, int lo, int hi) {
  const double d = json_num(p, obj, key, fallback);
  const int n = static_cast<int>(d);
  if (static_cast<double>(n) != d || n < lo || n > hi) {
    throw std::runtime_error(std::string("config field \"") + key +
                             "\" must be an integer in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]");
  }
  return n;
}

bool bool_field(const JVal& obj, const char* key, bool fallback) {
  const JVal* v = obj.find(key);
  if (!v) return fallback;
  if (v->kind != JVal::Bool) {
    throw std::runtime_error(std::string("field \"") + key +
                             "\" must be a boolean");
  }
  return v->b;
}

ServeRequest parse_request(const std::string& line) {
  JsonParser p(line, "request");
  const JVal v = p.parse();
  if (v.kind != JVal::Obj) throw std::runtime_error("request must be an object");
  ServeRequest req;
  req.id = id_of(v);
  const JVal* circuit = v.find("circuit");
  if (!circuit || circuit->kind != JVal::Str || circuit->str.empty()) {
    throw std::runtime_error("request needs a non-empty \"circuit\" string");
  }
  req.circuit = circuit->str;
  req.priority = int_field(p, v, "priority", 0, -1000, 1000);
  req.progress = bool_field(v, "progress", false);
  req.use_result_cache = bool_field(v, "use_result_cache", true);
  if (const JVal* cfg = v.find("config")) {
    if (cfg->kind != JVal::Obj) {
      throw std::runtime_error("\"config\" must be an object");
    }
    req.chains = int_field(p, *cfg, "chains", req.chains, 1, 64);
    req.partial = int_field(p, *cfg, "partial", req.partial, 0, 1000);
    req.jobs = int_field(p, *cfg, "jobs", req.jobs, 0, 1024);
    req.simd_width = int_field(p, *cfg, "simd_width", req.simd_width, 0, 4096);
    if (req.simd_width != 0 && !is_valid_simd_width(req.simd_width)) {
      throw std::runtime_error("simd_width must be 0, 64, 256 or 512");
    }
    req.dominance = bool_field(*cfg, "dominance", req.dominance);
    req.verify_easy = bool_field(*cfg, "verify_easy", req.verify_easy);
  }
  return req;
}

std::string model_key_of(const ServeRequest& req) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx:%d:%d",
                static_cast<unsigned long long>(fnv1a64(req.circuit)),
                req.chains, req.partial);
  return buf;
}

/// Everything the served result may depend on beyond the model key, in a
/// fixed field order.  jobs and simd_width are included conservatively:
/// per-fault outcomes are bitwise identical across both (the determinism
/// contract), but the report's pool statistics and pass counters are not.
std::string canonical_config(const ServeRequest& req) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "chains=%d;partial=%d;jobs=%d;simd=%d;dom=%d;veasy=%d",
                req.chains, req.partial, req.jobs,
                req.simd_width ? req.simd_width : default_simd_width(),
                req.dominance ? 1 : 0, req.verify_easy ? 1 : 0);
  return buf;
}

std::shared_ptr<const CompiledModel> build_model(const ServeRequest& req) {
  auto cm = std::make_shared<CompiledModel>();
  cm->nl = read_bench_string(req.circuit, "request");
  if (cm->nl.find("scan_mode") != kNullNode) {
    throw std::runtime_error(
        "circuit already contains a scan_mode input — send the pre-scan "
        "netlist (the daemon inserts the scan chain itself)");
  }
  TpiOptions topt;
  topt.num_chains = req.chains;
  topt.scan_permille = req.partial;
  cm->design = run_tpi(cm->nl, topt);
  cm->lv = std::make_unique<Levelizer>(cm->nl);
  cm->model = std::make_unique<ScanModeModel>(*cm->lv, cm->design);
  if (const std::string err = cm->model->check(); !err.empty()) {
    throw std::runtime_error("scan-mode invariant violated: " + err);
  }
  cm->faults = collapsed_fault_list(cm->nl);
  // The cache keeps the model for its lifetime: drop the growth slack of
  // the fault list (compile_dominance does the same for its targets).
  cm->faults.shrink_to_fit();

  // The dominance artifacts, by the function run_fsct_pipeline calls
  // (reuse must be invisible to results).
  cm->compiled = compile_dominance(*cm->model, cm->faults);

  // Warm the SoA memo so every engine of every request served from this
  // model shares one flat compilation (soa_compile_count() counts this one).
  SoaCircuit::compile(*cm->lv);

  // LRU accounting: a deliberate over-estimate per node/fault/artifact (the
  // exact footprint is not observable; the budget only has to be honest
  // enough that --cache-mb bounds the resident set's order of magnitude).
  std::size_t bytes = 1 << 16;
  bytes += cm->nl.size() * 160;
  bytes += cm->faults.size() * 64;
  bytes += (cm->compiled.domsets->offsets.size() +
            cm->compiled.domsets->ids.size()) *
           sizeof(std::uint32_t);
  bytes += cm->compiled.fcost->size() * sizeof(Cost);
  cm->approx_bytes = bytes;
  return cm;
}

// Drain signal plumbing: the handler only writes one byte to the running
// server's self-pipe (async-signal-safe); run()'s poll loop does the rest.
std::atomic<int> g_serve_stop_fd{-1};

void serve_stop_handler(int) {
  const int fd = g_serve_stop_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char c = 'x';
#ifndef _WIN32
    [[maybe_unused]] const auto r = ::write(fd, &c, 1);
#endif
  }
}

}  // namespace

std::string normalized_report(const std::string& report_json) {
  JsonParser p(report_json, "report");
  const JVal v = p.parse();
  std::string out;
  dump_normalized(v, out);
  return out;
}

ServeServer::Conn::~Conn() {
#ifndef _WIN32
  if (fd >= 0) ::close(fd);
#endif
}

ServeServer::ServeServer(ServeOptions opt) : opt_(std::move(opt)) {
  if (!opt_.log) {
    opt_.log = [](const std::string& line) {
      write_line(2, "[fsct-serve] " + line);
    };
  }
  if (opt_.workers < 1) opt_.workers = 1;
  if (opt_.queue_limit < 1) opt_.queue_limit = 1;
  if (opt_.result_cache_entries < 1) opt_.result_cache_entries = 1;
#ifndef _WIN32
  if (::pipe(stop_pipe_) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
#endif
  if (!opt_.unix_path.empty()) {
    listen_fd_ = listen_unix(opt_.unix_path);
  } else if (opt_.tcp_port >= 0) {
    listen_fd_ = listen_tcp(opt_.tcp_port);
    port_ = bound_tcp_port(listen_fd_);
  } else {
    throw std::runtime_error("serve: need a unix socket path or a TCP port");
  }

  ring_cap_ = std::min(std::max<std::size_t>(opt_.status_ring, 1),
                       kStatusRingMax);
#ifndef _WIN32
  if (!opt_.request_log_path.empty()) {
    request_log_fd_ = ::open(opt_.request_log_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (request_log_fd_ < 0) {
      throw std::runtime_error("serve: cannot open request log " +
                               opt_.request_log_path + ": " +
                               std::strerror(errno));
    }
  }
#endif
  if (!opt_.http_unix_path.empty() || opt_.http_port >= 0) {
    HttpOptions hopt;
    hopt.unix_path = opt_.http_unix_path;
    hopt.tcp_port = opt_.http_port;
    // The scrape plane outlives run()'s drain on purpose: /readyz keeps
    // answering 503 and /metrics stays scrapeable while in-flight work
    // finishes.  The destructor tears it down.
    http_ = std::make_unique<HttpServer>(
        hopt, [this](const std::string& path) { return handle_http(path); });
  }
}

ServeServer::~ServeServer() {
  // Stop the scrape listener before any member it snapshots goes away.
  http_.reset();
#ifndef _WIN32
  if (request_log_fd_ >= 0) ::close(request_log_fd_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
  }
  for (const int fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
  }
#endif
}

int ServeServer::http_port() const { return http_ ? http_->port() : -1; }

void ServeServer::request_stop() {
  const char c = 'x';
  write_all(stop_pipe_[1], &c, 1);
}

ServeStats ServeServer::stats() const {
  std::lock_guard<std::mutex> lk(stats_m_);
  return stats_;
}

void ServeServer::log_line(const std::string& line) {
  if (opt_.verbose) opt_.log(line);
}

std::shared_ptr<const CompiledModel> ServeServer::model_for(
    const ServeRequest& req, bool& cache_hit) {
  const std::string key = model_key_of(req);
  {
    std::lock_guard<std::mutex> lk(cache_m_);
    const auto it = models_.find(key);
    if (it != models_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      cache_hit = true;
      std::lock_guard<std::mutex> slk(stats_m_);
      ++stats_.model_cache_hits;
      return it->second.model;
    }
  }
  // Compile outside the cache lock: a slow build must not block requests for
  // circuits that are already cached.  Two concurrent first requests for the
  // same circuit may both compile; the first insert wins.
  cache_hit = false;
  std::shared_ptr<const CompiledModel> cm = build_model(req);
  {
    std::lock_guard<std::mutex> slk(stats_m_);
    ++stats_.models_compiled;
  }
  std::lock_guard<std::mutex> lk(cache_m_);
  const auto it = models_.find(key);
  if (it != models_.end()) return it->second.model;  // lost the race
  lru_.push_front(key);
  models_[key] = {cm, lru_.begin()};
  model_bytes_ += cm->approx_bytes;
  const std::size_t budget = opt_.cache_mb << 20;
  while (model_bytes_ > budget && models_.size() > 1) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    const auto vit = models_.find(victim);
    model_bytes_ -= vit->second.model->approx_bytes;
    models_.erase(vit);
    std::lock_guard<std::mutex> slk(stats_m_);
    ++stats_.model_evictions;
  }
  return cm;
}

std::string ServeServer::run_request(
    const ServeRequest& req,
    const std::function<void(const std::string&)>* progress_sink,
    RequestRecord& rec) {
  const std::string model_key = model_key_of(req);
  const std::string result_key = model_key + "|" + canonical_config(req);
  rec.result_cache = req.use_result_cache ? "miss" : "off";
  if (req.use_result_cache) {
    std::lock_guard<std::mutex> lk(cache_m_);
    const auto it = results_.find(result_key);
    if (it != results_.end()) {
      result_lru_.splice(result_lru_.begin(), result_lru_, it->second.lru_it);
      {
        std::lock_guard<std::mutex> slk(stats_m_);
        ++stats_.result_cache_hits;
        ++stats_.ok;
      }
      // A replayed result never consults the model cache (the compiled
      // model may even have been evicted since), so the tag is "skipped",
      // not a claimed hit.
      rec.model_cache = "skipped";
      rec.result_cache = "hit";
      rec.status = "ok";
      return "{\"id\": \"" + json_escape(req.id) +
             "\", \"request_id\": " + std::to_string(rec.request_id) +
             ", \"event\": \"result\", \"status\": \"ok\", "
             "\"model_cache\": \"skipped\", \"result_cache\": \"hit\", "
             "\"report\": " +
             with_serve_section(it->second.report, rec.request_id) + "}";
    }
    std::lock_guard<std::mutex> slk(stats_m_);
    ++stats_.result_cache_misses;
  }

  // Per-session registry, exactly like `fsct test --metrics`: observation
  // never changes results (the null-sink rule), and each session's counters
  // stay its own even with concurrent workers.  Constructed before the
  // SessionGuard so /statusz's pointer into it is unregistered first.
  ObsRegistry reg;
  reg.set_context(req.id.empty() ? std::string("request") : req.id);
  // RAII /statusz registration.  Declared *after* reg, so it unregisters
  // (dropping the map's pointer into reg, under sessions_m_) before reg is
  // destroyed — a concurrent scrape can never read a dangling registry.
  struct SessionGuard {
    ServeServer* s;
    std::uint64_t rid;
    SessionGuard(ServeServer* s, std::uint64_t rid, SessionInfo info)
        : s(s), rid(rid) {
      std::lock_guard<std::mutex> lk(s->sessions_m_);
      s->sessions_[rid] = std::move(info);
    }
    ~SessionGuard() {
      std::lock_guard<std::mutex> lk(s->sessions_m_);
      s->sessions_.erase(rid);
    }
  } session(this, rec.request_id,
            SessionInfo{req.id, rec.circuit_hash,
                        std::chrono::steady_clock::now(), &reg});

  const auto t_compile = std::chrono::steady_clock::now();
  bool model_hit = false;
  const std::shared_ptr<const CompiledModel> cm = model_for(req, model_hit);
  rec.compile_us = us_since(t_compile);
  rec.model_cache = model_hit ? "hit" : "miss";

  PipelineOptions popt;
  popt.verify_easy = req.verify_easy;
  popt.jobs = req.jobs;
  popt.simd_width = req.simd_width;
  popt.dominance = req.dominance;
  popt.compiled = &cm->compiled;
  popt.obs = &reg;
  std::unique_ptr<ObsMonitor> monitor;
  if (req.progress && progress_sink) {
    const std::string id = req.id;
    const std::uint64_t rid = rec.request_id;
    const auto sink = *progress_sink;
    reg.progress = [id, rid, sink](const std::string& line) {
      sink(progress_event(id, rid, line));
    };
    ObsMonitor::Options mopt;
    mopt.heartbeat = true;
    mopt.heartbeat_ms = 250;
    mopt.registry = &reg;
    mopt.sigusr1 = false;  // per-session monitor: no global signal ownership
    mopt.sink = [id, rid, sink](const std::string& line) {
      sink(progress_event(id, rid, line));
    };
    monitor = std::make_unique<ObsMonitor>(mopt);
  }

  const auto t_pipeline = std::chrono::steady_clock::now();
  const PipelineResult r = run_fsct_pipeline(*cm->model, cm->faults, popt);
  rec.pipeline_us = us_since(t_pipeline);
  monitor.reset();  // stop heartbeats before the result line

  const auto t_serialize = std::chrono::steady_clock::now();
  std::ostringstream ms;
  reg.write_run_report(ms, r, nullptr);
  std::string report = ms.str();
  // The report is pretty-printed; NDJSON needs one line.  Newline -> space
  // is invisible to any JSON consumer (and to normalized_report).
  std::replace(report.begin(), report.end(), '\n', ' ');

  // Fold the finished session into the daemon-lifetime registry: /metrics
  // exposes cumulative pipeline counters across all requests.  Shard
  // atomics, safe concurrently with scrapes and other workers.
  daemon_reg_.merge_from(reg);

  if (req.use_result_cache) {
    std::lock_guard<std::mutex> lk(cache_m_);
    if (results_.find(result_key) == results_.end()) {
      result_lru_.push_front(result_key);
      // Cache the *un*stamped report: a replay belongs to a different
      // request and gets stamped with that request's id.
      results_[result_key] = {report, result_lru_.begin()};
      while (results_.size() > opt_.result_cache_entries) {
        results_.erase(result_lru_.back());
        result_lru_.pop_back();
        std::lock_guard<std::mutex> slk(stats_m_);
        ++stats_.result_cache_evictions;
      }
    }
  }
  {
    std::lock_guard<std::mutex> slk(stats_m_);
    ++stats_.ok;
  }
  std::string resp =
      "{\"id\": \"" + json_escape(req.id) +
      "\", \"request_id\": " + std::to_string(rec.request_id) +
      ", \"event\": \"result\", \"status\": \"ok\", \"model_cache\": \"" +
      rec.model_cache + "\", \"result_cache\": \"" + rec.result_cache +
      "\", \"report\": " + with_serve_section(std::move(report),
                                              rec.request_id) +
      "}";
  rec.serialize_us = us_since(t_serialize);
  rec.status = "ok";
  return resp;
}

std::string ServeServer::process_line(
    const std::string& line,
    const std::function<void(const std::string&)>* progress_sink) {
  // Direct (non-socket) callers never waited in the queue.
  return process_line_timed(line, progress_sink, 0);
}

std::string ServeServer::process_line_timed(
    const std::string& line,
    const std::function<void(const std::string&)>* progress_sink,
    std::uint64_t queue_us) {
  RequestRecord rec;
  rec.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  rec.queue_us = queue_us;
  {
    std::lock_guard<std::mutex> slk(stats_m_);
    ++stats_.requests;
  }
  ServeRequest req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> slk(stats_m_);
      ++stats_.errors;
    }
    rec.status = "bad_request";
    record_request(rec);
    return error_event("", "bad_request", e.what(), rec.request_id);
  }
  rec.client_id = req.id;
  rec.circuit_hash = circuit_hash_of(req.circuit);
  rec.priority = req.priority;
  try {
    const std::string resp = run_request(req, progress_sink, rec);
    record_request(rec);
    return resp;
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> slk(stats_m_);
      ++stats_.errors;
    }
    rec.status = "bad_request";
    record_request(rec);
    return error_event(req.id, "bad_request", e.what(), rec.request_id);
  }
}

void ServeServer::record_request(const RequestRecord& rec) {
  {
    std::lock_guard<std::mutex> slk(stats_m_);
    const auto observe = [this](LatPhase p, std::uint64_t us) {
      LatHist& h = lat_[p];
      ++h.buckets[ObsRegistry::bucket(us)];
      h.sum += us;
      ++h.count;
    };
    observe(kLatQueue, rec.queue_us);
    observe(kLatCompile, rec.compile_us);
    observe(kLatPipeline, rec.pipeline_us);
    observe(kLatSerialize, rec.serialize_us);
  }
  std::string j = "{\"request_id\": " + std::to_string(rec.request_id) +
                  ", \"id\": \"" + json_escape(rec.client_id) +
                  "\", \"circuit\": \"" + rec.circuit_hash +
                  "\", \"priority\": " + std::to_string(rec.priority) +
                  ", \"model_cache\": \"" + rec.model_cache +
                  "\", \"result_cache\": \"" + rec.result_cache +
                  "\", \"status\": \"" + rec.status +
                  "\", \"queue_us\": " + std::to_string(rec.queue_us) +
                  ", \"compile_us\": " + std::to_string(rec.compile_us) +
                  ", \"pipeline_us\": " + std::to_string(rec.pipeline_us) +
                  ", \"serialize_us\": " + std::to_string(rec.serialize_us) +
                  "}";
  std::lock_guard<std::mutex> lk(log_m_);
  recent_.push_back(std::move(j));
  while (recent_.size() > ring_cap_) recent_.pop_front();
  if (request_log_fd_ >= 0) write_line(request_log_fd_, recent_.back());
}

HttpResponse ServeServer::handle_http(const std::string& path) {
  const char* text = "text/plain; charset=utf-8";
  if (path == "/metrics") {
    std::ostringstream os;
    write_metrics(os);
    return {200,
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            os.str()};
  }
  if (path == "/healthz") {
    // Liveness: the scrape plane answering *is* the signal.  Stays 200
    // through a drain (the process is healthy, just leaving).
    return {200, text, "ok\n"};
  }
  if (path == "/readyz") {
    // Readiness: a draining daemon must stop receiving new work from a
    // balancer even though in-flight requests are still finishing.
    if (draining_.load(std::memory_order_relaxed)) {
      return {503, text, "draining\n"};
    }
    return {200, text, "ok\n"};
  }
  if (path == "/statusz") {
    return {200, "application/json; charset=utf-8", statusz_json()};
  }
  return {404, text, "not found\n"};
}

namespace {

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", s);
  return buf;
}

/// One OpenMetrics histogram family in the exact shape
/// ObsRegistry::write_openmetrics_body emits (log2 buckets: le="0",
/// le=2^i-1, tail le="+Inf"; cumulative counts; _sum/_count).
void emit_hist(std::ostream& os, const char* family,
               const std::array<std::uint64_t, kHistBuckets>& buckets,
               std::uint64_t sum) {
  os << "# TYPE " << family << " histogram\n";
  std::uint64_t cum = 0;
  for (std::size_t j = 0; j < kHistBuckets; ++j) {
    cum += buckets[j];
    os << family << "_bucket{le=\"";
    if (j == 0) {
      os << "0";
    } else if (j + 1 < kHistBuckets) {
      os << ((std::uint64_t{1} << j) - 1);
    } else {
      os << "+Inf";
    }
    os << "\"} " << cum << "\n";
  }
  os << family << "_sum " << sum << "\n";
  os << family << "_count " << cum << "\n";
}

}  // namespace

void ServeServer::write_metrics(std::ostream& os) {
  const auto counter = [&os](const char* family, std::uint64_t v) {
    os << "# TYPE " << family << " counter\n"
       << family << "_total " << v << "\n";
  };
  const auto gauge = [&os](const char* family, const std::string& v) {
    os << "# TYPE " << family << " gauge\n" << family << " " << v << "\n";
  };

  gauge("fsct_serve_uptime_seconds",
        fmt_seconds(static_cast<double>(us_since(start_)) / 1e6));
  gauge("fsct_serve_draining",
        draining_.load(std::memory_order_relaxed) ? "1" : "0");
  gauge("fsct_serve_workers", std::to_string(opt_.workers));

  const ServeStats s = stats();
  counter("fsct_serve_requests", s.requests);
  counter("fsct_serve_requests_ok", s.ok);
  counter("fsct_serve_requests_error", s.errors);
  counter("fsct_serve_rejected_busy", s.rejected_busy);
  counter("fsct_serve_rejected_draining", s.rejected_draining);
  counter("fsct_serve_model_cache_hits", s.model_cache_hits);
  counter("fsct_serve_model_cache_misses", s.models_compiled);
  counter("fsct_serve_model_cache_evictions", s.model_evictions);
  counter("fsct_serve_result_cache_hits", s.result_cache_hits);
  counter("fsct_serve_result_cache_misses", s.result_cache_misses);
  counter("fsct_serve_result_cache_evictions", s.result_cache_evictions);
  gauge("fsct_serve_queue_highwater", std::to_string(s.queue_highwater));

  {
    std::lock_guard<std::mutex> lk(queue_m_);
    gauge("fsct_serve_queue_depth", std::to_string(queue_size_));
  }
  {
    std::lock_guard<std::mutex> lk(cache_m_);
    gauge("fsct_serve_model_cache_bytes", std::to_string(model_bytes_));
    gauge("fsct_serve_model_cache_entries", std::to_string(models_.size()));
    gauge("fsct_serve_result_cache_entries", std::to_string(results_.size()));
  }
  {
    std::lock_guard<std::mutex> lk(sessions_m_);
    gauge("fsct_serve_active_sessions", std::to_string(sessions_.size()));
  }

  static const char* const kLatFamilies[kLatCount] = {
      "fsct_serve_latency_queue_us", "fsct_serve_latency_compile_us",
      "fsct_serve_latency_pipeline_us", "fsct_serve_latency_serialize_us"};
  std::array<LatHist, kLatCount> lat;
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    lat = lat_;
  }
  for (std::size_t i = 0; i < kLatCount; ++i) {
    emit_hist(os, kLatFamilies[i], lat[i].buckets, lat[i].sum);
  }

  // The cumulative pipeline counters of every finished session, exactly as
  // `fsct test --metrics-out` would expose them for one run.
  daemon_reg_.write_openmetrics_body(os);
  os << "# EOF\n";
}

std::string ServeServer::statusz_json() {
  std::string out = "{\"uptime_seconds\": " +
                    fmt_seconds(static_cast<double>(us_since(start_)) / 1e6) +
                    ", \"draining\": " +
                    (draining_.load(std::memory_order_relaxed) ? "true"
                                                               : "false");
  {
    std::lock_guard<std::mutex> lk(queue_m_);
    out += ", \"queue_depth\": " + std::to_string(queue_size_);
  }
  out += ", \"active_sessions\": [";
  {
    std::lock_guard<std::mutex> lk(sessions_m_);
    bool first = true;
    for (const auto& [rid, info] : sessions_) {
      if (!first) out += ", ";
      first = false;
      out += "{\"request_id\": " + std::to_string(rid) + ", \"id\": \"" +
             json_escape(info.client_id) + "\", \"circuit\": \"" +
             info.circuit_hash + "\", \"elapsed_seconds\": " +
             fmt_seconds(static_cast<double>(us_since(info.start)) / 1e6);
      const ObsRegistry::PhaseProgress p =
          info.reg ? info.reg->phase_progress()
                   : ObsRegistry::PhaseProgress{};
      if (p.name) {
        out += ", \"phase\": \"" + json_escape(p.name) +
               "\", \"done\": " + std::to_string(p.done) +
               ", \"total\": " + std::to_string(p.total);
      } else {
        out += ", \"phase\": null";
      }
      out += "}";
    }
  }
  out += "], \"recent\": [";
  {
    std::lock_guard<std::mutex> lk(log_m_);
    bool first = true;
    for (const std::string& j : recent_) {
      if (!first) out += ", ";
      first = false;
      out += j;
    }
  }
  out += "]}";
  return out;
}

bool ServeServer::enqueue(Job job, int priority) {
  {
    std::lock_guard<std::mutex> lk(queue_m_);
    if (queue_size_ >= opt_.queue_limit) return false;
    queue_[priority].push_back(std::move(job));
    ++queue_size_;
    // High-water update nests stats_m_ inside queue_m_ (the only place the
    // two are held together; nothing takes them in the other order).
    std::lock_guard<std::mutex> slk(stats_m_);
    if (queue_size_ > stats_.queue_highwater) {
      stats_.queue_highwater = queue_size_;
    }
  }
  queue_cv_.notify_one();
  return true;
}

bool ServeServer::dequeue(Job& out) {
  std::unique_lock<std::mutex> lk(queue_m_);
  queue_cv_.wait(lk, [this] {
    return queue_size_ > 0 || draining_.load(std::memory_order_relaxed);
  });
  if (queue_size_ == 0) return false;  // draining and nothing left
  const auto it = queue_.begin();     // highest priority, FIFO within
  out = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queue_.erase(it);
  --queue_size_;
  return true;
}

void ServeServer::respond(const std::shared_ptr<Conn>& conn,
                          const std::string& line) {
  std::lock_guard<std::mutex> lk(conn->write_m);
  write_line(conn->fd, line);  // peer may be gone; nothing useful to do then
}

void ServeServer::reader(std::shared_ptr<Conn> conn, std::uint64_t id) {
  LineReader lr(conn->fd);
  std::string line;
  while (lr.next(line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // Peek id/priority without committing to a full parse; a malformed line
    // still queues and gets its error from the worker.
    std::string id;
    int priority = 0;
    try {
      JsonParser p(line, "request");
      const JVal v = p.parse();
      id = id_of(v);
      // Mirror int_field's [-1000, 1000] range before casting: the double is
      // client-supplied and unvalidated here (1e300 or NaN would make the
      // plain cast UB); the worker's full parse still reports the precise
      // error for out-of-range values.
      const double d = json_num(p, v, "priority", 0);
      priority = std::isfinite(d)
                     ? static_cast<int>(std::clamp(d, -1000.0, 1000.0))
                     : 0;
    } catch (const std::exception&) {
    }
    if (draining_.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> slk(stats_m_);
        ++stats_.rejected_draining;
      }
      respond(conn, error_event(id, "draining",
                                "daemon is draining; not accepting requests"));
      continue;
    }
    if (!enqueue(Job{conn, line, std::chrono::steady_clock::now()},
                 priority)) {
      {
        std::lock_guard<std::mutex> slk(stats_m_);
        ++stats_.rejected_busy;
      }
      respond(conn, error_event(id, "busy", "request queue is full"));
    }
  }
  // Disconnected: release this connection's bookkeeping now rather than at
  // drain.  The fd closes when the last Conn reference drops (a queued
  // job's response may still be in flight), and the accept loop joins the
  // thread handle queued here.
  std::lock_guard<std::mutex> lk(conns_m_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn), conns_.end());
  finished_readers_.push_back(id);
}

void ServeServer::reap_finished_readers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    for (const std::uint64_t id : finished_readers_) {
      const auto it = reader_threads_.find(id);
      if (it != reader_threads_.end()) {
        done.push_back(std::move(it->second));
        reader_threads_.erase(it);
      }
    }
    finished_readers_.clear();
  }
  // Join outside the lock: the exiting thread's last act under conns_m_ was
  // queueing its id, so the join cannot deadlock and barely blocks.
  for (std::thread& t : done) t.join();
}

void ServeServer::worker() {
  Job job;
  while (dequeue(job)) {
    const std::uint64_t queue_us = us_since(job.enqueued);
    const std::shared_ptr<Conn> conn = job.conn;
    const std::function<void(const std::string&)> sink =
        [this, conn](const std::string& line) { respond(conn, line); };
    const std::string resp = process_line_timed(job.line, &sink, queue_us);
    respond(conn, resp);
  }
}

void ServeServer::run() {
#ifdef _WIN32
  throw std::runtime_error("fsct serve requires POSIX sockets");
#else
  // SIGTERM/SIGINT trigger the drain via the self-pipe.  sigaction with
  // save/restore, no SA_RESTART (the poll below must wake), exactly like the
  // SIGUSR1 handling in core/obs.cpp.
  g_serve_stop_fd.store(stop_pipe_[1], std::memory_order_relaxed);
  struct sigaction sa {};
  sa.sa_handler = serve_stop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction prev_term {}, prev_int {};
  sigaction(SIGTERM, &sa, &prev_term);
  sigaction(SIGINT, &sa, &prev_int);
  // A client that disconnects before its response arrives would otherwise
  // turn the next respond()/progress write into process-fatal SIGPIPE.
  // Ignored, the write returns EPIPE and write_all reports an ordinary
  // error (the io_util.h contract assumes exactly this disposition).
  struct sigaction sa_pipe {};
  sa_pipe.sa_handler = SIG_IGN;
  sigemptyset(&sa_pipe.sa_mask);
  sa_pipe.sa_flags = 0;
  struct sigaction prev_pipe {};
  sigaction(SIGPIPE, &sa_pipe, &prev_pipe);

  for (int i = 0; i < opt_.workers; ++i) {
    worker_threads_.emplace_back([this] { worker(); });
  }
  std::string listening =
      "listening on " +
      (opt_.unix_path.empty() ? "tcp port " + std::to_string(port_)
                              : opt_.unix_path) +
      " (" + std::to_string(opt_.workers) + " workers, queue " +
      std::to_string(opt_.queue_limit) + ", cache " +
      std::to_string(opt_.cache_mb) + " MB)";
  if (http_) {
    listening += "; metrics on " +
                 (opt_.http_unix_path.empty()
                      ? "http port " + std::to_string(http_->port())
                      : opt_.http_unix_path);
  }
  log_line(listening);

  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int r = ::poll(fds, 2, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain requested
    if (fds[0].revents == 0) continue;
    reap_finished_readers();
    int cfd;
    do {
      cfd = ::accept(listen_fd_, nullptr, nullptr);
    } while (cfd < 0 && errno == EINTR);
    if (cfd < 0) continue;
    auto conn = std::make_shared<Conn>();
    conn->fd = cfd;
    std::lock_guard<std::mutex> lk(conns_m_);
    conns_.push_back(conn);
    const std::uint64_t id = next_reader_id_++;
    reader_threads_.emplace(
        id, std::thread([this, conn, id] { reader(conn, id); }));
  }

  // --- graceful drain -------------------------------------------------------
  draining_.store(true, std::memory_order_relaxed);
  log_line("draining: finishing queued and in-flight requests");
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());

  // Workers exit once the queue is empty; everything already queued is
  // finished and its response flushed first.
  queue_cv_.notify_all();
  for (std::thread& t : worker_threads_) t.join();
  worker_threads_.clear();

  // A reader may have raced one last job past the workers' exit; answer it
  // with a drain rejection rather than dropping it silently.
  {
    std::lock_guard<std::mutex> lk(queue_m_);
    for (auto& [prio, jobs] : queue_) {
      for (Job& j : jobs) {
        std::string id;
        try {
          JsonParser p(j.line, "request");
          id = id_of(p.parse());
        } catch (const std::exception&) {
        }
        respond(j.conn, error_event(id, "draining",
                                    "daemon drained before this request ran"));
      }
    }
    queue_.clear();
    queue_size_ = 0;
  }

  // Unblock the readers still connected and wait for every reader thread
  // (finished ones included); each reader erased its Conn on exit, and the
  // Conn destructor closes the fd when the last reference drops.
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    for (const auto& c : conns_) ::shutdown(c->fd, SHUT_RDWR);
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    for (auto& [id, t] : reader_threads_) readers.push_back(std::move(t));
    reader_threads_.clear();
  }
  for (std::thread& t : readers) t.join();
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    finished_readers_.clear();
    conns_.clear();
  }

  sigaction(SIGTERM, &prev_term, nullptr);
  sigaction(SIGINT, &prev_int, nullptr);
  sigaction(SIGPIPE, &prev_pipe, nullptr);
  g_serve_stop_fd.store(-1, std::memory_order_relaxed);

  const ServeStats s = stats();
  log_line("drained: " + std::to_string(s.requests) + " requests, " +
           std::to_string(s.ok) + " ok, " + std::to_string(s.errors) +
           " errors, " + std::to_string(s.rejected_busy) + " busy, " +
           std::to_string(s.models_compiled) + " models compiled, " +
           std::to_string(s.model_cache_hits) + " model hits, " +
           std::to_string(s.result_cache_hits) + " result hits");
#endif
}

}  // namespace fsct
