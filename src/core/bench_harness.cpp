#include "core/bench_harness.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "bench_circuits/suite.h"
#include "core/json.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "fault/fault.h"
#include "netlist/levelize.h"
#include "scan/scan_mode_model.h"
#include "scan/tpi.h"

namespace fsct {

namespace {

std::string read_first_line(const char* path) {
  std::ifstream is(path);
  std::string line;
  if (!is || !std::getline(is, line)) return {};
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

std::string run_command_line(const char* cmd) {
#if defined(__unix__) || defined(__APPLE__)
  FILE* p = ::popen(cmd, "r");
  if (!p) return {};
  char buf[256];
  std::string out;
  while (std::fgets(buf, sizeof buf, p)) out += buf;
  const int rc = ::pclose(p);
  if (rc != 0) return {};
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
#else
  (void)cmd;
  return {};
#endif
}

}  // namespace

BenchMachine fingerprint_machine() {
  BenchMachine m;
  m.nproc = std::thread::hardware_concurrency();

  m.governor =
      read_first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (m.governor.empty()) m.governor = "unknown";

#if defined(__clang__)
  m.compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  m.compiler = std::string("gcc ") + __VERSION__;
#else
  m.compiler = "unknown";
#endif

  m.git_sha = run_command_line("git rev-parse --short HEAD 2>/dev/null");
  if (m.git_sha.empty()) m.git_sha = "unknown";

  m.sanitizer = "none";
#if defined(__SANITIZE_THREAD__)
  m.sanitizer = "thread";
#elif defined(__SANITIZE_ADDRESS__)
  m.sanitizer = "address";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  m.sanitizer = "thread";
#elif __has_feature(address_sanitizer)
  m.sanitizer = "address";
#endif
#endif

#if defined(__unix__) || defined(__APPLE__)
  struct utsname u;
  if (::uname(&u) == 0) {
    m.os = std::string(u.sysname) + " " + u.release;
  }
#endif
  if (m.os.empty()) m.os = "unknown";
  return m;
}

BenchStat summarize_samples(std::vector<double> samples) {
  BenchStat s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  const auto median_of = [](const std::vector<double>& v) {
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  s.median = median_of(samples);
  std::vector<double> dev;
  dev.reserve(samples.size());
  for (double x : samples) dev.push_back(std::fabs(x - s.median));
  std::sort(dev.begin(), dev.end());
  s.mad = median_of(dev);
  return s;
}

bool valid_bench_label(const std::string& label) {
  if (label.empty()) return false;
  for (char c : label) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '.' && c != '_' && c != '-') return false;
  }
  return true;
}

// --- run --------------------------------------------------------------------

BenchDocument run_bench(const BenchRunConfig& cfg) {
  BenchDocument doc;
  doc.label = cfg.label;
  doc.note = cfg.note;
  doc.machine = fingerprint_machine();
  doc.reps = cfg.reps;
  doc.warmup = cfg.warmup;

  std::vector<SuiteEntry> entries;
  if (cfg.circuits.empty()) {
    for (const SuiteEntry& e : paper_suite()) {
      if (e.gates <= cfg.max_gates) entries.push_back(e);
    }
  } else {
    for (const std::string& name : cfg.circuits) {
      entries.push_back(suite_entry(name));  // throws on unknown names
    }
  }

  for (const SuiteEntry& e : entries) {
    // Prepared once per circuit: TPI and fault collapsing are deterministic,
    // so repetitions time only the pipeline itself.
    Netlist nl = build_suite_circuit(e);
    TpiOptions topt;
    topt.num_chains = e.chains;
    const ScanDesign design = run_tpi(nl, topt);
    const Levelizer lv(nl);
    const ScanModeModel model(lv, design);
    const std::vector<Fault> faults = collapsed_fault_list(nl);

    for (int jobs : cfg.jobs) {
      BenchRow row;
      row.circuit = e.name;
      row.reps = cfg.reps;

      std::vector<double> wall_classify, wall_s2, wall_s3, wall_total;
      std::vector<double> cpu_classify, cpu_s2, cpu_s3, cpu_total;

      for (int rep = -cfg.warmup; rep < cfg.reps; ++rep) {
        ObsRegistry reg;
        if (cfg.attribution) reg.request_attribution();
        // Label the live-status / heartbeat lines with what is being timed,
        // so a long bench is observable mid-flight.
        char ctx[96];
        if (rep < 0) {
          std::snprintf(ctx, sizeof ctx, "%s jobs=%d warmup", e.name.c_str(),
                        jobs);
        } else {
          std::snprintf(ctx, sizeof ctx, "%s jobs=%d rep %d/%d",
                        e.name.c_str(), jobs, rep + 1, cfg.reps);
        }
        reg.set_context(ctx);
        PipelineOptions opt;
        opt.jobs = jobs;
        opt.obs = &reg;
        const double cpu0 = process_cpu_seconds();
        const auto t0 = std::chrono::steady_clock::now();
        const PipelineResult r = run_fsct_pipeline(model, faults, opt);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        const double cpu = process_cpu_seconds() - cpu0;
        row.jobs = r.jobs_used;
        if (rep < 0) continue;  // warmup repetitions are discarded

        wall_classify.push_back(r.classify_seconds);
        wall_s2.push_back(r.s2_seconds);
        wall_s3.push_back(r.s3_seconds);
        wall_total.push_back(wall);
        cpu_classify.push_back(r.classify_cpu_seconds);
        cpu_s2.push_back(r.s2_cpu_seconds);
        cpu_s3.push_back(r.s3_cpu_seconds);
        cpu_total.push_back(cpu);

        if (rep + 1 == cfg.reps) {
          // Counters and results are schedule-independent, so the last
          // repetition speaks for all of them; RSS is a high-water mark.
          for (std::size_t c = 0; c < kNumCounters; ++c) {
            row.counters.emplace_back(counter_name(static_cast<Ctr>(c)),
                                      reg.total(static_cast<Ctr>(c)));
          }
          // collapse_ratio: dominance targets per 1000 hard faults (integer
          // permille; the row schema is uint-valued).
          const std::uint64_t collapse_permille =
              r.hard ? (static_cast<std::uint64_t>(r.dominance_targets) *
                        1000) / r.hard
                     : 1000;
          row.results = {
              {"faults", r.total_faults},
              {"easy", r.easy},
              {"hard", r.hard},
              {"dominance_targets", r.dominance_targets},
              {"collapse_ratio", collapse_permille},
              {"flush_detected", r.flush_detected},
              {"dropped_by_ledger", r.ledger_dropped},
              {"s2_detected", r.s2_detected},
              {"s2_vectors", r.s2_vectors},
              {"s3_detected", r.s3_detected},
              {"s3_undetectable", r.s3_undetectable},
              {"s3_undetected", r.s3_undetected},
          };
          row.peak_rss_kb = static_cast<long>(reg.gauge(Gauge::PeakRssKb));
        }
        if (cfg.progress) {
          char buf[128];
          std::snprintf(buf, sizeof buf, "%s jobs=%u rep %d/%d: total %.3fs",
                        e.name.c_str(), row.jobs, rep + 1, cfg.reps, wall);
          cfg.progress(buf);
        }
      }

      const unsigned hc = std::thread::hardware_concurrency();
      row.jobs_oversubscribed = hc != 0 && row.jobs > hc;
      if (row.jobs_oversubscribed) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "jobs_oversubscribed jobs=%u hardware_concurrency=%u",
                      row.jobs, hc);
        if (std::find(doc.warnings.begin(), doc.warnings.end(), buf) ==
            doc.warnings.end()) {
          doc.warnings.emplace_back(buf);
        }
      }

      const auto phase = [](const char* name, std::vector<double> wall,
                            std::vector<double> cpu) {
        BenchPhase p;
        p.name = name;
        p.wall = summarize_samples(std::move(wall));
        p.cpu = summarize_samples(std::move(cpu));
        p.has_cpu = true;
        return p;
      };
      row.phases.push_back(phase("classify", std::move(wall_classify),
                                 std::move(cpu_classify)));
      row.phases.push_back(phase("s2", std::move(wall_s2), std::move(cpu_s2)));
      row.phases.push_back(phase("s3", std::move(wall_s3), std::move(cpu_s3)));
      row.phases.push_back(
          phase("total", std::move(wall_total), std::move(cpu_total)));
      doc.rows.push_back(std::move(row));
    }
  }
  return doc;
}

// --- JSON writing -----------------------------------------------------------

namespace {

std::string jnum(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  // %g can print "inf"/"nan", which is not JSON; clamp to 0 (timings only).
  if (!std::isfinite(v)) return "0";
  return buf;
}

void write_stat(std::ostream& os, const char* key, const BenchStat& s,
                const char* indent) {
  os << indent << "\"" << key << "\": {\"median\": " << jnum(s.median)
     << ", \"mad\": " << jnum(s.mad) << ", \"min\": " << jnum(s.min)
     << ", \"max\": " << jnum(s.max) << "}";
}

}  // namespace

std::string write_bench_json(const BenchDocument& doc) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"fsct-bench-v2\",\n";
  os << "  \"label\": \"" << json_escape(doc.label) << "\",\n";
  os << "  \"note\": \"" << json_escape(doc.note) << "\",\n";
  const BenchMachine& m = doc.machine;
  os << "  \"machine\": {\n"
     << "    \"nproc\": " << m.nproc << ",\n"
     << "    \"governor\": \"" << json_escape(m.governor) << "\",\n"
     << "    \"compiler\": \"" << json_escape(m.compiler) << "\",\n"
     << "    \"git_sha\": \"" << json_escape(m.git_sha) << "\",\n"
     << "    \"sanitizer\": \"" << json_escape(m.sanitizer) << "\",\n"
     << "    \"os\": \"" << json_escape(m.os) << "\"\n"
     << "  },\n";
  os << "  \"reps\": " << doc.reps << ",\n";
  os << "  \"warmup\": " << doc.warmup << ",\n";
  os << "  \"warnings\": [";
  for (std::size_t i = 0; i < doc.warnings.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(doc.warnings[i]) << "\"";
  }
  os << "],\n";
  os << "  \"rows\": [\n";
  for (std::size_t ri = 0; ri < doc.rows.size(); ++ri) {
    const BenchRow& row = doc.rows[ri];
    os << "    {\n";
    os << "      \"circuit\": \"" << json_escape(row.circuit) << "\",\n";
    os << "      \"jobs\": " << row.jobs << ",\n";
    os << "      \"reps\": " << row.reps << ",\n";
    os << "      \"jobs_oversubscribed\": "
       << (row.jobs_oversubscribed ? "true" : "false") << ",\n";
    os << "      \"peak_rss_kb\": " << row.peak_rss_kb << ",\n";
    os << "      \"phases\": [\n";
    for (std::size_t pi = 0; pi < row.phases.size(); ++pi) {
      const BenchPhase& p = row.phases[pi];
      os << "        {\"name\": \"" << json_escape(p.name) << "\",\n";
      write_stat(os, "wall", p.wall, "         ");
      if (p.has_cpu) {
        os << ",\n";
        write_stat(os, "cpu", p.cpu, "         ");
      }
      os << "}" << (pi + 1 < row.phases.size() ? "," : "") << "\n";
    }
    os << "      ],\n";
    os << "      \"counters\": {";
    for (std::size_t i = 0; i < row.counters.size(); ++i) {
      os << (i ? ", " : "") << "\"" << json_escape(row.counters[i].first)
         << "\": " << row.counters[i].second;
    }
    os << "},\n";
    os << "      \"results\": {";
    for (std::size_t i = 0; i < row.results.size(); ++i) {
      os << (i ? ", " : "") << "\"" << json_escape(row.results[i].first)
         << "\": " << row.results[i].second;
    }
    os << "}\n";
    os << "    }" << (ri + 1 < doc.rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

// --- JSON parsing -----------------------------------------------------------

namespace {

// Thin forwards onto the shared line-anchored JSON layer (core/json.h);
// kept as local names so the schema readers below stay terse.
double get_num(const JsonParser& p, const JVal& obj, const char* key,
               double fallback = 0, bool required = false) {
  return json_num(p, obj, key, fallback, required);
}

std::string get_str(const JsonParser& p, const JVal& obj, const char* key,
                    const char* fallback = "") {
  return json_str(p, obj, key, fallback);
}

BenchStat parse_stat(const JsonParser& p, const JVal& v) {
  if (v.kind != JVal::Obj) p.fail_at(v.line, "stat must be an object");
  BenchStat s;
  s.median = get_num(p, v, "median", 0, /*required=*/true);
  s.mad = get_num(p, v, "mad");
  s.min = get_num(p, v, "min", s.median);
  s.max = get_num(p, v, "max", s.median);
  return s;
}

void parse_uint_map(const JsonParser& p, const JVal& v,
                    std::vector<std::pair<std::string, std::uint64_t>>& out) {
  json_uint_map(p, v, out);
}

BenchRow parse_row(const JsonParser& p, const JVal& v) {
  if (v.kind != JVal::Obj) p.fail_at(v.line, "row must be an object");
  BenchRow row;
  row.circuit = get_str(p, v, "circuit");
  if (row.circuit.empty()) {
    p.fail_at(v.line, "missing required field \"circuit\"");
  }
  row.jobs = static_cast<unsigned>(get_num(p, v, "jobs", 1));
  row.reps = static_cast<int>(get_num(p, v, "reps", 1));
  row.peak_rss_kb = static_cast<long>(get_num(p, v, "peak_rss_kb"));
  if (const JVal* o = v.find("jobs_oversubscribed");
      o && o->kind == JVal::Bool) {
    row.jobs_oversubscribed = o->b;
  }
  const JVal* phases = v.find("phases");
  if (!phases || phases->kind != JVal::Arr) {
    p.fail_at(v.line, "missing required field \"phases\" (array)");
  }
  for (const JVal& pe : phases->arr) {
    if (pe.kind != JVal::Obj) p.fail_at(pe.line, "phase must be an object");
    BenchPhase ph;
    ph.name = get_str(p, pe, "name");
    if (ph.name.empty()) {
      p.fail_at(pe.line, "missing required field \"name\"");
    }
    const JVal* wall = pe.find("wall");
    if (!wall) p.fail_at(pe.line, "missing required field \"wall\"");
    ph.wall = parse_stat(p, *wall);
    if (const JVal* cpu = pe.find("cpu")) {
      ph.cpu = parse_stat(p, *cpu);
      ph.has_cpu = true;
    }
    row.phases.push_back(std::move(ph));
  }
  if (const JVal* c = v.find("counters")) parse_uint_map(p, *c, row.counters);
  if (const JVal* r = v.find("results")) parse_uint_map(p, *r, row.results);
  return row;
}

}  // namespace

BenchDocument parse_bench_document(const std::string& json_text,
                                   const std::string& name) {
  JsonParser p(json_text, name);
  const JVal root = p.parse();

  const JVal* schema = root.kind == JVal::Obj ? root.find("schema") : nullptr;
  if (!schema) {
    p.fail_at(root.line,
              "not a bench document: unsupported bench schema (no "
              "\"schema\": \"fsct-bench-v2\" marker)");
  }
  if (schema->kind != JVal::Str || schema->str != "fsct-bench-v2") {
    p.fail_at(schema->line,
              "unsupported bench schema (expected \"fsct-bench-v2\")");
  }

  BenchDocument doc;
  doc.label = get_str(p, root, "label");
  doc.note = get_str(p, root, "note");
  doc.reps = static_cast<int>(get_num(p, root, "reps"));
  doc.warmup = static_cast<int>(get_num(p, root, "warmup"));
  if (const JVal* m = root.find("machine")) {
    if (m->kind != JVal::Obj) {
      p.fail_at(m->line, "\"machine\" must be an object");
    }
    doc.machine.nproc = static_cast<unsigned>(get_num(p, *m, "nproc"));
    doc.machine.governor = get_str(p, *m, "governor", "unknown");
    doc.machine.compiler = get_str(p, *m, "compiler", "unknown");
    doc.machine.git_sha = get_str(p, *m, "git_sha", "unknown");
    doc.machine.sanitizer = get_str(p, *m, "sanitizer", "none");
    doc.machine.os = get_str(p, *m, "os", "unknown");
  }
  if (const JVal* w = root.find("warnings")) {
    if (w->kind != JVal::Arr) p.fail_at(w->line, "\"warnings\" must be an array");
    for (const JVal& e : w->arr) {
      if (e.kind != JVal::Str) p.fail_at(e.line, "warning must be a string");
      doc.warnings.push_back(e.str);
    }
  }
  const JVal* rows = root.find("rows");
  if (!rows || rows->kind != JVal::Arr) {
    p.fail_at(root.line, "missing required field \"rows\" (array)");
  }
  for (const JVal& r : rows->arr) doc.rows.push_back(parse_row(p, r));
  return doc;
}

BenchDocument read_bench_document(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw BenchParseError(path + ": cannot open file");
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse_bench_document(ss.str(), path);
}

// --- compare ----------------------------------------------------------------

bool CompareReport::has_regression() const {
  for (const CompareDelta& d : deltas) {
    if (d.regression) return true;
  }
  return false;
}

int CompareReport::exit_code() const {
  if (!mismatches.empty()) return 2;
  return has_regression() ? 1 : 0;
}

CompareReport compare_bench(const BenchDocument& old_doc,
                            const BenchDocument& new_doc,
                            const CompareOptions& opt) {
  CompareReport rep;

  const auto key_of = [](const BenchRow& r) {
    return r.circuit + " jobs=" + std::to_string(r.jobs);
  };
  const auto find_row = [&](const BenchDocument& doc, const std::string& key)
      -> const BenchRow* {
    for (const BenchRow& r : doc.rows) {
      if (key_of(r) == key) return &r;
    }
    return nullptr;
  };

  if (old_doc.machine.nproc && new_doc.machine.nproc &&
      old_doc.machine.nproc != new_doc.machine.nproc) {
    rep.notes.push_back(
        "machine: nproc " + std::to_string(old_doc.machine.nproc) + " -> " +
        std::to_string(new_doc.machine.nproc) +
        " (timings may not be comparable)");
  }
  if (!old_doc.machine.sanitizer.empty() &&
      old_doc.machine.sanitizer != new_doc.machine.sanitizer) {
    rep.notes.push_back("machine: sanitizer " + old_doc.machine.sanitizer +
                        " -> " + new_doc.machine.sanitizer);
  }

  for (const BenchRow& orow : old_doc.rows) {
    const std::string key = key_of(orow);
    const BenchRow* nrow = find_row(new_doc, key);
    if (!nrow) {
      rep.mismatches.push_back(key + " present in old, missing in new");
      continue;
    }
    for (const BenchPhase& op : orow.phases) {
      const BenchPhase* np = nullptr;
      for (const BenchPhase& q : nrow->phases) {
        if (q.name == op.name) {
          np = &q;
          break;
        }
      }
      if (!np) {
        rep.mismatches.push_back(key + " phase \"" + op.name +
                                 "\" present in old, missing in new");
        continue;
      }
      CompareDelta d;
      d.circuit = orow.circuit;
      d.jobs = orow.jobs;
      d.phase = op.name;
      d.old_median = op.wall.median;
      d.new_median = np->wall.median;
      d.noise = std::max({opt.rel_threshold * op.wall.median,
                          opt.mad_k * std::max(op.wall.mad, np->wall.mad),
                          opt.abs_floor_s});
      const double delta = d.new_median - d.old_median;
      d.regression = delta > d.noise;
      d.improvement = -delta > d.noise;
      rep.deltas.push_back(d);
    }
    // Counter / result drift means the *work* changed, not just its timing;
    // informational, never gating (intentional algorithm changes shift them,
    // and a build may add or retire a counter).
    using Named = std::vector<std::pair<std::string, std::uint64_t>>;
    const auto lookup = [](const Named& list,
                           const std::string& name) -> const std::uint64_t* {
      for (const auto& [n, v] : list) {
        if (n == name) return &v;
      }
      return nullptr;
    };
    const auto drift = [&](const char* what, const Named& olds,
                           const Named& news) {
      for (const auto& [name, ov] : olds) {
        const std::uint64_t* nv = lookup(news, name);
        if (!nv) {
          rep.notes.push_back(key + " " + what + " " + name +
                              " present in old, missing in new");
        } else if (ov != *nv) {
          rep.notes.push_back(key + " " + what + " " + name + ": " +
                              std::to_string(ov) + " -> " +
                              std::to_string(*nv));
        }
      }
      for (const auto& [name, nv] : news) {
        if (!lookup(olds, name)) {
          rep.notes.push_back(key + " " + what + " " + name +
                              " present in new, missing in old");
        }
      }
    };
    drift("result", orow.results, nrow->results);
    drift("counter", orow.counters, nrow->counters);
  }
  for (const BenchRow& nrow : new_doc.rows) {
    if (!find_row(old_doc, key_of(nrow))) {
      rep.mismatches.push_back(key_of(nrow) +
                               " present in new, missing in old");
    }
  }
  return rep;
}

void print_compare_report(std::ostream& os, const CompareReport& rep) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%-10s %4s %-9s %10s %10s %10s %10s  %s",
                "circuit", "jobs", "phase", "old(s)", "new(s)", "delta(s)",
                "noise(s)", "flag");
  os << buf << "\n";
  for (const CompareDelta& d : rep.deltas) {
    const double delta = d.new_median - d.old_median;
    std::snprintf(buf, sizeof buf,
                  "%-10s %4u %-9s %10.4f %10.4f %+10.4f %10.4f  %s",
                  d.circuit.c_str(), d.jobs, d.phase.c_str(), d.old_median,
                  d.new_median, delta, d.noise,
                  d.regression ? "REGRESSION"
                               : (d.improvement ? "improved" : ""));
    os << buf << "\n";
  }
  for (const CompareDelta& d : rep.deltas) {
    if (!d.regression) continue;
    std::snprintf(buf, sizeof buf,
                  "REGRESSION: %s jobs=%u phase %s: %.4fs -> %.4fs "
                  "(+%.4fs exceeds noise %.4fs)",
                  d.circuit.c_str(), d.jobs, d.phase.c_str(), d.old_median,
                  d.new_median, d.new_median - d.old_median, d.noise);
    os << buf << "\n";
  }
  for (const std::string& m : rep.mismatches) os << "MISMATCH: " << m << "\n";
  for (const std::string& n : rep.notes) os << "note: " << n << "\n";
  if (rep.mismatches.empty() && !rep.has_regression()) {
    os << "no regressions\n";
  }
}

}  // namespace fsct
