// The screening workloads (atpg_tail, sim_wide) and the traced per-layer run
// every workload shares.
#include <cstdio>
#include <stdexcept>

#include "common.h"
#include "core/obs.h"
#include "core/pipeline_exec.h"
#include "fault/comb_fault_sim.h"
#include "fault/seq_fault_sim.h"
#include "trace.h"

namespace perfbench {

namespace {

// Setup is milliseconds per circuit, so it is repeated and the median kept.
constexpr int kSetupRounds = 5;
// At least two passes, so every screening's outcome hash is compared with a
// second screening of the same circuit.
constexpr int kMinPasses = 2;

std::vector<const fsct::SuiteEntry*> entries_of(
    const std::vector<std::string>& shapes) {
  std::vector<const fsct::SuiteEntry*> out;
  for (const std::string& s : shapes) out.push_back(&fsct::suite_entry(s));
  return out;
}

bool claimed_detected(fsct::FaultOutcome o) {
  using O = fsct::FaultOutcome;
  return o == O::DetectedFlush || o == O::DetectedComb ||
         o == O::DetectedSeq || o == O::DetectedFinal;
}

bool is_hard(fsct::FaultOutcome o) {
  using O = fsct::FaultOutcome;
  return o != O::NotAffecting && o != O::EasyAlternating;
}

/// Sets up every circuit kSetupRounds times; returns the per-layer medians
/// of the round totals.
SetupTimes setup_rounds(const std::vector<const fsct::SuiteEntry*>& es,
                        const std::vector<fsct::Netlist>& inputs) {
  std::vector<double> tpi, lev, model, collapse;
  for (int round = 0; round < kSetupRounds; ++round) {
    SetupTimes sum;
    for (std::size_t i = 0; i < es.size(); ++i) {
      SetupTimes t;
      prepare(*es[i], inputs[i], &t);
      sum.tpi += t.tpi;
      sum.levelize += t.levelize;
      sum.model += t.model;
      sum.collapse += t.collapse;
    }
    tpi.push_back(sum.tpi);
    lev.push_back(sum.levelize);
    model.push_back(sum.model);
    collapse.push_back(sum.collapse);
  }
  SetupTimes med;
  med.tpi = median(tpi);
  med.levelize = median(lev);
  med.model = median(model);
  med.collapse = median(collapse);
  return med;
}

std::vector<fsct::Netlist> inputs_of(
    const std::vector<const fsct::SuiteEntry*>& es, std::uint64_t seed) {
  std::vector<fsct::Netlist> out;
  for (const fsct::SuiteEntry* e : es) out.push_back(make_circuit(*e, seed));
  return out;
}

}  // namespace

std::unique_ptr<Prepared> prepare(const fsct::SuiteEntry& e, fsct::Netlist nl,
                                  SetupTimes* t) {
  auto p = std::make_unique<Prepared>();
  p->shape = e.name;
  p->nl = std::move(nl);
  const double t0 = now_s();
  fsct::TpiOptions topt;
  topt.num_chains = e.chains;
  p->design = fsct::run_tpi(p->nl, topt);
  const double t1 = now_s();
  p->lv = std::make_unique<fsct::Levelizer>(p->nl);
  const double t2 = now_s();
  p->model = std::make_unique<fsct::ScanModeModel>(*p->lv, p->design);
  const double t3 = now_s();
  p->faults = fsct::collapsed_fault_list(p->nl);
  const double t4 = now_s();
  if (t) *t = {t1 - t0, t2 - t1, t3 - t2, t4 - t3};
  const std::string bad = p->model->check();
  if (!bad.empty()) {
    throw std::runtime_error(e.name + ": ScanModeModel::check: " + bad);
  }
  return p;
}

Screening screen(const Prepared& p, const fsct::PipelineOptions& opt) {
  Screening s;
  const double c0 = cpu_s();
  const double t0 = now_s();
  s.r = fsct::run_fsct_pipeline(*p.model, p.faults, opt);
  const double t1 = now_s();
  s.prog = fsct::make_chain_test_program(*p.model, s.r);
  const double t2 = now_s();
  s.cpu_s = cpu_s() - c0;
  s.pipeline_s = t1 - t0;
  s.export_s = t2 - t1;
  return s;
}

Grade grade(const Prepared& p, const Screening& s, int width,
            fsct::ThreadPool* pool) {
  // Detected outcomes first, then the easy faults: every detected outcome
  // must replay, and at least easy_verified of the easy faults (the ones
  // step 1's simulation confirmed).
  std::vector<fsct::Fault> faults;
  std::size_t n_det = 0;
  for (std::size_t i = 0; i < p.faults.size(); ++i) {
    if (claimed_detected(s.r.outcome[i])) faults.push_back(p.faults[i]);
  }
  n_det = faults.size();
  for (std::size_t i = 0; i < p.faults.size(); ++i) {
    if (s.r.outcome[i] == fsct::FaultOutcome::EasyAlternating) {
      faults.push_back(p.faults[i]);
    }
  }
  const fsct::SeqFaultSim sim(*p.lv, fsct::pipeline_observe_list(*p.model),
                              width);
  const double t0 = now_s();
  const fsct::SeqFaultSimResult res =
      sim.run(s.prog.stimulus, faults, fsct::Val::X, pool);
  Grade g;
  g.seconds = now_s() - t0;
  g.cycles = s.prog.stimulus.size();
  g.claimed = faults.size();
  std::size_t det_hit = 0, easy_hit = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (res.detect_cycle[i] < 0) continue;
    (i < n_det ? det_hit : easy_hit) += 1;
  }
  g.confirmed = det_hit + easy_hit;
  g.ok = det_hit == n_det && easy_hit >= s.r.easy_verified;
  return g;
}

void run_screening(const Args& a, SpanLog& log, Report& rep) {
  const std::vector<std::string> shapes = workload_shapes(a);
  if (a.trace) {
    trace_layers(a, shapes, log, rep);
    serve_probe(a, shapes.front(), log, rep);
    return;
  }
  const auto es = entries_of(shapes);
  const std::vector<fsct::Netlist> inputs = inputs_of(es, a.seed);
  const SetupTimes setup = setup_rounds(es, inputs);

  // Every screening gets a freshly set-up circuit (untimed), so every pass
  // pays what one `fsct test` run pays, including the lazily compiled
  // simulation arena that a reused Levelizer would hand to later passes
  // for free.
  const int nproc = static_cast<int>(fsct::resolve_jobs(0));
  const fsct::PipelineOptions opt = screening_options(nproc);
  const std::size_t n = es.size();
  std::vector<std::uint64_t> first_hash(n, 0);
  std::vector<std::unique_ptr<Prepared>> ps(n);
  std::vector<Screening> last(n);
  std::vector<double> pass_wall, pass_cpu;
  std::size_t screenings = 0;
  const double start = now_s();
  for (int pass = 0;
       pass < kMinPasses || (!a.smoke && now_s() - start < a.seconds);
       ++pass) {
    double wall = 0, cpu = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ++rep.attempted;
      try {
        ps[i] = prepare(*es[i], inputs[i]);
        Screening s = screen(*ps[i], opt);
        wall += s.pipeline_s + s.export_s;
        cpu += s.cpu_s;
        ++screenings;
        const std::uint64_t h = outcome_hash(s.r);
        if (pass == 0) {
          first_hash[i] = h;
        } else if (h != first_hash[i]) {
          rep.fail(es[i]->name + ": outcome hash differs across passes");
        }
        last[i] = std::move(s);
      } catch (const std::exception& e) {
        ps[i].reset();
        rep.fail(es[i]->name + ": " + e.what());
      }
    }
    pass_wall.push_back(wall);
    pass_cpu.push_back(cpu);
    std::fprintf(stderr, "perfbench: pass %d: %.3f s wall, %.3f s cpu\n",
                 pass + 1, wall, cpu);
  }

  // Correctness and quality, outside the timed window: the exported program
  // must replay every claimed detection at the build-default lane width.
  fsct::ThreadPool pool(nproc);
  std::size_t confirmed = 0, affecting = 0, aborted = 0, cycles = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!ps[i]) continue;  // its last screening threw
    const Grade g = grade(*ps[i], last[i], 0, &pool);
    if (!g.ok) rep.fail(ps[i]->shape + ": program misses a claimed detection");
    confirmed += g.confirmed;
    affecting += last[i].r.affecting();
    aborted += last[i].r.s3_undetected;
    cycles += g.cycles;
  }

  // A request here is the user's whole job: the workload's circuit set in,
  // its verified programs out.  (Per-circuit latencies mix shapes whose
  // times overlap, so their percentiles jump between shapes from run to run.)
  double total_wall = 0;
  for (double w : pass_wall) total_wall += w;
  rep.set("setup_s", setup.total(), "s");
  rep.set("screen_s", median(pass_wall), "s");
  rep.set("screen_cpu_s", median(pass_cpu), "s");
  rep.set("req_p50_ms", percentile(pass_wall, 50) * 1e3, "ms");
  rep.set("req_p90_ms", percentile(pass_wall, 90) * 1e3, "ms");
  rep.set("req_per_s", static_cast<double>(screenings) / total_wall, "1/s");
  rep.set("chain_coverage_pct",
          100.0 * static_cast<double>(confirmed) /
              static_cast<double>(affecting),
          "%");
  rep.set("aborted_faults", static_cast<double>(aborted), "count");
  rep.set("test_cycles", static_cast<double>(cycles), "count");
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void trace_layers(const Args& a, const std::vector<std::string>& shapes,
                  SpanLog& log, Report& rep) {
  const auto es = entries_of(shapes);
  const std::vector<fsct::Netlist> inputs = inputs_of(es, a.seed);
  const std::size_t n = es.size();
  const SetupTimes setup = setup_rounds(es, inputs);
  rep.set("setup.tpi_s", setup.tpi, "s");
  rep.set("setup.levelize_s", setup.levelize, "s");
  rep.set("setup.model_s", setup.model, "s");
  rep.set("setup.collapse_s", setup.collapse, "s");

  const int nproc = static_cast<int>(fsct::resolve_jobs(0));

  // Decorated runs at jobs 1 and jobs nproc, with an untraced run between
  // them: the outcome hash both traced runs must reproduce, and the
  // baseline of the tracing overhead.  It runs second so that neither it nor
  // the jobs-nproc run pays the process's first-pass warm-up.  Every
  // screening sets its circuit up afresh, as in run_screening.  Jobs-1 ops
  // are numbered [0, n), jobs-nproc ops [n, 2n), so self times can be split
  // by job count.
  std::vector<std::uint64_t> ref_hash, traced_hash[2];
  double untraced = 0;
  const auto untraced_pass = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      ++rep.attempted;
      const Screening s =
          screen(*prepare(*es[i], inputs[i]), screening_options(nproc));
      untraced += s.pipeline_s + s.export_s;
      ref_hash.push_back(outcome_hash(s.r));
    }
  };
  struct AtJobs {
    std::map<std::string, PhaseCost> phase;
    std::array<std::uint64_t, fsct::kNumCounters> ctr{};
    double export_s = 0;
    double screen_s = 0;
    std::uint64_t tasks = 0, steals = 0;
  };
  AtJobs at[2];
  std::vector<std::unique_ptr<Prepared>> ps(n);
  std::vector<Screening> kept(n);
  std::uint64_t op = 0;
  for (int k = 0; k < 2; ++k) {
    if (k == 1) untraced_pass();
    const int jobs = k == 0 ? 1 : nproc;
    for (std::size_t i = 0; i < n; ++i, ++op) {
      ps[i] = prepare(*es[i], inputs[i]);
      const Prepared& p = *ps[i];
      ++rep.attempted;
      fsct::ObsRegistry reg;
      fsct::ThreadPool pool(jobs);
      fsct::PipelineOptions opt = screening_options(jobs);
      opt.obs = &reg;
      fsct::LocalExec local(*p.model, p.faults, opt, pool);
      const int root = log.begin(
          "screen " + p.shape + " jobs=" + std::to_string(jobs), -1, op);
      const int pipe = log.begin("pipeline", root, op);
      TracingExec tx(local, reg, log, pipe, op);
      opt.exec = &tx;
      Screening s;
      const double t0 = now_s();
      s.r = fsct::run_fsct_pipeline(*p.model, p.faults, opt);
      log.end(pipe);
      const double t1 = now_s();
      const int ex = log.begin("export", root, op);
      s.prog = fsct::make_chain_test_program(*p.model, s.r);
      log.end(ex);
      log.end(root);
      s.pipeline_s = t1 - t0;
      s.export_s = now_s() - t1;

      traced_hash[k].push_back(outcome_hash(s.r));
      AtJobs& acc = at[k];
      for (const auto& [name, cost] : tx.phases()) acc.phase[name] += cost;
      for (std::size_t c = 0; c < fsct::kNumCounters; ++c) {
        acc.ctr[c] += reg.total(static_cast<fsct::Ctr>(c));
      }
      acc.export_s += s.export_s;
      acc.screen_s += s.pipeline_s + s.export_s;
      for (const auto& w : pool.worker_stats()) {
        acc.tasks += w.tasks;
        acc.steals += w.steals;
      }
      if (k == 1) kept[i] = std::move(s);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < 2; ++k) {
      if (traced_hash[k][i] == ref_hash[i]) continue;
      rep.fail(es[i]->name + " jobs=" + (k ? std::to_string(nproc) : "1") +
               ": traced outcome hash differs from the untraced run");
    }
  }

  const AtJobs& one = at[0];
  const AtJobs& all = at[1];
  for (const char* name : kPhases) {
    const auto get = [name](const AtJobs& x) {
      const auto it = x.phase.find(name);
      return it == x.phase.end() ? PhaseCost{} : it->second;
    };
    const PhaseCost c1 = get(one), cn = get(all);
    const std::string n = name;
    rep.set(n + ".wall_s", cn.wall, "s");
    rep.set(n + ".cpu_s", cn.cpu, "s");
    rep.set(n + ".speedup", cn.wall > 0 ? c1.wall / cn.wall : 1.0, "x");
  }
  const auto self = log.self_seconds(n, 2 * n);
  const auto self_of = [&self](const char* n) {
    const auto it = self.find(n);
    return it == self.end() ? 0.0 : it->second;
  };
  rep.set("skeleton.other_s", self_of("pipeline"), "s");
  rep.set("export.wall_s", all.export_s, "s");

  // Cost per unit of deterministic work, from the jobs-1 run (no pool
  // threads competing for the CPU).
  const auto per = [&one](const char* phase, fsct::Ctr c) {
    double cpu = 0;
    std::uint64_t n = 0;
    for (const auto& [name, cost] : one.phase) {
      if (std::string(name).rfind(phase, 0) != 0) continue;
      cpu += cost.cpu;
      n += cost.delta(c);
    }
    return n ? cpu * 1e9 / static_cast<double>(n) : 0.0;
  };
  rep.set("classify.ns_per_event", per("classify", fsct::Ctr::ClassifyEvents),
          "ns");
  rep.set("s2_verify.ns_per_cycle", per("s2_verify", fsct::Ctr::SeqSimCycles),
          "ns");
  rep.set("s3.ns_per_decision", per("s3_", fsct::Ctr::PodemDecisions), "ns");

  const std::pair<const char*, fsct::Ctr> counts[] = {
      {"count.podem_decisions", fsct::Ctr::PodemDecisions},
      {"count.podem_backtracks", fsct::Ctr::PodemBacktracks},
      {"count.podem_aborts", fsct::Ctr::PodemAborts},
      {"count.seqsim_cycles", fsct::Ctr::SeqSimCycles},
      {"count.seqsim_packed_passes", fsct::Ctr::SeqSimPackedPasses},
      {"count.ppsfp_fault_sims", fsct::Ctr::PpsfpFaultSims},
      {"count.classify_events", fsct::Ctr::ClassifyEvents},
      {"count.s3_groups", fsct::Ctr::S3Groups},
      {"count.s3_final_faults", fsct::Ctr::S3FinalFaults},
  };
  for (const auto& [name, c] : counts) {
    rep.set(name, static_cast<double>(all.ctr[static_cast<std::size_t>(c)]),
            "count");
  }
  rep.set("pool.tasks", static_cast<double>(all.tasks), "count");
  rep.set("pool.steals", static_cast<double>(all.steals), "count");

  // Kernels, single-threaded so they time the kernel and not the pool.  The
  // grade runs double as the correctness check at every lane width.
  for (const int width : {64, 256, 512}) {
    double secs = 0, work = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Grade g = grade(*ps[i], kept[i], width, nullptr);
      if (!g.ok) {
        rep.fail(ps[i]->shape + ": program misses a claimed detection at w" +
                 std::to_string(width));
      }
      secs += g.seconds;
      work += static_cast<double>(g.claimed) * static_cast<double>(g.cycles);
    }
    rep.set("kernel.grade.w" + std::to_string(width) + ".ns_per_fault_cycle",
            work > 0 ? secs * 1e9 / work : 0.0, "ns");
  }
  double pp_secs = 0, pp_work = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Prepared& p = *ps[i];
    std::vector<fsct::CombPattern> pats;
    for (const fsct::ScanVector& v : kept[i].r.vectors) {
      fsct::CombPattern pat = v.pi_vals;
      pat.insert(pat.end(), v.ff_state.begin(), v.ff_state.end());
      pats.push_back(std::move(pat));
    }
    std::vector<fsct::Fault> hard;
    for (std::size_t f = 0; f < p.faults.size(); ++f) {
      if (is_hard(kept[i].r.outcome[f])) hard.push_back(p.faults[f]);
    }
    std::vector<fsct::NodeId> observe = p.nl.outputs();
    observe.insert(observe.end(), p.nl.dffs().begin(), p.nl.dffs().end());
    const fsct::CombFaultSim sim(*p.lv, observe);
    const double t0 = now_s();
    const fsct::CombFaultSimResult res = sim.run(pats, hard);
    pp_secs += now_s() - t0;
    pp_work += static_cast<double>(pats.size()) *
               static_cast<double>(hard.size());
    (void)res;
  }
  rep.set("kernel.ppsfp.ns_per_fault_pattern",
          pp_work > 0 ? pp_secs * 1e9 / pp_work : 0.0, "ns");
  rep.set("trace.overhead_s", all.screen_s - untraced, "s");
}

}  // namespace perfbench
