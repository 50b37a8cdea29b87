// In-process checkpoint/resume (core/checkpoint.h, DESIGN.md §5l), held to
// its three contracts:
//
//   determinism   — a run that checkpoints at every safe point gives the
//                   byte-identical report of a plain run (raw counters,
//                   attribution table and trace span names included) at
//                   jobs 1 and 4 on three suite circuits (the matrix tests:
//                   both runs take the one step-3 item path),
//   crash safety  — SIGKILLing a whole checkpointing process mid-run loses
//                   nothing but the in-flight work: a resume from the last
//                   checkpoint completes byte-identically, also at another
//                   job count,
//   checkpoint    — the fsct-ckpt-v1 format round-trips, rejects truncated /
//                   corrupt / foreign files with line-anchored errors, and a
//                   run stopped at ANY safe point resumes to the bitwise
//                   uninterrupted result (the every-interval sweep).
//
// The fuzz oracle O8 (`resume`) drives the same machinery on random
// circuits.  The suite keeps the name `Shard` from the fork-based runner
// these tests used to cover, so the test ids stay stable.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/generator.h"
#include "bench_circuits/suite.h"
#include "core/checkpoint.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "core/pipeline_exec.h"
#include "core/selfcheck.h"
#include "scan/tpi.h"
#include "serve/serve.h"

namespace fsct {
namespace {

// A compiled circuit whose members never move: the Levelizer and the model
// hold references into the netlist, so the world lives on the heap.
struct World {
  Netlist nl;
  ScanDesign design;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<ScanModeModel> model;
  std::vector<Fault> faults;
};

std::unique_ptr<World> compile_world(Netlist nl, int chains) {
  auto w = std::make_unique<World>();
  w->nl = std::move(nl);
  TpiOptions topt;
  topt.num_chains = chains;
  w->design = run_tpi(w->nl, topt);
  w->lv = std::make_unique<Levelizer>(w->nl);
  w->model = std::make_unique<ScanModeModel>(*w->lv, w->design);
  w->faults = collapsed_fault_list(w->nl);
  return w;
}

std::unique_ptr<World> suite_world(const std::string& name) {
  const SuiteEntry& e = suite_entry(name);
  return compile_world(build_suite_circuit(e), e.chains);
}

std::unique_ptr<World> small_world(std::uint64_t seed) {
  RandomCircuitSpec spec;
  spec.num_gates = 50;
  spec.num_ffs = 4;
  spec.num_pis = 6;
  spec.num_pos = 4;
  spec.seed = seed;
  return compile_world(make_random_sequential(spec), 1);
}

PipelineOptions base_opt(int jobs) {
  PipelineOptions opt;
  opt.verify_easy = true;
  opt.jobs = jobs;
  return opt;
}

std::string report_of(const ObsRegistry& reg, const PipelineResult& r) {
  std::ostringstream os;
  reg.write_run_report(os, r);
  return normalized_report(os.str());
}

// A checkpoint file in this process's own temp directory (ctest runs these
// tests as concurrent processes), removed when the process exits.
std::string ckpt_path(const char* leaf) {
  static const struct Dir {
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("fsct-ckpt-" + std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir;
  return (dir.path / leaf).string();
}

// Index (1-based) of the safe point right after the first finished item of
// step-3 phase `phase` (S3Groups or S3Final) in a serial run on `w`, or 0
// when the phase has no items: stopping there leaves the run inside the
// phase with one item done.
int first_item_safe_point(const World& w, PipelinePhase phase) {
  int seen = 0;
  int at = 0;
  PipelineHooks hooks;
  hooks.safe_point = [&](const PipelineState& st) {
    ++seen;
    const std::vector<char>& mask =
        phase == PipelinePhase::S3Groups ? st.groups_done : st.finals_done;
    if (at == 0 && st.next == phase &&
        std::find(mask.begin(), mask.end(), 1) != mask.end()) {
      at = seen;
    }
    return true;
  };
  PipelineOptions opt = base_opt(1);
  opt.hooks = &hooks;
  run_fsct_pipeline(*w.model, w.faults, opt);
  return at;
}

// ---- fuzz oracle O8 --------------------------------------------------------

TEST(Shard, OracleIsLoudWhenUnregistered) {
  // The fork-based `shard` oracle is gone: asking for it is a loud error,
  // never a silent no-op.
  try {
    parse_oracle_mask("shard");
    ADD_FAILURE() << "parse_oracle_mask accepted 'shard'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown oracle 'shard'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Shard, OracleShardIsOptInByName) {
  // `all` stays O1-O7: the resume oracle's extra runs never ride along.
  EXPECT_EQ(kOracleAll & kOracleResume, 0u);
  EXPECT_EQ(parse_oracle_mask("all") & kOracleResume, 0u);
  EXPECT_EQ(parse_oracle_mask("resume"), kOracleResume);
  EXPECT_STREQ(oracle_name(7), "resume");
}

TEST(Shard, OracleFuzzFindsNoDisagreements) {
  FuzzOptions fo;
  fo.seed = 20260808;
  fo.iterations = 6;
  fo.oracles = kOracleResume;
  fo.jobs = 2;
  fo.max_gates = 40;
  fo.max_ffs = 5;
  fo.parser_stress = false;
  fo.shrink = false;  // a failure here is reported, not minimized
  const FuzzReport rep = run_fuzz(fo);
  EXPECT_GT(rep.oracle_runs[7], 0u);
  for (const FuzzFailure& f : rep.failures) {
    ADD_FAILURE() << "iteration " << f.iteration << ": " << f.diagnostic
                  << "\nrepro: " << f.repro;
  }
}

// The slowest cases run once per starting job count (1 and 4), so ctest can
// spread them over its workers.
class Shard : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Jobs, Shard, ::testing::Values(1, 4));

// ---- determinism matrix ----------------------------------------------------
// jobs {1,4}: a run checkpointing at every safe point diffs empty against the
// same-jobs plain run, and reports what the plain run reports: the same
// normalized run report, the same raw counters (pass and cycle counts
// included) and the same multiset of trace span names.  Step-3 items run
// one way whether or not a hook is set.

std::vector<std::string> span_names(const ObsRegistry& reg) {
  std::vector<std::string> names;
  for (const ObsRegistry::SpanEvent& e : reg.trace_snapshot()) {
    names.push_back(e.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void run_matrix(const std::string& circuit, const std::vector<int>& jobs_list) {
  const std::unique_ptr<World> w = suite_world(circuit);
  const std::string ck = ckpt_path("matrix.ckpt");
  for (int jobs : jobs_list) {
    auto observed = [jobs](ObsRegistry& reg) {
      reg.enable_trace();
      PipelineOptions opt = base_opt(jobs);
      opt.obs = &reg;
      return opt;
    };
    ObsRegistry reg;
    const PipelineResult plain =
        run_fsct_pipeline(*w->model, w->faults, observed(reg));

    ObsRegistry creg;
    CheckpointOptions co;
    co.path = ck;
    const PipelineResult checkpointed =
        run_checkpointed_pipeline(*w->model, w->faults, observed(creg), co);
    EXPECT_EQ(diff_pipeline_results(plain, checkpointed), "")
        << circuit << " jobs=" << jobs;
    EXPECT_EQ(report_of(creg, checkpointed), report_of(reg, plain))
        << circuit << " jobs=" << jobs
        << ": normalized report differs from the plain run";
    EXPECT_EQ(creg.counters_json(), reg.counters_json())
        << circuit << " jobs=" << jobs;
    EXPECT_EQ(span_names(creg), span_names(reg))
        << circuit << " jobs=" << jobs;
  }
}

TEST_P(Shard, MatrixIdenticalS1423) { run_matrix("s1423", {GetParam()}); }
TEST(Shard, MatrixIdenticalS1488) { run_matrix("s1488", {1, 4}); }
TEST(Shard, MatrixIdenticalS1494) { run_matrix("s1494", {1, 4}); }

// s1494's step 3 verifies final detections, the work the item path once
// charged differently under a hook: an uninterrupted checkpointed run keeps
// the plain run's raw counters and attribution table at jobs 1 and 4.
TEST(Shard, CheckpointedRunKeepsPlainCountersS1494) {
  const std::unique_ptr<World> w = suite_world("s1494");
  for (int jobs : {1, 4}) {
    auto observed = [jobs](ObsRegistry& reg) {
      reg.request_attribution();
      PipelineOptions opt = base_opt(jobs);
      opt.obs = &reg;
      return opt;
    };
    ObsRegistry reg;
    run_fsct_pipeline(*w->model, w->faults, observed(reg));
    ObsRegistry creg;
    CheckpointOptions co;
    co.path = ckpt_path("counters.ckpt");
    run_checkpointed_pipeline(*w->model, w->faults, observed(creg), co);
    EXPECT_GT(reg.total(Ctr::SeqSimPackedPasses), 0u);
    EXPECT_EQ(creg.counters_json(), reg.counters_json()) << "jobs=" << jobs;
    EXPECT_EQ(creg.attribution_json(), reg.attribution_json())
        << "jobs=" << jobs;
  }
}

// The fold carries the per-fault attribution ledger too: a run stopped
// mid-step-3 at jobs 4 and resumed at jobs 1 ends with the plain run's
// deterministic attribution table and counters.
TEST(Shard, CheckpointedRunKeepsAttributionTable) {
  const std::unique_ptr<World> w = suite_world("s1494");
  const std::string ck = ckpt_path("attr.ckpt");
  auto observed = [](ObsRegistry& reg, int jobs) {
    reg.request_attribution();
    PipelineOptions opt = base_opt(jobs);
    opt.obs = &reg;
    return opt;
  };
  ObsRegistry reg;
  run_fsct_pipeline(*w->model, w->faults, observed(reg, 4));
  const std::string want = reg.attribution_json();
  const std::string want_counters = reg.counters_json();

  ObsRegistry creg;
  CheckpointOptions co;
  co.path = ck;
  co.stop_after_safepoints =
      first_item_safe_point(*w, PipelinePhase::S3Groups);
  ASSERT_GT(co.stop_after_safepoints, 0);
  EXPECT_THROW(run_checkpointed_pipeline(*w->model, w->faults,
                                         observed(creg, 4), co),
               PipelineStopped);

  ObsRegistry rreg;
  CheckpointOptions ro;
  ro.resume_path = ck;
  run_checkpointed_pipeline(*w->model, w->faults, observed(rreg, 1), ro);
  EXPECT_EQ(rreg.attribution_json(), want);
  EXPECT_EQ(rreg.counters_json(), want_counters);
}

// s1494 is the suite circuit whose step 3 detects faults (in its final
// items): stopping at every step-3 safe point in turn, at jobs 1 and 4, and
// resuming must keep every verified sequence and the plain report.
TEST(Shard, ResumeInsideStep3KeepsDetections) {
  const std::unique_ptr<World> w = suite_world("s1494");
  const std::string ck = ckpt_path("step3.ckpt");
  ObsRegistry reg;
  PipelineOptions opt = base_opt(1);
  opt.obs = &reg;
  const PipelineResult plain = run_fsct_pipeline(*w->model, w->faults, opt);
  const std::string want = report_of(reg, plain);
  ASSERT_GT(plain.s3_detected, 0u);

  const int first = first_item_safe_point(*w, PipelinePhase::S3Groups);
  ASSERT_GT(first, 0);
  for (int jobs : {1, 4}) {
    bool completed = false;
    for (int k = first; !completed; ++k) {
      ObsRegistry sreg;
      PipelineOptions sopt = base_opt(jobs);
      sopt.obs = &sreg;
      CheckpointOptions co;
      co.path = ck;
      co.stop_after_safepoints = k;
      try {
        run_checkpointed_pipeline(*w->model, w->faults, sopt, co);
        completed = true;
        continue;
      } catch (const PipelineStopped&) {
      }
      ObsRegistry rreg;
      PipelineOptions ropt = base_opt(1);
      ropt.obs = &rreg;
      CheckpointOptions ro;
      ro.resume_path = ck;
      const PipelineResult resumed =
          run_checkpointed_pipeline(*w->model, w->faults, ropt, ro);
      EXPECT_EQ(diff_pipeline_results(plain, resumed), "")
          << "stop at safe point " << k << ", jobs " << jobs;
      EXPECT_EQ(report_of(rreg, resumed), want)
          << "stop at safe point " << k << ", jobs " << jobs;
    }
  }
}

// ---- crash injection -------------------------------------------------------

// True once the checkpoint at `path` shows step 3 under way with at least
// one finished group (or already past the group phase).
bool checkpoint_in_step3(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string head = text.substr(0, text.find('\n'));
  if (head.find("\"phase\":\"s3.final\"") != std::string::npos) return true;
  return head.find("\"phase\":\"s3.groups\"") != std::string::npos &&
         text.find("\"section\":\"group\"") != std::string::npos;
}

TEST(Shard, KilledWorkerIsDetectedAndRunResumes) {
  const std::unique_ptr<World> w = suite_world("s1423");
  const std::string ck = ckpt_path("kill.ckpt");
  std::filesystem::remove(ck);

  ObsRegistry breg;
  PipelineOptions bopt = base_opt(2);
  bopt.obs = &breg;
  const PipelineResult plain = run_fsct_pipeline(*w->model, w->faults, bopt);
  const std::string want = report_of(breg, plain);

  // The child is a whole checkpointing process.  Every step-3 group dwells
  // 400ms (the s3.group test failpoint inside LocalExec): a wide window to
  // SIGKILL it mid-phase.  No thread runs in this process at fork time.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::setenv("FSCT_TEST_PHASE_SLEEP", "s3.group:400", 1);
    int rc = 1;
    try {
      ObsRegistry creg;
      PipelineOptions copt = base_opt(2);
      copt.obs = &creg;
      CheckpointOptions co;
      co.path = ck;
      run_checkpointed_pipeline(*w->model, w->faults, copt, co);
      rc = 0;
    } catch (...) {
    }
    ::_exit(rc);
  }

  // Kill once the checkpoint shows step 3 under way; after 60s kill anyway
  // (the resume must then still work from whatever was written).
  int status = 0;
  bool exited_early = false;
  for (int i = 0; i < 1200 && !checkpoint_in_step3(ck); ++i) {
    if (::waitpid(child, &status, WNOHANG) == child) {
      exited_early = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_FALSE(exited_early) << "the checkpointing child finished before "
                                "it could be killed (status "
                             << status << ")";
  ::kill(child, SIGKILL);
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  ASSERT_TRUE(std::filesystem::exists(ck));
  EXPECT_NO_THROW(read_checkpoint(ck));

  // Resume from the last checkpoint: the continued run must finish with the
  // byte-identical plain report.
  ObsRegistry rreg;
  PipelineOptions ropt = base_opt(2);
  ropt.obs = &rreg;
  CheckpointOptions ro;
  ro.resume_path = ck;
  const PipelineResult resumed =
      run_checkpointed_pipeline(*w->model, w->faults, ropt, ro);
  EXPECT_EQ(diff_pipeline_results(plain, resumed), "");
  EXPECT_EQ(report_of(rreg, resumed), want);
}

// ---- resume across job counts ----------------------------------------------
// The binding hash leaves `jobs` out on purpose: a checkpoint written at
// jobs 1 resumes at jobs 4 and vice versa (the parameter is the writing job
// count), each to the report of a plain run at the resuming job count (which
// the report records).

TEST_P(Shard, ResumeAcrossJobCounts) {
  const int from = GetParam();
  const int to = from == 1 ? 4 : 1;
  const std::unique_ptr<World> w = suite_world("s1423");
  const std::string ck = ckpt_path("jobs.ckpt");
  ObsRegistry reg;
  PipelineOptions opt = base_opt(to);
  opt.obs = &reg;
  const PipelineResult plain = run_fsct_pipeline(*w->model, w->faults, opt);
  const std::string want = report_of(reg, plain);

  const int stop_at = first_item_safe_point(*w, PipelinePhase::S3Final);
  ASSERT_GT(stop_at, 0);
  {
    ObsRegistry sreg;
    PipelineOptions sopt = base_opt(from);
    sopt.obs = &sreg;
    CheckpointOptions co;
    co.path = ck;
    co.stop_after_safepoints = stop_at;
    EXPECT_THROW(run_checkpointed_pipeline(*w->model, w->faults, sopt, co),
                 PipelineStopped);
    EXPECT_EQ(read_checkpoint(ck).state.next, PipelinePhase::S3Final);

    ObsRegistry rreg;
    PipelineOptions ropt = base_opt(to);
    ropt.obs = &rreg;
    CheckpointOptions ro;
    ro.resume_path = ck;
    const PipelineResult resumed =
        run_checkpointed_pipeline(*w->model, w->faults, ropt, ro);
    EXPECT_EQ(diff_pipeline_results(plain, resumed), "")
        << "jobs " << from << " -> " << to;
    EXPECT_EQ(report_of(rreg, resumed), want)
        << "jobs " << from << " -> " << to;
  }
}

// ---- checkpoint format -----------------------------------------------------

CheckpointData sample_checkpoint() {
  CheckpointData d;
  d.hash = 0xdeadbeefcafef00dull;
  d.state.next = PipelinePhase::S3Groups;
  d.state.podem_next = 2;
  PipelineResult& r = d.state.res;
  r.total_faults = 3;
  r.easy = 1;
  r.hard = 2;
  r.outcome = {FaultOutcome::EasyAlternating, FaultOutcome::NotAffecting,
               FaultOutcome::DetectedComb};
  r.info.resize(3);
  r.info[0].category = ChainFaultCategory::Easy;
  r.info[0].locations.push_back(ChainLocation{0, 1});
  r.info[2].category = ChainFaultCategory::Hard;
  r.info[2].multi_chain = true;
  r.info[2].locations.push_back(ChainLocation{0, 2});
  r.info[2].locations.push_back(ChainLocation{1, 0});
  r.vectors.push_back(ScanVector{{Val::One, Val::Zero}, {Val::X, Val::One}});
  r.detection_curve = {1};
  r.s3_sequences.push_back(TestSequence{{Val::One, Val::X}});
  r.s3_sequence_fault = {2};
  GroupOutcome go;
  go.detected = {2};
  go.seqs.push_back(TestSequence{{Val::Zero, Val::One}});
  go.unverified = 1;
  d.state.groups = {GroupOutcome{}, std::move(go)};
  d.state.groups_done = {0, 1};
  d.counters.emplace_back("fsct_classify_faults_total", 3);
  CheckpointData::HistState hs;
  hs.name = "fsct_podem_backtracks";
  hs.sum = 12;
  hs.buckets = {1, 0, 2};
  d.hists.push_back(std::move(hs));
  d.attr.push_back(CheckpointData::AttrCell{2, "podem_backtracks", 7});
  return d;
}

TEST(Shard, CheckpointRoundTrips) {
  const CheckpointData a = sample_checkpoint();
  const std::string text = serialize_checkpoint(a);
  const CheckpointData b = parse_checkpoint(text, "mem");
  EXPECT_EQ(serialize_checkpoint(b), text);
  EXPECT_EQ(b.hash, a.hash);
  EXPECT_EQ(b.state.next, PipelinePhase::S3Groups);
  EXPECT_EQ(b.state.podem_next, 2u);
  EXPECT_EQ(b.state.res.outcome, a.state.res.outcome);
  EXPECT_EQ(b.state.res.vectors, a.state.res.vectors);
  EXPECT_EQ(b.state.res.s3_sequences, a.state.res.s3_sequences);
  // Only finished slots are written; they come back at their index.
  EXPECT_EQ(b.state.groups_done, (std::vector<char>{0, 1}));
  EXPECT_EQ(b.state.groups[1].detected, std::vector<std::size_t>{2});
  EXPECT_EQ(b.counters, a.counters);

  // A final slot is written under its fault id and read back into the slot
  // of that id's rank among the open hard faults (here fault 2 alone).
  CheckpointData f = a;
  f.state.next = PipelinePhase::S3Final;
  f.state.groups.clear();
  f.state.groups_done.clear();
  f.state.res.outcome[2] = FaultOutcome::Undetected;
  FinalOutcome fo;
  fo.verdict = FinalVerdict::Detected;
  fo.seq = TestSequence{{Val::One, Val::One}};
  f.state.finals = {fo};
  f.state.finals_done = {1};
  const std::string ftext = serialize_checkpoint(f);
  EXPECT_NE(ftext.find("{\"section\":\"final\",\"id\":2,"), std::string::npos)
      << ftext;
  const CheckpointData g = parse_checkpoint(ftext, "mem");
  EXPECT_EQ(serialize_checkpoint(g), ftext);
  ASSERT_EQ(g.state.finals_done, std::vector<char>{1});
  EXPECT_EQ(g.state.finals[0].verdict, FinalVerdict::Detected);
  EXPECT_EQ(g.state.finals[0].seq, fo.seq);

  // And the on-disk writer is atomic + re-readable.
  const std::string path = ckpt_path("roundtrip.ckpt");
  write_checkpoint_atomic(path, a);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(serialize_checkpoint(read_checkpoint(path)), text);
}

std::string parse_error(const std::string& text) {
  try {
    parse_checkpoint(text, "ckpt");
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(Shard, CheckpointRejectsTamperedFiles) {
  const std::string good = serialize_checkpoint(sample_checkpoint());
  ASSERT_EQ(parse_error(good), "");
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < good.size();) {
    const std::size_t nl = good.find('\n', pos);
    lines.push_back(good.substr(pos, nl - pos));
    pos = nl + 1;
  }
  const auto join = [&](std::size_t skip_from, std::size_t skip_to) {
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i >= skip_from && i < skip_to) continue;
      out += lines[i];
      out += '\n';
    }
    return out;
  };

  // Truncated: sentinel gone.
  EXPECT_NE(parse_error(join(lines.size() - 1, lines.size()))
                .find("truncated: missing end sentinel"),
            std::string::npos);
  // Truncated: a whole section line missing — the sentinel count catches it,
  // naming the file and the sentinel's line.
  {
    const std::string e = parse_error(join(4, 5));
    EXPECT_NE(e.find("end sentinel expects"), std::string::npos) << e;
    EXPECT_NE(e.find("ckpt: line"), std::string::npos) << e;
  }
  // Corrupt JSON mid-file: the error is anchored to that line.
  {
    std::vector<std::string> bad = lines;
    bad[2] = "{\"section\":\"info\",\"data\":[[";
    std::string text;
    for (const std::string& l : bad) text += l + "\n";
    const std::string e = parse_error(text);
    EXPECT_NE(e.find("ckpt: line 3:"), std::string::npos) << e;
  }
  // Bad outcome digit, anchored to the outcome line.
  {
    std::vector<std::string> bad = lines;
    const std::size_t at = bad[1].find("\"data\":\"");
    bad[1][at + 8] = '9';
    std::string text;
    for (const std::string& l : bad) text += l + "\n";
    const std::string e = parse_error(text);
    EXPECT_NE(e.find("ckpt: line 2: bad outcome digit"), std::string::npos)
        << e;
  }
  // Wrong schema.
  {
    std::string text = good;
    const std::size_t at = text.find("fsct-ckpt-v1");
    text.replace(at, 12, "fsct-ckpt-v9");
    EXPECT_NE(parse_error(text).find("unsupported checkpoint schema"),
              std::string::npos);
  }
  // Content after the sentinel.
  EXPECT_NE(parse_error(good + lines[1] + "\n")
                .find("content after end sentinel"),
            std::string::npos);
  // Empty file.
  EXPECT_NE(parse_error("").find("empty checkpoint"), std::string::npos);
  // A group index no fault list can reach.
  {
    std::string text = good;
    const std::size_t at = text.find("\"gi\":1");
    text.replace(at, 6, "\"gi\":400000");
    const std::string e = parse_error(text);
    EXPECT_NE(e.find("group index out of range"), std::string::npos) << e;
  }
  // A final whose id is not an open hard fault has no slot.
  {
    CheckpointData f = sample_checkpoint();
    f.state.next = PipelinePhase::S3Final;
    f.state.groups.clear();
    f.state.groups_done.clear();
    f.state.res.outcome[2] = FaultOutcome::Undetected;
    f.state.finals.resize(1);
    f.state.finals_done = {1};
    std::string text = serialize_checkpoint(f);
    const std::size_t at = text.find("\"id\":2");
    text.replace(at, 6, "\"id\":400000");
    const std::string e = parse_error(text);
    EXPECT_NE(e.find("is not an open hard fault"), std::string::npos) << e;
  }

  // The binding hash covers the circuit and options, not the contents: a
  // hash-matching checkpoint whose state does not fit the run is refused
  // before any phase runs.  The base is the pinned mid-s3.groups checkpoint
  // of small_world(39), whose one group line the cases edit.
  const std::unique_ptr<World> w = small_world(39);
  const CheckpointData pinned = read_checkpoint(FSCT_PINNED_CHECKPOINT);
  ASSERT_EQ(pinned.state.groups_done, std::vector<char>{1});
  const std::size_t open = open_hard_faults(pinned.state.res).front();
  const std::vector<
      std::pair<const char*, std::function<void(CheckpointData&)>>>
      cases = {
          {"group fault id out of range",
           [](CheckpointData& d) { d.state.groups[0].credited = {400000}; }},
          {"group fault id out of range",
           [](CheckpointData& d) {
             d.state.groups[0].detected = {400000};
             d.state.groups[0].seqs.resize(1);
           }},
          {"chain location outside",
           [open](CheckpointData& d) {
             for (ChainLocation& loc : d.state.res.info[open].locations) {
               loc.chain = 99;
             }
           }},
          {"chain location outside",
           [open](CheckpointData& d) {
             d.state.res.info[open].locations.back().segment = 1000;
           }},
          {"PODEM position beyond",
           [](CheckpointData& d) { d.state.podem_next = 1000000; }},
          {"sequence fault ids",
           [](CheckpointData& d) {
             d.state.res.s3_sequences.push_back(d.state.groups[0].seqs[0]);
             d.state.res.s3_sequence_fault.push_back(400000);
           }},
      };
  const std::string ck = ckpt_path("tampered.ckpt");
  for (const auto& [want, tamper] : cases) {
    CheckpointData d = pinned;
    tamper(d);
    write_checkpoint_atomic(ck, d);
    CheckpointOptions ro;
    ro.resume_path = ck;
    try {
      run_checkpointed_pipeline(*w->model, w->faults, base_opt(1), ro);
      ADD_FAILURE() << "resume accepted a checkpoint with a bad " << want;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("resume: checkpoint"), std::string::npos) << msg;
      EXPECT_NE(msg.find(want), std::string::npos) << msg;
    }
  }
}

// ---- pinned fsct-ckpt-v1 file ----------------------------------------------
// checkpoint_v1_s3groups.ckpt was written by an earlier build of this code:
// small_world(39), base_opt(1) with attribution on, stopped after the first
// step-3 group.  It must parse and rewrite byte for byte, and resuming it must
// end with the plain run's report, so checkpoints written before a change
// keep resuming after it.

TEST(Shard, PinnedV1CheckpointResumes) {
  std::ifstream in(FSCT_PINNED_CHECKPOINT, std::ios::binary);
  ASSERT_TRUE(in) << FSCT_PINNED_CHECKPOINT;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const CheckpointData pinned = parse_checkpoint(text, "pinned");
  EXPECT_EQ(serialize_checkpoint(pinned), text);
  EXPECT_EQ(pinned.state.next, PipelinePhase::S3Groups);
  EXPECT_FALSE(pinned.counters.empty());

  // The normalized report (attribution off: its top list carries wall time)
  // and, separately, the deterministic attribution table.
  const std::unique_ptr<World> w = small_world(39);
  for (const bool attr : {false, true}) {
    auto observed = [attr](ObsRegistry& reg) {
      if (attr) reg.request_attribution();
      PipelineOptions opt = base_opt(1);
      opt.obs = &reg;
      return opt;
    };
    ObsRegistry reg;
    const PipelineResult plain =
        run_fsct_pipeline(*w->model, w->faults, observed(reg));
    ObsRegistry rreg;
    CheckpointOptions ro;
    ro.resume_path = FSCT_PINNED_CHECKPOINT;
    const PipelineResult resumed =
        run_checkpointed_pipeline(*w->model, w->faults, observed(rreg), ro);
    EXPECT_EQ(diff_pipeline_results(plain, resumed), "");
    if (attr) {
      EXPECT_EQ(rreg.attribution_json(), reg.attribution_json());
    } else {
      EXPECT_EQ(report_of(rreg, resumed), report_of(reg, plain));
    }
  }
}

TEST(Shard, ResumeRefusesForeignCheckpoints) {
  const std::unique_ptr<World> w1 = small_world(101);
  const std::unique_ptr<World> w2 = small_world(202);
  const std::string ck = ckpt_path("foreign.ckpt");
  const PipelineOptions opt = base_opt(1);

  CheckpointOptions co;
  co.path = ck;
  co.stop_after_safepoints = 2;
  EXPECT_THROW(run_checkpointed_pipeline(*w1->model, w1->faults, opt, co),
               PipelineStopped);

  // A different circuit refuses the checkpoint...
  CheckpointOptions ro;
  ro.resume_path = ck;
  try {
    run_checkpointed_pipeline(*w2->model, w2->faults, opt, ro);
    ADD_FAILURE() << "resume accepted a foreign checkpoint";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("binding hash mismatch"),
              std::string::npos)
        << e.what();
  }
  // ...and so does the same circuit under a result-affecting option change.
  PipelineOptions changed = base_opt(1);
  changed.random_patterns += 1;
  EXPECT_THROW(run_checkpointed_pipeline(*w1->model, w1->faults, changed, ro),
               std::runtime_error);
  // Execution knobs are NOT binding: a resume at different jobs runs.
  const PipelineResult resumed =
      run_checkpointed_pipeline(*w1->model, w1->faults, base_opt(4), ro);
  const PipelineResult fresh =
      run_fsct_pipeline(*w1->model, w1->faults, base_opt(1));
  EXPECT_EQ(diff_pipeline_results(fresh, resumed), "");
}

TEST(Shard, BindingHashCoversResultAffectingOptionsOnly) {
  const std::unique_ptr<World> w = small_world(7);
  const PipelineOptions a = base_opt(1);
  PipelineOptions b = base_opt(4);
  b.simd_width = 256;
  EXPECT_EQ(checkpoint_binding_hash(*w->model, w->faults, a),
            checkpoint_binding_hash(*w->model, w->faults, b));
  PipelineOptions c = base_opt(1);
  c.random_patterns = 7;
  EXPECT_NE(checkpoint_binding_hash(*w->model, w->faults, a),
            checkpoint_binding_hash(*w->model, w->faults, c));
  PipelineOptions d = base_opt(1);
  d.dominance = false;
  EXPECT_NE(checkpoint_binding_hash(*w->model, w->faults, a),
            checkpoint_binding_hash(*w->model, w->faults, d));
  PipelineOptions e = base_opt(1);
  e.verify_easy = false;
  EXPECT_NE(checkpoint_binding_hash(*w->model, w->faults, a),
            checkpoint_binding_hash(*w->model, w->faults, e));
}

// ---- resume-from-every-interval sweep --------------------------------------
// Stop cooperatively at safe point k for every k until the run completes
// uninterrupted; each stop's checkpoint must round-trip the text format and
// resume to the bitwise uninterrupted result.  Jobs 1 keeps the safe-point
// sequence deterministic.

TEST(Shard, ResumeFromEverySafePointSweep) {
  const std::unique_ptr<World> w = small_world(33);
  const PipelineOptions opt = base_opt(1);
  const PipelineResult baseline = run_fsct_pipeline(*w->model, w->faults, opt);
  const std::string ck = ckpt_path("sweep.ckpt");

  int completed_at = -1;
  for (int k = 1; k < 10000; ++k) {
    CheckpointOptions co;
    co.path = ck;
    co.stop_after_safepoints = k;
    bool stopped = false;
    PipelineResult r;
    try {
      r = run_checkpointed_pipeline(*w->model, w->faults, opt, co);
    } catch (const PipelineStopped&) {
      stopped = true;
    }
    if (!stopped) {
      EXPECT_EQ(diff_pipeline_results(baseline, r), "")
          << "uninterrupted checkpointed run differs (k=" << k << ")";
      completed_at = k;
      break;
    }
    const CheckpointData cd = read_checkpoint(ck);
    const std::string text = serialize_checkpoint(cd);
    EXPECT_EQ(serialize_checkpoint(parse_checkpoint(text, "mem")), text)
        << "checkpoint at safe point " << k << " does not round-trip";
    CheckpointOptions ro;
    ro.resume_path = ck;
    const PipelineResult resumed =
        run_checkpointed_pipeline(*w->model, w->faults, opt, ro);
    EXPECT_EQ(diff_pipeline_results(baseline, resumed), "")
        << "resume from safe point " << k << " diverges";
    // A resumed run that stops at its own first safe point checkpoints a
    // phase no earlier than the one it resumed at, and that checkpoint
    // resumes to the same result too.
    CheckpointOptions rs = ro;
    rs.path = ckpt_path("sweep2.ckpt");
    rs.stop_after_safepoints = 1;
    try {
      run_checkpointed_pipeline(*w->model, w->faults, opt, rs);
      continue;  // resumed at `done`: no safe point is left
    } catch (const PipelineStopped&) {
    }
    EXPECT_GE(read_checkpoint(rs.path).state.next, cd.state.next) << k;
    CheckpointOptions ro2;
    ro2.resume_path = rs.path;
    EXPECT_EQ(diff_pipeline_results(
                  baseline,
                  run_checkpointed_pipeline(*w->model, w->faults, opt, ro2)),
              "")
        << "second resume from safe point " << k << " diverges";
  }
  // The loop must terminate by running out of safe points, and the sweep
  // must have actually exercised a meaningful number of them.
  ASSERT_GT(completed_at, 4) << "circuit too small to exercise the sweep";
}

}  // namespace
}  // namespace fsct
