#include "core/profile.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bench_circuits/paper_examples.h"
#include "core/json.h"
#include "core/pipeline.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

struct Built {
  Netlist nl;
  ScanDesign design;
  Levelizer lv;
  ScanModeModel model;
  std::vector<Fault> faults;
  explicit Built(Netlist n)
      : nl(std::move(n)),
        design(run_tpi(nl)),
        lv(nl),
        model(lv, design),
        faults(collapsed_fault_list(nl)) {}
};

TEST(Profile, AttrContextNamesGatesLevelsAndReps) {
  Built b(small_pipeline());
  const AttrContext plain = make_attr_context(b.lv, b.faults, false);
  ASSERT_EQ(plain.fault_names.size(), b.faults.size());
  for (std::size_t i = 0; i < b.faults.size(); ++i) {
    EXPECT_EQ(plain.fault_names[i], fault_name(b.nl, b.faults[i]));
    EXPECT_EQ(plain.gate[i], static_cast<std::int32_t>(b.faults[i].node));
    EXPECT_EQ(plain.level[i],
              static_cast<std::int32_t>(b.lv.level(b.faults[i].node)));
    // Without dominance every fault represents itself.
    EXPECT_EQ(plain.rep[i], static_cast<std::int32_t>(i));
  }
  const AttrContext dom = make_attr_context(b.lv, b.faults, true);
  const DominanceInfo info = collapse_dominant(b.nl, b.faults);
  for (std::size_t i = 0; i < b.faults.size(); ++i) {
    EXPECT_EQ(dom.rep[i], static_cast<std::int32_t>(info.rep[i])) << i;
  }
}

// Builds a 4-fault synthetic ledger with a known ranking (wall never ranks):
//   fault 0: 50 decisions            -> rank 1
//   fault 3: 10 decisions            -> rank 2
//   fault 2: 1 decision, most wall   -> rank 3
//   fault 1: cycles only             -> rank 4
void charge_synthetic(ObsRegistry& reg) {
  reg.request_attribution();
  reg.init_attribution(4);
  reg.charge(Attr::WallNanos, 2, 5000);
  reg.charge(Attr::PodemDecisions, 2, 1);
  reg.charge(Attr::PodemDecisions, 0, 50);
  reg.charge(Attr::PodemDecisions, 3, 10);
  reg.charge(Attr::SeqCycles, 1, 7);
  reg.charge(Attr::SeqSims, 1, 1);
}

AttrContext synthetic_ctx() {
  AttrContext ctx;
  ctx.fault_names = {"a s-a-0", "a s-a-1", "b/1 s-a-0", "c s-a-1"};
  ctx.rep = {0, 0, 2, 3};
  ctx.gate = {7, 7, 9, 11};  // faults 0 and 1 share a gate
  ctx.level = {1, 1, 2, 2};
  return ctx;
}

TEST(Profile, RanksFaultsAndRollsUpGatesAndLevels) {
  ObsRegistry reg;
  charge_synthetic(reg);
  const ProfileDoc doc = build_profile(reg, synthetic_ctx(), "tiny", 3);

  EXPECT_EQ(doc.circuit, "tiny");
  EXPECT_EQ(doc.faults, 4u);
  EXPECT_EQ(doc.active, 4u);
  ASSERT_EQ(doc.top.size(), 3u);  // top_k truncates the hotlist
  EXPECT_EQ(doc.top[0].id, 0u);   // decisions rank
  EXPECT_EQ(doc.top[1].id, 3u);
  EXPECT_EQ(doc.top[2].id, 2u);   // the most wall does not
  EXPECT_EQ(doc.top[2].name, "b/1 s-a-0");
  EXPECT_EQ(doc.top[2].gate, 9);
  EXPECT_EQ(doc.top[2].level, 2);

  // Gate 7 carries faults 0 and 1 merged; the gate name drops the s-a part.
  const ProfileAgg* g7 = nullptr;
  for (const ProfileAgg& g : doc.gates) {
    if (g.key == 7) g7 = &g;
  }
  ASSERT_NE(g7, nullptr);
  EXPECT_EQ(g7->faults, 2u);
  EXPECT_EQ(g7->name, "a");
  EXPECT_EQ(g7->work[static_cast<std::size_t>(Attr::PodemDecisions)], 50u);
  EXPECT_EQ(g7->work[static_cast<std::size_t>(Attr::SeqCycles)], 7u);

  ASSERT_EQ(doc.levels.size(), 2u);  // ascending by level
  EXPECT_EQ(doc.levels[0].key, 1);
  EXPECT_EQ(doc.levels[0].faults, 2u);
  EXPECT_EQ(doc.levels[1].key, 2);
  EXPECT_EQ(doc.levels[1].faults, 2u);
}

TEST(Profile, SpanTreeNestsByContainmentAndComputesSelf) {
  ObsRegistry reg;
  reg.enable_trace();
  {
    const ObsSpan root(&reg, "phase.outer");
    { const ObsSpan child(&reg, "inner"); }
    { const ObsSpan child(&reg, "inner"); }
  }
  const ProfileDoc doc = build_profile(reg, AttrContext{}, "spans", 0);
  const ProfilePhase* outer = nullptr;
  const ProfilePhase* inner = nullptr;
  for (const ProfilePhase& p : doc.phases) {
    if (p.path == "phase.outer") outer = &p;
    if (p.path == "phase.outer;inner") inner = &p;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 2u);  // same-path spans merge
  EXPECT_GE(outer->total_us, inner->total_us);
  // Self excludes the children; both stay non-negative.
  EXPECT_GE(outer->self_us, 0.0);
  EXPECT_LE(outer->self_us, outer->total_us);
  EXPECT_DOUBLE_EQ(inner->self_us, inner->total_us);  // leaf
}

TEST(Profile, JsonRoundTripsThroughParser) {
  ObsRegistry reg;
  charge_synthetic(reg);
  const ProfileDoc doc = build_profile(reg, synthetic_ctx(), "tiny", 0);
  std::ostringstream os;
  write_profile_json(os, doc);
  const ProfileDoc back = parse_profile_json(os.str(), "p.json");
  EXPECT_EQ(back.circuit, doc.circuit);
  EXPECT_EQ(back.faults, doc.faults);
  EXPECT_EQ(back.active, doc.active);
  ASSERT_EQ(back.top.size(), doc.top.size());
  for (std::size_t i = 0; i < doc.top.size(); ++i) {
    EXPECT_EQ(back.top[i].id, doc.top[i].id);
    EXPECT_EQ(back.top[i].name, doc.top[i].name);
    EXPECT_EQ(back.top[i].rep, doc.top[i].rep);
    EXPECT_EQ(back.top[i].gate, doc.top[i].gate);
    EXPECT_EQ(back.top[i].level, doc.top[i].level);
    EXPECT_EQ(back.top[i].work, doc.top[i].work);
  }
  ASSERT_EQ(back.gates.size(), doc.gates.size());
  ASSERT_EQ(back.levels.size(), doc.levels.size());
  EXPECT_EQ(back.gates[0].work, doc.gates[0].work);
}

TEST(Profile, ParsesRunReportAttributionSection) {
  Built b(small_pipeline());
  ObsRegistry reg;
  reg.request_attribution();
  PipelineOptions opt;
  opt.jobs = 2;
  opt.obs = &reg;
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults, opt);
  const AttrContext ctx = make_attr_context(b.lv, b.faults, true);
  std::ostringstream os;
  reg.write_run_report(os, r, &ctx);
  const ProfileDoc doc = parse_profile_json(os.str(), "report.json");
  EXPECT_EQ(doc.faults, b.faults.size());
  EXPECT_GT(doc.active, 0u);
  ASSERT_FALSE(doc.top.empty());
  EXPECT_FALSE(doc.top[0].name.empty());
}

TEST(Profile, RejectsDisabledReportAndUnknownSchema) {
  Built b(small_pipeline());
  ObsRegistry reg;
  PipelineOptions opt;
  opt.obs = &reg;
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults, opt);
  std::ostringstream os;
  reg.write_run_report(os, r);  // attribution never requested
  EXPECT_THROW(parse_profile_json(os.str(), "r.json"), JsonParseError);
  EXPECT_THROW(parse_profile_json("{\"schema\": \"bogus-v9\"}", "b.json"),
               JsonParseError);
  EXPECT_THROW(parse_profile_json("[1, 2]", "a.json"), JsonParseError);
}

TEST(Profile, FoldedStacksAndTableRender) {
  ObsRegistry reg;
  reg.enable_trace();
  charge_synthetic(reg);
  {
    const ObsSpan root(&reg, "outer");
    const ObsSpan child(&reg, "inner");
  }
  const ProfileDoc doc = build_profile(reg, synthetic_ctx(), "tiny", 10);
  std::ostringstream folded;
  write_folded(folded, doc);
  // Each folded line is "path value"; only printable content, no JSON.
  for (char c : folded.str()) {
    EXPECT_TRUE(c == '\n' || c >= ' ') << static_cast<int>(c);
  }
  std::ostringstream table;
  print_profile(table, doc, 10);
  const std::string t = table.str();
  EXPECT_NE(t.find("hardest faults"), std::string::npos);
  EXPECT_NE(t.find("b/1 s-a-0"), std::string::npos);
  EXPECT_NE(t.find("hottest gates"), std::string::npos);
  EXPECT_NE(t.find("activity by level"), std::string::npos);
}

}  // namespace
}  // namespace fsct
