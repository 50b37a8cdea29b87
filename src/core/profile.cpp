#include "core/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>

#include "core/json.h"
#include "core/report.h"

namespace fsct {
namespace {

std::string fmt_us(double us) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

/// "U123/2 s-a-1" -> "U123" (the gate part of a fault name).
std::string gate_name_of(const std::string& fault_name) {
  std::string g = fault_name.substr(0, fault_name.find(' '));
  const std::size_t slash = g.find('/');
  if (slash != std::string::npos) g.resize(slash);
  return g;
}

bool row_rank(const ProfileFaultRow& a, const ProfileFaultRow& b) {
  return attr_ranks_before(a.work, static_cast<std::int64_t>(a.id), b.work,
                           static_cast<std::int64_t>(b.id));
}

void work_json(std::string& out, const std::array<std::uint64_t, kNumAttrs>& w) {
  out += "[";
  for (std::size_t a = 0; a < kNumAttrs; ++a) {
    if (a) out += ", ";
    out += std::to_string(w[a]);
  }
  out += "]";
}

}  // namespace

AttrContext make_attr_context(const Levelizer& lv,
                              std::span<const Fault> faults, bool dominance) {
  const Netlist& nl = lv.netlist();
  AttrContext ctx;
  ctx.fault_names.reserve(faults.size());
  ctx.rep.reserve(faults.size());
  ctx.gate.reserve(faults.size());
  ctx.level.reserve(faults.size());
  for (const Fault& f : faults) {
    ctx.fault_names.push_back(fault_name(nl, f));
    ctx.gate.push_back(static_cast<std::int32_t>(f.node));
    ctx.level.push_back(static_cast<std::int32_t>(lv.level(f.node)));
  }
  if (dominance) {
    const DominanceInfo dom = collapse_dominant(nl, faults);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      ctx.rep.push_back(static_cast<std::int32_t>(dom.rep[i]));
    }
  } else {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      ctx.rep.push_back(static_cast<std::int32_t>(i));
    }
  }
  return ctx;
}

ProfileDoc build_profile(const ObsRegistry& reg, const AttrContext& ctx,
                         const std::string& circuit, std::size_t top_k) {
  ProfileDoc doc;
  doc.circuit = circuit;
  doc.faults = reg.attribution_faults();

  // Active rows (any column charged), with identity attached.
  std::vector<ProfileFaultRow> rows;
  for (std::size_t f = 0; f < doc.faults; ++f) {
    ProfileFaultRow r;
    r.id = f;
    bool any = false;
    for (std::size_t a = 0; a < kNumAttrs; ++a) {
      r.work[a] = reg.attr_total(static_cast<Attr>(a), f);
      any |= r.work[a] != 0;
    }
    if (!any) continue;
    if (f < ctx.fault_names.size()) {
      r.name = ctx.fault_names[f];
      r.rep = ctx.rep[f];
      r.gate = ctx.gate[f];
      r.level = ctx.level[f];
    }
    rows.push_back(std::move(r));
  }
  doc.active = rows.size();

  // Gate / level rollups over the full active set (before truncation).
  std::map<std::int32_t, ProfileAgg> by_gate, by_level;
  for (const ProfileFaultRow& r : rows) {
    ProfileAgg& g = by_gate[r.gate];
    g.key = r.gate;
    if (g.name.empty() && !r.name.empty()) g.name = gate_name_of(r.name);
    ++g.faults;
    ProfileAgg& l = by_level[r.level];
    l.key = r.level;
    ++l.faults;
    for (std::size_t a = 0; a < kNumAttrs; ++a) {
      g.work[a] += r.work[a];
      l.work[a] += r.work[a];
    }
  }
  for (auto& [key, agg] : by_gate) doc.gates.push_back(std::move(agg));
  std::sort(doc.gates.begin(), doc.gates.end(),
            [](const ProfileAgg& a, const ProfileAgg& b) {
              return attr_ranks_before(a.work, a.key, b.work, b.key);
            });
  if (top_k && doc.gates.size() > top_k) doc.gates.resize(top_k);
  for (auto& [key, agg] : by_level) doc.levels.push_back(std::move(agg));

  std::sort(rows.begin(), rows.end(), row_rank);
  if (top_k && rows.size() > top_k) rows.resize(top_k);
  doc.top = std::move(rows);

  // Span-tree aggregation.  Spans on one tid never overlap as siblings (the
  // executor runs them sequentially), so ancestry is pure interval
  // containment: sort (tid, t0 asc, t1 desc) and keep a stack of open
  // ancestors.  Nodes merge by path; self = total minus direct-child total.
  struct Node {
    std::uint64_t count = 0;
    double total = 0, child = 0;
  };
  std::map<std::string, Node> nodes;
  auto spans = reg.trace_snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const ObsRegistry::SpanEvent& a, const ObsRegistry::SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.t0_us != b.t0_us) return a.t0_us < b.t0_us;
              return a.t1_us > b.t1_us;
            });
  struct Open {
    std::string path;
    double t1;
  };
  std::vector<Open> stack;
  unsigned cur_tid = 0;
  for (const auto& e : spans) {
    if (stack.empty() || e.tid != cur_tid) {
      stack.clear();
      cur_tid = e.tid;
    }
    while (!stack.empty() && e.t0_us >= stack.back().t1) stack.pop_back();
    const std::string path =
        stack.empty() ? e.name : stack.back().path + ";" + e.name;
    const double dur = e.t1_us - e.t0_us;
    Node& n = nodes[path];
    ++n.count;
    n.total += dur;
    if (!stack.empty()) nodes[stack.back().path].child += dur;
    stack.push_back({path, e.t1_us});
  }
  for (const auto& [path, n] : nodes) {
    ProfilePhase p;
    p.path = path;
    p.count = n.count;
    p.total_us = n.total;
    p.self_us = std::max(0.0, n.total - n.child);
    doc.phases.push_back(std::move(p));
  }
  return doc;
}

void write_profile_json(std::ostream& os, const ProfileDoc& doc) {
  std::string out = "{\n\"schema\": \"fsct-profile-v1\",\n";
  out += "\"circuit\": \"" + json_escape(doc.circuit) + "\",\n";
  out += "\"faults\": " + std::to_string(doc.faults) + ",\n";
  out += "\"active\": " + std::to_string(doc.active) + ",\n";
  out += "\"columns\": [";
  for (std::size_t a = 0; a < kNumAttrs; ++a) {
    if (a) out += ", ";
    out += "\"";
    out += attr_name(static_cast<Attr>(a));
    out += "\"";
  }
  out += "],\n\"top\": [";
  for (std::size_t i = 0; i < doc.top.size(); ++i) {
    const ProfileFaultRow& r = doc.top[i];
    out += i ? ",\n " : "\n ";
    out += "{\"id\": " + std::to_string(r.id) + ", \"name\": \"" +
           json_escape(r.name) + "\", \"rep\": " + std::to_string(r.rep) +
           ", \"gate\": " + std::to_string(r.gate) +
           ", \"level\": " + std::to_string(r.level) + ", \"work\": ";
    work_json(out, r.work);
    out += "}";
  }
  out += "],\n\"gates\": [";
  for (std::size_t i = 0; i < doc.gates.size(); ++i) {
    const ProfileAgg& g = doc.gates[i];
    out += i ? ",\n " : "\n ";
    out += "{\"gate\": " + std::to_string(g.key) + ", \"name\": \"" +
           json_escape(g.name) + "\", \"faults\": " +
           std::to_string(g.faults) + ", \"work\": ";
    work_json(out, g.work);
    out += "}";
  }
  out += "],\n\"levels\": [";
  for (std::size_t i = 0; i < doc.levels.size(); ++i) {
    const ProfileAgg& l = doc.levels[i];
    out += i ? ",\n " : "\n ";
    out += "{\"level\": " + std::to_string(l.key) +
           ", \"faults\": " + std::to_string(l.faults) + ", \"work\": ";
    work_json(out, l.work);
    out += "}";
  }
  out += "],\n\"phases\": [";
  for (std::size_t i = 0; i < doc.phases.size(); ++i) {
    const ProfilePhase& p = doc.phases[i];
    out += i ? ",\n " : "\n ";
    out += "{\"path\": \"" + json_escape(p.path) +
           "\", \"count\": " + std::to_string(p.count) +
           ", \"total_us\": " + fmt_us(p.total_us) +
           ", \"self_us\": " + fmt_us(p.self_us) + "}";
  }
  out += "]\n}\n";
  os << out;
}

void write_folded(std::ostream& os, const ProfileDoc& doc) {
  for (const ProfilePhase& p : doc.phases) {
    const std::uint64_t self =
        static_cast<std::uint64_t>(p.self_us + 0.5);
    if (self == 0) continue;
    os << p.path << " " << self << "\n";
  }
}

namespace {

std::array<std::uint64_t, kNumAttrs> parse_work(const JsonParser& p,
                                                const JVal& obj) {
  std::array<std::uint64_t, kNumAttrs> w{};
  const JVal* arr = obj.find("work");
  if (!arr || arr->kind != JVal::Arr) {
    p.fail_at(obj.line, "missing \"work\" array");
  }
  for (std::size_t a = 0; a < std::min(kNumAttrs, arr->arr.size()); ++a) {
    if (arr->arr[a].kind != JVal::Num) {
      p.fail_at(arr->arr[a].line, "\"work\" entries must be numbers");
    }
    w[a] = static_cast<std::uint64_t>(arr->arr[a].num);
  }
  return w;
}

ProfileFaultRow parse_row(const JsonParser& p, const JVal& obj) {
  ProfileFaultRow r;
  r.id = static_cast<std::size_t>(json_num(p, obj, "id", 0, true));
  r.name = json_str(p, obj, "name");
  r.rep = static_cast<std::int32_t>(json_num(p, obj, "rep", -1));
  r.gate = static_cast<std::int32_t>(json_num(p, obj, "gate", -1));
  r.level = static_cast<std::int32_t>(json_num(p, obj, "level", -1));
  r.work = parse_work(p, obj);
  return r;
}

}  // namespace

ProfileDoc parse_profile_json(const std::string& text,
                              const std::string& name) {
  JsonParser p(text, name);
  const JVal root = p.parse();
  if (root.kind != JVal::Obj) p.fail_at(root.line, "expected a JSON object");
  const std::string schema = json_str(p, root, "schema");
  ProfileDoc doc;
  if (schema == "fsct-profile-v1") {
    doc.circuit = json_str(p, root, "circuit");
    doc.faults = static_cast<std::size_t>(json_num(p, root, "faults"));
    doc.active = static_cast<std::size_t>(json_num(p, root, "active"));
    if (const JVal* top = root.find("top")) {
      for (const JVal& e : top->arr) doc.top.push_back(parse_row(p, e));
    }
    if (const JVal* gates = root.find("gates")) {
      for (const JVal& e : gates->arr) {
        ProfileAgg g;
        g.key = static_cast<std::int32_t>(json_num(p, e, "gate", -1, true));
        g.name = json_str(p, e, "name");
        g.faults = static_cast<std::uint64_t>(json_num(p, e, "faults"));
        g.work = parse_work(p, e);
        doc.gates.push_back(std::move(g));
      }
    }
    if (const JVal* levels = root.find("levels")) {
      for (const JVal& e : levels->arr) {
        ProfileAgg l;
        l.key = static_cast<std::int32_t>(json_num(p, e, "level", -1, true));
        l.faults = static_cast<std::uint64_t>(json_num(p, e, "faults"));
        l.work = parse_work(p, e);
        doc.levels.push_back(std::move(l));
      }
    }
    if (const JVal* phases = root.find("phases")) {
      for (const JVal& e : phases->arr) {
        ProfilePhase ph;
        ph.path = json_str(p, e, "path");
        ph.count = static_cast<std::uint64_t>(json_num(p, e, "count"));
        ph.total_us = json_num(p, e, "total_us");
        ph.self_us = json_num(p, e, "self_us");
        doc.phases.push_back(std::move(ph));
      }
    }
    return doc;
  }
  if (schema == "fsct-run-report-v2") {
    const JVal* attr = root.find("attribution");
    if (!attr || attr->kind != JVal::Obj) {
      p.fail_at(root.line, "run report has no \"attribution\" section");
    }
    const JVal* enabled = attr->find("enabled");
    if (!enabled || enabled->kind != JVal::Bool || !enabled->b) {
      p.fail_at(attr->line,
                "attribution was disabled in this run "
                "(re-run with --profile or --attribution)");
    }
    doc.faults = static_cast<std::size_t>(json_num(p, *attr, "faults"));
    doc.active = static_cast<std::size_t>(json_num(p, *attr, "active"));
    if (const JVal* top = attr->find("top")) {
      for (const JVal& e : top->arr) doc.top.push_back(parse_row(p, e));
    }
    return doc;
  }
  p.fail_at(root.line,
            "unsupported schema \"" + schema +
                "\" (expected fsct-profile-v1 or fsct-run-report-v2)");
}

void print_profile(std::ostream& os, const ProfileDoc& doc,
                   std::size_t top_k) {
  os << "profile";
  if (!doc.circuit.empty()) os << " of " << doc.circuit;
  os << ": " << doc.faults << " fault ids, " << doc.active
     << " with attributed work\n\n";

  os << "hardest faults";
  if (top_k && doc.top.size() >= top_k) os << " (top " << top_k << ")";
  os << ":\n";
  print_hotspot_header(os);
  std::size_t shown = 0;
  for (const ProfileFaultRow& r : doc.top) {
    if (top_k && shown++ >= top_k) break;
    HotspotRow h;
    h.id = r.id;
    h.name = r.name;
    h.level = r.level;
    h.podem_calls = r.work[static_cast<std::size_t>(Attr::PodemCalls)];
    h.decisions = r.work[static_cast<std::size_t>(Attr::PodemDecisions)];
    h.backtracks = r.work[static_cast<std::size_t>(Attr::PodemBacktracks)];
    h.seq_cycles = r.work[static_cast<std::size_t>(Attr::SeqCycles)];
    h.credits = r.work[static_cast<std::size_t>(Attr::CreditEvents)];
    h.wall_ms =
        static_cast<double>(r.work[static_cast<std::size_t>(Attr::WallNanos)]) /
        1e6;
    print_hotspot_row(os, h);
  }

  if (!doc.gates.empty()) {
    os << "\nhottest gates:\n";
    std::size_t n = 0;
    for (const ProfileAgg& g : doc.gates) {
      if (top_k && n++ >= top_k) break;
      char buf[160];
      std::snprintf(
          buf, sizeof buf,
          "  %-16s gate=%d faults=%llu decisions=%llu wall=%.2fms\n",
          g.name.empty() ? "(gate)" : g.name.c_str(), g.key,
          static_cast<unsigned long long>(g.faults),
          static_cast<unsigned long long>(
              g.work[static_cast<std::size_t>(Attr::PodemDecisions)]),
          static_cast<double>(
              g.work[static_cast<std::size_t>(Attr::WallNanos)]) /
              1e6);
      os << buf;
    }
  }

  if (!doc.levels.empty()) {
    os << "\nactivity by level:\n";
    for (const ProfileAgg& l : doc.levels) {
      char buf[160];
      std::snprintf(
          buf, sizeof buf,
          "  level %-4d faults=%-6llu seq_cycles=%-10llu wall=%.2fms\n",
          l.key, static_cast<unsigned long long>(l.faults),
          static_cast<unsigned long long>(
              l.work[static_cast<std::size_t>(Attr::SeqCycles)]),
          static_cast<double>(
              l.work[static_cast<std::size_t>(Attr::WallNanos)]) /
              1e6);
      os << buf;
    }
  }

  if (!doc.phases.empty()) {
    os << "\nphases (self / total):\n";
    for (const ProfilePhase& ph : doc.phases) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "  %-40s count=%-6llu %10.3fms %10.3fms\n",
                    ph.path.c_str(),
                    static_cast<unsigned long long>(ph.count),
                    ph.self_us / 1e3, ph.total_us / 1e3);
      os << buf;
    }
  }
}

}  // namespace fsct
