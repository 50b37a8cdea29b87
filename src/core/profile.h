// Hotspot profiler over the per-fault work-attribution ledger and the trace
// span tree.
//
// build_profile turns a finished run's ObsRegistry into a ProfileDoc: the
// top-K hardest faults (ranked by deterministic work: PODEM decisions, then
// resolved sequential cycles, then fault id; wall is shown, never ranked),
// per-gate and per-level activity rollups (through AttrContext, which maps
// fault ids to gates/levels/dominance representatives), and a per-phase
// self/total aggregation of the recorded spans.  The document serializes as
// versioned `fsct-profile-v1` JSON, as a folded-stack flamegraph ("path;leaf
// self_us" lines, one per stack, the format flamegraph.pl and speedscope
// ingest), and as a human table (`fsct profile`).  parse_profile_json
// re-reads a profile document — or the attribution section of a
// `fsct-run-report-v2` — so saved reports can be re-ranked offline.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/obs.h"
#include "fault/fault.h"
#include "netlist/levelize.h"

namespace fsct {

/// One profiled fault: its identity plus the full attribution row
/// (kNumAttrs columns in Attr order; WallNanos last).
struct ProfileFaultRow {
  std::size_t id = 0;
  std::string name;
  std::int32_t rep = -1;    ///< dominance representative fault id
  std::int32_t gate = -1;   ///< owning gate NodeId
  std::int32_t level = -1;  ///< owning gate's logic level
  std::array<std::uint64_t, kNumAttrs> work{};
};

/// Activity rolled up by gate or by level.
struct ProfileAgg {
  std::int32_t key = -1;       ///< gate NodeId / level number
  std::string name;            ///< gate net name (empty for levels)
  std::uint64_t faults = 0;    ///< distinct fault ids charged under this key
  std::array<std::uint64_t, kNumAttrs> work{};
};

/// One node of the span-tree aggregation: spans with the same ancestry path
/// are merged; self excludes time covered by direct children.
struct ProfilePhase {
  std::string path;  ///< ';'-joined span names root-first, e.g. "step3.groups;s3.group"
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

struct ProfileDoc {
  std::string circuit;
  std::size_t faults = 0;            ///< ledger size (total fault ids)
  std::size_t active = 0;            ///< fault ids with any charge
  std::vector<ProfileFaultRow> top;  ///< ranked hotlist, hardest first
  std::vector<ProfileAgg> gates;     ///< nonzero gates, same ranking
  std::vector<ProfileAgg> levels;    ///< per level, ascending
  std::vector<ProfilePhase> phases;  ///< span tree, path order
};

/// Builds the fault-id naming sidecar from the model: names via fault_name,
/// gate = the fault's node, level from the levelizer, and the dominance
/// representative via DominanceInfo::rep (identity when `dominance` is off —
/// matching what the pipeline targeted).
AttrContext make_attr_context(const Levelizer& lv, std::span<const Fault> faults,
                              bool dominance);

/// Snapshots `reg`'s attribution ledger + trace spans into a ProfileDoc.
/// `top_k` bounds the fault hotlist and the per-gate rollup (0 = all).
ProfileDoc build_profile(const ObsRegistry& reg, const AttrContext& ctx,
                         const std::string& circuit, std::size_t top_k = 20);

/// Versioned machine-readable form (`"schema": "fsct-profile-v1"`).
void write_profile_json(std::ostream& os, const ProfileDoc& doc);

/// Folded-stack flamegraph export: one "a;b;c self_us" line per phase node
/// with nonzero self time (flamegraph.pl / speedscope format).
void write_folded(std::ostream& os, const ProfileDoc& doc);

/// Parses `fsct-profile-v1` JSON, or the `attribution` section of a
/// `fsct-run-report-v2`, back into a ProfileDoc.  Throws JsonParseError
/// (with "<name>: line N:" anchoring) on malformed or unsupported input.
ProfileDoc parse_profile_json(const std::string& text, const std::string& name);

/// Human-readable rendering: the hardest-fault table, the top gates, and the
/// phase self/total breakdown.
void print_profile(std::ostream& os, const ProfileDoc& doc,
                   std::size_t top_k = 20);

}  // namespace fsct
