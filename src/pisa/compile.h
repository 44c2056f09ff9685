// Data-plane compiler: decides which prefix of a sub-query's operator chain
// a PISA switch can execute and derives the match-action tables + PHV
// metadata that prefix occupies (paper §3.1.2-3.1.3).
//
// Rules encoded here:
//  * filter / filter_in / map compile to one match-action table each,
//    provided every expression is switch-compilable (no division by
//    non-powers-of-two, no payload scans, no metadata-less columns);
//  * distinct / reduce compile to one hash-index table plus d stateful
//    register tables (one per register in the collision chain);
//  * a threshold filter (`value > Th`) immediately following a reduce folds
//    into the reduce's table — no extra table (paper §3.3 "Input");
//  * once a reduce executes on the switch, only its folded filter may
//    follow: aggregates are per-key values that later operators would need
//    at end-of-window, which the switch cannot re-process in-band.
#pragma once

#include <cstdint>
#include <map>

#include "pisa/program.h"
#include "pisa/register.h"
#include "query/query.h"

namespace sonata::pisa {

// If ops[i] is a filter foldable into the reduce at ops[i-1], return its
// threshold; otherwise nullopt. Requires validated node schemas.
[[nodiscard]] std::optional<FoldedThreshold> foldable_threshold(const query::StreamNode& node,
                                                                std::size_t i);

// Largest k such that executing ops[0..k) on the switch is semantically
// possible (ignoring resource limits). Requires validated node schemas.
[[nodiscard]] std::size_t max_switch_prefix(const query::StreamNode& node);

// All semantically valid partition points: 0 (nothing on the switch) up to
// max_switch_prefix, excluding "inside" a reduce+folded-filter pair (a
// folded filter never stays behind alone on the stream processor side —
// partitioning between the pair is allowed and simply un-folds it).
[[nodiscard]] std::vector<std::size_t> partition_points(const query::StreamNode& node);

// Build the resource-accounting view for executing ops[0..partition) on the
// switch. `sizing` maps stateful op index -> register sizing (entries n,
// depth d) chosen by the planner. Requires validated node schemas.
[[nodiscard]] ProgramResources build_resources(const query::StreamNode& node,
                                               std::size_t partition,
                                               const std::map<std::size_t, RegisterSizing>& sizing,
                                               query::QueryId qid, int source_index, int level);

// Key width in bits for the stateful operator at ops[i] (whole tuple for
// distinct, the group-by keys for reduce).
[[nodiscard]] int stateful_key_bits(const query::StreamNode& node, std::size_t i);

}  // namespace sonata::pisa
