// Output checker written from the paper's definitions (Section 3), kept
// independent of the program's own validity code (partition/ValidateStatic,
// the solver, the delta evaluator): a partition f maps every node to a chip
// in [0, C) and is valid when
//   Eq. (2)  f(u) <= f(v) for every edge u -> v  (acyclic chip dataflow);
//   Eq. (3)  the chips in use are exactly {0, ..., k-1}  (no skipped chip);
//   Eq. (4)  no chip pair a -> b has a direct dependency (an edge u -> v with
//            f(u) = a, f(v) = b) next to an indirect path a -> c -> ... -> b
//            through other chips;
//   memory   each chip's parameter bytes fit its SRAM.
#pragma once

#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "graph/graph.h"

namespace perfbench {

// Returns an empty string when `assignment` is a valid partition of `graph`
// onto `num_chips` chips of `mcm`, else a description of the first
// violation found.
std::string CheckPartition(const mcm::Graph& graph,
                           const std::vector<int>& assignment, int num_chips,
                           const mcm::McmConfig& mcm);

}  // namespace perfbench
