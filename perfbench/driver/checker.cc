#include "checker.h"

#include <cstdint>

namespace perfbench {

std::string CheckPartition(const mcm::Graph& graph,
                           const std::vector<int>& assignment, int num_chips,
                           const mcm::McmConfig& mcm) {
  const int n = graph.NumNodes();
  if (static_cast<int>(assignment.size()) != n) {
    return "assignment has " + std::to_string(assignment.size()) +
           " entries for " + std::to_string(n) + " nodes";
  }
  if (num_chips < 1 || num_chips > 64) {
    return "chip count " + std::to_string(num_chips) + " out of range";
  }
  for (int v = 0; v < n; ++v) {
    const int chip = assignment[static_cast<std::size_t>(v)];
    if (chip < 0 || chip >= num_chips) {
      return "node " + std::to_string(v) + " on chip " + std::to_string(chip);
    }
  }

  // Eq. (2) and the direct chip dependencies it leaves.
  std::vector<std::uint64_t> direct(static_cast<std::size_t>(num_chips), 0);
  for (const mcm::Edge& e : graph.edges()) {
    const int a = assignment[static_cast<std::size_t>(e.src)];
    const int b = assignment[static_cast<std::size_t>(e.dst)];
    if (a > b) {
      return "Eq. (2): edge " + std::to_string(e.src) + "->" +
             std::to_string(e.dst) + " goes from chip " + std::to_string(a) +
             " back to chip " + std::to_string(b);
    }
    if (a != b) direct[static_cast<std::size_t>(a)] |= 1ULL << b;
  }

  // Eq. (3): used chips form a prefix.
  std::uint64_t used = 0;
  for (int chip : assignment) used |= 1ULL << chip;
  const int used_count = __builtin_popcountll(used);
  const std::uint64_t prefix =
      used_count >= 64 ? ~0ULL : (1ULL << used_count) - 1;
  if (used != prefix) {
    return "Eq. (3): " + std::to_string(used_count) +
           " chips in use are not chips 0.." + std::to_string(used_count - 1);
  }

  // Eq. (4).  By Eq. (2) every dependency goes to a higher chip, so
  // reachability can be built from the highest chip down.  reach[a] holds
  // the chips reachable from a by one or more dependencies; a direct a -> b
  // is forbidden when b is also reachable through some other successor c.
  std::vector<std::uint64_t> reach(static_cast<std::size_t>(num_chips), 0);
  for (int a = num_chips - 1; a >= 0; --a) {
    std::uint64_t through_others = 0;
    for (int c = a + 1; c < num_chips; ++c) {
      if ((direct[static_cast<std::size_t>(a)] >> c) & 1ULL) {
        through_others |= reach[static_cast<std::size_t>(c)];
      }
    }
    const std::uint64_t clash =
        direct[static_cast<std::size_t>(a)] & through_others;
    if (clash != 0) {
      return "Eq. (4): chip " + std::to_string(a) + " feeds chip " +
             std::to_string(__builtin_ctzll(clash)) +
             " both directly and through another chip";
    }
    reach[static_cast<std::size_t>(a)] =
        direct[static_cast<std::size_t>(a)] | through_others;
  }

  // Memory: resident parameters per chip.
  std::vector<double> params(static_cast<std::size_t>(num_chips), 0.0);
  for (int v = 0; v < n; ++v) {
    params[static_cast<std::size_t>(assignment[static_cast<std::size_t>(v)])] +=
        graph.node(v).param_bytes;
  }
  for (int chip = 0; chip < num_chips; ++chip) {
    if (params[static_cast<std::size_t>(chip)] > mcm.sram_bytes_per_chip) {
      return "memory: chip " + std::to_string(chip) + " holds " +
             std::to_string(params[static_cast<std::size_t>(chip)]) +
             " parameter bytes, over its " +
             std::to_string(mcm.sram_bytes_per_chip) + "-byte SRAM";
    }
  }
  return "";
}

}  // namespace perfbench
