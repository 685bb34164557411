// The benchmark's workloads and the per-layer metrics they share.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

// Each workload builds its inputs from config.seed, runs its measured phase,
// checks every output, and returns the end-to-end metrics (config.trace
// false) or the per-layer metrics (config.trace true).
Outcome RunBertSearch(const RunConfig& config);
Outcome RunHillClimb(const RunConfig& config);
Outcome RunCorpusRl(const RunConfig& config);
Outcome RunServe(const RunConfig& config);

// Per-layer metrics, all reported by every traced run (0 where a workload
// does not reach the layer).  Counts and *_s sums are per round.
class Layers {
 public:
  Layers();
  void Set(const std::string& name, double value);
  // Fills the metrics that come straight from spans and counter deltas:
  // solver, hwsim, rl, costmodel ratios, nn.  `spans_rounds` is the number
  // of rounds the windows cover.
  void FillFromTrace(const std::vector<Span>& spans,
                     const std::vector<Window>& windows, int spans_rounds,
                     const CounterMap& round_delta);
  void AddTo(Outcome& outcome) const;

 private:
  std::vector<std::pair<std::string, std::string>> names_;  // name, unit
  std::map<std::string, double> values_;
};

// Search-trace entries of one round with reward above zero, over all.
double ValidRatio(const std::vector<std::vector<double>>& traces);

}  // namespace perfbench
