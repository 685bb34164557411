// Shared pieces of the benchmark driver: clocks and order statistics, the
// result record every workload fills, counter snapshots, a reader that turns
// a Chrome trace file into per-span statistics, and the timing CostModel
// decorator the driver passes to the program in place of the model.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"

namespace perfbench {

// Seconds on the program's trace clock (telemetry::MonotonicSeconds), so
// driver timestamps line up with span timestamps.
double Now();

// Process-wide CPU seconds (user + system) and peak resident set (MB).
double CpuSeconds();
double PeakRssMb();

// Order statistics over unsorted samples; 0 for an empty input.
// Percentile uses linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
// Each column's minimum across rows (rows of equal length, e.g. the
// operation times of identical rounds), and the sum of those minima; empty
// or 0 for no rows.
std::vector<double> ColumnMinima(const std::vector<std::vector<double>>& rows);
double SumOfFastest(const std::vector<std::vector<double>>& rows);
// Geometric mean of positive values; 0 for an empty input.
double GeoMean(const std::vector<double>& values);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // Scratch files (traces, reports, sockets).
  std::string mcmpart;   // The mcmpart CLI binary (serve workload).
  double start_s = 0.0;  // Now() at process start.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports.  A failed check clears `correct`; `errors` says why.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit);
  // Prints errors to stderr and the result object as the last stdout line.
  void Print() const;
};

// Current value of every registered counter.
using CounterMap = std::map<std::string, std::int64_t>;
CounterMap SnapshotCounters();
std::int64_t Delta(const CounterMap& after, const CounterMap& before,
                   const std::string& name);
// Ratio a / (a + b), or 0 when both are 0.
double Share(double a, double b);

// Counters whose per-round deltas must repeat exactly: the program's work
// is deterministic for fixed inputs at any thread count.
extern const char* const kWorkCounters[];
// Appends an error to `outcome` for every work counter whose delta over a
// round differs from the first round's.
void CheckRoundsRepeat(const std::vector<CounterMap>& round_deltas,
                       Outcome& outcome);
CounterMap DeltaMap(const CounterMap& after, const CounterMap& before);

// Median of bucketed observations (counts[i] in (bounds[i-1], bounds[i]],
// the last bucket unbounded), interpolated within its bucket; 0 when none.
double BucketMedian(const std::vector<double>& bounds,
                    const std::vector<double>& counts);
// BucketMedian of bucket counts of a registered histogram, e.g. the
// difference of two HistogramBuckets snapshots.
double HistogramMedian(const std::string& name,
                       const std::vector<std::int64_t>& buckets);
std::vector<std::int64_t> HistogramBuckets(const std::string& name);

// One complete span of a trace, with its self time (duration minus the part
// its child spans on the same thread cover).
struct Span {
  std::string name;
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  double self_us = 0.0;
};
// Reads a Chrome trace-event file written by telemetry::WriteTrace.
// Returns false (and leaves `spans` empty) when it cannot be read.
bool ReadTraceSpans(const std::string& path, std::vector<Span>* spans);

struct Window {
  double begin_us = 0.0;
  double end_us = 0.0;
};
// Durations (ms) of spans named `name`; sums of durations or self times (s)
// of spans whose name starts with `prefix` and that start inside a window.
std::vector<double> SpanDurationsMs(const std::vector<Span>& spans,
                                    const std::string& name);
double SpanSeconds(const std::vector<Span>& spans, const std::string& prefix,
                   const std::vector<Window>& windows, bool self_time);

// Runs identical rounds of a phase of a workload's measured phase.  A phase
// makes at least `min_rounds` rounds and starts another while one more
// round of the last round's length still fits in `seconds`.  In trace mode
// rounds alternate untraced / traced (at least one of each), so the
// per-layer numbers and the trace overhead come from the same process.
struct Rounds {
  std::vector<double> plain_s;   // Wall time of each untraced round.
  std::vector<double> traced_s;  // Wall time of each traced round.
  std::vector<double> traced_cpu_s;  // Process CPU time of each traced round.
  std::vector<Window> traced_windows;
  std::vector<CounterMap> deltas;  // Counter deltas of every round.
  CounterMap first_traced_delta;
};
Rounds RunRounds(bool trace, double seconds, int min_rounds,
                 const std::function<void(bool traced)>& round);

// Timing decorator for the cost model.  Counts every Evaluate that reaches
// the model, records a perfbench/costmodel_evaluate span per call when
// tracing is on, and forwards AsAnalytical so the program's incremental
// scoring path stays exactly as it is without the decorator.
class TimingCostModel final : public mcm::CostModel {
 public:
  explicit TimingCostModel(mcm::CostModel& inner) : inner_(&inner) {}

  mcm::EvalResult Evaluate(const mcm::Graph& graph,
                           const mcm::Partition& partition) override;
  std::string name() const override { return inner_->name(); }
  const mcm::AnalyticalCostModel* AsAnalytical() const override {
    return inner_->AsAnalytical();
  }

  std::int64_t evaluations() const { return evaluations_.load(); }

 private:
  mcm::CostModel* inner_;
  std::atomic<std::int64_t> evaluations_{0};
};

}  // namespace perfbench
