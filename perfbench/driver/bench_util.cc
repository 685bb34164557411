#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "service/protocol.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace perfbench {

double Now() { return mcm::telemetry::MonotonicSeconds(); }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::vector<double> ColumnMinima(const std::vector<std::vector<double>>& rows) {
  std::vector<double> minima = rows.empty() ? std::vector<double>{} : rows[0];
  for (const auto& row : rows) {
    for (std::size_t j = 0; j < minima.size(); ++j) {
      minima[j] = std::min(minima[j], row[j]);
    }
  }
  return minima;
}

double SumOfFastest(const std::vector<std::vector<double>>& rows) {
  double total = 0.0;
  for (double v : ColumnMinima(rows)) total += v;
  return total;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Outcome::Print() const {
  for (const std::string& error : errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

CounterMap SnapshotCounters() {
  CounterMap counters;
  for (const auto& [name, value] : mcm::telemetry::SnapshotMetrics().counters) {
    counters[name] = value;
  }
  return counters;
}

std::int64_t Delta(const CounterMap& after, const CounterMap& before,
                   const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

CounterMap DeltaMap(const CounterMap& after, const CounterMap& before) {
  CounterMap delta;
  for (const auto& [name, value] : after) {
    delta[name] = Delta(after, before, name);
  }
  return delta;
}

double Share(double a, double b) { return a + b > 0.0 ? a / (a + b) : 0.0; }

const char* const kWorkCounters[] = {
    "solver/set_domain_calls", "solver/propagations",   "solver/backtracks",
    "solver/degraded_solves",  "solver/sample_solves",  "solver/fix_solves",
    "hwsim/simulations",       "hwsim/oom_rejections",  "rl/episodes",
    "rl/policy_updates",       "rl/minibatches",        "search/random_samples",
    "search/sa_proposals",     "search/hillclimb_proposals",
    "pipeline/validate_cells", nullptr};

void CheckRoundsRepeat(const std::vector<CounterMap>& round_deltas,
                       Outcome& outcome) {
  for (std::size_t r = 1; r < round_deltas.size(); ++r) {
    for (const char* const* name = kWorkCounters; *name != nullptr; ++name) {
      const std::int64_t first = Delta(round_deltas[0], {}, *name);
      const std::int64_t now = Delta(round_deltas[r], {}, *name);
      if (first != now) {
        outcome.Fail(std::string("work counter ") + *name + " differs between "
                     "identical rounds: " + std::to_string(first) + " vs " +
                     std::to_string(now) + " in round " + std::to_string(r));
      }
    }
  }
}

namespace {

const mcm::telemetry::Histogram::Snapshot* FindHistogram(
    const mcm::telemetry::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [hist_name, hist] : snapshot.histograms) {
    if (hist_name == name) return &hist;
  }
  return nullptr;
}

}  // namespace

std::vector<std::int64_t> HistogramBuckets(const std::string& name) {
  const auto snapshot = mcm::telemetry::SnapshotMetrics();
  const auto* hist = FindHistogram(snapshot, name);
  return hist == nullptr ? std::vector<std::int64_t>{} : hist->buckets;
}

double BucketMedian(const std::vector<double>& bounds,
                    const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0 || counts.size() != bounds.size() + 1) return 0.0;
  const double half = 0.5 * total;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0.0 && seen + counts[i] >= half) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : lo;
      return lo + (hi - lo) * (half - seen) / counts[i];
    }
    seen += counts[i];
  }
  return 0.0;
}

double HistogramMedian(const std::string& name,
                       const std::vector<std::int64_t>& buckets) {
  const auto snapshot = mcm::telemetry::SnapshotMetrics();
  const auto* hist = FindHistogram(snapshot, name);
  if (hist == nullptr) return 0.0;
  return BucketMedian(hist->bounds,
                      std::vector<double>(buckets.begin(), buckets.end()));
}

bool ReadTraceSpans(const std::string& path, std::vector<Span>* spans) {
  spans->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream text;
  text << in.rdbuf();
  mcm::service::JsonValue root;
  std::string error;
  if (!mcm::service::JsonValue::Parse(text.str(), &root, &error)) return false;
  for (const auto& event : root.Get("traceEvents").array()) {
    Span span;
    span.name = event.Get("name").AsString();
    span.tid = static_cast<int>(event.Get("tid").AsNumber());
    span.start_us = event.Get("ts").AsNumber();
    span.dur_us = event.Get("dur").AsNumber();
    span.self_us = span.dur_us;
    spans->push_back(std::move(span));
  }
  // Spans on one thread nest (they are RAII scopes): walk each thread's
  // spans in start order, outer first, and charge each span's duration to
  // its innermost enclosing span.
  std::vector<std::size_t> order(spans->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = (*spans)[a];
    const Span& y = (*spans)[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<std::size_t> stack;
  int tid = -1;
  for (std::size_t index : order) {
    Span& span = (*spans)[index];
    if (span.tid != tid) {
      stack.clear();
      tid = span.tid;
    }
    while (!stack.empty()) {
      const Span& top = (*spans)[stack.back()];
      if (span.start_us + span.dur_us <= top.start_us + top.dur_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) (*spans)[stack.back()].self_us -= span.dur_us;
    stack.push_back(index);
  }
  return true;
}

std::vector<double> SpanDurationsMs(const std::vector<Span>& spans,
                                    const std::string& name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (span.name == name) durations.push_back(span.dur_us / 1000.0);
  }
  return durations;
}

double SpanSeconds(const std::vector<Span>& spans, const std::string& prefix,
                   const std::vector<Window>& windows, bool self_time) {
  double total_us = 0.0;
  for (const Span& span : spans) {
    if (span.name.rfind(prefix, 0) != 0) continue;
    const bool inside = std::any_of(
        windows.begin(), windows.end(), [&](const Window& w) {
          return span.start_us >= w.begin_us && span.start_us < w.end_us;
        });
    if (inside) total_us += self_time ? span.self_us : span.dur_us;
  }
  return total_us / 1e6;
}

Rounds RunRounds(bool trace, double seconds, int min_rounds,
                 const std::function<void(bool traced)>& round) {
  Rounds rounds;
  double elapsed = 0.0;
  double last = 0.0;
  CounterMap before = SnapshotCounters();
  for (int r = 0;; ++r) {
    const bool traced = trace && r % 2 == 1;
    if (r >= min_rounds) {
      const bool need_traced = trace && rounds.traced_s.empty();
      if (!need_traced && elapsed + last > seconds) break;
    }
    mcm::telemetry::EnableTracing(traced);
    const double cpu0 = CpuSeconds();
    const double t0 = Now();
    round(traced);
    const double t1 = Now();
    mcm::telemetry::EnableTracing(trace);
    last = t1 - t0;
    elapsed += last;
    const CounterMap after = SnapshotCounters();
    rounds.deltas.push_back(DeltaMap(after, before));
    before = after;
    if (traced) {
      if (rounds.traced_s.empty()) rounds.first_traced_delta = rounds.deltas.back();
      rounds.traced_s.push_back(last);
      rounds.traced_windows.push_back(Window{t0 * 1e6, t1 * 1e6});
      rounds.traced_cpu_s.push_back(CpuSeconds() - cpu0);
    } else {
      rounds.plain_s.push_back(last);
    }
  }
  return rounds;
}

mcm::EvalResult TimingCostModel::Evaluate(const mcm::Graph& graph,
                                          const mcm::Partition& partition) {
  MCM_TRACE_SPAN("perfbench/costmodel_evaluate");
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  return inner_->Evaluate(graph, partition);
}

}  // namespace perfbench
