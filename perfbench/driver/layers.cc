#include <stdexcept>

#include "workloads.h"

namespace perfbench {

Layers::Layers()
    : names_{
          {"solver.sample_ms_p50", "ms"},
          {"solver.sample_ms_p90", "ms"},
          {"solver.self_s", "s"},
          {"solver.set_domain_calls", "count"},
          {"solver.propagations", "count"},
          {"solver.backtracks", "count"},
          {"solver.degraded_solves", "count"},
          {"solver.fix_ms_p50", "ms"},
          {"search.random_s", "s"},
          {"search.sa_s", "s"},
          {"search.hillclimb_s", "s"},
          {"search.rl_s", "s"},
          {"search.hc_proposal_us", "us"},
          {"search.valid_ratio", "ratio"},
          {"costmodel.evaluate_us_p50", "us"},
          {"costmodel.evaluations", "count"},
          {"costmodel.eval_cache_hit_ratio", "ratio"},
          {"costmodel.delta_fast_ratio", "ratio"},
          {"hwsim.evaluate_us_p50", "us"},
          {"hwsim.oom_rejections", "count"},
          {"rl.update_ms_p50", "ms"},
          {"rl.update_self_s", "s"},
          {"rl.collect_ms_p50", "ms"},
          {"rl.policy_updates", "count"},
          {"rl.episodes", "count"},
          {"nn.embed_cache_hit_ratio", "ratio"},
          {"pipeline.train_s", "s"},
          {"pipeline.validate_s", "s"},
          {"runtime.queue_wait_us_p50", "us"},
          {"runtime.busy_fraction", "ratio"},
          {"rl.context_ms", "ms"},
          {"rl.baseline_ms", "ms"},
          {"service.execute_ms_p50", "ms"},
          {"service.hit_p50_ms", "ms"},
          {"service.miss_p90_ms", "ms"},
          {"service.daemon_cpu_s", "s"},
          {"service.cache_hit_ratio", "ratio"},
          {"service.mean_batch_size", "count"},
          {"service.rejected", "count"},
          {"telemetry.trace_overhead", "ratio"},
      } {
  for (const auto& [name, unit] : names_) values_[name] = 0.0;
}

void Layers::Set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("unknown per-layer metric " + name);
  }
  it->second = value;
}

void Layers::FillFromTrace(const std::vector<Span>& spans,
                           const std::vector<Window>& windows,
                           int spans_rounds, const CounterMap& round_delta) {
  const double rounds = spans_rounds > 0 ? spans_rounds : 1;
  const auto count = [&](const std::string& counter) {
    return static_cast<double>(Delta(round_delta, {}, counter));
  };
  const std::vector<double> sample_ms = SpanDurationsMs(spans, "solver/sample");
  Set("solver.sample_ms_p50", Median(sample_ms));
  Set("solver.sample_ms_p90", Percentile(sample_ms, 0.9));
  Set("solver.self_s", SpanSeconds(spans, "solver/", windows, true) / rounds);
  Set("solver.set_domain_calls", count("solver/set_domain_calls"));
  Set("solver.propagations", count("solver/propagations"));
  Set("solver.backtracks", count("solver/backtracks"));
  Set("solver.degraded_solves", count("solver/degraded_solves"));
  Set("solver.fix_ms_p50", Median(SpanDurationsMs(spans, "solver/fix")));
  Set("costmodel.evaluate_us_p50",
      1000.0 * Median(SpanDurationsMs(spans, "perfbench/costmodel_evaluate")));
  Set("costmodel.eval_cache_hit_ratio",
      Share(count("costmodel/eval_cache_hits"),
            count("costmodel/eval_cache_misses")));
  Set("costmodel.delta_fast_ratio",
      Share(count("costmodel/delta_fast"),
            count("costmodel/delta_fallback") +
                count("costmodel/delta_rebuild")));
  Set("hwsim.evaluate_us_p50",
      1000.0 * Median(SpanDurationsMs(spans, "hwsim/simulate")));
  Set("hwsim.oom_rejections", count("hwsim/oom_rejections"));
  Set("rl.update_ms_p50", Median(SpanDurationsMs(spans, "rl/update")));
  Set("rl.update_self_s",
      SpanSeconds(spans, "rl/update", windows, true) / rounds);
  Set("rl.collect_ms_p50", Median(SpanDurationsMs(spans, "rl/collect")));
  Set("rl.policy_updates", count("rl/policy_updates"));
  Set("rl.episodes", count("rl/episodes"));
  Set("nn.embed_cache_hit_ratio",
      Share(count("rl/embed_cache_hits"), count("rl/embed_cache_misses")));
}

void Layers::AddTo(Outcome& outcome) const {
  for (const auto& [name, unit] : names_) {
    outcome.Add(name, values_.at(name), unit);
  }
}

double ValidRatio(const std::vector<std::vector<double>>& traces) {
  double valid = 0.0;
  double total = 0.0;
  for (const auto& rewards : traces) {
    for (double r : rewards) {
      valid += r > 0.0 ? 1.0 : 0.0;
      total += 1.0;
    }
  }
  return total > 0.0 ? valid / total : 0.0;
}

}  // namespace perfbench
