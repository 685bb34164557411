// The in-process workloads: bert-search, hillclimb and corpus-rl.  Each
// builds its graphs, contexts and heuristic baselines in set-up, then runs
// identical rounds of search calls (see RunRounds), then checks every
// partition it got back.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "checker.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "hwsim/hardware_sim.h"
#include "pipeline/pretrain.h"
#include "rl/env.h"
#include "runtime/thread_pool.h"
#include "search/search.h"
#include "telemetry/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mcm::HashCombine;

// One graph with its warm state: the GraphContext (features, neighbor
// lists, solver) and the heuristic baseline every reward is relative to.
struct GraphTask {
  const mcm::Graph* graph = nullptr;
  int chips = 0;
  std::unique_ptr<mcm::GraphContext> context;
  mcm::BaselineResult baseline;
};

struct SetupTimes {
  std::vector<double> context_ms;
  std::vector<double> baseline_ms;
};

GraphTask BuildTask(const mcm::Graph& graph, int chips, mcm::CostModel& model,
                    std::uint64_t seed, SetupTimes& times) {
  GraphTask task;
  task.graph = &graph;
  task.chips = chips;
  double t0 = Now();
  {
    MCM_TRACE_SPAN("perfbench/context");
    task.context = std::make_unique<mcm::GraphContext>(graph, chips);
  }
  double t1 = Now();
  times.context_ms.push_back(1000.0 * (t1 - t0));
  {
    MCM_TRACE_SPAN("perfbench/baseline");
    mcm::Rng rng(seed);
    task.baseline = mcm::ComputeHeuristicBaseline(graph, model,
                                                  task.context->solver(), rng);
  }
  times.baseline_ms.push_back(1000.0 * (Now() - t1));
  if (!task.baseline.eval.valid) {
    throw std::runtime_error("heuristic baseline invalid on " + graph.name());
  }
  return task;
}

// The result of one SearchStrategy::Run call.
struct SearchRun {
  std::string method;
  int task = 0;
  std::vector<double> rewards;
  bool has_best = false;
  double best_reward = 0.0;
  mcm::Partition best;
  double seconds = 0.0;
};

SearchRun RunSearch(mcm::SearchStrategy& strategy, const std::string& method,
                    int task_index, GraphTask& task, mcm::CostModel& model,
                    int budget) {
  // A fresh environment per call: no incumbent or eval-cache entry carries
  // over, so every round repeats the same work.
  mcm::PartitionEnv env(*task.graph, model, task.baseline.eval.runtime_s);
  SearchRun run;
  run.method = method;
  run.task = task_index;
  const double t0 = Now();
  {
    MCM_TRACE_SPAN("perfbench/search");
    run.rewards = strategy.Run(*task.context, env, budget).rewards;
  }
  run.seconds = Now() - t0;
  run.has_best = env.has_best();
  run.best_reward = env.best_reward();
  if (run.has_best) run.best = env.best_partition();
  return run;
}

// Later rounds must reproduce the first round's traces and incumbents.
void CheckSameRuns(const std::vector<SearchRun>& first,
                   const std::vector<SearchRun>& now, Outcome& outcome) {
  if (first.size() != now.size()) {
    outcome.Fail("rounds ran different numbers of searches");
    return;
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i].rewards != now[i].rewards || first[i].best != now[i].best) {
      outcome.Fail(first[i].method + " search " + std::to_string(i) +
                   " returned a different trace in a repeated round");
    }
  }
}

// Checks every returned best partition with the independent checker, and
// re-scores it with a fresh model called directly (no PartitionEnv cache,
// delta scorer or retry wrapper): the improvement must match bit for bit.
void CheckRunOutputs(const std::vector<SearchRun>& runs,
                     const std::vector<GraphTask>& tasks,
                     const std::function<std::unique_ptr<mcm::CostModel>()>&
                         fresh_model,
                     Outcome& outcome) {
  for (const SearchRun& run : runs) {
    const GraphTask& task = tasks[static_cast<std::size_t>(run.task)];
    const double trace_best =
        run.rewards.empty()
            ? 0.0
            : *std::max_element(run.rewards.begin(), run.rewards.end());
    if (trace_best != run.best_reward) {
      outcome.Fail(run.method + " on " + task.graph->name() +
                   ": trace best differs from the incumbent's reward");
    }
    if (!run.has_best) continue;
    const std::string why = CheckPartition(*task.graph, run.best.assignment,
                                           task.chips, mcm::McmConfig{});
    if (!why.empty()) {
      outcome.Fail(run.method + " on " + task.graph->name() + ": " + why);
    }
    const std::unique_ptr<mcm::CostModel> model = fresh_model();
    const mcm::EvalResult baseline =
        model->Evaluate(*task.graph, task.baseline.partition);
    const mcm::EvalResult eval = model->Evaluate(*task.graph, run.best);
    const double improvement =
        eval.valid && eval.runtime_s > 0.0
            ? baseline.runtime_s / eval.runtime_s
            : 0.0;
    if (baseline.runtime_s != task.baseline.eval.runtime_s ||
        improvement != run.best_reward) {
      outcome.Fail(run.method + " on " + task.graph->name() +
                   ": fresh re-evaluation gives " +
                   std::to_string(improvement) + ", search reported " +
                   std::to_string(run.best_reward));
    }
  }
}

double BestImprovement(const std::vector<SearchRun>& runs) {
  std::vector<double> best;
  for (const SearchRun& run : runs) {
    if (run.has_best) best.push_back(run.best_reward);
  }
  return GeoMean(best);
}

// State the measured rounds of one phase of a search workload accumulate.
struct SearchRounds {
  std::vector<SearchRun> first;  // The first round's runs.
  std::vector<std::vector<SearchRun>> traced_runs;
  // Wall time of each operation of each untraced round, in round order.
  std::vector<std::vector<double>> op_seconds;
  // Indices into an op_seconds row of the calls of the request kind.
  std::vector<std::size_t> request_ops;
  std::int64_t operations = 0;  // Over all rounds, traced ones too.
  std::int64_t entries_per_round = 0;  // Search-trace entries of one round.
  std::int64_t evaluations_per_round = 0;
  std::vector<std::int64_t> queue_wait_buckets;  // First traced round.

  // Records one round.  The calls of `request_method` (on `request_task`,
  // or on any task when it is negative) are the request kind whose
  // latencies make request_p50_ms; `extra_entries` counts trace entries
  // made outside SearchStrategy::Run (pretraining and validation samples)
  // and `extra_seconds` the times of the operations that made them.
  void Record(std::vector<SearchRun> runs, bool traced,
              const std::string& request_method, int request_task,
              std::int64_t extra_entries,
              std::vector<double> extra_seconds, Outcome& outcome) {
    operations += static_cast<std::int64_t>(runs.size() + extra_seconds.size());
    if (first.empty()) {
      first = runs;
      entries_per_round = extra_entries;
      for (const SearchRun& run : runs) {
        entries_per_round += static_cast<std::int64_t>(run.rewards.size());
      }
    } else {
      CheckSameRuns(first, runs, outcome);
    }
    if (traced) {
      traced_runs.push_back(std::move(runs));
      return;
    }
    const bool first_plain = op_seconds.empty();
    for (const SearchRun& run : runs) {
      if (first_plain && run.method == request_method &&
          (request_task < 0 || run.task == request_task)) {
        request_ops.push_back(extra_seconds.size());
      }
      extra_seconds.push_back(run.seconds);
    }
    op_seconds.push_back(std::move(extra_seconds));
  }
};

// One phase of a workload: its rounds and what they recorded.  A workload
// round is one round of each of its phases.
struct Phase {
  const Rounds* rounds;
  const SearchRounds* state;
};

// Rates divide one workload round's work by the sum over its operations of
// each operation's fastest time across rounds; request_p50_ms is the median
// over the request calls of each call's fastest time.  Rounds repeat the
// same work, and other tenants of the host only ever slow an operation
// down, in phases of seconds to tens of seconds, so the fastest repeat is
// what stays steady from run to run.
void AddEndToEnd(double setup_s, double peak_rss_mb,
                 const std::vector<Phase>& phases, double best_improvement,
                 Outcome& outcome) {
  double round_s = 0.0;
  double entries = 0.0;
  double operations = 0.0;
  std::vector<double> request_ms;
  for (const Phase& phase : phases) {
    const SearchRounds& state = *phase.state;
    round_s += SumOfFastest(state.op_seconds);
    entries += static_cast<double>(state.entries_per_round);
    operations += static_cast<double>(state.op_seconds.at(0).size());
    const std::vector<double> fastest = ColumnMinima(state.op_seconds);
    for (std::size_t op : state.request_ops) {
      request_ms.push_back(1000.0 * fastest[op]);
    }
  }
  outcome.Add("setup_s", setup_s, "s");
  outcome.Add("samples_per_s", entries / round_s, "1/s");
  outcome.Add("best_improvement", best_improvement, "x");
  outcome.Add("peak_rss_mb", peak_rss_mb, "MB");
  outcome.Add("request_p50_ms", Median(request_ms), "ms");
  outcome.Add("requests_per_s", operations / round_s, "1/s");
}

// Per-layer metrics shared by the in-process workloads, per workload round:
// the first traced round of each phase.
void AddLayers(const RunConfig& config, const std::vector<Phase>& phases,
               const SetupTimes& setup, int threads, Layers& layers,
               Outcome& outcome) {
  const std::string trace_path = config.work_dir + "/trace.json";
  if (!mcm::telemetry::WriteTrace(trace_path)) {
    throw std::runtime_error("cannot write " + trace_path);
  }
  std::vector<Span> spans;
  if (!ReadTraceSpans(trace_path, &spans)) {
    throw std::runtime_error("cannot read " + trace_path);
  }
  std::vector<Window> windows;
  CounterMap delta;
  std::vector<std::int64_t> queue_wait;
  std::vector<std::vector<double>> traces;
  double evaluations = 0.0, traced_wall = 0.0, traced_cpu = 0.0;
  double traced_median = 0.0, plain_median = 0.0;
  double random_s = 0.0, sa_s = 0.0, hillclimb_s = 0.0, rl_s = 0.0;
  for (const Phase& phase : phases) {
    const Rounds& rounds = *phase.rounds;
    const SearchRounds& state = *phase.state;
    windows.push_back(rounds.traced_windows.at(0));
    for (const auto& [name, value] : rounds.first_traced_delta) {
      delta[name] += value;
    }
    queue_wait.resize(std::max(queue_wait.size(), state.queue_wait_buckets.size()));
    for (std::size_t i = 0; i < state.queue_wait_buckets.size(); ++i) {
      queue_wait[i] += state.queue_wait_buckets[i];
    }
    for (const SearchRun& run : state.first) traces.push_back(run.rewards);
    evaluations += static_cast<double>(state.evaluations_per_round);
    traced_wall += rounds.traced_s.at(0);
    traced_cpu += rounds.traced_cpu_s.at(0);
    traced_median += Median(rounds.traced_s);
    plain_median += Median(rounds.plain_s);
    for (const SearchRun& run : state.traced_runs.at(0)) {
      if (run.method == "random") random_s += run.seconds;
      if (run.method == "sa") sa_s += run.seconds;
      if (run.method == "hillclimb") hillclimb_s += run.seconds;
      if (run.method == "rl") rl_s += run.seconds;
    }
  }
  layers.FillFromTrace(spans, windows, 1, delta);
  layers.Set("search.random_s", random_s);
  layers.Set("search.sa_s", sa_s);
  layers.Set("search.hillclimb_s", hillclimb_s);
  layers.Set("search.rl_s", rl_s);
  layers.Set("search.valid_ratio", ValidRatio(traces));
  layers.Set("costmodel.evaluations", evaluations);
  layers.Set("runtime.queue_wait_us_p50",
             HistogramMedian("runtime/queue_wait_us", queue_wait));
  layers.Set("runtime.busy_fraction", traced_cpu / (traced_wall * threads));
  layers.Set("rl.context_ms", Median(setup.context_ms));
  layers.Set("rl.baseline_ms", Median(setup.baseline_ms));
  layers.Set("telemetry.trace_overhead", traced_median / plain_median);
  layers.AddTo(outcome);
}

// A repeated phase makes at least this many rounds, so each operation's
// fastest time is taken over several repeats.
constexpr int kMinRounds = 3;

// Calls `round` through RunRounds, keeping the decorator's evaluation count
// and the queue-wait histogram of the first traced round.
Rounds RunSearchRounds(const RunConfig& config, double seconds, int min_rounds,
                       TimingCostModel& model, SearchRounds& state,
                       const std::function<void(bool)>& round) {
  bool captured = false;
  return RunRounds(config.trace, seconds, min_rounds, [&](bool traced) {
    const bool capture = traced && !captured;
    const std::int64_t evals0 = model.evaluations();
    std::vector<std::int64_t> before;
    if (capture) before = HistogramBuckets("runtime/queue_wait_us");
    round(traced);
    if (capture) {
      state.queue_wait_buckets = HistogramBuckets("runtime/queue_wait_us");
      for (std::size_t i = 0; i < before.size(); ++i) {
        state.queue_wait_buckets[i] -= before[i];
      }
      state.evaluations_per_round = model.evaluations() - evals0;
      captured = true;
    }
  });
}

// The graphs of a split with `min_nodes` to `max_nodes` nodes.  Draws come
// from narrow size bands so that the work a seeded draw brings is about the
// same for every seed.
std::vector<const mcm::Graph*> SizeBand(const std::vector<mcm::Graph>& graphs,
                                        int min_nodes, int max_nodes) {
  std::vector<const mcm::Graph*> band;
  for (const mcm::Graph& g : graphs) {
    if (g.NumNodes() >= min_nodes && g.NumNodes() <= max_nodes) {
      band.push_back(&g);
    }
  }
  return band;
}

// `count` distinct graphs drawn from `pool` with a seeded shuffle.
std::vector<const mcm::Graph*> Draw(std::vector<const mcm::Graph*> pool,
                                    int count, mcm::Rng& rng) {
  for (std::size_t i = pool.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.UniformInt(i));
    std::swap(pool[i - 1], pool[j]);
  }
  if (static_cast<int>(pool.size()) < count) {
    throw std::runtime_error("graph pool smaller than the draw");
  }
  pool.resize(static_cast<std::size_t>(count));
  return pool;
}

}  // namespace

// bert-search: Random search (parallel SAMPLE solves) and simulated
// annealing on BERT at 36 chips, scored by the hardware simulator.  The
// annealing calls take most of a run (one of them ~15 s), so they form a
// phase of their own that runs once; the Random calls then repeat in
// rounds for the rest of the run.
Outcome RunBertSearch(const RunConfig& config) {
  constexpr int kThreads = 2;
  constexpr int kChips = 36;
  constexpr int kRandomCalls = 4;
  constexpr int kRandomBudget = 4;
  constexpr int kSaBudget = 4;
  // Fixed annealing seeds (the first two integers): SA's solve time has a
  // heavy tail that depends on the seed, so SA does the same work in every
  // run and --seed varies the Random searches.
  constexpr std::uint64_t kSaSeeds[] = {1, 2};

  Outcome outcome;
  mcm::SetDefaultThreadCount(kThreads);
  mcm::DefaultPool();
  const mcm::Graph bert = mcm::MakeBert();
  mcm::HardwareSim hwsim;
  TimingCostModel model(hwsim);
  SetupTimes setup;
  std::vector<GraphTask> tasks;
  tasks.push_back(BuildTask(bert, kChips, model, config.seed, setup));
  const double setup_s = Now() - config.start_s;

  const double measure_start = Now();
  SearchRounds sa_state;
  const Rounds sa_rounds =
      RunSearchRounds(config, 0.0, 1, model, sa_state, [&](bool traced) {
        std::vector<SearchRun> runs;
        for (std::uint64_t sa_seed : kSaSeeds) {
          mcm::SimulatedAnnealing sa{mcm::Rng(sa_seed)};
          runs.push_back(RunSearch(sa, "sa", 0, tasks[0], model, kSaBudget));
        }
        sa_state.Record(std::move(runs), traced, "", 0, 0, {}, outcome);
      });
  SearchRounds random_state;
  const Rounds random_rounds = RunSearchRounds(
      config, config.seconds - (Now() - measure_start), kMinRounds, model,
      random_state, [&](bool traced) {
        std::vector<SearchRun> runs;
        for (int k = 0; k < kRandomCalls; ++k) {
          mcm::RandomSearch random(mcm::Rng(
              HashCombine(config.seed, static_cast<std::uint64_t>(k))));
          runs.push_back(RunSearch(random, "random", 0, tasks[0], model,
                                   kRandomBudget));
        }
        random_state.Record(std::move(runs), traced, "random", 0, 0, {},
                            outcome);
      });
  const double peak_rss_mb = PeakRssMb();
  outcome.attempted = sa_state.operations + random_state.operations;
  CheckRoundsRepeat(sa_rounds.deltas, outcome);
  CheckRoundsRepeat(random_rounds.deltas, outcome);
  std::vector<SearchRun> first = sa_state.first;
  first.insert(first.end(), random_state.first.begin(), random_state.first.end());
  CheckRunOutputs(first, tasks,
                  [] { return std::make_unique<mcm::HardwareSim>(); }, outcome);

  // The same short Random search at 1 thread and at the workload's thread
  // count must give identical traces and incumbents.
  std::vector<SearchRun> by_threads;
  for (int threads : {1, kThreads}) {
    mcm::SetDefaultThreadCount(threads);
    mcm::RandomSearch random(mcm::Rng(HashCombine(config.seed, 99)));
    by_threads.push_back(RunSearch(random, "random", 0, tasks[0], model, 4));
  }
  if (by_threads[0].rewards != by_threads[1].rewards ||
      by_threads[0].best != by_threads[1].best) {
    outcome.Fail("Random search differs between 1 and " +
                 std::to_string(kThreads) + " threads");
  }

  const std::vector<Phase> phases = {{&sa_rounds, &sa_state},
                                     {&random_rounds, &random_state}};
  if (config.trace) {
    Layers layers;
    AddLayers(config, phases, setup, kThreads, layers, outcome);
  } else {
    AddEndToEnd(setup_s, peak_rss_mb, phases, BestImprovement(first), outcome);
  }
  return outcome;
}

// hillclimb: single-node-move search on the four mid-size corpus test
// graphs at 8 chips with the analytical model.  Each graph gets several
// searches with seeds from --seed, so the geometric mean of their best
// results does not hang on one start partition.  All four graphs run in
// every run: a seeded draw of three moved request_p50_ms by up to 15% with
// the seed, because the graphs' proposal costs differ.  BERT is left out:
// the analytical model does not check SRAM, and on some seeds the search
// returns a BERT partition whose parameters overflow a chip (see
// CHANGES.md).
Outcome RunHillClimb(const RunConfig& config) {
  constexpr int kThreads = 1;
  constexpr int kSearches = 5;
  constexpr int kBudget = 10000;

  Outcome outcome;
  mcm::SetDefaultThreadCount(kThreads);
  const mcm::DatasetSplit split = mcm::SplitCorpus(mcm::MakeCorpus());
  const std::vector<const mcm::Graph*> graphs = SizeBand(split.test, 300, 400);
  mcm::AnalyticalCostModel analytical{mcm::McmConfig{}};
  TimingCostModel model(analytical);
  SetupTimes setup;
  std::vector<GraphTask> tasks;
  for (const mcm::Graph* graph : graphs) {
    tasks.push_back(BuildTask(*graph, 8, model, config.seed, setup));
  }
  const double setup_s = Now() - config.start_s;

  SearchRounds state;
  std::int64_t proposals_per_round = 0;
  const Rounds rounds = RunSearchRounds(
      config, config.seconds, kMinRounds, model, state, [&](bool traced) {
    std::vector<SearchRun> runs;
    proposals_per_round = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      for (int k = 0; k < kSearches; ++k) {
        mcm::HillClimbSearch hc{
            mcm::Rng(HashCombine(config.seed, 100 * (i + 1) + k))};
        runs.push_back(RunSearch(hc, "hillclimb", static_cast<int>(i),
                                 tasks[i], model, kBudget));
        proposals_per_round += kBudget;
      }
    }
    state.Record(std::move(runs), traced, "hillclimb", -1, 0, {}, outcome);
  });
  const double peak_rss_mb = PeakRssMb();
  outcome.attempted = state.operations;
  CheckRoundsRepeat(rounds.deltas, outcome);
  CheckRunOutputs(state.first, tasks,
                  [] {
                    return std::make_unique<mcm::AnalyticalCostModel>(
                        mcm::McmConfig{});
                  },
                  outcome);

  const std::vector<Phase> phases = {{&rounds, &state}};
  if (config.trace) {
    Layers layers;
    double search_s = 0.0;
    for (const SearchRun& run : state.traced_runs.at(0)) search_s += run.seconds;
    layers.Set("search.hc_proposal_us",
               1e6 * search_s / static_cast<double>(proposals_per_round));
    AddLayers(config, phases, setup, kThreads, layers, outcome);
  } else {
    AddEndToEnd(setup_s, peak_rss_mb, phases, BestImprovement(state.first),
                outcome);
  }
  return outcome;
}

// corpus-rl: the paper's pre-training pipeline (PretrainPipeline::Train and
// Validate) on seeded draws of the corpus train and validation splits, then
// RL fine-tuning from the chosen checkpoint on drawn test graphs.
Outcome RunCorpusRl(const RunConfig& config) {
  constexpr int kThreads = 2;
  constexpr int kChips = 8;
  constexpr int kTrainGraphs = 4;
  constexpr int kTestGraphs = 2;
  constexpr int kFinetuneBudget = 40;

  Outcome outcome;
  mcm::SetDefaultThreadCount(kThreads);
  mcm::DefaultPool();
  const mcm::DatasetSplit split = mcm::SplitCorpus(mcm::MakeCorpus());
  mcm::Rng draw_rng(HashCombine(config.seed, 0xc0a9));
  std::vector<mcm::Graph> train;
  for (const mcm::Graph* g :
       Draw(SizeBand(split.train, 220, 300), kTrainGraphs, draw_rng)) {
    train.push_back(*g);
  }
  std::vector<mcm::Graph> validation;
  for (const mcm::Graph* g : SizeBand(split.validation, 100, 300)) {
    validation.push_back(*g);
  }
  const std::vector<const mcm::Graph*> test =
      Draw(SizeBand(split.test, 300, 400), kTestGraphs, draw_rng);

  mcm::PretrainConfig pretrain;
  pretrain.rl = mcm::RlConfig::Quick();
  pretrain.rl.num_chips = kChips;
  pretrain.rl.seed = HashCombine(config.seed, 3);
  // One PPO iteration per training graph, two checkpoints.
  pretrain.total_samples = kTrainGraphs * pretrain.rl.rollouts_per_update;
  pretrain.num_checkpoints = 2;
  pretrain.validation_zeroshot_samples = 10;
  pretrain.validation_finetune_samples = 20;
  pretrain.seed = HashCombine(config.seed, 4);

  mcm::AnalyticalCostModel analytical{mcm::McmConfig{}};
  TimingCostModel model(analytical);
  SetupTimes setup;
  std::vector<GraphTask> tasks;
  for (const mcm::Graph* graph : test) {
    tasks.push_back(BuildTask(*graph, kChips, model, config.seed, setup));
  }
  const double setup_s = Now() - config.start_s;

  SearchRounds state;
  std::vector<double> train_s, validate_s;
  int first_best = -1;
  std::int64_t first_pretrain_entries = -1;
  const Rounds rounds = RunSearchRounds(
      config, config.seconds, kMinRounds, model, state, [&](bool traced) {
    const CounterMap before = SnapshotCounters();
    mcm::PretrainPipeline pipeline(pretrain, model);
    double t0 = Now();
    std::vector<mcm::Checkpoint> checkpoints;
    {
      MCM_TRACE_SPAN("perfbench/train");
      checkpoints = pipeline.Train(train);
    }
    double t1 = Now();
    int best = 0;
    {
      MCM_TRACE_SPAN("perfbench/validate");
      best = pipeline.Validate(checkpoints, validation);
    }
    double t2 = Now();
    if (traced) {
      train_s.push_back(t1 - t0);
      validate_s.push_back(t2 - t1);
    }
    // Pretraining and validation samples: every PPO rollout they score.
    const int per_update = pretrain.rl.rollouts_per_update;
    const int finetune_iterations =
        (pretrain.validation_finetune_samples + per_update - 1) / per_update;
    const std::int64_t pretrain_entries =
        checkpoints.back().samples_seen +
        static_cast<std::int64_t>(checkpoints.size() * validation.size()) *
            (pretrain.validation_zeroshot_samples +
             finetune_iterations * per_update);
    if (first_best < 0) {
      first_best = best;
      first_pretrain_entries = pretrain_entries;
    } else if (best != first_best || pretrain_entries != first_pretrain_entries) {
      outcome.Fail("pretraining chose a different checkpoint in a repeated round");
    }

    std::vector<SearchRun> runs;
    std::int64_t rl_entries = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      mcm::PolicyNetwork policy(pretrain.rl);
      mcm::PretrainPipeline::Restore(policy, checkpoints[static_cast<std::size_t>(best)]);
      mcm::RlSearch rl(policy, mcm::Rng(HashCombine(config.seed, 20 + i)));
      runs.push_back(RunSearch(rl, "rl", static_cast<int>(i), tasks[i], model,
                               kFinetuneBudget));
      rl_entries += static_cast<std::int64_t>(runs.back().rewards.size());
    }
    // Cross-path: the entries counted from the pipeline's own outputs must
    // equal the episodes the RL layer scored.
    const std::int64_t episodes =
        Delta(SnapshotCounters(), before, "rl/episodes");
    if (episodes != pretrain_entries + rl_entries) {
      outcome.Fail("counted " + std::to_string(pretrain_entries + rl_entries) +
                   " samples but the RL layer scored " +
                   std::to_string(episodes));
    }
    state.Record(std::move(runs), traced, "rl", -1, pretrain_entries,
                 {t1 - t0, t2 - t1}, outcome);
  });
  const double peak_rss_mb = PeakRssMb();
  outcome.attempted = state.operations;
  CheckRoundsRepeat(rounds.deltas, outcome);
  CheckRunOutputs(state.first, tasks,
                  [] {
                    return std::make_unique<mcm::AnalyticalCostModel>(
                        mcm::McmConfig{});
                  },
                  outcome);

  const std::vector<Phase> phases = {{&rounds, &state}};
  if (config.trace) {
    Layers layers;
    layers.Set("pipeline.train_s", train_s.at(0));
    layers.Set("pipeline.validate_s", validate_s.at(0));
    AddLayers(config, phases, setup, kThreads, layers, outcome);
  } else {
    AddEndToEnd(setup_s, peak_rss_mb, phases, BestImprovement(state.first),
                outcome);
  }
  return outcome;
}

}  // namespace perfbench
