// serve: `mcmpart serve` driven by a closed-loop client on one Unix-socket
// connection.  Each round starts a fresh daemon, sends the fixed request
// sequence (cache-miss BERT solver requests, cache-miss corpus search
// requests, requests that share a graph but differ in seed, then verbatim
// repeats that the placement cache answers), and drains the daemon with
// SIGTERM.  A fresh daemon per round keeps every round's work identical.
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "checker.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "hwsim/hardware_sim.h"
#include "rl/env.h"
#include "service/handler.h"
#include "service/protocol.h"
#include "service/server.h"
#include "telemetry/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mcm::HashCombine;
using mcm::service::PartitionRequest;
using mcm::service::PartitionResponse;

// Two pool threads and one batch executor in the daemon, one client: a
// request runs on at most the two pool threads while the client waits.
constexpr int kDaemonThreads = 2;
// Every run makes at least this many rounds, so each request's fastest
// round trip is taken over several repeats.
constexpr int kMinRounds = 3;

// kWideSeed is the one request that fails every time: its seed is above
// 2^53, and the protocol carries seeds as JSON doubles, so the daemon runs
// a different seed than the client sent and the served placement differs
// from executing the same request in process.  Its inputs are fixed.
enum class Kind { kBertMiss, kMiss, kHit, kWideSeed };

struct Item {
  PartitionRequest request;
  Kind kind = Kind::kMiss;
  const mcm::Graph* graph = nullptr;
  int original = -1;  // For a hit: index of the miss it repeats.
};

std::string GraphText(const mcm::Graph& graph) {
  std::ostringstream text;
  graph.Serialize(text);
  return text.str();
}

// A running `mcmpart serve`.  The destructor kills and reaps a daemon that
// was not shut down, so no path leaves a process behind.
class Daemon {
 public:
  Daemon(const RunConfig& config, int index, bool traced)
      : socket_(config.work_dir + "/d" + std::to_string(index) + ".sock"),
        report_(config.work_dir + "/d" + std::to_string(index) + ".report.json"),
        trace_(traced ? config.work_dir + "/d" + std::to_string(index) +
                            ".trace.json"
                      : "") {
    unlink(socket_.c_str());
    const std::string log = config.work_dir + "/daemon.log";
    const std::vector<std::string> args = {
        config.mcmpart,  "serve",       "--socket",
        socket_,         "--threads",   std::to_string(kDaemonThreads),
        "--executors",   "1",           "--metrics-out",
        report_};
    std::vector<char*> argv;
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    // The daemon traces only when MCMPART_TRACE names a file.
    std::vector<std::string> env;
    for (char** var = environ; *var != nullptr; ++var) {
      if (std::strncmp(*var, "MCMPART_TRACE=", 14) != 0) env.push_back(*var);
    }
    if (!trace_.empty()) env.push_back("MCMPART_TRACE=" + trace_);
    std::vector<char*> envp;
    for (const std::string& var : env) envp.push_back(const_cast<char*>(var.c_str()));
    envp.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execve(argv[0], argv.data(), envp.data());
      _exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    unlink(socket_.c_str());
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Blocks until the socket accepts a connection.
  void WaitReady() {
    const double deadline = Now() + 30.0;
    while (Now() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("mcmpart serve exited during start-up");
      }
      const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_.c_str(), sizeof(addr.sun_path) - 1);
      const bool ok =
          connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
      close(fd);
      if (ok) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("mcmpart serve did not accept connections");
  }

  // SIGTERM drain; returns the daemon's resource usage.
  rusage Shutdown() {
    kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    if (wait4(pid_, &status, 0, &usage) != pid_) {
      throw std::runtime_error("wait4 on mcmpart serve failed");
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("mcmpart serve ended with status " +
                               std::to_string(status));
    }
    return usage;
  }

  const std::string& socket_path() const { return socket_; }
  const std::string& report_path() const { return report_; }
  const std::string& trace_path() const { return trace_; }

 private:
  std::string socket_;
  std::string report_;
  std::string trace_;
  pid_t pid_ = -1;
};

// The daemon's RunReport: counters and histograms after the drain.
struct DaemonReport {
  CounterMap counters;
  mcm::service::JsonValue histograms;
};

DaemonReport ReadReport(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  mcm::service::JsonValue root;
  std::string error;
  if (!in || !mcm::service::JsonValue::Parse(text.str(), &root, &error)) {
    throw std::runtime_error("cannot read daemon report " + path);
  }
  DaemonReport report;
  for (const auto& [name, value] :
       root.Get("metrics").Get("counters").object()) {
    report.counters[name] = static_cast<std::int64_t>(value.AsNumber());
  }
  report.histograms = root.Get("metrics").Get("histograms");
  return report;
}

// Median of a report histogram.
double ReportHistogramMedian(const mcm::service::JsonValue& histograms,
                             const std::string& name) {
  const auto& hist = histograms.Get(name);
  std::vector<double> bounds, counts;
  for (const auto& b : hist.Get("bounds").array()) bounds.push_back(b.AsNumber());
  for (const auto& c : hist.Get("buckets").array()) counts.push_back(c.AsNumber());
  return BucketMedian(bounds, counts);
}

// A response with the fields that depend on how it was served (cache,
// batching) cleared, encoded for an exact comparison.
std::string Canonical(PartitionResponse response) {
  response.cached = false;
  response.batch_size = 1;
  return mcm::service::EncodeResponse(response);
}

struct RoundResult {
  std::vector<PartitionResponse> responses;
  std::vector<double> latency_ms;
  double seconds = 0.0;
};

RoundResult SendSequence(const std::string& socket_path,
                         const std::vector<Item>& items) {
  RoundResult result;
  mcm::service::ServiceClient client(socket_path);
  const double t0 = Now();
  for (const Item& item : items) {
    const double sent = Now();
    result.responses.push_back(client.Call(item.request));
    result.latency_ms.push_back(1000.0 * (Now() - sent));
  }
  result.seconds = Now() - t0;
  return result;
}

void CheckRound(const std::vector<Item>& items, const RoundResult& round,
                const RoundResult* first, const DaemonReport& report,
                Outcome& outcome) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    const PartitionResponse& response = round.responses[i];
    const std::string label = "request " + item.request.id;
    if (!response.ok) {
      outcome.Fail(label + " failed: " + response.error);
      continue;
    }
    if (response.id != item.request.id) outcome.Fail(label + ": wrong id");
    if (response.cached != (item.kind == Kind::kHit)) {
      outcome.Fail(label + (response.cached ? ": unexpected cache hit"
                                            : ": repeat missed the cache"));
    }
    const std::string why =
        CheckPartition(*item.graph, response.assignment, item.request.chips,
                       mcm::McmConfig{});
    if (!why.empty()) outcome.Fail(label + ": " + why);
    if (item.kind == Kind::kHit &&
        Canonical(response) !=
            Canonical(round.responses[static_cast<std::size_t>(item.original)])) {
      outcome.Fail(label + ": cache hit differs from its original miss");
    }
    if (first != nullptr &&
        Canonical(response) != Canonical(first->responses[i])) {
      outcome.Fail(label + ": response differs from the first round's");
    }
  }
  const std::int64_t completed = Delta(report.counters, {}, "service/completed");
  if (completed != static_cast<std::int64_t>(round.responses.size())) {
    outcome.Fail("daemon counted " + std::to_string(completed) +
                 " completed requests, client received " +
                 std::to_string(round.responses.size()));
  }
}

std::vector<Item> BuildSequence(std::uint64_t seed, const mcm::Graph& bert,
                                const std::vector<const mcm::Graph*>& corpus,
                                const mcm::Graph& fixed_graph) {
  std::vector<Item> items;
  mcm::Rng seed_rng(HashCombine(seed, 0x5eed));
  const auto next_seed = [&seed_rng] { return 1 + seed_rng.UniformInt(1ULL << 31); };
  const std::string bert_text = GraphText(bert);
  auto add = [&](const mcm::Graph& graph, const std::string& text,
                 mcm::service::RequestMode mode, const std::string& method,
                 int chips, int budget, std::uint64_t request_seed, Kind kind) {
    Item item;
    item.request.id = "r" + std::to_string(items.size());
    item.request.mode = mode;
    item.request.method = method;
    item.request.graph_text = text;
    item.request.chips = chips;
    item.request.budget = budget;
    item.request.seed = request_seed;
    item.kind = kind;
    item.graph = &graph;
    items.push_back(std::move(item));
  };
  using mcm::service::RequestMode;
  // Cache-miss BERT requests in solver mode (one graph, four seeds), on
  // the hardware simulator as in the paper's BERT experiments.
  for (std::uint64_t k = 0; k < 4; ++k) {
    add(bert, bert_text, RequestMode::kSolver, "random", 36, 40,
        next_seed(), Kind::kBertMiss);
    items.back().request.model = "hwsim";
  }
  // Cache-miss corpus requests in search mode.  SA stays out: its solve
  // time has a seed-dependent heavy tail (one 8-proposal request can take
  // 40x the usual), which bert-search keeps with fixed seeds instead.
  std::vector<std::string> texts;
  for (const mcm::Graph* graph : corpus) texts.push_back(GraphText(*graph));
  for (std::size_t g = 0; g < corpus.size(); ++g) {
    add(*corpus[g], texts[g], RequestMode::kSearch, "random", 8, 8,
        next_seed(), Kind::kMiss);
    add(*corpus[g], texts[g], RequestMode::kSearch, "hillclimb", 8, 2000,
        next_seed(), Kind::kMiss);
  }
  // One corpus graph, three seeds.
  for (std::uint64_t k = 0; k < 3; ++k) {
    add(*corpus[0], texts[0], RequestMode::kSolver, "random", 8, 40,
        next_seed(), Kind::kMiss);
  }
  // Verbatim repeats of every miss.
  const std::size_t misses = items.size();
  add(fixed_graph, GraphText(fixed_graph), RequestMode::kSearch, "random", 8, 8,
      (1ULL << 53) + 1, Kind::kWideSeed);
  for (std::size_t i = 0; i < misses; ++i) {
    Item repeat = items[i];
    repeat.kind = Kind::kHit;
    repeat.original = static_cast<int>(i);
    items.push_back(std::move(repeat));
  }
  return items;
}

}  // namespace

Outcome RunServe(const RunConfig& config) {
  Outcome outcome;
  if (config.mcmpart.empty()) throw std::runtime_error("serve needs --mcmpart");
  const mcm::Graph bert = mcm::MakeBert();
  const mcm::DatasetSplit split = mcm::SplitCorpus(mcm::MakeCorpus());
  std::vector<const mcm::Graph*> band;
  for (const mcm::Graph& g : split.test) {
    if (g.NumNodes() >= 300 && g.NumNodes() <= 400) band.push_back(&g);
  }
  const mcm::Graph& fixed_graph = *band.front();  // Before the seeded draw.
  mcm::Rng draw_rng(HashCombine(config.seed, 0x5e7e));
  for (std::size_t i = band.size(); i > 1; --i) {
    std::swap(band[i - 1], band[static_cast<std::size_t>(draw_rng.UniformInt(i))]);
  }
  band.resize(2);
  const std::vector<Item> items = BuildSequence(config.seed, bert, band, fixed_graph);

  auto daemon = std::make_unique<Daemon>(config, 0, false);
  daemon->WaitReady();
  const double setup_s = Now() - config.start_s;

  std::vector<RoundResult> plain, traced;
  std::vector<DaemonReport> traced_reports;
  std::vector<std::vector<Span>> traced_spans;
  std::vector<double> traced_cpu_s;
  double peak_rss_mb = 0.0;
  double elapsed = 0.0;
  double last = 0.0;
  RoundResult first;
  for (int r = 0;; ++r) {
    const bool is_traced = config.trace && r % 2 == 1;
    if (r > 0) {
      const bool need_traced = config.trace && traced.empty();
      if (r >= kMinRounds && !need_traced && elapsed + last > config.seconds) {
        break;
      }
      daemon = std::make_unique<Daemon>(config, r, is_traced);
      daemon->WaitReady();
    }
    RoundResult round = SendSequence(daemon->socket_path(), items);
    const rusage usage = daemon->Shutdown();
    const DaemonReport report = ReadReport(daemon->report_path());
    CheckRound(items, round, r == 0 ? nullptr : &first, report, outcome);
    outcome.attempted += static_cast<std::int64_t>(items.size());
    last = round.seconds;
    elapsed += last;
    if (r == 0) first = round;
    if (is_traced) {
      std::vector<Span> spans;
      if (!ReadTraceSpans(daemon->trace_path(), &spans)) {
        throw std::runtime_error("cannot read " + daemon->trace_path());
      }
      traced_spans.push_back(std::move(spans));
      traced_reports.push_back(report);
      traced_cpu_s.push_back(
          static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
          1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec));
      traced.push_back(std::move(round));
    } else {
      peak_rss_mb = std::max(peak_rss_mb, static_cast<double>(usage.ru_maxrss) / 1024.0);
      plain.push_back(std::move(round));
    }
  }
  daemon.reset();

  // A seeded subset of the misses, recomputed in process outside the timed
  // phase, must equal what the daemon served.
  mcm::Rng pick_rng(HashCombine(config.seed, 0x9c4));
  for (int k = 0; k < 3; ++k) {
    std::size_t i = 0;
    do {
      i = static_cast<std::size_t>(pick_rng.UniformInt(items.size()));
    } while (items[i].kind == Kind::kHit || items[i].kind == Kind::kWideSeed);
    const PartitionResponse offline =
        mcm::service::ExecutePartitionRequest(items[i].request, nullptr);
    if (Canonical(offline) != Canonical(first.responses[i])) {
      outcome.Fail("request " + items[i].request.id +
                   ": served response differs from in-process execution");
    }
  }

  // The wide-seed request: compare every round's response with the same
  // request executed in process; each mismatch is a failed operation.
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].kind != Kind::kWideSeed) continue;
    const std::string offline = Canonical(
        mcm::service::ExecutePartitionRequest(items[i].request, nullptr));
    for (const auto* rounds : {&plain, &traced}) {
      for (const RoundResult& round : *rounds) {
        if (Canonical(round.responses[i]) != offline) ++outcome.failed;
      }
    }
  }

  if (!config.trace) {
    // Rates over the sum of each request's fastest round trip across
    // rounds, and request_p50_ms as the median over the BERT misses of
    // their fastest round trips, as for the in-process workloads.
    std::vector<std::vector<double>> latency_s;
    for (const RoundResult& round : plain) {
      latency_s.emplace_back();
      for (double ms : round.latency_ms) latency_s.back().push_back(ms / 1000.0);
    }
    const std::vector<double> fastest_s = ColumnMinima(latency_s);
    std::vector<double> bert_ms;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].kind == Kind::kBertMiss) bert_ms.push_back(1000.0 * fastest_s[i]);
    }
    double samples = 0.0;
    std::vector<double> improvements;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].kind == Kind::kBertMiss || items[i].kind == Kind::kMiss) {
        samples += items[i].request.budget;
        if (first.responses[i].improvement > 0.0) {
          improvements.push_back(first.responses[i].improvement);
        }
      }
    }
    outcome.Add("setup_s", setup_s, "s");
    const double sequence_s = SumOfFastest(latency_s);
    outcome.Add("samples_per_s", samples / sequence_s, "1/s");
    outcome.Add("best_improvement", GeoMean(improvements), "x");
    outcome.Add("peak_rss_mb", peak_rss_mb, "MB");
    outcome.Add("request_p50_ms", Median(bert_ms), "ms");
    outcome.Add("requests_per_s",
                static_cast<double>(items.size()) / sequence_s, "1/s");
    return outcome;
  }

  Layers layers;
  std::vector<Span> spans;
  for (const auto& file_spans : traced_spans) {
    spans.insert(spans.end(), file_spans.begin(), file_spans.end());
  }
  const int traced_rounds = static_cast<int>(traced.size());
  const std::vector<Window> all = {Window{-1e300, 1e300}};
  layers.FillFromTrace(spans, all, traced_rounds, traced_reports[0].counters);
  layers.Set("search.random_s", SpanSeconds(spans, "search/random", all, false) / traced_rounds);
  layers.Set("search.sa_s", SpanSeconds(spans, "search/sa", all, false) / traced_rounds);
  layers.Set("search.hillclimb_s",
             SpanSeconds(spans, "search/hillclimb", all, false) / traced_rounds);
  layers.Set("service.execute_ms_p50",
             Median(SpanDurationsMs(spans, "service/execute")));
  std::vector<double> hit_ms, miss_ms;
  double cached = 0.0, batch_total = 0.0, rejected = 0.0, responses = 0.0;
  double traced_wall = 0.0;
  for (const RoundResult& round : traced) {
    traced_wall += round.seconds;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const PartitionResponse& response = round.responses[i];
      (items[i].kind == Kind::kHit ? hit_ms : miss_ms).push_back(round.latency_ms[i]);
      cached += response.cached ? 1.0 : 0.0;
      batch_total += response.batch_size;
      rejected += response.retry_after_ms > 0 ? 1.0 : 0.0;
      responses += 1.0;
    }
  }
  double cpu = 0.0;
  for (double s : traced_cpu_s) cpu += s;
  layers.Set("service.hit_p50_ms", Median(hit_ms));
  layers.Set("service.miss_p90_ms", Percentile(miss_ms, 0.9));
  layers.Set("service.daemon_cpu_s", cpu / traced_rounds);
  layers.Set("service.cache_hit_ratio", cached / responses);
  layers.Set("service.mean_batch_size", batch_total / responses);
  layers.Set("service.rejected", rejected / traced_rounds);
  layers.Set("runtime.queue_wait_us_p50",
             ReportHistogramMedian(traced_reports[0].histograms,
                                   "runtime/queue_wait_us"));
  layers.Set("runtime.busy_fraction", cpu / (traced_wall * (kDaemonThreads + 1)));

  // What every BERT request pays before it searches: its GraphContext and
  // heuristic baseline, timed in process.
  {
    const double t0 = Now();
    mcm::GraphContext context(bert, 36);
    const double t1 = Now();
    mcm::HardwareSim hwsim;
    mcm::Rng rng(1);
    mcm::ComputeHeuristicBaseline(bert, hwsim, context.solver(), rng);
    layers.Set("rl.context_ms", 1000.0 * (t1 - t0));
    layers.Set("rl.baseline_ms", 1000.0 * (Now() - t1));
  }
  std::vector<double> plain_s, traced_s;
  for (const RoundResult& round : plain) plain_s.push_back(round.seconds);
  for (const RoundResult& round : traced) traced_s.push_back(round.seconds);
  layers.Set("telemetry.trace_overhead", Median(traced_s) / Median(plain_s));
  layers.AddTo(outcome);
  return outcome;
}

}  // namespace perfbench
