// The repo benchmark: one workload per invocation, end-to-end metrics by
// default, per-layer metrics from a traced run with --trace 1.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Workloads (all inputs derive from --seed):
//   online-planetlab-2k  online engine, planetlab preset, n=2048, 4 shards,
//                        snapshot publication off.
//   replay-planetlab-1k  replay engine, n=1024, 4 shards, a generated trace
//                        partitioned by owner shard at set-up.
//   serve-churn-2k       churn preset online, n=2048, 2 shards publishing a
//                        delta snapshot every epoch, and 2 open-loop query
//                        clients reading them while the engine runs.
//
// A run repeats set-up + engine run until --seconds are spent. The first
// repetition only warms up; set-up time and simulation rate are the fast
// quartile of the others, because interference from other tenants of the
// host only ever slows a repetition. Set-up (setup_s) is engine construction (topology included) plus
// trace partitioning; trace generation only creates the input, is timed on
// its own and printed. Each repetition of the online and replay workloads
// ends with a short query phase against a snapshot of its final state, so
// every workload reports query latency; on serve-churn-2k the queries run
// while the engine publishes.
//
// Correctness (the run fails with exit 1 when any check fails): every
// repetition must reproduce the same science digest; the accuracy metrics
// must be finite; replay must ingest exactly the records it generated;
// sampled query answers, and a batch of answers on the final snapshot, are
// re-derived by brute force from the same snapshot version.
//
// The last stdout line is the result JSON; lines before it carry the host
// stamp, the science digest and set-up details. The traced run also writes
// its spans as Chrome trace_event JSON into --out-dir.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "eval/registry.hpp"
#include "eval/scenario.hpp"
#include "latency/trace.hpp"
#include "latency/trace_generator.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "sim/sharded_sim.hpp"
#include "tracer.hpp"

namespace {

using pb::MetricMap;
using pb::now_ns;
using pb::seconds_between;

// ---- workload constants ---------------------------------------------------

constexpr int kOnlineNodes = 2048;
constexpr int kOnlineShards = 4;
constexpr double kOnlineSimSeconds = 600.0;

constexpr int kReplayNodes = 1024;
constexpr int kReplayShards = 4;
constexpr double kReplaySimSeconds = 3600.0;

constexpr int kServeNodes = 2048;
constexpr int kServeShards = 2;
constexpr int kServeClients = 2;
constexpr double kServeSimSeconds = 1200.0;

/// Offered query rate over both clients (open loop, Poisson). The mean call
/// time of the default mix puts the two clients' capacity at 1.2-1.7M qps on
/// a 4-vCPU Xeon host (every run prints its estimate). At half of that the
/// queue behind each nearest-k scan grew during host stalls and the p99 read
/// in milliseconds; at an eighth it still doubled in slow host phases. At
/// this rate a nearest-k scan delays few arrivals, so the p99 mostly reads
/// the scan itself and repeats from run to run.
constexpr double kOfferedQps = 100000.0;
/// Length of the query phase on the final snapshot of each repetition of
/// the engine workloads.
constexpr double kRepLoadSeconds = 0.5;
/// Answers re-derived by brute force on a workload's final snapshot.
constexpr int kFinalChecks = 3000;
/// Drive sizes of the traced run's layer drives.
constexpr double kDriveSimSeconds = 240.0;
constexpr int kNeighborRounds = 300;

/// Repetition 0 warms caches and the allocator and is left out of the
/// medians (its science still has to match); at least 3 timed ones follow.
constexpr int kMinReps = 4;
constexpr int kMaxReps = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<online-planetlab-2k|replay-planetlab-1k|serve-churn-2k> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (a.workload != "online-planetlab-2k" &&
      a.workload != "replay-planetlab-1k" && a.workload != "serve-churn-2k")
    usage("unknown or missing --workload");
  return a;
}

// ---- one run --------------------------------------------------------------

class Run {
 public:
  explicit Run(const Args& args)
      : args(args), tracer(args.trace), spans(tracer.buffer()), t_start(now_ns()) {}

  const Args& args;
  pb::Tracer tracer;
  pb::SpanBuffer& spans;  // the main thread's spans (traced run only)
  std::int64_t t_start;
  MetricMap e2e;
  MetricMap layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Peak RSS once the first repetition is done: one workload run's peak.
  double first_rep_rss_mb = 0.0;
  double rep_started_s = 0.0;  // run time at which the last repetition began

  void fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  [[nodiscard]] double elapsed_s() const {
    return seconds_between(t_start, now_ns());
  }
};

/// The paper's metrics of one engine run plus a digest of the simulated
/// statistics (identical for every repetition of one seed and commit).
struct Science {
  double median_rel_err = 0.0;
  double instability = 0.0;
  double app_update_pct = 0.0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

Science science_of(nc::sim::ShardedEngine& engine) {
  const nc::sim::MetricsCollector& m = engine.metrics();
  Science s;
  s.median_rel_err = m.median_relative_error();
  s.instability = m.mean_instability_ms_per_s();
  s.app_update_pct = m.mean_pct_nodes_updating_per_s();
  s.events = engine.events_processed();
  pb::Digest d;
  d.add(s.median_rel_err);
  d.add(s.instability);
  d.add(s.app_update_pct);
  d.add(s.events);
  d.add(m.observation_count());
  d.add(m.total_app_updates());
  for (nc::NodeId id = 0; id < engine.num_nodes(); ++id) {
    const nc::NCClient& c = engine.client(id);
    const nc::Coordinate& app = c.application_coordinate();
    for (int k = 0; k < app.dim(); ++k) d.add(app.position()[k]);
    d.add(app.height());
    d.add(c.app_error());
  }
  s.digest = d.value();
  return s;
}

/// Accumulates per-repetition engine figures and checks the science.
struct EngineReps {
  std::vector<double> setup_s;
  std::vector<double> sim_rate;
  std::optional<Science> science;
  int reps = 0;

  void add(Run& run, double setup, double run_wall, double sim_seconds,
           const Science& s) {
    if (reps++ == 0) {
      run.first_rep_rss_mb = pb::peak_rss_mb();
    } else {
      setup_s.push_back(setup);
      sim_rate.push_back(sim_seconds / run_wall);
    }
    ++run.attempted;
    if (!std::isfinite(s.median_rel_err) || !std::isfinite(s.instability) ||
        !std::isfinite(s.app_update_pct)) {
      ++run.failed;
      run.fail("accuracy metrics are not finite");
    }
    if (science && science->digest != s.digest) {
      ++run.failed;
      run.fail("repetition produced a different science digest");
    }
    if (!science) science = s;
  }

  void report(Run& run) const {
    // Interference from other tenants of the host only ever slows a
    // repetition, so the fast quartile tracks the program, not the host.
    run.e2e["setup_s"] = {pb::quantile(setup_s, 0.25), "s"};
    run.e2e["sim_seconds_per_s"] = {pb::quantile(sim_rate, 0.75), "s/s"};
    run.e2e["median_rel_err"] = {science->median_rel_err, "ratio"};
    run.e2e["instability_ms_per_s"] = {science->instability, "ms/s"};
    run.e2e["app_update_pct"] = {science->app_update_pct, "%"};
    std::printf("reps: setup_s");
    for (const double v : setup_s) std::printf(" %.4f", v);
    std::printf(" | sim_seconds_per_s");
    for (const double v : sim_rate) std::printf(" %.1f", v);
    std::printf("\n");
    std::printf("science: median_rel_err=%a instability_ms_per_s=%a "
                "app_update_pct=%a events=%llu digest=%016llx reps=%d\n",
                science->median_rel_err, science->instability,
                science->app_update_pct,
                static_cast<unsigned long long>(science->events),
                static_cast<unsigned long long>(science->digest), reps);
  }
};

/// Whether to start repetition `reps`: always until kMinReps, then while
/// one more, as long as the last one, still ends within --seconds.
bool keep_going(Run& run, int reps) {
  const double now = run.elapsed_s();
  const double last = now - run.rep_started_s;
  run.rep_started_s = now;
  return reps < kMinReps ||
         (reps < kMaxReps && now + last <= run.args.seconds);
}

/// Per-layer figures every engine exposes after run().
void engine_layer_metrics(Run& run, nc::sim::ShardedEngine& engine,
                          double run_wall) {
  double busy = 0.0, lo = 1e300, hi = 0.0;
  for (const double b : engine.shard_busy_seconds()) {
    busy += b;
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  const double mean = busy / static_cast<double>(engine.shards());
  const auto events = static_cast<double>(engine.events_processed());
  run.layer["sim.events"] = {events, "count"};
  run.layer["sim.events_per_s"] = {events / run_wall, "1/s"};
  run.layer["sim.ns_per_event"] = {events > 0 ? busy * 1e9 / events : 0.0, "ns"};
  run.layer["sim.busy_s"] = {busy, "s"};
  run.layer["sim.barrier_wait_s"] = {
      std::max(0.0, engine.shards() * run_wall - busy), "s"};
  run.layer["sim.util_spread"] = {mean > 0.0 ? (hi - lo) / mean : 0.0, "ratio"};
  nc::sim::MemoryBudget mem;
  {
    pb::ScopedSpan span(run.spans, "sim.memory_budget");
    mem = engine.memory_budget();
  }
  run.layer["sim.link_bytes"] = {static_cast<double>(mem.link_bytes), "B"};
  run.layer["sim.mailbox_bytes"] = {static_cast<double>(mem.mailbox_bytes), "B"};
  run.layer["core.client_bytes"] = {static_cast<double>(mem.client_bytes), "B"};
  run.layer["core.neighbor_bytes"] = {static_cast<double>(mem.neighbor_bytes), "B"};
  run.layer["estimate.snapshot_base_bytes"] = {
      static_cast<double>(mem.snapshot_base_bytes), "B"};
  run.layer["estimate.snapshot_delta_bytes"] = {
      static_cast<double>(mem.snapshot_delta_bytes), "B"};
  const nc::est::SnapshotPublisher& pub = engine.snapshot_publisher();
  const std::uint64_t publishes = pub.published();
  run.layer["estimate.publishes"] = {static_cast<double>(publishes), "count"};
  run.layer["estimate.publish_bytes_per_epoch"] = {
      publishes == 0 ? 0.0
                     : static_cast<double>(pub.published_base_bytes() +
                                           pub.published_delta_bytes()) /
                           static_cast<double>(publishes),
      "B"};
}

pb::LoadSpec load_spec(const Run& run) {
  pb::LoadSpec spec;
  spec.clients = kServeClients;
  spec.rate_qps = kOfferedQps;
  spec.seed = run.args.seed;
  spec.trace_sampled = run.args.trace;
  return spec;
}

/// Re-derives a batch of answers on the newest (no longer changing)
/// snapshot by brute force.
void verify_final_answers(Run& run, const nc::est::SnapshotPublisher& pub,
                         int num_nodes, const pb::LoadSpec& spec) {
  const std::uint64_t bad =
      pb::check_final_answers(pub, num_nodes, spec, kFinalChecks);
  run.attempted += kFinalChecks;
  run.failed += bad;
  if (bad > 0) run.fail("final-snapshot answers differ from brute force");
}

/// Smallest bin whose cumulative count reaches share q of the total.
std::size_t histogram_quantile(const std::vector<std::uint64_t>& bins, double q) {
  std::uint64_t total = 0;
  for (const auto b : bins) total += b;
  const auto want = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    seen += bins[i];
    if (seen >= want && seen > 0) return i;
  }
  return 0;
}

/// Query metrics of the load phases, plus the load's correctness checks.
void report_load(Run& run, pb::LoadResult& lr, const pb::LoadSpec& spec) {
  run.attempted += lr.issued;
  run.failed += lr.empty + lr.mismatched;
  if (lr.mismatched > 0)
    run.fail(std::to_string(lr.mismatched) +
             " sampled answers differ from the brute-force answer");
  if (lr.checked == 0) run.fail("no sampled answer could be re-derived");
  if (lr.answered == 0) run.fail("no query was answered");

  // Windows with at least 1000 answers keep ten samples beyond the p99.
  run.e2e["query_p50_us"] = {lr.windowed_quantile(0.50, 1000) / 1e3, "us"};
  run.e2e["query_p99_us"] = {lr.windowed_quantile(0.99, 1000) / 1e3, "us"};

  double mean_ns = 0.0;
  double mix[pb::kKinds] = {1.0 - spec.nearest_frac - spec.centroid_frac,
                            spec.nearest_frac, spec.centroid_frac};
  for (int k = 0; k < pb::kKinds; ++k) {
    const std::vector<std::uint32_t>& v = lr.call_ns[k];
    if (v.empty()) continue;
    double sum = 0.0;
    for (const auto x : v) sum += x;
    mean_ns += mix[k] * sum / static_cast<double>(v.size());
  }
  std::printf("load: issued=%llu answered=%llu empty=%llu checked=%llu "
              "raced=%llu offered_qps=%.0f capacity_qps~%.0f (%d clients, "
              "mean mix call %.1f ns)\n",
              static_cast<unsigned long long>(lr.issued),
              static_cast<unsigned long long>(lr.answered),
              static_cast<unsigned long long>(lr.empty),
              static_cast<unsigned long long>(lr.checked),
              static_cast<unsigned long long>(lr.raced), spec.rate_qps,
              mean_ns > 0.0 ? spec.clients * 1e9 / mean_ns : 0.0, spec.clients,
              mean_ns);

  std::printf("load: p50/p99 answered %.3f/%.3f us, empty %.3f/%.3f us, "
              "late p50/p99 %.3f/%.3f us, call p50 distance/nearest/centroid "
              "%.0f/%.0f/%.0f ns\n",
              pb::quantile(lr.answered_ns, 0.5) / 1e3,
              pb::quantile(lr.answered_ns, 0.99) / 1e3,
              pb::quantile(lr.empty_ns, 0.5) / 1e3,
              pb::quantile(lr.empty_ns, 0.99) / 1e3,
              pb::quantile(lr.late_ns, 0.5) / 1e3, pb::quantile(lr.late_ns, 0.99) / 1e3,
              pb::quantile(lr.call_ns[0], 0.5), pb::quantile(lr.call_ns[1], 0.5),
              pb::quantile(lr.call_ns[2], 0.5));
  run.layer["query_fail_pct"] = {
      lr.issued == 0 ? 0.0
                     : 100.0 * static_cast<double>(lr.empty) /
                           static_cast<double>(lr.issued),
      "%"};
  run.layer["serve.answered"] = {static_cast<double>(lr.answered), "count"};
  run.layer["serve.empty"] = {static_cast<double>(lr.empty), "count"};
  run.layer["serve.achieved_qps"] = {
      lr.elapsed_s > 0.0 ? static_cast<double>(lr.issued) / lr.elapsed_s : 0.0,
      "1/s"};
  run.layer["serve.generator_late_p99_us"] = {
      pb::quantile(lr.late_ns, 0.99) / 1e3, "us"};
  run.layer["estimate.staleness_p99_versions"] = {
      static_cast<double>(histogram_quantile(lr.staleness, 0.99)), "count"};
  const char* names[pb::kKinds] = {"serve.distance_ns", "serve.nearest_k_ns",
                                   "serve.centroid_ns"};
  const char* spans[pb::kKinds] = {"serve.distance_ms", "serve.nearest_k",
                                   "serve.centroid"};
  for (int k = 0; k < pb::kKinds; ++k)
    run.layer[names[k]] = {pb::median(run.tracer.per_call_ns(spans[k])), "ns"};
  // Traced and untraced queries interleave in one load: the difference of
  // their mean per-query cost (weighted by the mix) is the span bookkeeping.
  if (run.args.trace) {
    double cost[2] = {0.0, 0.0};
    for (int t = 0; t < 2; ++t)
      for (int k = 0; k < pb::kKinds; ++k)
        if (lr.cycle_count[t][k] > 0)
          cost[t] += mix[k] * lr.cycle_sum_ns[t][k] /
                     static_cast<double>(lr.cycle_count[t][k]);
    run.layer["trace_overhead_pct"] = {
        cost[0] > 0.0 ? 100.0 * (cost[1] / cost[0] - 1.0) : 0.0, "%"};
  }
}

/// Query phase of one engine-workload repetition: the final state of
/// `engine` is published once and queried for kRepLoadSeconds with no
/// writer; a batch of answers is then re-derived by brute force.
pb::LoadResult query_final_state(Run& run, nc::sim::ShardedEngine& engine,
                                 double t_s) {
  nc::est::SnapshotPublisher pub;
  {
    pb::ScopedSpan span(run.spans, "estimate.publish");
    nc::est::EpochSnapshot& snap = pub.staging(engine.num_nodes());
    for (nc::NodeId id = 0; id < engine.num_nodes(); ++id) {
      const nc::NCClient& c = engine.client(id);
      snap.nodes[static_cast<std::size_t>(id)] = {
          c.application_coordinate(), c.app_error(), c.app_confidence(), 1};
    }
    pub.publish(t_s);
  }
  const pb::LoadSpec spec = load_spec(run);
  std::atomic<bool> stop{false};
  pb::LoadResult lr;
  {
    pb::ScopedSpan span(run.spans, "serve.load");
    lr = pb::run_load(pub, engine.num_nodes(), spec, stop, kRepLoadSeconds,
                      run.tracer);
  }
  verify_final_answers(run, pub, engine.num_nodes(), spec);
  return lr;
}

nc::eval::ScenarioSpec online_spec(const char* preset, int nodes, double sim_s,
                                   int shards, std::uint64_t seed) {
  nc::eval::ScenarioSpec spec = nc::eval::make_scenario(preset);
  spec.mode = nc::eval::SimMode::kOnline;
  spec.workload.num_nodes = nodes;
  spec.workload.duration_s = sim_s;
  spec.workload.seed = seed;
  spec.shards = shards;
  return spec;
}

std::unique_ptr<nc::sim::ShardedEngine> make_online_engine(
    const nc::eval::ScenarioSpec& spec, const nc::sim::OnlineSimConfig& oc) {
  return std::make_unique<nc::sim::ShardedEngine>(
      oc, spec.shards,
      nc::lat::Topology::make(nc::eval::resolve_topology_config(spec.workload)),
      spec.workload.link_model.value_or(nc::lat::LinkModelConfig{}),
      spec.workload.availability.value_or(nc::lat::AvailabilityConfig{}),
      nc::eval::resolve_route_changes(spec.workload));
}

/// Trace generation input of the replay workload (`sim_s` long).
nc::lat::TraceGenConfig replay_trace_config(std::uint64_t seed, double sim_s) {
  nc::eval::ScenarioSpec spec = nc::eval::make_scenario("planetlab");
  spec.workload.num_nodes = kReplayNodes;
  spec.workload.duration_s = sim_s;
  spec.workload.seed = seed;
  return nc::eval::resolve_trace_config(spec.workload);
}

/// Layer drives shared by every traced run: the core pipeline over the
/// replay workload's records and NeighborSet::add over the online
/// workload's membership pattern.
void run_layer_drives(Run& run, bool trace_io) {
  const nc::lat::TraceGenConfig drive =
      replay_trace_config(run.args.seed, kDriveSimSeconds);
  const nc::eval::ScenarioSpec planetlab = nc::eval::make_scenario("planetlab");
  if (!pb::drive_core(drive, planetlab.client, run.spans, run.tracer,
                      run.layer))
    run.fail("a core stage driven alone disagrees with NCClient::observe");
  const nc::sim::OnlineSimConfig oc = nc::eval::resolve_online_config(
      online_spec("planetlab", kOnlineNodes, kOnlineSimSeconds, kOnlineShards,
                  run.args.seed));
  pb::drive_neighbors(kOnlineNodes, oc.neighbor_capacity, oc.bootstrap_degree,
                      run.args.seed, kNeighborRounds, run.spans, run.tracer,
                      run.layer);
  if (trace_io &&
      pb::drive_trace_io(drive, kReplayShards, run.args.out_dir, run.spans) == 0)
    run.fail("trace slices did not hold every generated record");
}

// ---- workloads ------------------------------------------------------------

void online_planetlab_2k(Run& run) {
  const nc::eval::ScenarioSpec spec = online_spec(
      "planetlab", kOnlineNodes, kOnlineSimSeconds, kOnlineShards, run.args.seed);
  const nc::sim::OnlineSimConfig oc = nc::eval::resolve_online_config(spec);
  EngineReps reps;
  pb::LoadResult load;
  std::unique_ptr<nc::sim::ShardedEngine> engine;
  double last_wall = 0.0;
  for (int rep = 0; keep_going(run, rep); ++rep) {
    engine.reset();  // one engine alive at a time: peak RSS is one run's
    const std::int64_t t0 = now_ns();
    {
      pb::ScopedSpan span(run.spans, "sim.construct");
      engine = make_online_engine(spec, oc);
    }
    const std::int64_t t1 = now_ns();
    {
      pb::ScopedSpan span(run.spans, "sim.run");
      engine->run();
    }
    const std::int64_t t2 = now_ns();
    last_wall = seconds_between(t1, t2);
    reps.add(run, seconds_between(t0, t1), last_wall, kOnlineSimSeconds,
             science_of(*engine));
    load.merge(query_final_state(run, *engine, kOnlineSimSeconds),
               /*concurrent=*/false);
  }
  reps.report(run);
  run.e2e["peak_rss_mb"] = {run.first_rep_rss_mb, "MiB"};
  engine_layer_metrics(run, *engine, last_wall);
  run.layer["serve.warmup_s"] = {0.0, "s"};  // queries start after the run
  report_load(run, load, load_spec(run));
  if (run.args.trace) run_layer_drives(run, /*trace_io=*/true);
}

/// Counts the records a trace source hands the engine.
class CountingSource final : public nc::lat::TraceSource {
 public:
  explicit CountingSource(const std::string& path) : reader_(path) {}
  std::optional<nc::lat::TraceRecord> next() override {
    auto r = reader_.next();
    if (r) ++count_;
    return r;
  }
  [[nodiscard]] int num_nodes() const override { return reader_.num_nodes(); }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  nc::lat::TraceReader reader_;
  std::uint64_t count_ = 0;
};

void replay_planetlab_1k(Run& run) {
  const nc::lat::TraceGenConfig tcfg =
      replay_trace_config(run.args.seed, kReplaySimSeconds);
  const std::string base = run.args.out_dir + "/replay-" +
                           std::to_string(run.args.seed) + "-" +
                           std::to_string(::getpid());
  const std::string trace_path = base + ".trace";
  const std::int64_t g0 = now_ns();
  std::uint64_t generated = 0;
  {
    pb::ScopedSpan span(run.spans, "latency.generate_trace");
    generated = nc::lat::generate_trace_file(tcfg, trace_path);
  }
  std::printf("input: trace generation %.3f s, %llu records (not in setup_s)\n",
              seconds_between(g0, now_ns()),
              static_cast<unsigned long long>(generated));

  const nc::eval::ScenarioSpec planetlab = nc::eval::make_scenario("planetlab");
  nc::sim::ReplayConfig rc;
  rc.client = planetlab.client;
  rc.duration_s = kReplaySimSeconds;
  rc.measure_start_s = kReplaySimSeconds / 2.0;
  rc.epoch_s = tcfg.ping_interval_s;
  rc.shards = kReplayShards;
  rc.estimator = planetlab.estimator;

  EngineReps reps;
  pb::LoadResult load;
  std::unique_ptr<nc::sim::ShardedEngine> engine;
  std::vector<std::string> slices;
  double last_wall = 0.0;
  for (int rep = 0; keep_going(run, rep); ++rep) {
    engine.reset();
    const std::int64_t t0 = now_ns();
    {
      pb::ScopedSpan span(run.spans, "sim.construct");
      engine = std::make_unique<nc::sim::ShardedEngine>(rc, kReplayNodes);
    }
    {
      nc::lat::TraceReader reader(trace_path);
      const int span = run.spans.open("latency.partition_trace");
      slices = nc::lat::partition_trace(reader, base, kReplayNodes, kReplayShards);
      run.spans.close(span, generated);
    }
    const std::int64_t t1 = now_ns();
    std::vector<std::unique_ptr<CountingSource>> sources;
    std::vector<nc::lat::TraceSource*> ptrs;
    for (const std::string& s : slices) {
      sources.push_back(std::make_unique<CountingSource>(s));
      ptrs.push_back(sources.back().get());
    }
    {
      pb::ScopedSpan span(run.spans, "sim.run");
      engine->run_partitioned(ptrs);
    }
    const std::int64_t t2 = now_ns();
    std::uint64_t ingested = 0;
    for (const auto& s : sources) ingested += s->count();
    if (ingested != generated) {
      ++run.failed;
      run.fail("replay ingested " + std::to_string(ingested) + " of " +
               std::to_string(generated) + " generated records");
    }
    last_wall = seconds_between(t1, t2);
    reps.add(run, seconds_between(t0, t1), last_wall, kReplaySimSeconds,
             science_of(*engine));
    load.merge(query_final_state(run, *engine, kReplaySimSeconds),
               /*concurrent=*/false);
  }
  reps.report(run);
  run.e2e["peak_rss_mb"] = {run.first_rep_rss_mb, "MiB"};
  engine_layer_metrics(run, *engine, last_wall);

  if (run.args.trace) {
    // One timed drain of the slices through TraceReader::next.
    const int span = run.spans.open("latency.trace_read");
    std::uint64_t drained = 0;
    for (const std::string& s : slices) {
      nc::lat::TraceReader reader(s);
      while (reader.next()) ++drained;
    }
    run.spans.close(span, drained);
  }
  std::remove(trace_path.c_str());
  for (const std::string& s : slices) std::remove(s.c_str());

  run.layer["serve.warmup_s"] = {0.0, "s"};  // queries start after the run
  report_load(run, load, load_spec(run));
  if (run.args.trace) run_layer_drives(run, /*trace_io=*/false);
}

/// True once 99% of the nodes that were up at the first publish and are up
/// now have left the origin (received their first coordinate update). The
/// last few can wait hundreds of simulated seconds when every bootstrap
/// peer they know is down; they are answered at the origin meanwhile.
bool warmed_up(const nc::est::EpochSnapshot& snap,
               const std::vector<std::uint8_t>& initially_up) {
  std::size_t live = 0, placed = 0;
  for (std::size_t i = 0; i < snap.nodes.size(); ++i) {
    const nc::est::SnapshotNode& node = snap.nodes[i];
    if (!initially_up[i] || node.up == 0) continue;
    ++live;
    if (node.placed() && !(node.app.position() == nc::Vec::zero(node.app.dim())))
      ++placed;
  }
  return live > 0 && 100 * placed >= 99 * live;
}

void serve_churn_2k(Run& run) {
  const nc::eval::ScenarioSpec spec = online_spec(
      "churn", kServeNodes, kServeSimSeconds, kServeShards, run.args.seed);
  nc::sim::OnlineSimConfig oc = nc::eval::resolve_online_config(spec);
  oc.publish_snapshots = true;
  oc.snapshot_interval_epochs = 1;
  oc.snapshot_deltas = true;
  const pb::LoadSpec lspec = load_spec(run);

  EngineReps reps;
  pb::LoadResult load;
  std::vector<double> warmup_s;
  std::unique_ptr<nc::sim::ShardedEngine> engine;
  double last_wall = 0.0;
  for (int rep = 0; keep_going(run, rep); ++rep) {
    engine.reset();
    const std::int64_t t0 = now_ns();
    {
      pb::ScopedSpan span(run.spans, "sim.construct");
      engine = make_online_engine(spec, oc);
    }
    const std::int64_t t1 = now_ns();
    std::atomic<bool> done{false};
    std::atomic<std::int64_t> t2{0};
    std::exception_ptr error;
    std::jthread runner([&] {
      try {
        engine->run();
      } catch (...) {
        error = std::current_exception();
      }
      t2.store(now_ns());
      done.store(true);
    });

    // Warm-up gate: queries start once a published snapshot has placed the
    // live nodes, so no answered latency times the no-snapshot early-out or
    // a node still parked at the origin.
    const nc::est::SnapshotPublisher& pub = engine->snapshot_publisher();
    nc::est::SnapshotView gate(&pub);
    std::vector<std::uint8_t> initially_up;
    bool open = false;
    while (!done.load()) {
      if (const nc::est::EpochSnapshot* snap = gate.refresh()) {
        if (initially_up.empty())
          for (const auto& node : snap->nodes) initially_up.push_back(node.up);
        if (warmed_up(*snap, initially_up)) {
          open = true;
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    warmup_s.push_back(seconds_between(t1, now_ns()));
    if (open) {
      const double left =
          std::max(0.5, run.args.seconds - run.elapsed_s());
      pb::ScopedSpan span(run.spans, "serve.load");
      pb::LoadResult lr =
          pb::run_load(pub, kServeNodes, lspec, done, left, run.tracer);
      load.merge(std::move(lr), /*concurrent=*/false);
    } else {
      ++run.failed;
      run.fail("engine finished before warm-up placed the nodes");
    }
    runner.join();
    if (error) std::rethrow_exception(error);
    last_wall = seconds_between(t1, t2.load());
    reps.add(run, seconds_between(t0, t1), last_wall, kServeSimSeconds,
             science_of(*engine));
    verify_final_answers(run, pub, kServeNodes, lspec);
  }
  reps.report(run);
  run.e2e["peak_rss_mb"] = {run.first_rep_rss_mb, "MiB"};
  engine_layer_metrics(run, *engine, last_wall);
  std::printf("warm-up: median %.3f s from run start to the load gate\n",
              pb::median(warmup_s));
  run.layer["serve.warmup_s"] = {pb::median(warmup_s), "s"};
  report_load(run, load, lspec);
  if (run.args.trace) run_layer_drives(run, /*trace_io=*/true);
}

void add_trace_layer_metrics(Run& run) {
  const auto per_record = [&](const char* name) {
    const std::uint64_t calls = run.tracer.calls(name);
    return calls == 0 ? 0.0
                      : run.tracer.total_s(name) * 1e9 / static_cast<double>(calls);
  };
  run.layer["latency.partition_ns_per_record"] = {
      per_record("latency.partition_trace"), "ns"};
  run.layer["latency.trace_read_ns_per_record"] = {
      per_record("latency.trace_read"), "ns"};
  run.layer["sim.construct_s"] = {pb::median(run.tracer.per_call_ns("sim.construct")) / 1e9,
                                  "s"};
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stamp = pb::host_stamp_json();
  std::printf("stamp: %s\n", stamp.c_str());
  std::printf("workload: %s seed=%llu seconds=%.0f trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  Run run(args);
  try {
    if (args.workload == "online-planetlab-2k")
      online_planetlab_2k(run);
    else if (args.workload == "replay-planetlab-1k")
      replay_planetlab_1k(run);
    else
      serve_churn_2k(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (args.trace) {
    add_trace_layer_metrics(run);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!run.tracer.write_chrome_json(path, stamp))
      run.fail("cannot write " + path);
    std::printf("trace: %llu spans (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(run.tracer.span_count()),
                static_cast<unsigned long long>(run.tracer.dropped()),
                path.c_str());
  }
  pb::print_result(run.correct, run.attempted, run.failed,
                   args.trace ? run.layer : run.e2e);
  return run.correct ? 0 : 1;
}
