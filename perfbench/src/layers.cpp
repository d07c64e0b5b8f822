#include "layers.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/filter.hpp"
#include "core/heuristics/update_heuristic.hpp"
#include "core/vivaldi.hpp"
#include "latency/trace.hpp"
#include "sim/online_sim.hpp"

namespace pb {

namespace {

using nc::Coordinate;
using nc::NodeId;

constexpr std::size_t kBatch = 4096;

/// Runs body(i) for i in [0, n) in batches of kBatch calls, one span per
/// batch, so a span's duration over its call count is the per-call cost.
template <typename Body>
void batched(SpanBuffer& spans, const char* name, std::size_t n, Body&& body) {
  for (std::size_t lo = 0; lo < n; lo += kBatch) {
    const std::size_t hi = std::min(n, lo + kBatch);
    const int span = spans.open(name);
    for (std::size_t i = lo; i < hi; ++i) body(i);
    spans.close(span, hi - lo);
  }
}

double median_per_call(const Tracer& tracer, const char* name) {
  return median(tracer.per_call_ns(name));
}

std::vector<std::unique_ptr<nc::NCClient>> make_clients(
    int n, const nc::NCClientConfig& config) {
  std::vector<std::unique_ptr<nc::NCClient>> clients;
  clients.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id)
    clients.push_back(std::make_unique<nc::NCClient>(id, config));
  return clients;
}

}  // namespace

bool drive_core(const nc::lat::TraceGenConfig& trace,
                const nc::NCClientConfig& client, SpanBuffer& spans,
                const Tracer& tracer, MetricMap& out) {
  nc::lat::TraceGenerator gen(trace);
  const int n = gen.num_nodes();
  std::vector<nc::lat::TraceRecord> recs;
  while (auto r = gen.next()) recs.push_back(*r);
  const std::size_t m = recs.size();

  // Recording pass: the inputs every stage sees, taken from one serial run
  // of the full pipeline.
  std::vector<Coordinate> remote(m);
  std::vector<double> remote_err(m);
  std::vector<double> filtered(m, std::nan(""));
  struct HeuristicInput {
    NodeId node;
    double now_s;
    Coordinate system;
    Coordinate nearest;  // uninitialized: no nearest neighbor yet
  };
  std::vector<HeuristicInput> heur_in;
  std::vector<Coordinate> app_seed(static_cast<std::size_t>(n));
  std::uint64_t ref_app_updates = 0;
  std::vector<Coordinate> ref_system(static_cast<std::size_t>(n));
  {
    auto clients = make_clients(n, client);
    struct Nearest {
      NodeId id = nc::kInvalidNode;
      double rtt = 0.0;
      Coordinate coord;
    };
    std::vector<Nearest> nearest(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < m; ++i) {
      const auto& r = recs[i];
      nc::NCClient& c = *clients[static_cast<std::size_t>(r.src)];
      const nc::NCClient& peer = *clients[static_cast<std::size_t>(r.dst)];
      remote[i] = peer.system_coordinate();
      remote_err[i] = peer.error_estimate();
      const bool seeded = c.app_update_count() > 0;
      const nc::ObservationOutcome o = c.observe(
          r.dst, remote[i], remote_err[i], static_cast<double>(r.rtt_ms), r.t_s);
      if (!o.filtered_rtt_ms) continue;
      filtered[i] = *o.filtered_rtt_ms;
      // NCClient's nearest-neighbor rule, mirrored for the heuristic's
      // context.
      Nearest& nn = nearest[static_cast<std::size_t>(r.src)];
      if (nn.id == nc::kInvalidNode || filtered[i] <= nn.rtt || r.dst == nn.id)
        nn = {r.dst, filtered[i], remote[i]};
      if (!seeded)
        app_seed[static_cast<std::size_t>(r.src)] = c.system_coordinate();
      else
        heur_in.push_back({r.src, r.t_s, c.system_coordinate(), nn.coord});
    }
    for (NodeId id = 0; id < n; ++id) {
      const nc::NCClient& c = *clients[static_cast<std::size_t>(id)];
      ref_app_updates += c.app_update_count();
      ref_system[static_cast<std::size_t>(id)] = c.system_coordinate();
    }
  }

  // NCClient::observe, the whole pipeline, with the remote state recorded
  // above (identical to the other clients' live state at that point).
  std::uint64_t vivaldi_updates = 0, app_updates = 0;
  {
    auto clients = make_clients(n, client);
    batched(spans, "core.observe", m, [&](std::size_t i) {
      const auto& r = recs[i];
      const nc::ObservationOutcome o =
          clients[static_cast<std::size_t>(r.src)]->observe(
              r.dst, remote[i], remote_err[i], static_cast<double>(r.rtt_ms),
              r.t_s);
      vivaldi_updates += o.vivaldi_updated ? 1 : 0;
      app_updates += o.app_updated ? 1 : 0;
    });
  }

  // LatencyFilter::update per directed link.
  bool ok = true;
  {
    std::unordered_map<std::uint64_t, std::uint32_t> link_of;
    std::vector<std::uint32_t> link(m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t key = (static_cast<std::uint64_t>(recs[i].src) << 32) |
                                static_cast<std::uint32_t>(recs[i].dst);
      link[i] = link_of.emplace(key, static_cast<std::uint32_t>(link_of.size()))
                    .first->second;
    }
    std::vector<std::unique_ptr<nc::LatencyFilter>> filters;
    filters.reserve(link_of.size());
    for (std::size_t l = 0; l < link_of.size(); ++l)
      filters.push_back(client.filter.make());
    std::vector<double> got(m);
    batched(spans, "core.filter", m, [&](std::size_t i) {
      got[i] = filters[link[i]]
                   ->update(static_cast<double>(recs[i].rtt_ms))
                   .value_or(std::nan(""));
    });
    for (std::size_t i = 0; i < m; ++i)
      ok = ok && (got[i] == filtered[i] ||
                  (std::isnan(got[i]) && std::isnan(filtered[i])));
  }

  // Vivaldi::observe on the filtered samples.
  {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < m; ++i)
      if (!std::isnan(filtered[i])) idx.push_back(i);
    std::vector<nc::Vivaldi> viv;
    viv.reserve(static_cast<std::size_t>(n));
    for (NodeId id = 0; id < n; ++id)
      viv.emplace_back(client.vivaldi, static_cast<std::uint64_t>(id));
    batched(spans, "core.vivaldi", idx.size(), [&](std::size_t j) {
      const std::size_t i = idx[j];
      (void)viv[static_cast<std::size_t>(recs[i].src)].observe(
          remote[i], remote_err[i], filtered[i]);
    });
    for (NodeId id = 0; id < n; ++id)
      ok = ok && viv[static_cast<std::size_t>(id)].coordinate() ==
                     ref_system[static_cast<std::size_t>(id)];
  }

  // UpdateHeuristic::on_system_update after each Vivaldi step (the energy
  // window under the default configuration).
  {
    std::vector<std::unique_ptr<nc::UpdateHeuristic>> heur;
    heur.reserve(static_cast<std::size_t>(n));
    for (NodeId id = 0; id < n; ++id) heur.push_back(client.heuristic.make());
    std::vector<Coordinate> app = app_seed;
    std::uint64_t updates = 0;
    for (const Coordinate& c : app_seed) updates += c.initialized() ? 1 : 0;
    batched(spans, "core.heuristic", heur_in.size(), [&](std::size_t j) {
      const HeuristicInput& in = heur_in[j];
      const nc::UpdateContext ctx{
          .system = in.system,
          .nearest = in.nearest.initialized() ? &in.nearest : nullptr,
          .now_s = in.now_s,
      };
      const auto node = static_cast<std::size_t>(in.node);
      updates += heur[node]->on_system_update(ctx, app[node]) ? 1 : 0;
    });
    ok = ok && updates == ref_app_updates;
  }
  ok = ok && app_updates == ref_app_updates;

  out["core.observe_ns"] = {median_per_call(tracer, "core.observe"), "ns"};
  out["core.filter_ns"] = {median_per_call(tracer, "core.filter"), "ns"};
  out["core.vivaldi_ns"] = {median_per_call(tracer, "core.vivaldi"), "ns"};
  out["core.heuristic_ns"] = {median_per_call(tracer, "core.heuristic"), "ns"};
  out["core.vivaldi_update_ratio"] = {
      m == 0 ? 0.0 : static_cast<double>(vivaldi_updates) / static_cast<double>(m),
      "ratio"};
  out["core.app_update_ratio"] = {
      vivaldi_updates == 0 ? 0.0
                           : static_cast<double>(app_updates) /
                                 static_cast<double>(vivaldi_updates),
      "ratio"};
  out["core.drive_records"] = {static_cast<double>(m), "count"};
  return ok;
}

void drive_neighbors(int num_nodes, std::size_t capacity, int bootstrap_degree,
                     std::uint64_t seed, int rounds, SpanBuffer& spans,
                     const Tracer& tracer, MetricMap& out) {
  nc::sim::OnlineSimConfig oc;
  oc.neighbor_capacity = capacity;
  oc.bootstrap_degree = bootstrap_degree;
  oc.seed = seed;

  // Pass 1 runs the engine's pattern (a ping adds the pinger and the
  // gossiped peer at the target; the pong adds the target's gossiped peer
  // at the pinger) and records the adds; pass 2 replays only the add calls
  // on an identical fresh runtime.
  std::vector<std::pair<NodeId, NodeId>> adds;
  nc::sim::OnlineNodeRuntime ref = nc::sim::make_online_node_runtime(oc, num_nodes);
  auto& nb = ref.neighbors;
  std::vector<std::size_t> round_start{0};
  for (int r = 0; r < rounds; ++r) {
    for (NodeId i = 0; i < num_nodes; ++i) {
      auto& mine = nb[static_cast<std::size_t>(i)];
      const auto target = mine.next_round_robin();
      if (!target) continue;
      auto& theirs = nb[static_cast<std::size_t>(*target)];
      const auto gossip = mine.random_neighbor();
      adds.emplace_back(*target, i);
      theirs.add(i);
      if (gossip && *gossip != *target) {
        adds.emplace_back(*target, *gossip);
        theirs.add(*gossip);
      }
      if (const auto back = theirs.random_neighbor(); back && *back != i) {
        adds.emplace_back(i, *back);
        mine.add(*back);
      }
    }
    round_start.push_back(adds.size());
  }

  // The replay draws no random_neighbor, so a full set's replacement
  // choices may drift from pass 1; the add workload (who is added where,
  // in which order) is pass 1's.
  nc::sim::OnlineNodeRuntime fresh = nc::sim::make_online_node_runtime(oc, num_nodes);
  auto& sets = fresh.neighbors;
  std::uint64_t changed = 0;
  for (std::size_t r = 0; r + 1 < round_start.size(); ++r) {
    const int span = spans.open("core.neighbor_add");
    for (std::size_t k = round_start[r]; k < round_start[r + 1]; ++k)
      changed += sets[static_cast<std::size_t>(adds[k].first)].add(adds[k].second) ? 1 : 0;
    spans.close(span, round_start[r + 1] - round_start[r]);
  }
  out["core.neighbor_add_ns"] = {median_per_call(tracer, "core.neighbor_add"), "ns"};
  out["core.neighbor_add_changed_ratio"] = {
      adds.empty() ? 0.0 : static_cast<double>(changed) / static_cast<double>(adds.size()),
      "ratio"};
}

std::uint64_t drive_trace_io(const nc::lat::TraceGenConfig& trace, int shards,
                             const std::string& dir, SpanBuffer& spans) {
  const std::string path = dir + "/drive.trace";
  const std::uint64_t records = nc::lat::generate_trace_file(trace, path);
  const int n = trace.topology.num_nodes;
  std::vector<std::string> slices;
  {
    nc::lat::TraceReader reader(path);
    const int span = spans.open("latency.partition_trace");
    slices = nc::lat::partition_trace(reader, dir + "/drive", n, shards);
    spans.close(span, records);
  }
  std::uint64_t drained = 0;
  {
    const int span = spans.open("latency.trace_read");
    for (const std::string& s : slices) {
      nc::lat::TraceReader reader(s);
      while (reader.next()) ++drained;
    }
    spans.close(span, drained);
  }
  std::remove(path.c_str());
  for (const std::string& s : slices) std::remove(s.c_str());
  return drained == records ? records : 0;
}

}  // namespace pb
