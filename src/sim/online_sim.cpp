#include "sim/online_sim.hpp"

#include "common/check.hpp"

namespace nc::sim {

OnlineNodeRuntime make_online_node_runtime(const OnlineSimConfig& config,
                                           int num_nodes) {
  const int n = num_nodes;
  NC_CHECK_MSG(config.bootstrap_degree >= 1, "need at least one bootstrap peer");
  NC_CHECK_MSG(config.bootstrap_degree < n,
               "bootstrap_degree must leave at least one non-peer "
               "(fewer distinct peers than requested exist)");
  NC_CHECK_MSG(config.ping_interval_s > 0.0, "ping interval must be positive");
  NC_CHECK_MSG(config.tracked_nodes.empty() || config.track_interval_s > 0.0,
               "tracking requires a positive track interval");

  OnlineNodeRuntime rt;
  rt.clients.reserve(static_cast<std::size_t>(n));
  rt.neighbors.reserve(static_cast<std::size_t>(n));
  rt.timer_rngs.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    rt.clients.push_back(std::make_unique<NCClient>(id, config.client));
    rt.neighbors.emplace_back(
        config.neighbor_capacity,
        hash_combine(config.seed, static_cast<std::uint64_t>(id)));
    rt.timer_rngs.push_back(Rng::derived(config.seed, rngstream::kPingTimer,
                                         static_cast<std::uint64_t>(id)));
  }
  // Bootstrap membership: every node knows `bootstrap_degree` DISTINCT live
  // random peers, drawn from its own kBootstrap stream.
  for (NodeId id = 0; id < n; ++id) {
    Rng boot = Rng::derived(config.seed, rngstream::kBootstrap,
                            static_cast<std::uint64_t>(id));
    int added = 0;
    while (added < config.bootstrap_degree) {
      const auto peer = static_cast<NodeId>(boot.uniform_int(static_cast<std::uint64_t>(n)));
      if (peer == id) continue;
      if (rt.neighbors[static_cast<std::size_t>(id)].add(peer)) ++added;
    }
  }
  return rt;
}

}  // namespace nc::sim
