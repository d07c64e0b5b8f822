// The online protocol on the engine's reference semantics (one shard):
// convergence, gossip, churn, drift tracking and config validation.
#include "sim/online_sim.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "sim/sharded_sim.hpp"

namespace nc::sim {
namespace {

lat::Topology small_topology(int nodes = 20, std::uint64_t seed = 81) {
  lat::TopologyConfig tc;
  tc.num_nodes = nodes;
  tc.seed = seed;
  return lat::Topology::make(tc);
}

lat::AvailabilityConfig all_up() {
  lat::AvailabilityConfig av;
  av.enabled = false;
  return av;
}

/// A one-shard online engine over `topology`.
ShardedEngine small_engine(const OnlineSimConfig& config,
                           lat::Topology topology = small_topology(),
                           const lat::LinkModelConfig& link = {},
                           const lat::AvailabilityConfig& availability = all_up()) {
  return ShardedEngine(config, 1, std::move(topology), link, availability);
}

OnlineSimConfig small_config(double duration = 900.0) {
  OnlineSimConfig c;
  c.client.vivaldi.dim = 3;
  c.client.heuristic = HeuristicConfig::always();
  c.duration_s = duration;
  c.measure_start_s = duration / 2.0;
  c.ping_interval_s = 2.0;
  return c;
}

TEST(OnlineEngine, RunsAndConverges) {
  ShardedEngine sim = small_engine(small_config());
  sim.run();
  EXPECT_GT(sim.pings_sent(), 1000u);
  EXPECT_GT(sim.metrics().observation_count(), 500u);
  EXPECT_LT(sim.metrics().median_relative_error(), 0.3);
}

TEST(OnlineEngine, RunTwiceRejected) {
  ShardedEngine sim = small_engine(small_config(60.0));
  sim.run();
  EXPECT_THROW(sim.run(), CheckError);
}

TEST(OnlineEngine, GossipSpreadsMembership) {
  OnlineSimConfig c = small_config(900.0);
  c.bootstrap_degree = 1;  // minimal seed knowledge
  ShardedEngine sim = small_engine(c);
  sim.run();
  // Every node should know far more peers than it was bootstrapped with.
  int grew = 0;
  for (NodeId id = 0; id < sim.num_nodes(); ++id)
    if (sim.neighbors(id).size() >= 5) ++grew;
  EXPECT_GT(grew, sim.num_nodes() * 3 / 4);
}

TEST(OnlineEngine, DeterministicBySeed) {
  const auto run_once = [] {
    ShardedEngine sim = small_engine(small_config(300.0), small_topology(12, 83));
    sim.run();
    return std::tuple{sim.pings_sent(), sim.metrics().observation_count(),
                      sim.metrics().median_relative_error()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(OnlineEngine, IdenticalWorkloadAcrossClientConfigs) {
  // The paper runs filtered and unfiltered coordinate systems side by side
  // on the same hosts. Same seed + same network seed => identical pings and
  // RTT streams regardless of the client configuration.
  const auto pings_with = [](FilterConfig f) {
    OnlineSimConfig c = small_config(300.0);
    c.client.filter = f;
    ShardedEngine sim = small_engine(c, small_topology(12, 85));
    sim.run();
    return std::pair{sim.pings_sent(), sim.pings_lost()};
  };
  EXPECT_EQ(pings_with(FilterConfig::moving_percentile(4, 25)),
            pings_with(FilterConfig::none()));
}

TEST(OnlineEngine, LossyNetworkStillConverges) {
  lat::LinkModelConfig lm;
  lm.loss_prob = 0.15;
  ShardedEngine sim = small_engine(small_config(900.0), small_topology(16, 87), lm);
  sim.run();
  EXPECT_GT(sim.pings_lost(), 0u);
  EXPECT_LT(sim.metrics().median_relative_error(), 0.4);
}

TEST(OnlineEngine, ChurnedNodesDoNotPingWhileDown) {
  lat::AvailabilityConfig av;
  av.enabled = true;
  av.initial_up_prob = 0.5;
  av.mean_up_s = 1e9;
  av.mean_down_s = 1e9;
  ShardedEngine sim = small_engine(small_config(300.0), small_topology(10, 89), {}, av);
  sim.run();
  // Roughly half the nodes are permanently down: ping volume is well below
  // the all-up expectation of ~10 * 150.
  EXPECT_LT(sim.pings_sent(), 10u * 150u * 3u / 4u);
}

TEST(OnlineEngine, TracksDrift) {
  OnlineSimConfig c = small_config(600.0);
  c.tracked_nodes = {1};
  c.track_interval_s = 120.0;
  ShardedEngine sim = small_engine(c, small_topology(8));
  sim.run();
  EXPECT_GE(sim.metrics().drift(1).size(), 3u);
}

TEST(OnlineEngine, DriftSeriesCoversTheWholeRun) {
  OnlineSimConfig c = small_config(600.0);
  c.tracked_nodes = {1};
  c.track_interval_s = 250.0;
  ShardedEngine sim = small_engine(c, small_topology(8));
  sim.run();
  // Interior samples at 250 and 500 plus the final flush at duration_s.
  const auto& d = sim.metrics().drift(1);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d.back().t, 600.0);
}

TEST(OnlineEngine, NonPositiveTrackIntervalRejected) {
  // Used to spin forever inside maybe_track (next_track_t_ += 0).
  OnlineSimConfig c = small_config(300.0);
  c.tracked_nodes = {1};
  c.track_interval_s = 0.0;
  EXPECT_THROW(small_engine(c, small_topology(8)), CheckError);
}

TEST(OnlineEngine, BootstrapDegreeCountsDistinctPeers) {
  // With 8 nodes and degree 5 duplicate draws are near-certain; every node
  // must still start with exactly 5 DISTINCT live peers (the constructor
  // used to count duplicates toward the degree and under-connect).
  OnlineSimConfig c = small_config(60.0);
  c.bootstrap_degree = 5;
  ShardedEngine sim = small_engine(c, small_topology(8));
  for (NodeId id = 0; id < sim.num_nodes(); ++id) {
    EXPECT_EQ(sim.neighbors(id).size(), 5u) << "node " << id;
    EXPECT_FALSE(sim.neighbors(id).contains(id)) << "node " << id;
  }
}

TEST(OnlineEngine, BootstrapDegreeMustLeaveANonPeer) {
  // degree >= n can never find enough distinct peers: reject instead of
  // looping forever in the constructor.
  OnlineSimConfig c = small_config(60.0);
  c.bootstrap_degree = 8;
  EXPECT_THROW(small_engine(c, small_topology(8)), CheckError);
}

}  // namespace
}  // namespace nc::sim
