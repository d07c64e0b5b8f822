// Online deployment simulation: the paper's PlanetLab experiment (Sec. VI).
//
// Nodes run the full protocol concurrently as discrete events over the
// stochastic latency network:
//
//  * every node samples one neighbor from its NeighborSet in round-robin
//    order every `ping_interval_s` (paper: 5 s), with a small deterministic
//    phase jitter;
//  * each ping/pong carries the sender's coordinate state plus one gossiped
//    neighbor address, so membership spreads epidemically from a small
//    bootstrap set;
//  * the response arrives after the sampled RTT; the observation applies the
//    remote state as of arrival time;
//  * lost pings and down nodes produce timeouts (no observation).
//
// The event loop itself is the epoch-sharded kernel (sim/sharded_sim.hpp),
// the one engine for every run: construct a ShardedEngine with this config.
// Delivery semantics are the kernel's epoch semantics (messages hand over
// at ping_interval_s boundaries), and all stochastic state derives from
// config.seed and the entity keys.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/nc_client.hpp"
#include "core/neighbor_set.hpp"
#include "estimate/estimator_config.hpp"

namespace nc::sim {

struct OnlineSimConfig {
  NCClientConfig client;

  double duration_s = 4.0 * 3600.0;
  double measure_start_s = 2.0 * 3600.0;
  double ping_interval_s = 5.0;   // paper Sec. VI
  double ping_jitter_s = 0.25;    // deterministic phase jitter per ping

  /// Each node bootstraps with this many random known peers (>= 1).
  int bootstrap_degree = 3;
  std::size_t neighbor_capacity = 512;

  bool collect_timeseries = false;
  double timeseries_bucket_s = 600.0;
  bool collect_oracle = false;
  std::vector<NodeId> tracked_nodes;
  double track_interval_s = 600.0;

  std::uint64_t seed = 7;

  /// Which estimation backend answers RTT queries (and scores the accuracy
  /// metrics). Each shard owns one instance fed its nodes' observations.
  est::EstimatorSpec estimator;

  /// Publish an immutable est::EpochSnapshot of every node's application
  /// coordinate / confidence / availability at epoch boundaries — the
  /// serving layer's concurrent read path (ShardedEngine::
  /// snapshot_publisher()). Off by default; with publication off the run is
  /// bit-identical to a build without the seam. Forced on when
  /// estimator.backend == kSnapshot.
  bool publish_snapshots = false;
  /// Publish every k-th epoch boundary (>= 1). The end-of-run state is
  /// always published once the run finishes, whatever the cadence.
  int snapshot_interval_epochs = 1;
  /// Churn-proportional publication: ship a full base snapshot only every
  /// snapshot_base_interval-th publish and compact deltas (the slots whose
  /// published state actually changed) in between. Readers reconstruct the
  /// full view through est::SnapshotView. Observationally identical to full
  /// publication — same publish epochs, same version numbering, and any
  /// reconstructed view matches the full snapshot slot for slot — only the
  /// bytes shipped per publish change (O(churn) instead of O(n)).
  bool snapshot_deltas = false;
  /// Full-base cadence in publishes (>= 1) when snapshot_deltas is on. The
  /// end-of-run publish always ships a base, whatever the cadence.
  int snapshot_base_interval = 16;

  /// Dynamic shard ownership (core/ownership.hpp): every k-th epoch barrier
  /// each shard deterministically re-plans node placement from per-node
  /// event weights and migrates a bounded batch of nodes between shards
  /// through the epoch mailbox. 0 (default) keeps the static block
  /// partition. Metrics are bit-identical at any shard count with
  /// rebalancing on, and identical to off — only per-shard utilization and
  /// the memory layout change.
  int rebalance_interval_epochs = 0;
  /// Upper bound on nodes migrated per rebalance barrier (>= 0).
  int rebalance_max_moves = 8;

};

/// Per-node runtime of the online protocol: clients, neighbor sets with
/// bootstrap membership, and per-node ping-timer streams, all derived from
/// config.seed. The sharded kernel builds its node state through this one
/// helper, which is what pins the starting membership to the seed alone.
struct OnlineNodeRuntime {
  std::vector<std::unique_ptr<NCClient>> clients;
  std::vector<NeighborSet> neighbors;
  std::vector<Rng> timer_rngs;
};

/// Validates the online config (bootstrap degree in [1, n), positive ping
/// interval, positive track interval when tracking) and builds the runtime.
/// Bootstrap counts only DISTINCT peers — a duplicate random draw must not
/// eat a slot, or nodes silently start under-connected.
[[nodiscard]] OnlineNodeRuntime make_online_node_runtime(
    const OnlineSimConfig& config, int num_nodes);

}  // namespace nc::sim
