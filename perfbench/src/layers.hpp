// Layer drives of the traced run: calls into one module's public functions
// at a time, on inputs taken from the benchmark's workloads, so each layer's
// cost per call is measured apart from the engine around it.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "core/nc_client.hpp"
#include "latency/trace_generator.hpp"
#include "tracer.hpp"

namespace pb {

/// Drives the `core` pipeline serially over the records of a replay trace:
/// NCClient::observe with the remote state of the other clients, then each
/// stage's public API (LatencyFilter::update, Vivaldi::observe,
/// UpdateHeuristic::on_system_update) fed the inputs recorded during that
/// drive. Adds core.* metrics. Returns false if a stage driven on its own
/// disagrees with the pipeline.
bool drive_core(const nc::lat::TraceGenConfig& trace,
                const nc::NCClientConfig& client, SpanBuffer& spans,
                const Tracer& tracer, MetricMap& out);

/// Drives NeighborSet::add with the online workload's node count, capacity
/// and ping-plus-gossip pattern for `rounds` ping rounds. Adds
/// core.neighbor_add_ns and the share of adds that changed a set.
void drive_neighbors(int num_nodes, std::size_t capacity, int bootstrap_degree,
                     std::uint64_t seed, int rounds, SpanBuffer& spans,
                     const Tracer& tracer, MetricMap& out);

/// Writes a trace to `dir`, then times lat::partition_trace over it and one
/// drain of the slices through TraceReader::next (spans
/// latency.partition_trace and latency.trace_read). Returns the record
/// count, or 0 if the slices did not hold every record.
std::uint64_t drive_trace_io(const nc::lat::TraceGenConfig& trace, int shards,
                    const std::string& dir, SpanBuffer& spans);

}  // namespace pb
