// The benchmark's own open-loop query client.
//
// Each client thread owns a serve::CoordinateService over the engine's
// snapshot publisher and fires a Poisson arrival schedule at a fixed rate
// (open loop: arrivals do not wait for answers). It waits for each arrival
// by sleeping only while the gap is long and spinning the last stretch, so
// wake-up lateness stays out of the query latency; what lateness remains
// is reported on its own (call start minus scheduled arrival). Latency is
// timed from the scheduled arrival to the answer, so a slow call is charged
// to the arrivals it delays. Answered and empty answers are kept apart.
//
// Every `check_every`-th query is re-derived by brute force from a
// snapshot view of the same version (the service's own answer path is not
// consulted); a mismatch fails the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "estimate/snapshot.hpp"
#include "tracer.hpp"

namespace pb {

enum QueryKind : int { kDistance = 0, kNearest = 1, kCentroid = 2, kKinds = 3 };

struct LoadSpec {
  int clients = 2;
  double rate_qps = 1000.0;  // aggregate offered rate over all clients
  int k = 5;                 // nearest-k fan-out
  int centroid_size = 8;     // group size of centroid queries
  double nearest_frac = 0.08;
  double centroid_frac = 0.02;
  std::uint64_t seed = 1;
  int check_every = 256;
  /// Latency percentiles are taken per window of this many seconds (by
  /// scheduled arrival) and summarised by their fast quartile over windows,
  /// so host-level stalls move the windows they hit, not the figure.
  double window_s = 0.1;
  /// Traced run: every 64th query records spans, so traced and untraced
  /// queries run side by side and their difference is the tracing overhead.
  bool trace_sampled = false;
};

struct LoadResult {
  /// Scheduled arrival to answer, ns; answered and empty kept apart.
  std::vector<std::uint32_t> answered_ns;
  std::vector<std::uint32_t> empty_ns;
  /// Window (see LoadSpec::window_s) of each answered query; windows of
  /// merged results are renumbered so they never collide.
  std::vector<std::uint32_t> answered_window;
  std::uint32_t windows = 0;
  /// Call start minus scheduled arrival, ns (generator + queueing wait).
  std::vector<std::uint32_t> late_ns;
  /// Duration of each call into the service, ns, by query kind.
  std::vector<std::uint32_t> call_ns[kKinds];
  /// Traced run only: the client's whole per-query cost (call plus
  /// bookkeeping), summed by [untraced, traced] and query kind.
  double cycle_sum_ns[2][kKinds] = {};
  std::uint64_t cycle_count[2][kKinds] = {};
  /// Histogram of how many versions each answer's snapshot lagged the
  /// newest publish by (the last bin collects everything beyond).
  std::vector<std::uint64_t> staleness = std::vector<std::uint64_t>(64, 0);
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t empty = 0;
  std::uint64_t checked = 0;     // brute-force re-derivations that ran
  std::uint64_t mismatched = 0;  // ... and disagreed with the service
  std::uint64_t raced = 0;       // skipped: a publish landed in between
  double elapsed_s = 0.0;        // load window, first arrival to last answer

  /// Adds `o`: a client of the same load (`concurrent`: shared windows and
  /// wall time) or a later load (windows and wall time append).
  void merge(LoadResult&& o, bool concurrent);

  /// Lower quartile, over windows holding at least `min_samples` answered
  /// queries, of each window's q-quantile of answered latency, in ns.
  [[nodiscard]] double windowed_quantile(double q, std::size_t min_samples) const;
};

/// Runs `spec.clients` client threads against `source` until `stop` is set
/// or `max_seconds` have passed; joins them before returning.
LoadResult run_load(const nc::est::SnapshotPublisher& source, int num_nodes,
                    const LoadSpec& spec, const std::atomic<bool>& stop,
                    double max_seconds, Tracer& tracer);

/// Issues `queries` queries of the default mix against the (no longer
/// changing) newest snapshot and re-derives every answer by brute force.
/// Returns the number of mismatches.
std::uint64_t check_final_answers(const nc::est::SnapshotPublisher& source,
                                  int num_nodes, const LoadSpec& spec,
                                  int queries);

}  // namespace pb
