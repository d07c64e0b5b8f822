#include "load.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "serve/coordinate_service.hpp"

namespace pb {

namespace {

using nc::NodeId;
using nc::est::EpochSnapshot;
using Neighbor = nc::serve::CoordinateService::Neighbor;

constexpr std::uint64_t kLoadStream = 0x7062636cULL;  // "pbcl"
constexpr const char* kCallSpan[kKinds] = {
    "serve.distance_ms", "serve.nearest_k", "serve.centroid"};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until `due_ns`: sleeps while the gap is long, spins the last
/// stretch (a sleep_until wake-up is tens of microseconds late). Returns
/// the wake time, or -1 once `stop` is set.
std::int64_t wait_until(std::int64_t due_ns, const std::atomic<bool>& stop) {
  for (;;) {
    const std::int64_t now = now_ns();
    if (now >= due_ns) return now;
    if (stop.load(std::memory_order_relaxed)) return -1;
    const std::int64_t gap = due_ns - now;
    if (gap > 300'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap - 200'000));
    else
      cpu_relax();
  }
}

std::uint32_t clamp_ns(std::int64_t ns) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, 0xffffffffLL));
}

/// One drawn query of the mix.
struct Query {
  QueryKind kind = kDistance;
  NodeId a = 0;
  NodeId b = 0;
  std::vector<NodeId> group;
};

class QueryDrawer {
 public:
  QueryDrawer(const LoadSpec& spec, int num_nodes, std::uint64_t stream)
      : spec_(spec),
        n_(num_nodes),
        rng_(nc::Rng::derived(spec.seed, kLoadStream, stream)) {
    q_.group.resize(static_cast<std::size_t>(spec.centroid_size));
  }

  const Query& next() {
    const double u = rng_.uniform();
    if (u < spec_.nearest_frac) {
      q_.kind = kNearest;
      q_.a = node();
    } else if (u < spec_.nearest_frac + spec_.centroid_frac) {
      q_.kind = kCentroid;
      for (NodeId& id : q_.group) id = node();
    } else {
      q_.kind = kDistance;
      q_.a = node();
      q_.b = node();
      if (q_.a == q_.b) q_.b = static_cast<NodeId>((q_.b + 1) % n_);
    }
    return q_;
  }

  double gap_s(double rate) { return rng_.exponential(rate); }

 private:
  NodeId node() {
    return static_cast<NodeId>(rng_.uniform_int(static_cast<std::uint64_t>(n_)));
  }

  const LoadSpec& spec_;
  int n_;
  nc::Rng rng_;
  Query q_;
};

/// The answer a service call gave, kept for the brute-force check.
struct Answer {
  std::optional<double> distance;
  std::vector<Neighbor> neighbors;
  std::optional<nc::Coordinate> centroid;
};

bool run_query(nc::serve::CoordinateService& service, const LoadSpec& spec,
               const Query& q, Answer& ans) {
  switch (q.kind) {
    case kNearest:
      service.nearest_k(q.a, spec.k, ans.neighbors);
      return !ans.neighbors.empty();
    case kCentroid:
      ans.centroid = service.centroid(q.group);
      return ans.centroid.has_value();
    default:
      ans.distance = service.distance_ms(q.a, q.b);
      return ans.distance.has_value();
  }
}

/// Re-derives the answer to `q` from `snap` by brute force.
bool answer_matches(const EpochSnapshot& snap, const LoadSpec& spec,
                    const Query& q, const Answer& ans) {
  const auto& nodes = snap.nodes;
  switch (q.kind) {
    case kNearest: {
      std::vector<Neighbor> want;
      const auto& origin = nodes[static_cast<std::size_t>(q.a)];
      if (origin.placed()) {
        for (std::size_t id = 0; id < nodes.size(); ++id) {
          if (static_cast<NodeId>(id) == q.a || !nodes[id].placed() ||
              nodes[id].up == 0)
            continue;
          want.push_back({static_cast<NodeId>(id),
                          origin.app.distance_to(nodes[id].app)});
        }
        const std::size_t take =
            std::min(want.size(), static_cast<std::size_t>(spec.k));
        std::partial_sort(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(take),
                          want.end(), [](const Neighbor& x, const Neighbor& y) {
                            return x.rtt_ms != y.rtt_ms ? x.rtt_ms < y.rtt_ms
                                                        : x.id < y.id;
                          });
        want.resize(take);
      }
      if (want.size() != ans.neighbors.size()) return false;
      for (std::size_t i = 0; i < want.size(); ++i)
        if (want[i].id != ans.neighbors[i].id ||
            want[i].rtt_ms != ans.neighbors[i].rtt_ms)
          return false;
      return true;
    }
    case kCentroid: {
      std::optional<nc::Vec> sum;
      bool with_height = false;
      int placed = 0;
      for (const NodeId id : q.group) {
        const auto& node = nodes[static_cast<std::size_t>(id)];
        if (!node.placed()) continue;
        if (sum.has_value()) {
          *sum += node.app.as_vec();
        } else {
          sum = node.app.as_vec();
          with_height = node.app.has_height();
        }
        ++placed;
      }
      if (placed == 0) return !ans.centroid.has_value();
      return ans.centroid.has_value() &&
             *ans.centroid == nc::Coordinate::from_vec(
                                  *sum / static_cast<double>(placed), with_height);
    }
    default: {
      const auto& na = nodes[static_cast<std::size_t>(q.a)];
      const auto& nb = nodes[static_cast<std::size_t>(q.b)];
      if (!na.placed() || !nb.placed()) return !ans.distance.has_value();
      return ans.distance.has_value() && *ans.distance == na.app.distance_to(nb.app);
    }
  }
}

void client_loop(const nc::est::SnapshotPublisher& source, int num_nodes,
                 const LoadSpec& spec, const std::atomic<bool>& stop,
                 double max_seconds, int idx, std::int64_t t0,
                 SpanBuffer& spans, LoadResult& out) {
  nc::serve::CoordinateService service(&source, num_nodes);
  nc::est::SnapshotView check_view(&source);
  QueryDrawer draw(spec, num_nodes, static_cast<std::uint64_t>(idx));
  Answer ans;
  const double rate = spec.rate_qps / static_cast<double>(spec.clients);
  const auto window_ns = static_cast<std::int64_t>(spec.window_s * 1e9);
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(max_seconds * 1e9);
  double offset_ns = draw.gap_s(rate) * 1e9;
  std::int64_t last_end = t0;

  for (std::uint64_t q = 1;; ++q) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(offset_ns);
    offset_ns += draw.gap_s(rate) * 1e9;
    if (due >= deadline) break;
    const Query& query = draw.next();  // drawn before the wait: not timed
    const std::int64_t start = wait_until(due, stop);
    if (start < 0) break;

    const bool got = run_query(service, spec, query, ans);
    const std::int64_t end = now_ns();
    const bool traced = spec.trace_sampled && q % 64 == 0;
    if (traced) {
      // One request id ties the query span (from its scheduled arrival) to
      // the call span inside it.
      const std::uint64_t request = (static_cast<std::uint64_t>(idx + 1) << 40) | q;
      const int parent = spans.add("serve.query", due, end, -1, request);
      spans.add(kCallSpan[query.kind], start, end, parent, request);
    }

    last_end = end;
    ++out.issued;
    out.late_ns.push_back(clamp_ns(start - due));
    out.call_ns[query.kind].push_back(clamp_ns(end - start));
    if (got) {
      ++out.answered;
      out.answered_ns.push_back(clamp_ns(end - due));
      out.answered_window.push_back(static_cast<std::uint32_t>((due - t0) / window_ns));
    } else {
      ++out.empty;
      out.empty_ns.push_back(clamp_ns(end - due));
    }
    ++out.staleness[std::min<std::uint64_t>(
        source.published() - service.snapshot_version(), out.staleness.size() - 1)];

    if (spec.trace_sampled) {
      const int t = traced ? 1 : 0;
      out.cycle_sum_ns[t][query.kind] += static_cast<double>(now_ns() - start);
      ++out.cycle_count[t][query.kind];
    }

    if (q % static_cast<std::uint64_t>(spec.check_every) == 0) {
      // The view refreshes AFTER the call, so an equal version proves no
      // publish landed in between: both read the same snapshot.
      const EpochSnapshot* snap = check_view.refresh();
      if (snap == nullptr || snap->version != service.snapshot_version()) {
        ++out.raced;
      } else {
        ++out.checked;
        if (!answer_matches(*snap, spec, query, ans)) ++out.mismatched;
      }
    }
  }
  out.elapsed_s = seconds_between(t0, last_end);
  out.windows = static_cast<std::uint32_t>((last_end - t0) / window_ns + 1);
}

template <typename T>
void append(std::vector<T>& dst, std::vector<T>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace

void LoadResult::merge(LoadResult&& o, bool concurrent) {
  const std::uint32_t shift = concurrent ? 0 : windows;
  for (std::uint32_t& w : o.answered_window) w += shift;
  windows = concurrent ? std::max(windows, o.windows) : windows + o.windows;
  elapsed_s = concurrent ? std::max(elapsed_s, o.elapsed_s) : elapsed_s + o.elapsed_s;
  append(answered_window, o.answered_window);
  append(answered_ns, o.answered_ns);
  append(empty_ns, o.empty_ns);
  append(late_ns, o.late_ns);
  for (int k = 0; k < kKinds; ++k) {
    append(call_ns[k], o.call_ns[k]);
    for (int t = 0; t < 2; ++t) {
      cycle_sum_ns[t][k] += o.cycle_sum_ns[t][k];
      cycle_count[t][k] += o.cycle_count[t][k];
    }
  }
  for (std::size_t i = 0; i < staleness.size(); ++i) staleness[i] += o.staleness[i];
  issued += o.issued;
  answered += o.answered;
  empty += o.empty;
  checked += o.checked;
  mismatched += o.mismatched;
  raced += o.raced;
}

double LoadResult::windowed_quantile(double q, std::size_t min_samples) const {
  std::vector<std::vector<std::uint32_t>> by_window(windows);
  for (std::size_t i = 0; i < answered_ns.size(); ++i)
    by_window[answered_window[i]].push_back(answered_ns[i]);
  std::vector<double> per_window;
  for (auto& w : by_window)
    if (w.size() >= min_samples) per_window.push_back(quantile(std::move(w), q));
  return quantile(per_window, 0.25);
}

LoadResult run_load(const nc::est::SnapshotPublisher& source, int num_nodes,
                    const LoadSpec& spec, const std::atomic<bool>& stop,
                    double max_seconds, Tracer& tracer) {
  std::vector<LoadResult> results(static_cast<std::size_t>(spec.clients));
  std::vector<SpanBuffer*> buffers;
  for (int c = 0; c < spec.clients; ++c) buffers.push_back(&tracer.buffer());
  // One time base for every client, so their windows line up.
  const std::int64_t t0 = now_ns();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < spec.clients; ++c)
      threads.emplace_back(client_loop, std::cref(source), num_nodes,
                           std::cref(spec), std::cref(stop), max_seconds, c, t0,
                           std::ref(*buffers[static_cast<std::size_t>(c)]),
                           std::ref(results[static_cast<std::size_t>(c)]));
  }
  LoadResult merged;
  for (LoadResult& r : results) merged.merge(std::move(r), /*concurrent=*/true);
  return merged;
}

std::uint64_t check_final_answers(const nc::est::SnapshotPublisher& source,
                                  int num_nodes, const LoadSpec& spec,
                                  int queries) {
  nc::serve::CoordinateService service(&source, num_nodes);
  nc::est::SnapshotView view(&source);
  const EpochSnapshot* snap = view.refresh();
  if (snap == nullptr) return static_cast<std::uint64_t>(queries);
  QueryDrawer draw(spec, num_nodes, 0xf1a1ULL);
  Answer ans;
  std::uint64_t mismatched = 0;
  for (int i = 0; i < queries; ++i) {
    const Query& q = draw.next();
    (void)run_query(service, spec, q, ans);
    if (service.snapshot_version() != snap->version ||
        !answer_matches(*snap, spec, q, ans))
      ++mismatched;
  }
  return mismatched;
}

}  // namespace pb
