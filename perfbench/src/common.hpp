// Shared helpers of the repo benchmark: clocks, order statistics, the
// result line, the science digest and the host stamp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(std::move(v), 0.5);
}

/// One reported metric: value plus unit, printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// FNV-1a over the bytes of each value: a digest of the simulated
/// statistics, so two commits can compare the science exactly.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// One-line JSON stamp of the host and build that produced a result:
/// nproc, build type, compiler and a host class (CPU model, cores,
/// memory), so results from different host classes are never compared.
std::string host_stamp_json();

/// Prints the benchmark's result line (always the last stdout line).
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricMap& metrics);

}  // namespace pb
