#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif

namespace pb {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string first_match(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string v = line.substr(colon + 1);
    const auto b = v.find_first_not_of(" \t");
    return b == std::string::npos ? "" : v.substr(b);
  }
  return "unknown";
}

}  // namespace

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_stamp_json() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string cpu = first_match("/proc/cpuinfo", "model name");
  const std::string mem = first_match("/proc/meminfo", "MemTotal");
  long mem_gib = 0;
  std::istringstream(mem) >> mem_gib;
  mem_gib = (mem_gib + (1L << 19)) >> 20;  // KiB -> GiB, rounded
  std::ostringstream host_class;
  host_class << cpu << " x" << nproc << ", " << mem_gib << " GiB";
  std::ostringstream os;
  os << "{\"nproc\": " << nproc
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << json_escape(PB_BUILD_TYPE)
     << "\", \"compiler\": \"" << json_escape(PB_COMPILER)
     << "\", \"host_class\": \"" << json_escape(host_class.str()) << "\"}";
  return os.str();
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricMap& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace pb
