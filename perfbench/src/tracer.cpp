#include "tracer.hpp"

#include <cstdio>
#include <limits>

namespace pb {

std::vector<double> Tracer::per_call_ns(const std::string& name) const {
  std::vector<double> out;
  for (const auto& b : buffers_)
    for (const Span& s : b->spans())
      if (name == s.name && s.end_ns != 0)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                      static_cast<double>(s.calls));
  return out;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const auto& b : buffers_)
    for (const Span& s : b->spans())
      if (name == s.name && s.end_ns != 0)
        total += seconds_between(s.start_ns, s.end_ns);
  return total;
}

std::uint64_t Tracer::calls(const std::string& name) const {
  std::uint64_t n = 0;
  for (const auto& b : buffers_)
    for (const Span& s : b->spans())
      if (name == s.name) n += s.calls;
  return n;
}

std::uint64_t Tracer::span_count() const {
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped();
  return n;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& stamp_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const auto& b : buffers_)
    for (const Span& s : b->spans()) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
               stamp_json.c_str());
  bool first = true;
  for (const auto& b : buffers_) {
    const std::vector<Span>& spans = b->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;
      // Span ids are (tid, index) pairs flattened to one number so the
      // parent link survives the merge of per-thread buffers.
      const long long id = (static_cast<long long>(b->tid()) << 32) |
                           static_cast<long long>(i);
      const long long parent =
          s.parent < 0 ? -1
                       : (static_cast<long long>(b->tid()) << 32) | s.parent;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"span\": %lld, \"parent\": %lld, \"request\": %llu, "
                   "\"calls\": %llu}}",
                   first ? "" : ",\n", s.name, b->tid(),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, id,
                   parent, static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.calls));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb
