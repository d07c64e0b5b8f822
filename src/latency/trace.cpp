#include "latency/trace.hpp"

#include <array>
#include <cstring>
#include <memory>
#include <string>

#include "common/check.hpp"

namespace nc::lat {

namespace {

constexpr std::uint32_t kMagic = 0x4e435452;  // 'NCTR'
constexpr std::uint32_t kVersion = 1;
constexpr std::streamoff kCountOffset = 12;  // after magic, version, num_nodes

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(in);
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path, int num_nodes) {
  NC_CHECK_MSG(num_nodes >= 2, "trace needs at least two nodes");
  out_.open(path, std::ios::binary | std::ios::trunc);
  NC_CHECK_MSG(out_.is_open(), "cannot open trace file for writing: " + path);
  write_pod(out_, kMagic);
  write_pod(out_, kVersion);
  write_pod(out_, static_cast<std::uint32_t>(num_nodes));
  write_pod(out_, std::uint64_t{0});  // count, patched in close()
}

TraceWriter::~TraceWriter() {
  if (!closed_) close();
}

void TraceWriter::append(const TraceRecord& record) {
  NC_CHECK_MSG(!closed_, "append after close");
  write_pod(out_, record.t_s);
  write_pod(out_, record.src);
  write_pod(out_, record.dst);
  write_pod(out_, record.rtt_ms);
  ++count_;
}

void TraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  out_.seekp(kCountOffset);
  write_pod(out_, count_);
  out_.close();
}

TraceReader::TraceReader(const std::string& path) : path_(path) {
  in_.open(path, std::ios::binary);
  NC_CHECK_MSG(in_.is_open(), "cannot open trace file: " + path);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t nodes = 0;
  NC_CHECK_MSG(read_pod(in_, magic) && magic == kMagic, "bad trace magic");
  NC_CHECK_MSG(read_pod(in_, version) && version == kVersion,
               "unsupported trace version");
  NC_CHECK_MSG(read_pod(in_, nodes) && nodes >= 2, "bad node count");
  NC_CHECK_MSG(read_pod(in_, count_), "truncated trace header");
  num_nodes_ = static_cast<int>(nodes);
}

std::optional<TraceRecord> TraceReader::next() {
  if (read_ >= count_) return std::nullopt;
  TraceRecord r;
  // A short read before the header's record count is a cut-off file: fail
  // loudly instead of ending the replay early as if the trace were done.
  NC_CHECK_MSG(read_pod(in_, r.t_s) && read_pod(in_, r.src) &&
                   read_pod(in_, r.dst) && read_pod(in_, r.rtt_ms),
               "truncated trace " + path_ + ": read " + std::to_string(read_) +
                   " of " + std::to_string(count_) + " records");
  ++read_;
  return r;
}

std::vector<std::string> partition_trace(TraceSource& source,
                                         const std::string& path_prefix,
                                         int num_nodes, int shards) {
  NC_CHECK_MSG(shards >= 1, "need at least one shard");
  NC_CHECK_MSG(num_nodes >= 2, "trace needs at least two nodes");
  NC_CHECK_MSG(source.num_nodes() <= num_nodes,
               "trace has more nodes than the partition covers");
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<TraceWriter>> writers;
  paths.reserve(static_cast<std::size_t>(shards));
  writers.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    paths.push_back(path_prefix + ".shard" + std::to_string(s));
    writers.push_back(std::make_unique<TraceWriter>(paths.back(), num_nodes));
  }
  while (auto r = source.next()) {
    NC_CHECK_MSG(r->dst >= 0 && r->dst < num_nodes, "bad dst id in trace");
    writers[static_cast<std::size_t>(shard_of_node(r->dst, num_nodes, shards))]
        ->append(*r);
  }
  for (auto& w : writers) w->close();
  return paths;
}

std::uint64_t export_csv(TraceSource& source, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  NC_CHECK_MSG(out.is_open(), "cannot open CSV file for writing: " + path);
  out << "t_s,src,dst,rtt_ms\n";
  std::uint64_t n = 0;
  while (auto r = source.next()) {
    out << r->t_s << ',' << r->src << ',' << r->dst << ',' << r->rtt_ms << '\n';
    ++n;
  }
  return n;
}

}  // namespace nc::lat
