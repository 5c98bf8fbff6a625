#include "graph/graph_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace relmax {

LineRead ReadBoundedLine(std::istream& in, std::string* line) {
  line->clear();
  std::streambuf* const buf = in.rdbuf();
  bool any = false;
  bool too_long = false;
  bool nul = false;
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      if (!any) return LineRead::kEof;
      break;
    }
    any = true;
    if (c == '\n') break;
    if (c == '\0') nul = true;
    // Past the cap the rest of the line is consumed but not kept.
    if (line->size() < kMaxLineBytes) {
      line->push_back(static_cast<char>(c));
    } else {
      too_long = true;
    }
  }
  if (too_long) return LineRead::kTooLong;
  if (nul) return LineRead::kNulByte;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return LineRead::kOk;
}

StatusOr<std::vector<std::string>> ReadTextLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IoError("cannot open for read: " + path);
  std::vector<std::string> lines;
  std::string line;
  LineRead read;
  while ((read = ReadBoundedLine(in, &line)) != LineRead::kEof) {
    if (read == LineRead::kTooLong) {
      return Status::InvalidArgument("line too long at line " +
                                     std::to_string(lines.size() + 1));
    }
    if (read == LineRead::kNulByte) {
      return Status::InvalidArgument("NUL byte at line " +
                                     std::to_string(lines.size() + 1) +
                                     " (binary file?)");
    }
    lines.push_back(line);
  }
  return lines;
}

Status WriteEdgeList(const UncertainGraph& g, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  std::fprintf(f, "# relmax-graph v1\n%s %u\n",
               g.directed() ? "directed" : "undirected", g.num_nodes());
  for (const Edge& e : g.Edges()) {
    std::fprintf(f, "%u %u %.17g\n", e.src, e.dst, e.prob);
  }
  const bool write_failed = std::ferror(f) != 0;
  std::fclose(f);
  if (write_failed) return Status::IoError("short write: " + path);
  return Status::Ok();
}

StatusOr<UncertainGraph> ReadEdgeList(const std::string& path) {
  auto lines = ReadTextLines(path);
  RELMAX_RETURN_IF_ERROR(lines.status());

  bool have_header = false;
  bool directed = false;
  unsigned num_nodes = 0;
  UncertainGraph g = UncertainGraph::Directed(0);
  for (size_t i = 0; i < lines->size(); ++i) {
    const std::string& line = (*lines)[i];
    const int line_no = static_cast<int>(i) + 1;
    if (line.empty() || line[0] == '#') continue;
    if (!have_header) {
      char kind[32];
      if (std::sscanf(line.c_str(), "%31s %u", kind, &num_nodes) != 2) {
        return Status::InvalidArgument("bad header at line " +
                                       std::to_string(line_no));
      }
      if (std::strcmp(kind, "directed") == 0) {
        directed = true;
      } else if (std::strcmp(kind, "undirected") == 0) {
        directed = false;
      } else {
        return Status::InvalidArgument("unknown graph kind: " +
                                       std::string(kind));
      }
      g = directed ? UncertainGraph::Directed(num_nodes)
                   : UncertainGraph::Undirected(num_nodes);
      have_header = true;
      continue;
    }
    unsigned u = 0;
    unsigned v = 0;
    double p = 0.0;
    if (std::sscanf(line.c_str(), "%u %u %lf", &u, &v, &p) != 3) {
      return Status::InvalidArgument("bad edge at line " +
                                     std::to_string(line_no));
    }
    RELMAX_RETURN_IF_ERROR(g.AddEdge(u, v, p));
  }
  if (!have_header) return Status::InvalidArgument("missing header: " + path);
  return g;
}

}  // namespace relmax
