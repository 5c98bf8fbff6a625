#include "graph/graph_io.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

namespace relmax {
namespace {

constexpr char kBlanks[] = " \t\v\f\r";

// The next blank-delimited token of `line` at or after *pos (empty at the
// end of the line); *pos moves past it.
std::string_view NextToken(const std::string& line, size_t* pos) {
  const size_t begin = line.find_first_not_of(kBlanks, *pos);
  if (begin == std::string::npos) {
    *pos = line.size();
    return {};
  }
  *pos = std::min(line.find_first_of(kBlanks, begin), line.size());
  return std::string_view(line).substr(begin, *pos - begin);
}

}  // namespace

std::optional<NodeId> ParseNodeId(std::string_view token) {
  if (token.empty()) return std::nullopt;
  uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > std::numeric_limits<NodeId>::max()) return std::nullopt;
  }
  return static_cast<NodeId>(value);
}

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
  UncertainGraph g = UncertainGraph::Directed(0);
  for (size_t i = 0; i < lines->size(); ++i) {
    const std::string& line = (*lines)[i];
    const int line_no = static_cast<int>(i) + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t pos = 0;
    if (!have_header) {
      const std::string_view kind = NextToken(line, &pos);
      const std::optional<NodeId> num_nodes =
          ParseNodeId(NextToken(line, &pos));
      if (!num_nodes) {
        return Status::InvalidArgument("bad header at line " +
                                       std::to_string(line_no));
      }
      if (kind == "directed") {
        g = UncertainGraph::Directed(*num_nodes);
      } else if (kind == "undirected") {
        g = UncertainGraph::Undirected(*num_nodes);
      } else {
        return Status::InvalidArgument("unknown graph kind: " +
                                       std::string(kind));
      }
      have_header = true;
      continue;
    }
    const std::optional<NodeId> u = ParseNodeId(NextToken(line, &pos));
    const std::optional<NodeId> v = ParseNodeId(NextToken(line, &pos));
    const char* const p_text = line.c_str() + pos;
    char* p_end = nullptr;
    const double p = std::strtod(p_text, &p_end);
    if (!u || !v || p_end == p_text) {
      return Status::InvalidArgument("bad edge at line " +
                                     std::to_string(line_no));
    }
    RELMAX_RETURN_IF_ERROR(g.AddEdge(*u, *v, p));
  }
  if (!have_header) return Status::InvalidArgument("missing header: " + path);
  return g;
}

}  // namespace relmax
