#include "query/query_set.h"

#include <cctype>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_io.h"

namespace relmax {
namespace {

Status CheckNode(NodeId v, const UncertainGraph& g, const char* what) {
  if (v < g.num_nodes()) return Status::Ok();
  return Status::InvalidArgument(std::string(what) + " node " +
                                 std::to_string(v) + " out of range [0, " +
                                 std::to_string(g.num_nodes()) + ")");
}

// Parses one query-file line into `set`: strips a trailing '#' comment,
// skips blank lines, and accepts exactly "s t". Anything but digits and
// whitespace — a sign, a third token, letters — is rejected; ids past
// NodeId's range fail loudly instead of truncating to a different node.
Status ParseQueryLine(const std::string& raw, int line_no, QuerySet* set) {
  if (raw.find('\0') != std::string::npos) {
    return Status::InvalidArgument("NUL byte at line " +
                                   std::to_string(line_no) +
                                   " (binary file?)");
  }
  std::string line = raw;
  const size_t hash = line.find('#');
  if (hash != std::string::npos) line.resize(hash);
  while (!line.empty() &&
         std::isspace(static_cast<unsigned char>(line.back()))) {
    line.pop_back();
  }
  size_t start = 0;
  while (start < line.size() &&
         std::isspace(static_cast<unsigned char>(line[start]))) {
    ++start;
  }
  if (start == line.size()) return Status::Ok();  // blank or comment-only
  const auto malformed = [&] {
    return Status::InvalidArgument("expected \"s t\" at line " +
                                   std::to_string(line_no) + ": " + line);
  };
  if (line.find_first_not_of("0123456789 \t", start) != std::string::npos) {
    return malformed();
  }
  std::istringstream tokens(line);
  std::string s_token;
  std::string t_token;
  std::string extra;
  if (!(tokens >> s_token >> t_token) || (tokens >> extra)) return malformed();
  // Only digits remain, so a failed parse is an id past NodeId's range.
  const std::optional<NodeId> s = ParseNodeId(s_token);
  const std::optional<NodeId> t = ParseNodeId(t_token);
  if (!s || !t) {
    return Status::InvalidArgument("node id out of range at line " +
                                   std::to_string(line_no) + ": " + line);
  }
  set->AddSt(*s, *t);
  return Status::Ok();
}

StatusOr<QuerySet> FromLines(const std::vector<std::string>& lines) {
  QuerySet set;
  for (size_t i = 0; i < lines.size(); ++i) {
    RELMAX_RETURN_IF_ERROR(
        ParseQueryLine(lines[i], static_cast<int>(i) + 1, &set));
  }
  if (set.empty()) {
    return Status::InvalidArgument("query file contains no queries");
  }
  return set;
}

}  // namespace

Status QuerySet::Validate(const UncertainGraph& g) const {
  for (const StQuery& q : st_) {
    RELMAX_RETURN_IF_ERROR(CheckNode(q.s, g, "source"));
    RELMAX_RETURN_IF_ERROR(CheckNode(q.t, g, "target"));
  }
  for (const AggregateQuery& q : aggregate_) {
    if (q.sources.empty() || q.targets.empty()) {
      return Status::InvalidArgument(
          "aggregate query needs non-empty source and target sets");
    }
    for (NodeId s : q.sources) RELMAX_RETURN_IF_ERROR(CheckNode(s, g, "source"));
    for (NodeId t : q.targets) RELMAX_RETURN_IF_ERROR(CheckNode(t, g, "target"));
  }
  for (const TopKQuery& q : top_k_) {
    if (q.candidates.empty()) {
      return Status::InvalidArgument("top-k query needs candidate pairs");
    }
    if (q.k < 1) {
      return Status::InvalidArgument("top-k query needs k >= 1, got " +
                                     std::to_string(q.k));
    }
    for (const StQuery& pair : q.candidates) {
      RELMAX_RETURN_IF_ERROR(CheckNode(pair.s, g, "source"));
      RELMAX_RETURN_IF_ERROR(CheckNode(pair.t, g, "target"));
    }
  }
  return Status::Ok();
}

StatusOr<QuerySet> QuerySet::Parse(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return FromLines(lines);
}

StatusOr<QuerySet> QuerySet::FromFile(const std::string& path) {
  // The shared guarded reader (graph/graph_io.h) supplies the binary-file
  // and line-length protection, identically to every other text parser.
  auto lines = ReadTextLines(path);
  RELMAX_RETURN_IF_ERROR(lines.status());
  return FromLines(*lines);
}

}  // namespace relmax
