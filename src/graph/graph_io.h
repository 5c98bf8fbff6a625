#ifndef RELMAX_GRAPH_GRAPH_IO_H_
#define RELMAX_GRAPH_GRAPH_IO_H_

#include <cstddef>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/uncertain_graph.h"

namespace relmax {

/// Longest accepted text line, newline excluded. Far beyond any legitimate
/// edge record, query or protocol line; the cap keeps a stray binary file or
/// a client that never sends a newline from ballooning memory.
inline constexpr size_t kMaxLineBytes = size_t{1} << 20;

/// Outcome of ReadBoundedLine.
enum class LineRead { kOk, kEof, kTooLong, kNulByte };

/// The one guarded line reader behind every text input: edge lists, query
/// files and serve protocol streams. Reads the next line of `in` into *line
/// and strips its trailing "\n" or "\r\n" (files written on Windows parse
/// identically). Never holds more than kMaxLineBytes: a longer line reports
/// kTooLong and its remainder is discarded through the next newline, so the
/// following call starts on the next line. A line holding a NUL byte (a
/// binary file) reports kNulByte. kEof means the stream had no bytes left.
LineRead ReadBoundedLine(std::istream& in, std::string* line);

/// Reads a whole text file as newline-stripped lines through
/// ReadBoundedLine: IoError when the file cannot be opened, InvalidArgument
/// on a NUL byte (binary file) or a line past kMaxLineBytes — one
/// implementation, so the guards and their messages cannot drift between
/// parsers. Line i of the result is file line i + 1; blank lines are
/// preserved.
StatusOr<std::vector<std::string>> ReadTextLines(const std::string& path);

/// Parses a decimal node id: one or more ASCII digits and nothing else (no
/// sign, space or suffix), at most the largest NodeId; nullopt otherwise.
/// Edge lists, query files and the serve protocol all parse ids through it,
/// so none of them can wrap an id past 2^32 onto a different node.
std::optional<NodeId> ParseNodeId(std::string_view token);

/// Serializes `g` as a probabilistic edge list:
///
///   # relmax-graph v1
///   directed|undirected <num_nodes>
///   <u> <v> <p>
///   ...
///
/// Lines starting with '#' are comments.
Status WriteEdgeList(const UncertainGraph& g, const std::string& path);

/// Parses a graph written by WriteEdgeList (or hand-authored in the same
/// format). Fails with IoError / InvalidArgument on malformed input,
/// including a node count or an endpoint that is not a ParseNodeId id.
StatusOr<UncertainGraph> ReadEdgeList(const std::string& path);

}  // namespace relmax

#endif  // RELMAX_GRAPH_GRAPH_IO_H_
