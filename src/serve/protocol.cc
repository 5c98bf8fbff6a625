#include "serve/protocol.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_io.h"

namespace relmax {
namespace serve {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

Status BadArity(const std::string& command, size_t want, size_t got) {
  return Status::InvalidArgument(command + " takes " + std::to_string(want) +
                                 " argument(s), got " + std::to_string(got));
}

Status ParseNode(const std::string& command, const std::string& token,
                 NodeId* out) {
  const std::optional<NodeId> id = ParseNodeId(token);
  if (!id) {
    return Status::InvalidArgument(command + ": bad node id '" + token + "'");
  }
  *out = *id;
  return Status::Ok();
}

Status ParseProb(const std::string& command, const std::string& token,
                 double* out) {
  size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != token.size()) {
    return Status::InvalidArgument(command + ": bad probability '" + token +
                                   "'");
  }
  if (!(value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument(command + ": probability " + token +
                                   " outside [0, 1]");
  }
  *out = value;
  return Status::Ok();
}

StatusOr<Request> ParsePair(RequestKind kind, const std::string& command,
                            const std::vector<std::string>& tokens) {
  if (tokens.size() != 3) return BadArity(command, 2, tokens.size() - 1);
  Request request;
  request.kind = kind;
  RELMAX_RETURN_IF_ERROR(ParseNode(command, tokens[1], &request.s));
  RELMAX_RETURN_IF_ERROR(ParseNode(command, tokens[2], &request.t));
  return request;
}

StatusOr<Request> ParseMutation(RequestKind kind, const std::string& command,
                                const std::vector<std::string>& tokens) {
  if (tokens.size() != 4) return BadArity(command, 3, tokens.size() - 1);
  Request request;
  request.kind = kind;
  RELMAX_RETURN_IF_ERROR(ParseNode(command, tokens[1], &request.s));
  RELMAX_RETURN_IF_ERROR(ParseNode(command, tokens[2], &request.t));
  RELMAX_RETURN_IF_ERROR(ParseProb(command, tokens[3], &request.p));
  return request;
}

StatusOr<Request> ParseBare(RequestKind kind, const std::string& command,
                            const std::vector<std::string>& tokens) {
  if (tokens.size() != 1) return BadArity(command, 0, tokens.size() - 1);
  Request request;
  request.kind = kind;
  return request;
}

}  // namespace

StatusOr<Request> ParseRequest(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') {
    Request request;
    request.kind = RequestKind::kComment;
    return request;
  }
  const std::string& command = tokens[0];
  if (command == "query") {
    return ParsePair(RequestKind::kQuery, command, tokens);
  }
  if (command == "update") {
    return ParseMutation(RequestKind::kUpdate, command, tokens);
  }
  if (command == "addedge") {
    return ParseMutation(RequestKind::kAddEdge, command, tokens);
  }
  if (command == "stats") {
    return ParseBare(RequestKind::kStats, command, tokens);
  }
  if (command == "epoch") {
    return ParseBare(RequestKind::kEpoch, command, tokens);
  }
  if (command == "quit") return ParseBare(RequestKind::kQuit, command, tokens);
  if (command == "shutdown") {
    return ParseBare(RequestKind::kShutdown, command, tokens);
  }
  return Status::InvalidArgument("unknown command: " + command);
}

std::string QueryResponse(NodeId s, NodeId t, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "R(%u, %u) = %.4f", s, t, value);
  return buf;
}

std::string ErrorResponse(const Status& status) {
  return "ERR " + status.ToString();
}

std::string PublishResponse(uint64_t epoch, uint64_t version) {
  return "OK epoch=" + std::to_string(epoch) +
         " version=" + std::to_string(version);
}

std::string StatsResponse(const ServeStats& stats) {
  std::ostringstream out;
  out << "stats: submitted=" << stats.submitted
      << " answered=" << stats.answered << " shed=" << stats.shed
      << " rejected=" << stats.rejected << " batches=" << stats.batches
      << " max_window=" << stats.max_window << " updates=" << stats.updates
      << " epoch=" << stats.epoch << " version=" << stats.graph_version
      << " floods=" << stats.floods << " index_answers=" << stats.index_answers
      << " fallback_estimates=" << stats.fallback_estimates
      << " cache_hits=" << stats.cache_hits
      << " cache_entries=" << stats.cache_entries
      << " cache_evictions_epoch=" << stats.cache_evictions_epoch
      << " cache_evictions_total=" << stats.cache_evictions_total;
  return out.str();
}

std::string EpochResponse(const GraphSnapshot& snapshot) {
  return "epoch: " + std::to_string(snapshot.epoch()) +
         " version=" + std::to_string(snapshot.version()) +
         " nodes=" + std::to_string(snapshot.graph().num_nodes()) +
         " edges=" + std::to_string(snapshot.graph().num_edges());
}

}  // namespace serve
}  // namespace relmax
