#include "core/candidates.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "core/evaluate.h"
#include "graph/bfs.h"

namespace relmax {
namespace {

// Top-r node ids by score (descending), zero-score nodes excluded,
// deterministic tie-break on id. `always_include` is forced in.
std::vector<NodeId> TopRNodes(const std::vector<double>& scores, int r,
                              NodeId always_include) {
  std::vector<NodeId> order;
  order.reserve(scores.size());
  for (NodeId v = 0; v < scores.size(); ++v) {
    if (scores[v] > 0.0 || v == always_include) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  if (static_cast<int>(order.size()) > r) order.resize(r);
  if (std::find(order.begin(), order.end(), always_include) == order.end()) {
    order.back() = always_include;  // r slots, the anchor always qualifies
  }
  return order;
}

Status ValidateOptions(const SolverOptions& options) {
  if (options.top_r <= 0) {
    return Status::InvalidArgument("top_r must be positive");
  }
  // Negated so NaN, which fails every comparison, is rejected too.
  if (!(options.zeta > 0.0 && options.zeta <= 1.0)) {
    return Status::InvalidArgument("zeta must be in (0, 1]");
  }
  if (options.elimination_samples <= 0) {
    return Status::InvalidArgument("elimination_samples must be positive");
  }
  return Status::Ok();
}

// near[x * words + j / 64] bit j % 64 says that to[j] is within `hops`
// undirected hops of x. Round d ORs into each node the bits its neighbours
// gained in round d - 1 (their older bits are already within d hops of it),
// so the work follows the frontier and ends at the first round that adds no
// bit, however large `hops` is.
std::vector<uint64_t> HopMasks(const UncertainGraph& g,
                               const std::vector<NodeId>& to, int hops,
                               size_t words) {
  const NodeId n = g.num_nodes();
  std::vector<uint64_t> near(static_cast<size_t>(n) * words, 0);
  std::vector<NodeId> frontier;
  std::vector<uint64_t> gained;  // frontier[f]'s new bits at f * words
  std::vector<NodeId> next;
  std::vector<uint64_t> next_gained;
  std::vector<uint32_t> slot(n, UINT32_MAX);  // x's index in `next`
  const auto add = [&](NodeId x, const uint64_t* bits) {
    uint64_t* const mine = &near[static_cast<size_t>(x) * words];
    for (size_t w = 0; w < words; ++w) {
      const uint64_t fresh = bits[w] & ~mine[w];
      if (fresh == 0) continue;
      if (slot[x] == UINT32_MAX) {
        slot[x] = static_cast<uint32_t>(next.size());
        next.push_back(x);
        next_gained.resize(next_gained.size() + words, 0);
      }
      mine[w] |= fresh;
      next_gained[slot[x] * words + w] |= fresh;
    }
  };
  std::vector<uint64_t> bit(words, 0);
  for (size_t j = 0; j < to.size(); ++j) {
    bit[j / 64] = uint64_t{1} << (j % 64);
    add(to[j], bit.data());
    bit[j / 64] = 0;
  }
  const CsrView out = g.OutCsr();
  const CsrView in = g.InCsr();
  for (int round = 0; round < hops && !next.empty(); ++round) {
    for (NodeId x : next) slot[x] = UINT32_MAX;
    frontier.swap(next);
    gained.swap(next_gained);
    next.clear();
    next_gained.clear();
    for (size_t f = 0; f < frontier.size(); ++f) {
      const NodeId y = frontier[f];
      const uint64_t* const bits = &gained[f * words];
      for (size_t i = out.begin(y); i < out.end(y); ++i) {
        add(out.heads[i], bits);
      }
      if (g.directed()) {
        for (size_t i = in.begin(y); i < in.end(y); ++i) add(in.heads[i], bits);
      }
    }
  }
  return near;
}

// Emits missing (u, v) pairs from `from` × `to` (each a list of distinct
// nodes) honoring the h-hop constraint, in from-major order. An undirected
// pair reached from both sides is emitted at its first row only.
//
// HopMasks runs h - 1 rounds over the whole graph; round h is pulled into
// the rows of `from` alone (row u ORs its neighbours' masks), and the same
// scan of u's arcs marks its out-neighbours, so an existing edge costs no
// HasEdge lookup.
std::vector<Edge> BuildCandidateEdges(const UncertainGraph& g,
                                      const std::vector<NodeId>& from,
                                      const std::vector<NodeId>& to,
                                      double zeta, int hop_h) {
  const size_t words = (to.size() + 63) / 64;
  const std::vector<uint64_t> near =
      hop_h >= 0 ? HopMasks(g, to, hop_h > 0 ? hop_h - 1 : 0, words)
                 : std::vector<uint64_t>();
  const auto row_of = [&](NodeId x) {
    return &near[static_cast<size_t>(x) * words];
  };
  const CsrView out = g.OutCsr();
  const CsrView in = g.InCsr();
  std::vector<uint64_t> mask(words);
  // adjacent[v] == i: the row-i node u has an arc u → v.
  std::vector<uint32_t> adjacent(g.num_nodes(), UINT32_MAX);
  // Undirected (u, v) was already emitted as (v, u) when v is an earlier row
  // of `from` and u is in `to`.
  std::vector<uint32_t> row(g.directed() ? 0 : g.num_nodes(), UINT32_MAX);
  std::vector<char> in_to(g.directed() ? 0 : g.num_nodes(), 0);
  if (!g.directed()) {
    for (size_t i = 0; i < from.size(); ++i) {
      row[from[i]] = static_cast<uint32_t>(i);
    }
    for (NodeId v : to) in_to[v] = 1;
  }
  std::vector<Edge> edges;
  for (size_t i = 0; i < from.size(); ++i) {
    const NodeId u = from[i];
    const auto pull = [&](NodeId y) {
      for (size_t w = 0; w < words; ++w) mask[w] |= row_of(y)[w];
    };
    if (hop_h >= 0) std::copy(row_of(u), row_of(u) + words, mask.begin());
    for (size_t a = out.begin(u); a < out.end(u); ++a) {
      adjacent[out.heads[a]] = static_cast<uint32_t>(i);
      if (hop_h > 0) pull(out.heads[a]);
    }
    if (g.directed() && hop_h > 0) {
      for (size_t a = in.begin(u); a < in.end(u); ++a) pull(in.heads[a]);
    }
    for (size_t j = 0; j < to.size(); ++j) {
      const NodeId v = to[j];
      if (u == v || adjacent[v] == i) continue;
      if (hop_h >= 0 && ((mask[j / 64] >> (j % 64)) & 1) == 0) continue;
      if (!g.directed() && in_to[u] && row[v] < i) continue;
      edges.push_back({u, v, zeta});
    }
  }
  return edges;
}

}  // namespace

StatusOr<CandidateSet> SelectCandidates(const UncertainGraph& g, NodeId s,
                                        NodeId t,
                                        const SolverOptions& options) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  RELMAX_RETURN_IF_ERROR(ValidateOptions(options));

  CandidateSet result;
  result.from_source =
      TopRNodes(FromSourceWithOptions(g, s, options), options.top_r, s);
  result.to_target =
      TopRNodes(ToTargetWithOptions(g, t, options), options.top_r, t);
  result.edges = BuildCandidateEdges(g, result.from_source, result.to_target,
                                     options.zeta, options.hop_h);
  return result;
}

StatusOr<CandidateSet> SelectCandidatesMulti(
    const UncertainGraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, const SolverOptions& options) {
  if (sources.empty() || targets.empty()) {
    return Status::InvalidArgument("sources and targets must be non-empty");
  }
  for (NodeId v : sources) {
    if (v >= g.num_nodes()) return Status::OutOfRange("source out of range");
  }
  for (NodeId v : targets) {
    if (v >= g.num_nodes()) return Status::OutOfRange("target out of range");
  }
  RELMAX_RETURN_IF_ERROR(ValidateOptions(options));

  CandidateSet result;
  std::unordered_set<NodeId> from_set;
  uint64_t salt = 101;
  for (NodeId s : sources) {
    for (NodeId v :
         TopRNodes(FromSourceWithOptions(g, s, options, salt++),
                   options.top_r, s)) {
      if (from_set.insert(v).second) result.from_source.push_back(v);
    }
  }
  std::unordered_set<NodeId> to_set;
  for (NodeId t : targets) {
    for (NodeId v : TopRNodes(ToTargetWithOptions(g, t, options, salt++),
                              options.top_r, t)) {
      if (to_set.insert(v).second) result.to_target.push_back(v);
    }
  }
  result.edges = BuildCandidateEdges(g, result.from_source, result.to_target,
                                     options.zeta, options.hop_h);
  return result;
}

std::vector<Edge> AllMissingEdges(const UncertainGraph& g, double zeta,
                                  int hop_h) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<int> dist;
    if (hop_h >= 0) dist = UndirectedHopDistances(g, u, hop_h);
    const NodeId v_begin = g.directed() ? 0 : u + 1;
    for (NodeId v = v_begin; v < g.num_nodes(); ++v) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (hop_h >= 0 && (dist[v] == kUnreachable || dist[v] > hop_h)) continue;
      edges.push_back({u, v, zeta});
    }
  }
  return edges;
}

}  // namespace relmax
