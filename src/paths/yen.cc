#include "paths/yen.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "common/logging.h"

namespace relmax {
namespace {

// Max-product Dijkstra scratch shared by every search of one
// TopLReliablePaths call. `best`, `parent` and the heap are sized once; a
// search resets only the nodes it touched, so a spur costs what it explores
// rather than O(n).
class SpurSearch {
 public:
  explicit SpurSearch(const UncertainGraph& g)
      : csr_(g.OutCsr()),
        directed_(g.directed()),
        best_(g.num_nodes(), 0.0),
        parent_(g.num_nodes(), kInvalidNode) {}

  // Most reliable src-dst path avoiding `banned_node` and the arcs src → h
  // for every h in `banned_heads` (on undirected graphs also h → src). Every
  // arc Yen bans starts at the spur, so the list is consulted only there.
  std::optional<PathResult> Run(NodeId src, NodeId dst,
                                const std::vector<char>& banned_node,
                                const std::vector<NodeId>& banned_heads) {
    const auto banned = [&](NodeId head) {
      return std::find(banned_heads.begin(), banned_heads.end(), head) !=
             banned_heads.end();
    };
    Touch(src, 1.0, kInvalidNode);
    while (!heap_.empty()) {
      // push_heap/pop_heap with HeapEntry's `<` is exactly what
      // std::priority_queue does, so equal-probability pops keep their order.
      std::pop_heap(heap_.begin(), heap_.end());
      const auto [prob, u] = heap_.back();
      heap_.pop_back();
      if (prob < best_[u]) continue;  // stale entry
      if (u == dst) break;
      for (size_t i = csr_.begin(u); i < csr_.end(u); ++i) {
        const NodeId v = csr_.heads[i];
        if (csr_.probs[i] <= 0.0 || banned_node[v]) continue;
        if (u == src && banned(v)) continue;
        if (!directed_ && v == src && banned(u)) continue;
        const double candidate = prob * csr_.probs[i];
        if (candidate > best_[v]) Touch(v, candidate, u);
      }
    }
    std::optional<PathResult> result;
    if (best_[dst] > 0.0) {
      result.emplace();
      result->probability = best_[dst];
      for (NodeId v = dst; v != kInvalidNode; v = parent_[v]) {
        result->nodes.push_back(v);
        if (v == src) break;
      }
      std::reverse(result->nodes.begin(), result->nodes.end());
    }
    for (NodeId v : touched_) {
      best_[v] = 0.0;
      parent_[v] = kInvalidNode;
    }
    touched_.clear();
    heap_.clear();
    return result;
  }

 private:
  struct HeapEntry {
    double prob;
    NodeId node;
    bool operator<(const HeapEntry& o) const { return prob < o.prob; }
  };

  void Touch(NodeId v, double prob, NodeId from) {
    if (best_[v] == 0.0) touched_.push_back(v);
    best_[v] = prob;
    parent_[v] = from;
    heap_.push_back({prob, v});
    std::push_heap(heap_.begin(), heap_.end());
  }

  const CsrView csr_;
  const bool directed_;
  std::vector<double> best_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> touched_;
  std::vector<HeapEntry> heap_;
};

struct PathHash {
  size_t operator()(const std::vector<NodeId>& nodes) const {
    uint64_t h = 1469598103934665603ull;
    for (NodeId v : nodes) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

struct Candidate {
  PathResult path;
  bool operator<(const Candidate& o) const {
    // Max-heap by probability; deterministic tie-break on the node sequence.
    if (path.probability != o.path.probability) {
      return path.probability < o.path.probability;
    }
    return path.nodes > o.path.nodes;
  }
};

}  // namespace

std::vector<PathResult> TopLReliablePaths(const UncertainGraph& g, NodeId s,
                                          NodeId t, int l) {
  RELMAX_CHECK(s < g.num_nodes() && t < g.num_nodes());
  RELMAX_CHECK(l > 0);
  std::vector<PathResult> accepted;
  if (s == t) {
    accepted.push_back({{s}, 1.0});
    return accepted;
  }

  SpurSearch search(g);
  std::vector<char> banned_node(g.num_nodes(), 0);
  std::vector<NodeId> banned_heads;
  std::optional<PathResult> first = search.Run(s, t, banned_node, {});
  if (!first.has_value()) return accepted;
  accepted.push_back(std::move(*first));

  std::priority_queue<Candidate> candidates;
  // Exact node sequences: the hash only picks the bucket, so two distinct
  // paths that collide both stay candidates.
  std::unordered_set<std::vector<NodeId>, PathHash> seen;
  seen.insert(accepted[0].nodes);

  // Per accepted path: how many leading nodes it shares with prev.
  std::vector<size_t> shared_prefix;
  while (static_cast<int>(accepted.size()) < l) {
    const PathResult& prev = accepted.back();
    shared_prefix.clear();
    for (const PathResult& path : accepted) {
      const size_t limit = std::min(path.nodes.size(), prev.nodes.size());
      size_t i = 0;
      while (i < limit && path.nodes[i] == prev.nodes[i]) ++i;
      shared_prefix.push_back(i);
    }

    // Deviate at every spur position of the last accepted path. The root
    // prev[0..spur_idx] grows by one edge per spur: its probability is a
    // running product and its nodes (except the spur) are banned to keep
    // spur paths simple.
    double root_prob = 1.0;
    for (size_t spur_idx = 0; spur_idx + 1 < prev.nodes.size(); ++spur_idx) {
      if (spur_idx > 0) {
        const auto p =
            g.EdgeProb(prev.nodes[spur_idx - 1], prev.nodes[spur_idx]);
        if (!p.has_value() || *p <= 0.0) break;  // every later root holds it
        root_prob *= *p;
        banned_node[prev.nodes[spur_idx - 1]] = 1;
      }
      const NodeId spur = prev.nodes[spur_idx];

      // Ban the next arc of every accepted path sharing this root, so the
      // spur path deviates.
      banned_heads.clear();
      for (size_t a = 0; a < accepted.size(); ++a) {
        if (shared_prefix[a] > spur_idx &&
            accepted[a].nodes.size() > spur_idx + 1) {
          banned_heads.push_back(accepted[a].nodes[spur_idx + 1]);
        }
      }

      std::optional<PathResult> spur_path =
          search.Run(spur, t, banned_node, banned_heads);
      if (!spur_path.has_value()) continue;

      PathResult total;
      total.nodes.reserve(spur_idx + spur_path->nodes.size());
      total.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + spur_idx);
      total.nodes.insert(total.nodes.end(), spur_path->nodes.begin(),
                         spur_path->nodes.end());
      total.probability = root_prob * spur_path->probability;
      if (seen.insert(total.nodes).second) {
        candidates.push({std::move(total)});
      }
    }
    for (NodeId v : prev.nodes) banned_node[v] = 0;

    if (candidates.empty()) break;
    accepted.push_back(candidates.top().path);
    candidates.pop();
  }
  return accepted;
}

}  // namespace relmax
