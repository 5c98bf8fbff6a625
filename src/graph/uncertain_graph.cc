#include "graph/uncertain_graph.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

namespace relmax {

// One forwarded assignment list serves all four special members, so a field
// added later cannot be copied in one of them and silently dropped in
// another: member access through the forwarded reference copies from lvalues
// and moves from rvalues.
template <typename Graph>
void UncertainGraph::AssignFrom(Graph&& other) {
  directed_ = other.directed_;
  num_nodes_ = other.num_nodes_;
  version_ = other.version_;
  edges_ = std::forward<Graph>(other).edges_;
  edge_probs_ = std::forward<Graph>(other).edge_probs_;
  edge_index_ = std::forward<Graph>(other).edge_index_;
  out_offsets_ = std::forward<Graph>(other).out_offsets_;
  out_heads_ = std::forward<Graph>(other).out_heads_;
  out_probs_ = std::forward<Graph>(other).out_probs_;
  out_edge_ids_ = std::forward<Graph>(other).out_edge_ids_;
  in_offsets_ = std::forward<Graph>(other).in_offsets_;
  in_heads_ = std::forward<Graph>(other).in_heads_;
  in_probs_ = std::forward<Graph>(other).in_probs_;
  in_edge_ids_ = std::forward<Graph>(other).in_edge_ids_;
  csr_stale_.store(other.csr_stale_.load(std::memory_order_acquire),
                   std::memory_order_release);
  if constexpr (!std::is_lvalue_reference_v<Graph>) {
    // Leave a moved-from source valid-but-empty: its vectors are moved out,
    // so a non-zero node count with a "fresh" flag would let a traversal
    // index the empty offsets array out of bounds.
    other.num_nodes_ = 0;
    other.csr_stale_.store(true, std::memory_order_release);
  }
}

// Copies take the source's CSR (when fresh) along with the logical edges, so
// the common copy-then-estimate pattern skips the rebuild. The source mutex
// is held because a concurrent first-traversal of `other` may be writing its
// mutable CSR arrays mid-copy.
UncertainGraph::UncertainGraph(const UncertainGraph& other) {
  std::lock_guard<std::mutex> lock(other.csr_mutex_);
  AssignFrom(other);
}

UncertainGraph::UncertainGraph(UncertainGraph&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.csr_mutex_);
  AssignFrom(std::move(other));
}

UncertainGraph& UncertainGraph::operator=(const UncertainGraph& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(csr_mutex_, other.csr_mutex_);
  AssignFrom(other);
  ++version_;  // the object a sampler may reference changed content
  return *this;
}

UncertainGraph& UncertainGraph::operator=(UncertainGraph&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(csr_mutex_, other.csr_mutex_);
  AssignFrom(std::move(other));
  ++version_;
  return *this;
}

NodeId UncertainGraph::AddNode() {
  MarkStale();
  ++version_;
  return num_nodes_++;
}

Status UncertainGraph::AddEdge(NodeId u, NodeId v, double p) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    return Status::OutOfRange("edge endpoint exceeds num_nodes");
  }
  if (u == v) return Status::InvalidArgument("self-loops are not supported");
  if (!(p >= 0.0 && p <= 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("edge probability must be in [0, 1]");
  }
  const uint64_t key = EdgeKey(u, v);
  if (edge_index_.count(key) > 0) {
    return Status::AlreadyExists("edge (" + std::to_string(u) + ", " +
                                 std::to_string(v) + ") already present");
  }
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edge_index_.emplace(key, id);
  // Canonical storage: undirected edges keep src < dst.
  NodeId cu = u;
  NodeId cv = v;
  if (!directed_ && cu > cv) std::swap(cu, cv);
  edges_.push_back({cu, cv, p});
  edge_probs_.push_back(p);
  MarkStale();
  ++version_;
  return Status::Ok();
}

Status UncertainGraph::UpdateEdgeProb(NodeId u, NodeId v, double p) {
  RELMAX_DCHECK(indexed());
  if (!(p >= 0.0 && p <= 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("edge probability must be in [0, 1]");
  }
  auto it = edge_index_.find(EdgeKey(u, v));
  if (it == edge_index_.end()) {
    return Status::NotFound("edge (" + std::to_string(u) + ", " +
                            std::to_string(v) + ") does not exist");
  }
  const EdgeId id = it->second;
  edges_[id].prob = p;
  edge_probs_[id] = p;
  ++version_;
  // Topology is unchanged, so a fresh CSR is patched in place (O(degree),
  // like the old adjacency-list update) instead of invalidated — probability
  // re-assignment passes interleave updates with traversal per edge, and a
  // full rebuild per update would make them quadratic. A stale CSR stays
  // stale; the eventual rebuild reads the updated edge list.
  if (!csr_stale_.load(std::memory_order_acquire)) {
    const Edge& e = edges_[id];
    const auto patch = [id, p](const std::vector<size_t>& offsets,
                               const std::vector<EdgeId>& edge_ids,
                               std::vector<double>& probs, NodeId node) {
      for (size_t i = offsets[node]; i < offsets[node + 1]; ++i) {
        if (edge_ids[i] == id) {
          probs[i] = p;
          return;
        }
      }
    };
    patch(out_offsets_, out_edge_ids_, out_probs_, e.src);
    if (directed_) {
      patch(in_offsets_, in_edge_ids_, in_probs_, e.dst);
    } else {
      patch(out_offsets_, out_edge_ids_, out_probs_, e.dst);
    }
  }
  return Status::Ok();
}

std::optional<double> UncertainGraph::EdgeProb(NodeId u, NodeId v) const {
  RELMAX_DCHECK(indexed());
  auto it = edge_index_.find(EdgeKey(u, v));
  if (it == edge_index_.end()) return std::nullopt;
  return edge_probs_[it->second];
}

std::optional<EdgeId> UncertainGraph::EdgeIndexOf(NodeId u, NodeId v) const {
  RELMAX_DCHECK(indexed());
  auto it = edge_index_.find(EdgeKey(u, v));
  if (it == edge_index_.end()) return std::nullopt;
  return it->second;
}

// Counting sort of the logical edges into per-node arc runs. Emitting edges
// in increasing id order reproduces the arc order the old push-back adjacency
// lists had (arcs were appended as edges were inserted), which keeps every
// traversal-driven RNG stream bit-identical to the pre-CSR representation.
void UncertainGraph::RebuildCsr() const {
  std::lock_guard<std::mutex> lock(csr_mutex_);
  if (!csr_stale_.load(std::memory_order_relaxed)) return;  // lost the race

  const size_t n = num_nodes_;
  const size_t num_arcs = directed_ ? edges_.size() : 2 * edges_.size();
  out_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++out_offsets_[e.src + 1];
    if (!directed_) ++out_offsets_[e.dst + 1];
  }
  std::partial_sum(out_offsets_.begin(), out_offsets_.end(),
                   out_offsets_.begin());
  out_heads_.resize(num_arcs);
  out_probs_.resize(num_arcs);
  out_edge_ids_.resize(num_arcs);
  std::vector<size_t> cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    const Edge& e = edges_[id];
    size_t slot = cursor[e.src]++;
    out_heads_[slot] = e.dst;
    out_probs_[slot] = e.prob;
    out_edge_ids_[slot] = id;
    if (!directed_) {
      slot = cursor[e.dst]++;
      out_heads_[slot] = e.src;
      out_probs_[slot] = e.prob;
      out_edge_ids_[slot] = id;
    }
  }

  if (directed_) {
    in_offsets_.assign(n + 1, 0);
    for (const Edge& e : edges_) ++in_offsets_[e.dst + 1];
    std::partial_sum(in_offsets_.begin(), in_offsets_.end(),
                     in_offsets_.begin());
    in_heads_.resize(edges_.size());
    in_probs_.resize(edges_.size());
    in_edge_ids_.resize(edges_.size());
    cursor.assign(in_offsets_.begin(), in_offsets_.end() - 1);
    for (EdgeId id = 0; id < edges_.size(); ++id) {
      const Edge& e = edges_[id];
      const size_t slot = cursor[e.dst]++;
      in_heads_[slot] = e.src;
      in_probs_[slot] = e.prob;
      in_edge_ids_[slot] = id;
    }
  }

  csr_stale_.store(false, std::memory_order_release);
}

std::vector<Edge> UncertainGraph::Edges() const {
  std::vector<Edge> edges = edges_;
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  return edges;
}

double UncertainGraph::WeightedDegree(NodeId u) const {
  EnsureCsr();
  double sum = 0.0;
  for (size_t i = out_offsets_[u]; i < out_offsets_[u + 1]; ++i) {
    sum += out_probs_[i];
  }
  if (directed_) {
    for (size_t i = in_offsets_[u]; i < in_offsets_[u + 1]; ++i) {
      sum += in_probs_[i];
    }
  }
  return sum;
}

UncertainGraph UncertainGraph::Transposed() const {
  UncertainGraph t(num_nodes_, directed_);
  for (const Edge& e : edges_) {
    Status st = directed_ ? t.AddEdge(e.dst, e.src, e.prob)
                          : t.AddEdge(e.src, e.dst, e.prob);
    RELMAX_DCHECK(st.ok());
    (void)st;
  }
  return t;
}

StatusOr<UncertainGraph> UncertainGraph::InducedSubgraph(
    const std::vector<NodeId>& nodes) const {
  std::unordered_map<NodeId, NodeId> remap;
  remap.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= num_nodes_) {
      return Status::OutOfRange("subgraph node exceeds num_nodes");
    }
    if (!remap.emplace(nodes[i], static_cast<NodeId>(i)).second) {
      return Status::InvalidArgument("duplicate node in subgraph spec");
    }
  }
  UncertainGraph sub(static_cast<NodeId>(nodes.size()), directed_);
  const CsrView csr = OutCsr();
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t a = csr.begin(nodes[i]); a < csr.end(nodes[i]); ++a) {
      auto it = remap.find(csr.heads[a]);
      if (it == remap.end()) continue;
      const NodeId su = static_cast<NodeId>(i);
      const NodeId sv = it->second;
      if (!directed_ && sub.HasEdge(su, sv)) continue;  // second arc copy
      Status st = sub.AddEdge(su, sv, csr.probs[a]);
      RELMAX_DCHECK(st.ok());
      (void)st;
    }
  }
  return sub;
}

UncertainGraph UncertainGraph::UnindexedAugmented(
    const UncertainGraph& base, const std::vector<Edge>& extra) {
  UncertainGraph g(base.num_nodes_, base.directed_);
  g.version_ = base.version_;
  g.edges_.reserve(base.edges_.size() + extra.size());
  g.edges_ = base.edges_;
  g.edge_probs_.reserve(base.edges_.size() + extra.size());
  g.edge_probs_ = base.edge_probs_;
  std::vector<uint64_t> appended;  // keys of the extra edges kept so far
  for (const Edge& e : extra) {
    // AddEdge's checks, in its order; the edge index is base's plus
    // `appended`.
    if (e.src >= base.num_nodes_ || e.dst >= base.num_nodes_ ||
        e.src == e.dst || !(e.prob >= 0.0 && e.prob <= 1.0)) {
      RELMAX_DCHECK(false);
      continue;
    }
    const uint64_t key = base.EdgeKey(e.src, e.dst);
    if (base.edge_index_.count(key) > 0 ||
        std::find(appended.begin(), appended.end(), key) != appended.end()) {
      continue;
    }
    appended.push_back(key);
    NodeId cu = e.src;
    NodeId cv = e.dst;
    if (!base.directed_ && cu > cv) std::swap(cu, cv);
    g.edges_.push_back({cu, cv, e.prob});
    g.edge_probs_.push_back(e.prob);
    ++g.version_;
  }
  return g;  // the CSR is stale: the first traversal builds it
}

}  // namespace relmax
