#ifndef RELMAX_TESTS_ORACLE_UTIL_H_
#define RELMAX_TESTS_ORACLE_UTIL_H_

// Shared fixtures for the exact-oracle conformance sweeps: small random
// uncertain graphs (≤ 10 edges) plus a brute-force possible-world
// enumeration oracle that every estimator — Monte Carlo, RSS, the WorldBank
// fixpoint — must agree with to within sampling error. With m ≤ 10 edges the oracle enumerates all 2^m worlds exactly, so
// it is independent of every traversal, stratification, and bit-matrix code
// path under test.

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "graph/uncertain_graph.h"

namespace relmax {
namespace oracle {

/// Random graph with up to `max_edges` edges (≤ 10 keeps the oracle cheap).
/// Probabilities are mostly mid-range; with small probability an edge gets
/// p = 0 or p = 1 to exercise the no-draw fast paths of the samplers.
inline UncertainGraph SmallRandomGraph(uint64_t seed, NodeId n, int max_edges,
                                       bool directed) {
  Rng rng(seed);
  UncertainGraph g =
      directed ? UncertainGraph::Directed(n) : UncertainGraph::Undirected(n);
  int edges = 0;
  for (int attempt = 0; edges < max_edges && attempt < 20 * max_edges;
       ++attempt) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    const NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u == v || g.HasEdge(u, v)) continue;
    double p = rng.NextDouble(0.1, 0.9);
    if (rng.NextBernoulli(0.1)) p = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
    if (g.AddEdge(u, v, p).ok()) ++edges;
  }
  return g;
}

/// Exact R(s, t, G) by enumerating every possible world: Σ_W P(W) · [s ⇝ t
/// in W]. Reachability per world is a tiny edge-list fixpoint, deliberately
/// sharing no code with the estimators under test.
inline double BruteForceReliability(const UncertainGraph& g, NodeId s,
                                    NodeId t) {
  if (s == t) return 1.0;
  const std::vector<Edge>& edges = g.EdgesById();
  const size_t m = edges.size();
  const bool directed = g.directed();
  double total = 0.0;
  std::vector<char> reach(g.num_nodes());
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    double pw = 1.0;
    for (size_t e = 0; e < m; ++e) {
      pw *= (mask >> e) & 1 ? edges[e].prob : 1.0 - edges[e].prob;
    }
    if (pw == 0.0) continue;
    std::fill(reach.begin(), reach.end(), 0);
    reach[s] = 1;
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t e = 0; e < m; ++e) {
        if (((mask >> e) & 1) == 0) continue;
        if (reach[edges[e].src] && !reach[edges[e].dst]) {
          reach[edges[e].dst] = 1;
          changed = true;
        }
        if (!directed && reach[edges[e].dst] && !reach[edges[e].src]) {
          reach[edges[e].src] = 1;
          changed = true;
        }
      }
    }
    if (reach[t]) total += pw;
  }
  return total;
}

/// 3σ band for an unbiased Z-sample estimator of `exact`: one MC sample is
/// Bernoulli(R), σ = sqrt(R(1−R)/Z). RSS and the WorldBank share the bound —
/// RSS strictly reduces variance, and the bank's connected-world fraction is
/// the same Bernoulli mean over Z sampled worlds. The variance floor keeps
/// the band non-degenerate at R ∈ {0, 1}, where the estimators are exact.
inline double ThreeSigma(double exact, int num_samples) {
  return 3.0 *
         std::sqrt(std::max(exact * (1.0 - exact), 1e-6) / num_samples);
}

}  // namespace oracle
}  // namespace relmax

#endif  // RELMAX_TESTS_ORACLE_UTIL_H_
