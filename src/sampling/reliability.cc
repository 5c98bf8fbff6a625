#include "sampling/reliability.h"

#include <algorithm>
#include <cmath>

#include "sampling/parallel.h"

namespace relmax {
namespace {

// ceil(p * 2^53) <= 2^53 for p < 1, so anything above 2^53 marks "up without
// drawing" (p >= 1); 0 marks "down without drawing" (p <= 0).
constexpr uint64_t kP53 = uint64_t{1} << 53;
constexpr uint64_t kAlwaysUp = kP53 + 1;

// One integer threshold per CSR arc. `(Next() >> 11) < threshold` is exactly
// `NextDouble() < p`: the 53-bit draw and p * 2^53 are both exact in double,
// so the integer comparison decides identically and consumes the same single
// draw — the RNG stream stays bit-identical to the double-compare kernel.
void BuildThresholds(const CsrView& csr, NodeId n,
                     std::vector<uint64_t>* thresholds) {
  const size_t num_arcs = csr.offsets[n];
  thresholds->resize(num_arcs);
  for (size_t i = 0; i < num_arcs; ++i) {
    const double p = csr.probs[i];
    (*thresholds)[i] =
        p <= 0.0   ? 0
        : p >= 1.0 ? kAlwaysUp
                   : static_cast<uint64_t>(std::ceil(p * 0x1p53));
  }
}

}  // namespace

MonteCarloSampler::MonteCarloSampler(const UncertainGraph& g, uint64_t seed)
    : graph_(g),
      graph_version_(g.version()),
      rng_(seed),
      visited_(g.num_nodes()),
      queue_(g.num_nodes(), 0),
      edge_cache_(g.directed() ? 0 : g.num_edges()) {}

template <bool kReverse>
const uint64_t* MonteCarloSampler::Thresholds() {
  const bool use_in = kReverse && graph_.directed();
  std::vector<uint64_t>& thresholds =
      use_in ? in_thresholds_ : out_thresholds_;
  if (thresholds.empty() && graph_.num_edges() > 0) {
    BuildThresholds(use_in ? graph_.InCsr() : graph_.OutCsr(),
                    graph_.num_nodes(), &thresholds);
  }
  return thresholds.data();
}

void MonteCarloSampler::SyncWithGraph() {
  if (graph_.version() == graph_version_) return;
  graph_version_ = graph_.version();
  visited_ = VisitMarker(graph_.num_nodes());
  queue_.assign(graph_.num_nodes(), 0);
  queue_size_ = 0;
  edge_cache_.Reset(graph_.directed() ? 0 : graph_.num_edges());
  out_thresholds_.clear();
  in_thresholds_.clear();
}

template <bool kReverse>
bool MonteCarloSampler::SampleWorldBfs(const std::vector<NodeId>& seeds,
                                       NodeId stop_at) {
  SyncWithGraph();
  const CsrView csr = kReverse ? graph_.InCsr() : graph_.OutCsr();
  const uint64_t* const thresholds = Thresholds<kReverse>();
  return graph_.directed()
             ? RunWorldBfs<true>(csr, thresholds, seeds.data(), seeds.size(),
                                 stop_at)
             : RunWorldBfs<false>(csr, thresholds, seeds.data(), seeds.size(),
                                  stop_at);
}

template <bool kDirected>
bool MonteCarloSampler::RunWorldBfs(const CsrView& csr,
                                    const uint64_t* thresholds,
                                    const NodeId* seeds, size_t num_seeds,
                                    NodeId stop_at) {
  visited_.NewEpoch();
  edge_cache_.BeginWorld();
  // Everything the loop touches is hoisted to locals: the vectors never
  // reallocate mid-world (queue_ is pre-sized to num_nodes), and keeping raw
  // pointers in registers stops the stores from forcing per-arc reloads of
  // the member vectors' data pointers. The packed-state accesses below
  // follow the EdgeWorldCache contract.
  uint32_t* const stamp = visited_.stamp();
  const uint32_t vmark = visited_.epoch();
  uint32_t* const edge_state = edge_cache_.state();
  const uint32_t epoch = edge_cache_.epoch();
  NodeId* const queue = queue_.data();
  size_t qsize = 0;
  for (size_t k = 0; k < num_seeds; ++k) {
    const NodeId s = seeds[k];
    if (stamp[s] != vmark) {
      stamp[s] = vmark;
      if (s == stop_at) {
        queue_size_ = qsize;
        return true;
      }
      queue[qsize++] = s;
    }
  }
  for (size_t head = 0; head < qsize; ++head) {
    const NodeId u = queue[head];
    const size_t end = csr.offsets[u + 1];
    for (size_t i = csr.offsets[u]; i < end; ++i) {
      const NodeId v = csr.heads[i];
      if (stamp[v] == vmark) continue;
      if constexpr (kDirected) {
        // A directed arc is met at most once per world BFS (its tail is
        // dequeued once), so an independent flip is already world-coherent.
        const uint64_t t = thresholds[i];
        if (t == 0) continue;
        if (t <= kP53 && (rng_.Next() >> 11) >= t) continue;
      } else {
        // Undirected: both stored arcs share the logical edge id; flip once
        // per world and cache the outcome.
        uint32_t& state = edge_state[csr.edge_ids[i]];
        if ((state >> 1) != epoch) {
          const uint64_t t = thresholds[i];
          const bool up = t > kP53 || (t != 0 && (rng_.Next() >> 11) < t);
          state = (epoch << 1) | (up ? 1u : 0u);
        }
        if ((state & 1u) == 0) continue;
      }
      stamp[v] = vmark;
      if (v == stop_at) {
        queue_size_ = qsize;
        return true;
      }
      queue[qsize++] = v;
    }
  }
  queue_size_ = qsize;
  return stop_at != kInvalidNode && visited_.Visited(stop_at);
}

int MonteCarloSampler::ReliabilityHits(NodeId s, NodeId t, int num_samples) {
  RELMAX_CHECK(s < graph_.num_nodes() && t < graph_.num_nodes());
  RELMAX_CHECK(num_samples > 0);
  if (s == t) return num_samples;
  // The hot serial path: the flat arrays are fetched once for the whole
  // world batch instead of once per world.
  SyncWithGraph();
  const CsrView csr = graph_.OutCsr();
  const uint64_t* const thresholds = Thresholds<false>();
  int hits = 0;
  if (graph_.directed()) {
    for (int i = 0; i < num_samples; ++i) {
      hits += RunWorldBfs<true>(csr, thresholds, &s, 1, t) ? 1 : 0;
    }
  } else {
    for (int i = 0; i < num_samples; ++i) {
      hits += RunWorldBfs<false>(csr, thresholds, &s, 1, t) ? 1 : 0;
    }
  }
  return hits;
}

double MonteCarloSampler::Reliability(NodeId s, NodeId t, int num_samples) {
  return static_cast<double>(ReliabilityHits(s, t, num_samples)) / num_samples;
}

std::vector<double> MonteCarloSampler::FromSource(NodeId s, int num_samples) {
  return FromSourceSet({s}, num_samples);
}

void MonteCarloSampler::AccumulateFromSourceSet(
    const std::vector<NodeId>& sources, int num_samples,
    std::vector<int64_t>* counts) {
  RELMAX_CHECK(num_samples > 0);
  RELMAX_CHECK(counts->size() == graph_.num_nodes());
  for (int i = 0; i < num_samples; ++i) {
    SampleWorldBfs<false>(sources, kInvalidNode);
    for (size_t k = 0; k < queue_size_; ++k) ++(*counts)[queue_[k]];
  }
}

std::vector<double> MonteCarloSampler::FromSourceSet(
    const std::vector<NodeId>& sources, int num_samples) {
  std::vector<int64_t> counts(graph_.num_nodes(), 0);
  AccumulateFromSourceSet(sources, num_samples, &counts);
  std::vector<double> reliability(graph_.num_nodes());
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    reliability[v] = static_cast<double>(counts[v]) / num_samples;
  }
  return reliability;
}

void MonteCarloSampler::AccumulateToTarget(NodeId t, int num_samples,
                                           std::vector<int64_t>* counts) {
  RELMAX_CHECK(num_samples > 0);
  RELMAX_CHECK(counts->size() == graph_.num_nodes());
  const std::vector<NodeId> seeds = {t};
  for (int i = 0; i < num_samples; ++i) {
    SampleWorldBfs<true>(seeds, kInvalidNode);
    for (size_t k = 0; k < queue_size_; ++k) ++(*counts)[queue_[k]];
  }
}

std::vector<double> MonteCarloSampler::ToTarget(NodeId t, int num_samples) {
  std::vector<int64_t> counts(graph_.num_nodes(), 0);
  AccumulateToTarget(t, num_samples, &counts);
  std::vector<double> reliability(graph_.num_nodes());
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    reliability[v] = static_cast<double>(counts[v]) / num_samples;
  }
  return reliability;
}

double EstimateReliability(const UncertainGraph& g, NodeId s, NodeId t,
                           const SampleOptions& options) {
  return ParallelReliability(g, s, t, options);
}

std::vector<double> ReliabilityFromSource(const UncertainGraph& g, NodeId s,
                                          const SampleOptions& options) {
  RELMAX_CHECK(s < g.num_nodes());
  return ParallelFromSourceSet(g, {s}, options);
}

std::vector<double> ReliabilityToTarget(const UncertainGraph& g, NodeId t,
                                        const SampleOptions& options) {
  return ParallelToTarget(g, t, options);
}

}  // namespace relmax
