#include "baselines/fast_gain.h"

#include <algorithm>

#include "core/evaluate.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

Status ValidateArgs(const UncertainGraph& g, NodeId s, NodeId t,
                    const SolverOptions& options) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (options.budget_k <= 0) {
    return Status::InvalidArgument("budget_k must be positive");
  }
  if (options.num_samples <= 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  return Status::Ok();
}

}  // namespace

WorldEnsemble::WorldEnsemble(const UncertainGraph& g, NodeId s, NodeId t,
                             int num_samples, uint64_t seed)
    : num_samples_(num_samples), t_(t) {
  const WorldBank bank(g, {.num_samples = num_samples, .seed = seed});
  bank.ReachabilityFixpoint(s, /*backward=*/false, bank.AllEdges(), &from_s_);
  bank.ReachabilityFixpoint(t, /*backward=*/true, bank.AllEdges(), &to_t_);
}

double WorldEnsemble::CompletedFraction(NodeId u, NodeId v,
                                        bool both_ways) const {
  const uint64_t* const from_u = from_s_.row(u);
  const uint64_t* const from_v = from_s_.row(v);
  const uint64_t* const to_u = to_t_.row(u);
  const uint64_t* const to_v = to_t_.row(v);
  const uint64_t* const connected = from_s_.row(t_);
  // Reach rows keep the bits past the last world clear, so no tail mask.
  int64_t count = 0;
  for (size_t w = 0; w < from_s_.words(); ++w) {
    uint64_t completes = from_u[w] & to_v[w];
    if (both_ways) completes |= from_v[w] & to_u[w];
    count += __builtin_popcountll(completes & ~connected[w]);
  }
  return static_cast<double>(count) / num_samples_;
}

double WorldEnsemble::DeltaGain(NodeId u, NodeId v, double zeta) const {
  return zeta * CompletedFraction(u, v, /*both_ways=*/false);
}

double WorldEnsemble::DeltaGainUndirected(NodeId u, NodeId v,
                                          double zeta) const {
  return zeta * CompletedFraction(u, v, /*both_ways=*/true);
}

double WorldEnsemble::BaseReliability() const {
  return static_cast<double>(WorldBank::CountBits(
             from_s_.row_span(t_), static_cast<size_t>(num_samples_))) /
         num_samples_;
}

StatusOr<std::vector<Edge>> SelectIndividualTopKFast(
    const UncertainGraph& g, NodeId s, NodeId t,
    const std::vector<Edge>& candidates, const SolverOptions& options) {
  RELMAX_RETURN_IF_ERROR(ValidateArgs(g, s, t, options));
  const WorldEnsemble ensemble(g, s, t, options.num_samples,
                               options.seed ^ 0xfa57);

  std::vector<double> gains(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    gains[i] = g.directed()
                   ? ensemble.DeltaGain(candidates[i].src, candidates[i].dst,
                                        candidates[i].prob)
                   : ensemble.DeltaGainUndirected(
                         candidates[i].src, candidates[i].dst,
                         candidates[i].prob);
  }
  std::vector<int> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (gains[a] != gains[b]) return gains[a] > gains[b];
    return a < b;
  });
  std::vector<Edge> chosen;
  for (int i = 0;
       i < static_cast<int>(order.size()) && i < options.budget_k; ++i) {
    chosen.push_back(candidates[order[i]]);
  }
  return chosen;
}

StatusOr<std::vector<Edge>> SelectHillClimbingFast(
    const UncertainGraph& g, NodeId s, NodeId t,
    const std::vector<Edge>& candidates, const SolverOptions& options) {
  RELMAX_RETURN_IF_ERROR(ValidateArgs(g, s, t, options));

  UncertainGraph working = g;
  std::vector<char> used(candidates.size(), 0);
  std::vector<Edge> chosen;
  for (int round = 0; round < options.budget_k; ++round) {
    const WorldEnsemble ensemble(working, s, t, options.num_samples,
                                 options.seed ^ (0xfa57c11 + round));
    int best = -1;
    double best_gain = -1.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const double gain =
          working.directed()
              ? ensemble.DeltaGain(candidates[i].src, candidates[i].dst,
                                   candidates[i].prob)
              : ensemble.DeltaGainUndirected(candidates[i].src,
                                             candidates[i].dst,
                                             candidates[i].prob);
      if (gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    used[best] = 1;
    chosen.push_back(candidates[best]);
    (void)working.AddEdge(candidates[best].src, candidates[best].dst,
                          candidates[best].prob);
  }
  return chosen;
}

}  // namespace relmax
