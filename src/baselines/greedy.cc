#include "baselines/greedy.h"

#include <algorithm>
#include <span>

#include "common/memory.h"
#include "core/evaluate.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

Status ValidateGreedyArgs(const UncertainGraph& g, NodeId s, NodeId t,
                          const std::vector<Edge>& candidates,
                          const SolverOptions& options) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (options.budget_k <= 0) {
    return Status::InvalidArgument("budget_k must be positive");
  }
  // Candidates AugmentGraph would reject must fail loudly here: silently
  // scoring them as gain 0 (release) or tripping a DCHECK (debug) hides the
  // caller's bug. Duplicates of existing edges remain allowed.
  for (const Edge& c : candidates) {
    if (c.src >= g.num_nodes() || c.dst >= g.num_nodes()) {
      return Status::OutOfRange("candidate endpoint out of range");
    }
    if (c.src == c.dst) {
      return Status::InvalidArgument("candidate edge is a self-loop");
    }
    if (!(c.prob >= 0.0 && c.prob <= 1.0)) {
      return Status::InvalidArgument("candidate probability outside [0, 1]");
    }
  }
  return Status::Ok();
}

// Seed tag for the greedy baselines' shared world set; distinct from the
// BE/IP selection bank so the baselines stay decorrelated from the solver.
constexpr uint64_t kGreedyBankSalt = 0x9eed1e55b45eba11ULL;

// Shared-possible-world scorer for the candidate-edge greedy baselines
// (options.reuse_worlds): one WorldBank over g ∪ candidates replaces the
// per-(round × candidate) re-estimation. Each round runs one forward and one
// backward word-parallel reachability sweep over the working edge set; a
// single added edge (u, v) then connects a world iff the edge is up, s
// reaches u, and v reaches t in that world, so every candidate score is a
// few bitwise ANDs — common random numbers across all candidates and rounds,
// bit-identical for any num_threads.
class CandidateWorldScorer {
 public:
  CandidateWorldScorer(const UncertainGraph& g, NodeId s, NodeId t,
                       const std::vector<Edge>& candidates,
                       const SolverOptions& options)
      : g_plus_(AugmentGraph(g, candidates)),
        bank_(g_plus_, {.num_samples = options.num_samples,
                        .seed = options.seed ^ kGreedyBankSalt,
                        .num_threads = options.num_threads}),
        s_(s),
        t_(t),
        candidates_(candidates) {
    // AugmentGraph copies g then appends, so g's own edges keep their ids
    // [0, g.num_edges()) in g_plus — they form the initial working set.
    active_.reserve(g.num_edges() + options.budget_k);
    for (size_t e = 0; e < g.num_edges(); ++e) {
      active_.push_back(static_cast<EdgeId>(e));
    }
    candidate_ids_.reserve(candidates.size());
    candidate_up_.reserve(candidates.size());
    for (const Edge& c : candidates) {
      // Candidates are pre-validated (ValidateGreedyArgs), so every one is
      // present in g_plus — possibly as a duplicate of an existing edge.
      candidate_ids_.push_back(*g_plus_.EdgeIndexOf(c.src, c.dst));
      // Views into the bank's rows — the bank is a member, so they stay
      // valid for the scorer's lifetime.
      candidate_up_.push_back(bank_.EdgeUpWorlds(candidate_ids_.back()));
    }
    BeginRound();
  }

  /// Recomputes the reachability sweeps for the current working edge set.
  /// Call once per greedy round (after any Commit). Reachability only grows
  /// as edges are committed, so the previous round's bits stay valid and
  /// seed the fixpoint.
  void BeginRound() {
    bank_.ReachabilityFixpoint(s_, /*backward=*/false, active_, &from_s_,
                                WorldBank::SeedPolicy::kSeedsAreFacts);
    bank_.ReachabilityFixpoint(t_, /*backward=*/true, active_, &to_t_,
                                WorldBank::SeedPolicy::kSeedsAreFacts);
    const uint64_t* const at_t = from_s_.row(t_);
    connected_.assign(at_t, at_t + bank_.world_words());
    base_hits_ = WorldBank::CountBits(
        connected_, static_cast<size_t>(bank_.num_worlds()));
  }

  /// R(s, t) estimate for the current working edge set.
  double Base() const {
    return static_cast<double>(base_hits_) / bank_.num_worlds();
  }

  /// R(s, t) estimate with candidate `i` added to the working set. Exact
  /// over the bank's worlds: a path through the new edge must cross it once.
  /// The per-node world rows are hoisted to raw pointers so the sweep is a
  /// flat word-parallel AND chain.
  double With(size_t i) const {
    const NodeId u = candidates_[i].src;
    const NodeId v = candidates_[i].dst;
    const uint64_t* const up = candidate_up_[i].data();
    const uint64_t* const from_u = from_s_.row(u);
    const uint64_t* const from_v = from_s_.row(v);
    const uint64_t* const to_u = to_t_.row(u);
    const uint64_t* const to_v = to_t_.row(v);
    const bool undirected = !g_plus_.directed();
    int64_t hits = base_hits_;
    for (size_t word = 0; word < connected_.size(); ++word) {
      uint64_t fresh = up[word] & from_u[word] & to_v[word];
      if (undirected) {
        fresh |= up[word] & from_v[word] & to_u[word];
      }
      hits += __builtin_popcountll(fresh & ~connected_[word]);
    }
    return static_cast<double>(hits) / bank_.num_worlds();
  }

  /// Adds candidate `i` to the working edge set.
  void Commit(size_t i) { active_.push_back(candidate_ids_[i]); }

 private:
  const UncertainGraph g_plus_;
  const WorldBank bank_;
  NodeId s_;
  NodeId t_;
  const std::vector<Edge>& candidates_;
  std::vector<EdgeId> candidate_ids_;
  /// Per-candidate world bitset views: worlds where the candidate is up.
  std::vector<std::span<const uint64_t>> candidate_up_;
  std::vector<EdgeId> active_;  ///< working edge set
  /// Per-node world bitsets for the current round's working set.
  bitlane::BitMatrix from_s_;
  bitlane::BitMatrix to_t_;
  std::vector<uint64_t> connected_;  ///< worlds connected under active_
  int64_t base_hits_ = 0;
};

bool UseSharedWorlds(const UncertainGraph& g, const SolverOptions& options) {
  if (!options.reuse_worlds || options.estimator != Estimator::kMonteCarlo) {
    return false;
  }
  // The bank plus the two per-node reach tables cost roughly (E + 2V) * Z / 8
  // bytes. The intended workload is the eliminated subgraph, where this
  // never trips; on a full-scale graph fall back to per-evaluation
  // re-sampling instead of silently ballooning memory — but say so: the
  // slow path is orders of magnitude more RNG work.
  const size_t cap = options.max_shared_world_bytes;
  const size_t rows = g.num_edges() + 2 * static_cast<size_t>(g.num_nodes());
  const size_t wanted = BankBytes(rows, options.num_samples);
  if (wanted > cap) {
    NoteBankFallback("greedy baseline", wanted, cap);
    return false;
  }
  return true;
}

}  // namespace

StatusOr<std::vector<Edge>> SelectIndividualTopK(
    const UncertainGraph& g, NodeId s, NodeId t,
    const std::vector<Edge>& candidates, const SolverOptions& options) {
  RELMAX_RETURN_IF_ERROR(ValidateGreedyArgs(g, s, t, candidates, options));

  std::vector<double> gains(candidates.size(), 0.0);
  if (UseSharedWorlds(g, options)) {
    CandidateWorldScorer scorer(g, s, t, candidates, options);
    const double base = scorer.Base();
    for (size_t i = 0; i < candidates.size(); ++i) {
      gains[i] = scorer.With(i) - base;
    }
  } else {
    const double base = EstimateWithOptions(g, s, t, options, 0);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const UncertainGraph augmented = AugmentGraph(g, {candidates[i]});
      gains[i] = EstimateWithOptions(augmented, s, t, options, 0) - base;
    }
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

StatusOr<std::vector<Edge>> SelectHillClimbing(
    const UncertainGraph& g, NodeId s, NodeId t,
    const std::vector<Edge>& candidates, const SolverOptions& options) {
  RELMAX_RETURN_IF_ERROR(ValidateGreedyArgs(g, s, t, candidates, options));

  if (UseSharedWorlds(g, options)) {
    // Common random numbers across every round *and* candidate: all scores
    // come from one world set, so the greedy comparisons are consistent and
    // sampling is paid once instead of per (round × candidate).
    CandidateWorldScorer scorer(g, s, t, candidates, options);
    std::vector<char> used(candidates.size(), 0);
    std::vector<Edge> chosen;
    for (int round = 0; round < options.budget_k; ++round) {
      if (round > 0) scorer.BeginRound();
      const double base = scorer.Base();
      int best = -1;
      double best_gain = 0.0;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (used[i]) continue;
        const double gain = scorer.With(i) - base;
        if (best < 0 || gain > best_gain) {
          best_gain = gain;
          best = static_cast<int>(i);
        }
      }
      if (best < 0) break;  // candidate pool exhausted
      used[best] = 1;
      chosen.push_back(candidates[best]);
      scorer.Commit(static_cast<size_t>(best));
    }
    return chosen;
  }

  UncertainGraph working = g;
  std::vector<char> used(candidates.size(), 0);
  std::vector<Edge> chosen;
  for (int round = 0; round < options.budget_k; ++round) {
    // Common random numbers within the round: every candidate is scored
    // against the same seed salt so comparisons share sampling noise.
    const uint64_t salt = 0x5e1ec7 + round;
    const double base = EstimateWithOptions(working, s, t, options, salt);
    int best = -1;
    double best_gain = 0.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const UncertainGraph augmented = AugmentGraph(working, {candidates[i]});
      const double gain =
          EstimateWithOptions(augmented, s, t, options, salt) - base;
      if (best < 0 || gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;  // candidate pool exhausted
    used[best] = 1;
    chosen.push_back(candidates[best]);
    const Status st = working.AddEdge(candidates[best].src,
                                      candidates[best].dst,
                                      candidates[best].prob);
    RELMAX_DCHECK(st.ok());
    (void)st;
  }
  return chosen;
}

StatusOr<std::vector<Edge>> SelectHillClimbingMulti(
    const UncertainGraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, Aggregate aggregate,
    const std::vector<Edge>& candidates, const SolverOptions& options) {
  if (sources.empty() || targets.empty()) {
    return Status::InvalidArgument("sources and targets must be non-empty");
  }
  for (NodeId v : sources) {
    if (v >= g.num_nodes()) return Status::OutOfRange("source out of range");
  }
  for (NodeId v : targets) {
    if (v >= g.num_nodes()) return Status::OutOfRange("target out of range");
  }
  if (options.budget_k <= 0) {
    return Status::InvalidArgument("budget_k must be positive");
  }

  UncertainGraph working = g;
  std::vector<char> used(candidates.size(), 0);
  std::vector<Edge> chosen;
  for (int round = 0; round < options.budget_k; ++round) {
    const uint64_t seed = options.seed ^ (0x517ab1ULL + round);
    const double base = AggregateMatrix(
        PairwiseReliability(working, sources, targets, options.num_samples,
                            seed, options.num_threads),
        aggregate);
    int best = -1;
    double best_gain = 0.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const UncertainGraph augmented = AugmentGraph(working, {candidates[i]});
      const double value = AggregateMatrix(
          PairwiseReliability(augmented, sources, targets,
                              options.num_samples, seed,
                              options.num_threads),
          aggregate);
      if (best < 0 || value - base > best_gain) {
        best_gain = value - base;
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
