#include "baselines/greedy.h"

#include <algorithm>
#include <optional>

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
// A bank over options.max_shared_world_bytes ((E + 2V) bits per world) is
// streamed in runs of lane blocks each round, with the same integer counts.
class CandidateWorldScorer {
 public:
  CandidateWorldScorer(const UncertainGraph& g, NodeId s, NodeId t,
                       const std::vector<Edge>& candidates,
                       const SolverOptions& options)
      : g_plus_(AugmentGraph(g, candidates)),
        world_options_{.num_samples = options.num_samples,
                       .seed = options.seed ^ kGreedyBankSalt,
                       .num_threads = options.num_threads},
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
    for (const Edge& c : candidates) {
      // Candidates are pre-validated (ValidateGreedyArgs), so every one is
      // present in g_plus — possibly as a duplicate of an existing edge.
      candidate_ids_.push_back(*g_plus_.EdgeIndexOf(c.src, c.dst));
    }
    const size_t rows =
        g_plus_.num_edges() + 2 * static_cast<size_t>(g_plus_.num_nodes());
    flat_ = BankBytes(rows, options.num_samples) <=
            options.max_shared_world_bytes;
    if (flat_) bank_.emplace(g_plus_, world_options_);
    run_blocks_ =
        flat_ ? bank_->lane_blocks()
              : WorldBank::BlocksWithin(rows, options.max_shared_world_bytes);
  }

  /// Counts, over all Z worlds and for the current working edge set, the
  /// worlds where s reaches t (`*base`) and, for every candidate i, those
  /// where it does with candidate i added (`(*hits)[i]`): exact over the
  /// worlds, since a path through a candidate edge must cross it once. Call
  /// once per greedy round, after any Commit.
  void Count(int64_t* base, std::vector<int64_t>* hits) {
    *base = 0;
    hits->assign(candidates_.size(), 0);
    // Reachability only grows as edges are committed, so a kept bank's
    // previous-round bits stay valid and seed the fixpoint; a streamed run
    // starts from scratch.
    const WorldBank::SeedPolicy seeds =
        flat_ ? WorldBank::SeedPolicy::kSeedsAreFacts
              : WorldBank::SeedPolicy::kClearScratch;
    const size_t blocks = WorldBank::LaneBlocks(world_options_.num_samples);
    for (size_t first = 0; first < blocks; first += run_blocks_) {
      if (!flat_) bank_.emplace(g_plus_, world_options_, first, run_blocks_);
      const WorldBank& bank = *bank_;
      bank.ReachabilityFixpoint(s_, /*backward=*/false, active_, &from_s_,
                                seeds);
      bank.ReachabilityFixpoint(t_, /*backward=*/true, active_, &to_t_,
                                seeds);
      const size_t words = bank.world_words();
      const uint64_t* const connected = from_s_.row(t_);
      const int64_t base_hits = WorldBank::CountBits(
          {connected, words}, static_cast<size_t>(bank.num_worlds()));
      *base += base_hits;
      // The per-node world rows are hoisted to raw pointers so the sweep is
      // a flat word-parallel AND chain.
      const bool undirected = !g_plus_.directed();
      for (size_t i = 0; i < candidates_.size(); ++i) {
        const NodeId u = candidates_[i].src;
        const NodeId v = candidates_[i].dst;
        const uint64_t* const up = bank.EdgeUpWorlds(candidate_ids_[i]).data();
        const uint64_t* const from_u = from_s_.row(u);
        const uint64_t* const from_v = from_s_.row(v);
        const uint64_t* const to_u = to_t_.row(u);
        const uint64_t* const to_v = to_t_.row(v);
        int64_t count = base_hits;
        for (size_t word = 0; word < words; ++word) {
          uint64_t fresh = up[word] & from_u[word] & to_v[word];
          if (undirected) {
            fresh |= up[word] & from_v[word] & to_u[word];
          }
          count += __builtin_popcountll(fresh & ~connected[word]);
        }
        (*hits)[i] += count;
      }
    }
  }

  /// Adds candidate `i` to the working edge set.
  void Commit(size_t i) { active_.push_back(candidate_ids_[i]); }

 private:
  const UncertainGraph g_plus_;
  const WorldBank::Options world_options_;
  NodeId s_;
  NodeId t_;
  const std::vector<Edge>& candidates_;
  std::vector<EdgeId> candidate_ids_;
  std::vector<EdgeId> active_;  ///< working edge set
  /// The whole bank, kept, when it fits the budget; else the current run of
  /// run_blocks_ lane blocks.
  bool flat_ = false;
  size_t run_blocks_ = 0;
  std::optional<WorldBank> bank_;
  /// Per-node world bitsets for the current round's working set.
  bitlane::BitMatrix from_s_;
  bitlane::BitMatrix to_t_;
};

bool UseSharedWorlds(const SolverOptions& options) {
  return options.reuse_worlds && options.estimator == Estimator::kMonteCarlo;
}

}  // namespace

StatusOr<std::vector<Edge>> SelectIndividualTopK(
    const UncertainGraph& g, NodeId s, NodeId t,
    const std::vector<Edge>& candidates, const SolverOptions& options) {
  RELMAX_RETURN_IF_ERROR(ValidateGreedyArgs(g, s, t, candidates, options));

  std::vector<double> gains(candidates.size(), 0.0);
  if (UseSharedWorlds(options)) {
    CandidateWorldScorer scorer(g, s, t, candidates, options);
    int64_t base = 0;
    std::vector<int64_t> hits;
    scorer.Count(&base, &hits);
    const double z = options.num_samples;
    for (size_t i = 0; i < candidates.size(); ++i) {
      gains[i] = hits[i] / z - base / z;
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

  if (UseSharedWorlds(options)) {
    // Common random numbers across every round *and* candidate: all scores
    // come from one world set, so the greedy comparisons are consistent and
    // sampling is paid once (once per round when streamed) instead of per
    // (round × candidate).
    CandidateWorldScorer scorer(g, s, t, candidates, options);
    std::vector<char> used(candidates.size(), 0);
    std::vector<Edge> chosen;
    int64_t base = 0;
    std::vector<int64_t> hits;
    const double z = options.num_samples;
    for (int round = 0; round < options.budget_k; ++round) {
      scorer.Count(&base, &hits);
      int best = -1;
      double best_gain = 0.0;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (used[i]) continue;
        const double gain = hits[i] / z - base / z;
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
