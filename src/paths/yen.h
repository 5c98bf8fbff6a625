#ifndef RELMAX_PATHS_YEN_H_
#define RELMAX_PATHS_YEN_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "paths/most_reliable_path.h"

namespace relmax {

/// Top-l most reliable *simple* paths from s to t, in non-increasing
/// probability order (ties broken deterministically).
///
/// The paper invokes Eppstein's k-shortest-paths algorithm [27] here; we use
/// Yen's deviation algorithm instead (see DESIGN.md §1.3): Eppstein
/// enumerates non-simple paths, which can never be most-reliable under
/// multiplicative probabilities, and the selection stage (§5.2) consumes
/// simple paths. Returns fewer than l paths when the graph does not contain
/// that many.
///
/// Every arc a spur search must avoid starts at the spur node, so the bans
/// are a short list of heads checked only there, and one Dijkstra scratch
/// (`best`, `parent`, heap) serves every spur, reset only where a search
/// touched it. Candidates are deduplicated on their exact node sequences.
std::vector<PathResult> TopLReliablePaths(const UncertainGraph& g, NodeId s,
                                          NodeId t, int l);

}  // namespace relmax

#endif  // RELMAX_PATHS_YEN_H_
