#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "graph/bfs.h"
#include "graph/graph_io.h"
#include "graph/uncertain_graph.h"
#include "graph/visit_marker.h"

namespace relmax {
namespace {

// ------------------------------------------------------------ construction

TEST(UncertainGraphTest, EmptyGraph) {
  UncertainGraph g = UncertainGraph::Directed(0);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.directed());
}

TEST(UncertainGraphTest, AddNodeGrowsGraph) {
  UncertainGraph g = UncertainGraph::Undirected(2);
  EXPECT_EQ(g.AddNode(), 2u);
  EXPECT_EQ(g.AddNode(), 3u);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_TRUE(g.AddEdge(2, 3, 0.5).ok());
}

TEST(UncertainGraphTest, DirectedAddEdge) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));  // direction matters
  EXPECT_EQ(g.num_edges(), 1u);
  ASSERT_EQ(g.OutArcs(0).size(), 1u);
  EXPECT_EQ(g.OutArcs(0)[0].to, 1u);
  EXPECT_DOUBLE_EQ(g.OutArcs(0)[0].prob, 0.5);
  ASSERT_EQ(g.InArcs(1).size(), 1u);
  EXPECT_EQ(g.InArcs(1)[0].to, 0u);
  EXPECT_TRUE(g.OutArcs(1).empty());
}

TEST(UncertainGraphTest, UndirectedAddEdgeSymmetric) {
  UncertainGraph g = UncertainGraph::Undirected(3);
  ASSERT_TRUE(g.AddEdge(2, 0, 0.7).ok());
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_EQ(g.num_edges(), 1u);  // one logical edge
  EXPECT_EQ(g.OutArcs(0).size(), 1u);
  EXPECT_EQ(g.OutArcs(2).size(), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeProb(0, 2).value(), 0.7);
  EXPECT_DOUBLE_EQ(g.EdgeProb(2, 0).value(), 0.7);
}

TEST(UncertainGraphTest, RejectsInvalidEdges) {
  UncertainGraph g = UncertainGraph::Directed(3);
  EXPECT_EQ(g.AddEdge(0, 3, 0.5).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(5, 0, 0.5).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(1, 1, 0.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(0, 1, -0.1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(0, 1, 1.5).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_EQ(g.AddEdge(0, 1, 0.6).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.num_edges(), 1u);
}

// NaN fails every ordered comparison, so a `p < 0 || p > 1` range test let
// it through; both mutations must refuse it without bumping version().
TEST(UncertainGraphTest, RejectsNanProbabilities) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  const uint64_t version = g.version();
  EXPECT_EQ(g.AddEdge(1, 2, nan).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.UpdateEdgeProb(0, 1, nan).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.version(), version);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeProb(0, 1).value(), 0.5);
}

TEST(UncertainGraphTest, UndirectedDuplicateDetectedEitherOrientation) {
  UncertainGraph g = UncertainGraph::Undirected(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_EQ(g.AddEdge(1, 0, 0.6).code(), StatusCode::kAlreadyExists);
}

TEST(UncertainGraphTest, EdgeProbAbsent) {
  UncertainGraph g = UncertainGraph::Directed(2);
  EXPECT_FALSE(g.EdgeProb(0, 1).has_value());
}

TEST(UncertainGraphTest, UpdateEdgeProb) {
  UncertainGraph g = UncertainGraph::Undirected(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.UpdateEdgeProb(1, 0, 0.9).ok());
  EXPECT_DOUBLE_EQ(g.EdgeProb(0, 1).value(), 0.9);
  // Both stored arcs see the update.
  EXPECT_DOUBLE_EQ(g.OutArcs(0)[0].prob, 0.9);
  EXPECT_DOUBLE_EQ(g.OutArcs(1)[0].prob, 0.9);
  EXPECT_EQ(g.UpdateEdgeProb(0, 2, 0.4).code(), StatusCode::kNotFound);
  EXPECT_EQ(g.UpdateEdgeProb(0, 1, 2.0).code(), StatusCode::kInvalidArgument);
}

TEST(UncertainGraphTest, EdgesCanonicalOrder) {
  UncertainGraph g = UncertainGraph::Undirected(4);
  ASSERT_TRUE(g.AddEdge(3, 1, 0.2).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.4).ok());
  const std::vector<Edge> edges = g.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].src, 0u);
  EXPECT_EQ(edges[0].dst, 2u);
  EXPECT_EQ(edges[1].src, 1u);  // stored canonically with src < dst
  EXPECT_EQ(edges[1].dst, 3u);
}

TEST(UncertainGraphTest, WeightedDegree) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, 0.25).ok());
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 0.75);  // out 0.5 + in 0.25
  EXPECT_DOUBLE_EQ(g.WeightedDegree(1), 0.5);

  UncertainGraph u = UncertainGraph::Undirected(3);
  ASSERT_TRUE(u.AddEdge(0, 1, 0.5).ok());
  EXPECT_DOUBLE_EQ(u.WeightedDegree(0), 0.5);
  EXPECT_DOUBLE_EQ(u.WeightedDegree(1), 0.5);
}

TEST(UncertainGraphTest, Transposed) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.25).ok());
  UncertainGraph t = g.Transposed();
  EXPECT_TRUE(t.HasEdge(1, 0));
  EXPECT_TRUE(t.HasEdge(2, 1));
  EXPECT_FALSE(t.HasEdge(0, 1));
  EXPECT_DOUBLE_EQ(t.EdgeProb(1, 0).value(), 0.5);
}

TEST(UncertainGraphTest, InducedSubgraph) {
  UncertainGraph g = UncertainGraph::Directed(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.6).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.7).ok());
  auto sub = g.InducedSubgraph({0, 1, 2});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->num_nodes(), 3u);
  EXPECT_EQ(sub->num_edges(), 2u);  // (2,3) dropped
  EXPECT_TRUE(sub->HasEdge(0, 1));
  EXPECT_TRUE(sub->HasEdge(1, 2));
}

TEST(UncertainGraphTest, InducedSubgraphRemapsIds) {
  UncertainGraph g = UncertainGraph::Undirected(5);
  ASSERT_TRUE(g.AddEdge(2, 4, 0.5).ok());
  auto sub = g.InducedSubgraph({4, 2});
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->HasEdge(0, 1));  // 4 -> 0, 2 -> 1
  EXPECT_EQ(sub->num_edges(), 1u);
}

TEST(UncertainGraphTest, InducedSubgraphRejectsBadSpecs) {
  UncertainGraph g = UncertainGraph::Directed(3);
  EXPECT_EQ(g.InducedSubgraph({0, 7}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(g.InducedSubgraph({0, 0}).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ BFS helpers

UncertainGraph PathGraph(int n, bool directed = true) {
  UncertainGraph g =
      directed ? UncertainGraph::Directed(n) : UncertainGraph::Undirected(n);
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(g.AddEdge(i, i + 1, 0.5).ok());
  }
  return g;
}

TEST(BfsTest, HopDistancesOnPath) {
  UncertainGraph g = PathGraph(5);
  const std::vector<int> dist = HopDistances(g, 0);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, 3, 4}));
  // Directed: nothing reaches node 0 except itself.
  const std::vector<int> back = HopDistances(g, 4);
  EXPECT_EQ(back[4], 0);
  EXPECT_EQ(back[0], kUnreachable);
}

TEST(BfsTest, MaxHopsTruncates) {
  UncertainGraph g = PathGraph(6);
  const std::vector<int> dist = HopDistances(g, 0, 2);
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(BfsTest, UndirectedHopDistancesIgnoreDirection) {
  UncertainGraph g = PathGraph(5);  // directed chain
  const std::vector<int> dist = UndirectedHopDistances(g, 4);
  EXPECT_EQ(dist, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(VisitMarkerTest, EpochsResetInConstantTime) {
  VisitMarker marker(4);
  marker.NewEpoch();
  EXPECT_TRUE(marker.Visit(2));
  EXPECT_FALSE(marker.Visit(2));
  EXPECT_TRUE(marker.Visited(2));
  EXPECT_FALSE(marker.Visited(1));
  marker.NewEpoch();
  EXPECT_FALSE(marker.Visited(2));
  EXPECT_TRUE(marker.Visit(2));
}

// ------------------------------------------------------------ IO round trip

TEST(GraphIoTest, RoundTrip) {
  UncertainGraph g = UncertainGraph::Directed(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.125).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.875).ok());
  const std::string path = testing::TempDir() + "/relmax_io_test.graph";
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->directed());
  EXPECT_EQ(loaded->num_nodes(), 4u);
  EXPECT_EQ(loaded->num_edges(), 2u);
  EXPECT_DOUBLE_EQ(loaded->EdgeProb(0, 1).value(), 0.125);
  EXPECT_DOUBLE_EQ(loaded->EdgeProb(2, 3).value(), 0.875);
  std::remove(path.c_str());
}

TEST(GraphIoTest, RoundTripUndirected) {
  UncertainGraph g = UncertainGraph::Undirected(3);
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  const std::string path = testing::TempDir() + "/relmax_io_undirected.graph";
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->directed());
  EXPECT_TRUE(loaded->HasEdge(2, 1));
  std::remove(path.c_str());
}

TEST(GraphIoTest, ReadsCrlfFiles) {
  // Regression: CRLF line endings (Windows-written edge lists) used to fail
  // — a "\r\n" blank line was not skipped and edge lines kept a trailing
  // '\r'. Both must parse identically to LF files.
  const std::string path = testing::TempDir() + "/relmax_io_crlf.graph";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("# comment\r\n", f);
  fputs("directed 4\r\n", f);
  fputs("\r\n", f);  // blank line (just CRLF) must be skipped
  fputs("0 1 0.25\r\n", f);
  fputs("2 3 0.75\r\n", f);
  fclose(f);
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->directed());
  EXPECT_EQ(loaded->num_nodes(), 4u);
  EXPECT_EQ(loaded->num_edges(), 2u);
  EXPECT_DOUBLE_EQ(loaded->EdgeProb(0, 1).value(), 0.25);
  EXPECT_DOUBLE_EQ(loaded->EdgeProb(2, 3).value(), 0.75);
  std::remove(path.c_str());
}

TEST(GraphIoTest, ReadsLinesLongerThanLegacyBuffer) {
  // Regression: lines over 255 chars used to be split into two bogus
  // records by the fixed fgets buffer. Pad an edge record and a comment far
  // past that length; both must parse as single lines.
  const std::string path = testing::TempDir() + "/relmax_io_long.graph";
  FILE* f = fopen(path.c_str(), "w");
  fputs("# ", f);
  for (int i = 0; i < 600; ++i) fputc('x', f);
  fputs("\ndirected 3\n", f);
  fputs("0 1 0.5", f);
  for (int i = 0; i < 600; ++i) fputc(' ', f);
  fputs("\n1 2 0.5\n", f);
  fclose(f);
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_edges(), 2u);
  EXPECT_DOUBLE_EQ(loaded->EdgeProb(0, 1).value(), 0.5);
  EXPECT_DOUBLE_EQ(loaded->EdgeProb(1, 2).value(), 0.5);
  std::remove(path.c_str());
}

TEST(GraphIoTest, RejectsAbsurdlyLongLines) {
  // The reader grows its buffer for legitimate long lines but refuses
  // multi-megabyte ones (e.g. a binary file fed by mistake).
  const std::string path = testing::TempDir() + "/relmax_io_huge.graph";
  FILE* f = fopen(path.c_str(), "w");
  fputs("directed 2\n# ", f);
  for (int i = 0; i < (2 << 20); ++i) fputc('y', f);
  fputs("\n", f);
  fclose(f);
  EXPECT_EQ(ReadEdgeList(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(GraphIoTest, RejectsNulBytes) {
  // A binary file fed by mistake must error, not be silently merged into
  // truncated records (fgets reports NUL-containing data strlen can't see
  // past). Cover a leading NUL and a mid-line NUL.
  const std::string path = testing::TempDir() + "/relmax_io_nul.graph";
  for (const bool leading : {true, false}) {
    FILE* f = fopen(path.c_str(), "wb");
    fputs("directed 2\n", f);
    if (leading) {
      fputc('\0', f);
      fputs("0 1 0.5\n", f);
    } else {
      fputs("0 1", f);
      fputc('\0', f);
      fputs(" 0.5\n", f);
    }
    fclose(f);
    EXPECT_EQ(ReadEdgeList(path).status().code(),
              StatusCode::kInvalidArgument)
        << "leading = " << leading;
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, BoundedLineReaderResyncsAfterOverlongLine) {
  // The shared reader keeps at most kMaxLineBytes of a line, reports the
  // overflow once, and resumes on the following line; CRLF is stripped and
  // a final line without a newline still counts.
  std::string text = "abc\r\n" + std::string(kMaxLineBytes + 1, 'y');
  text += "\nde";
  text += '\0';
  text += "f\nlast";
  std::istringstream in(text);
  std::string line;
  EXPECT_EQ(ReadBoundedLine(in, &line), LineRead::kOk);
  EXPECT_EQ(line, "abc");
  EXPECT_EQ(ReadBoundedLine(in, &line), LineRead::kTooLong);
  EXPECT_LE(line.size(), kMaxLineBytes);
  EXPECT_EQ(ReadBoundedLine(in, &line), LineRead::kNulByte);
  EXPECT_EQ(ReadBoundedLine(in, &line), LineRead::kOk);
  EXPECT_EQ(line, "last");
  EXPECT_EQ(ReadBoundedLine(in, &line), LineRead::kEof);
}

TEST(GraphIoTest, RejectsNanProbability) {
  const std::string path = testing::TempDir() + "/relmax_io_nan.graph";
  FILE* f = fopen(path.c_str(), "w");
  fputs("directed 3\n0 1 nan\n1 2 0.5\n", f);
  fclose(f);
  EXPECT_EQ(ReadEdgeList(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(GraphIoTest, RejectsNodeIdsPastNodeIdRange) {
  // Regression: ids and the node count were parsed with %u, which wrapped
  // 4294967298 to 2 (the edge loaded as 2 -> 1) and read a
  // "directed 4294967300" header as a 4-node graph. A sign wrapped too.
  const std::string path = testing::TempDir() + "/relmax_io_wrap.graph";
  for (const char* text :
       {"directed 4\n4294967298 1 0.9\n", "directed 4\n1 4294967298 0.9\n",
        "directed 4294967300\n0 1 0.5\n", "directed 4\n-1 1 0.5\n",
        "directed 4\n1x 2 0.5\n"}) {
    FILE* f = fopen(path.c_str(), "w");
    fputs(text, f);
    fclose(f);
    EXPECT_EQ(ReadEdgeList(path).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFile) {
  EXPECT_EQ(ReadEdgeList("/nonexistent/graph.txt").status().code(),
            StatusCode::kIoError);
}

TEST(GraphIoTest, MalformedHeader) {
  const std::string path = testing::TempDir() + "/relmax_io_bad.graph";
  FILE* f = fopen(path.c_str(), "w");
  fputs("sideways 4\n", f);
  fclose(f);
  EXPECT_EQ(ReadEdgeList(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace relmax
