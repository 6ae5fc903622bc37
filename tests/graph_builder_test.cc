#include "graph/graph_builder.h"

#include "gtest/gtest.h"

namespace topl {
namespace {

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder b(3);
  b.AddEdge(1, 1, 0.5);
  Result<Graph> g = std::move(b).Build();
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphBuilderTest, RejectsDuplicateEdge) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 0, 0.6);  // same undirected edge, opposite orientation
  Result<Graph> g = std::move(b).Build();
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

// Duplicates must fail with a message naming the pair — never silently
// last-write-wins on the probability — in both same-order and
// opposite-order arc insertions.
TEST(GraphBuilderTest, DuplicateEdgeDiagnosticNamesThePair) {
  {
    GraphBuilder b(3);
    b.AddEdge(0, 1, 0.5);
    b.AddEdge(0, 1, 0.9);  // same orientation, different probability
    Result<Graph> g = std::move(b).Build();
    ASSERT_FALSE(g.ok());
    EXPECT_TRUE(g.status().IsCorruption());
    EXPECT_NE(g.status().ToString().find("duplicate undirected edge {0, 1}"),
              std::string::npos)
        << g.status().ToString();
  }
  {
    GraphBuilder b(3);
    b.AddEdge(2, 1, 0.5);
    b.AddEdge(1, 2, 0.9);  // opposite orientation
    Result<Graph> g = std::move(b).Build();
    ASSERT_FALSE(g.ok());
    EXPECT_TRUE(g.status().IsCorruption());
    // Both orders collapse to the canonical u < v pair in the diagnostic.
    EXPECT_NE(g.status().ToString().find("duplicate undirected edge {1, 2}"),
              std::string::npos)
        << g.status().ToString();
  }
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(2);
  b.AddEdge(0, 5, 0.5);
  Result<Graph> g = std::move(b).Build();
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, RejectsZeroProbability) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.0);
  Result<Graph> g = std::move(b).Build();
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, RejectsProbabilityAboveOne) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.5);
  Result<Graph> g = std::move(b).Build();
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, ProbabilityOneIsAllowed) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  EXPECT_TRUE(std::move(b).Build().ok());
}

TEST(GraphBuilderTest, FirstErrorWins) {
  GraphBuilder b(2);
  b.AddEdge(0, 9, 0.5);  // out of range
  b.AddEdge(0, 0, 0.5);  // self loop (would be Corruption)
  Result<Graph> g = std::move(b).Build();
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, RejectsOutOfRangeKeywordVertex) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.5);
  b.AddKeyword(7, 0);
  Result<Graph> g = std::move(b).Build();
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, KeywordIdRange) {
  // The keyword domain bound is one past the largest id and is itself a
  // KeywordId, so the largest representable id is rejected.
  GraphBuilder top(2);
  top.AddKeyword(1, kMaxKeywordId);
  Result<Graph> g = std::move(top).Build();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->KeywordDomainBound(), kMaxKeywordId + 1);

  GraphBuilder beyond(2);
  beyond.AddKeyword(1, kMaxKeywordId + 1);
  Result<Graph> bad = std::move(beyond).Build();
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, DeduplicatesKeywords) {
  GraphBuilder b(1);
  b.AddKeyword(0, 4);
  b.AddKeyword(0, 4);
  b.AddKeyword(0, 2);
  Result<Graph> g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->Keywords(0).size(), 2u);
  EXPECT_EQ(g->Keywords(0)[0], 2u);
  EXPECT_EQ(g->Keywords(0)[1], 4u);
}

TEST(GraphBuilderTest, PendingEdgeCount) {
  GraphBuilder b(4);
  EXPECT_EQ(b.num_pending_edges(), 0u);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(2, 3, 0.5);
  EXPECT_EQ(b.num_pending_edges(), 2u);
  EXPECT_EQ(b.num_vertices(), 4u);
}

TEST(GraphBuilderTest, LargeFanStaysSorted) {
  // A star with hub 50: hub arcs must come out sorted even though edges are
  // inserted in scrambled order.
  GraphBuilder b(101);
  for (VertexId v = 100; v > 50; --v) b.AddEdge(50, v, 0.5);
  for (VertexId v = 0; v < 50; ++v) b.AddEdge(v, 50, 0.5);
  Result<Graph> g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  const auto arcs = g->Neighbors(50);
  ASSERT_EQ(arcs.size(), 100u);
  for (std::size_t i = 1; i < arcs.size(); ++i) {
    EXPECT_LT(arcs[i - 1].to, arcs[i].to);
  }
}

}  // namespace
}  // namespace topl
