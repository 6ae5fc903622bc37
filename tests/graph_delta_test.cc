#include "graph/graph_delta.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "graph/delta_io.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::MakeGraph;
using testing::MakeKeywordGraph;

// A fresh temp path per test; removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("topl_delta_test_" + name + "_" + std::to_string(::getpid())))
                  .string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(GraphDeltaTest, InsertAndDeleteEdges) {
  const Graph base = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  GraphDelta delta;
  delta.DeleteEdge(1, 2);
  delta.InsertEdge(3, 4, 0.7, 0.9);
  Result<Graph> updated = ApplyDelta(base, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->NumVertices(), 5u);
  EXPECT_EQ(updated->NumEdges(), 3u);
  EXPECT_TRUE(updated->HasEdge(0, 1));
  EXPECT_FALSE(updated->HasEdge(1, 2));
  EXPECT_TRUE(updated->HasEdge(3, 4));
  // Directional probabilities of the inserted edge survive.
  const EdgeId e = updated->FindEdge(3, 4);
  ASSERT_NE(e, kInvalidEdge);
  for (const Graph::Arc& arc : updated->Neighbors(3)) {
    if (arc.to == 4) {
      EXPECT_FLOAT_EQ(arc.prob, 0.7f);
    }
  }
  for (const Graph::Arc& arc : updated->Neighbors(4)) {
    if (arc.to == 3) {
      EXPECT_FLOAT_EQ(arc.prob, 0.9f);
    }
  }
}

TEST(GraphDeltaTest, ResultMatchesFromScratchBuild) {
  // base + delta must be bit-identical to building the mutated lists from
  // scratch — edge ids, arc order, probabilities, keywords, everything the
  // detectors can observe.
  const Graph base = MakeKeywordGraph(
      4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}}, {{0, 1}, {1}, {2}, {0}}, 0.5);
  GraphDelta delta;
  delta.DeleteEdge(2, 3);
  delta.InsertEdge(1, 3, 0.5);  // same weight as the rest of `expected`
  delta.AddKeyword(3, 5);
  delta.RemoveKeyword(0, 1);
  Result<Graph> updated = ApplyDelta(base, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  const Graph expected = MakeKeywordGraph(
      4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}}, {{0}, {1}, {2}, {0, 5}}, 0.5);
  ASSERT_EQ(updated->NumEdges(), expected.NumEdges());
  for (EdgeId e = 0; e < expected.NumEdges(); ++e) {
    EXPECT_EQ(updated->EdgeSource(e), expected.EdgeSource(e));
    EXPECT_EQ(updated->EdgeTarget(e), expected.EdgeTarget(e));
  }
  for (VertexId v = 0; v < expected.NumVertices(); ++v) {
    ASSERT_EQ(updated->Degree(v), expected.Degree(v));
    const auto got = updated->Neighbors(v);
    const auto want = expected.Neighbors(v);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].to, want[i].to);
      EXPECT_EQ(got[i].prob, want[i].prob);
      EXPECT_EQ(got[i].edge, want[i].edge);
    }
    const auto got_kw = updated->Keywords(v);
    const auto want_kw = expected.Keywords(v);
    ASSERT_EQ(got_kw.size(), want_kw.size());
    for (std::size_t i = 0; i < want_kw.size(); ++i) {
      EXPECT_EQ(got_kw[i], want_kw[i]);
    }
  }
}

TEST(GraphDeltaTest, ReweightViaDeleteThenInsert) {
  const Graph base = MakeGraph(3, {{0, 1}, {1, 2}}, 0.5);
  GraphDelta delta;
  delta.DeleteEdge(0, 1);
  delta.InsertEdge(0, 1, 0.9);
  Result<Graph> updated = ApplyDelta(base, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->NumEdges(), 2u);
  for (const Graph::Arc& arc : updated->Neighbors(0)) {
    if (arc.to == 1) {
      EXPECT_FLOAT_EQ(arc.prob, 0.9f);
    }
  }
}

TEST(GraphDeltaTest, RejectsDeleteOfMissingEdge) {
  const Graph base = MakeGraph(3, {{0, 1}}, 0.5);
  GraphDelta delta;
  delta.DeleteEdge(1, 2);
  const Result<Graph> updated = ApplyDelta(base, delta);
  ASSERT_FALSE(updated.ok());
  EXPECT_TRUE(updated.status().IsInvalidArgument());
}

TEST(GraphDeltaTest, RejectsInsertOfExistingEdge) {
  const Graph base = MakeGraph(3, {{0, 1}}, 0.5);
  GraphDelta delta;
  delta.InsertEdge(1, 0, 0.5);  // either endpoint order collides
  const Result<Graph> updated = ApplyDelta(base, delta);
  ASSERT_FALSE(updated.ok());
  EXPECT_TRUE(updated.status().IsInvalidArgument());
}

TEST(GraphDeltaTest, RejectsBadProbabilityAndSelfLoopAndRange) {
  const Graph base = MakeGraph(3, {{0, 1}}, 0.5);
  {
    GraphDelta delta;
    delta.InsertEdge(1, 2, 0.0);
    EXPECT_FALSE(ApplyDelta(base, delta).ok());
  }
  {
    GraphDelta delta;
    delta.InsertEdge(2, 2, 0.5);
    EXPECT_FALSE(ApplyDelta(base, delta).ok());
  }
  {
    GraphDelta delta;
    delta.InsertEdge(1, 7, 0.5);
    EXPECT_FALSE(ApplyDelta(base, delta).ok());
  }
  {
    GraphDelta delta;
    delta.DeleteEdge(0, 9);
    EXPECT_FALSE(ApplyDelta(base, delta).ok());
  }
}

TEST(GraphDeltaTest, KeywordTransitionsAreStrict) {
  const Graph base = MakeKeywordGraph(2, {{0, 1}}, {{3}, {}}, 0.5);
  {
    // Adding a keyword the vertex already has signals a stale client.
    GraphDelta delta;
    delta.AddKeyword(0, 3);
    EXPECT_FALSE(ApplyDelta(base, delta).ok());
  }
  {
    GraphDelta delta;
    delta.RemoveKeyword(1, 3);
    EXPECT_FALSE(ApplyDelta(base, delta).ok());
  }
  {
    // Remove + re-add of the same pair is a legal (no-op) transition.
    GraphDelta delta;
    delta.RemoveKeyword(0, 3);
    delta.AddKeyword(0, 3);
    Result<Graph> updated = ApplyDelta(base, delta);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_TRUE(updated->HasKeyword(0, 3));
  }
}

// (vertex, keyword) pairs are ordered facts: ops on (3, 9) must never touch
// (9, 3). Regression for a key-canonicalization bug that folded the two.
TEST(GraphDeltaTest, KeywordOpsDoNotCollideAcrossVertices) {
  const Graph base = MakeKeywordGraph(
      10, {{3, 9}}, {{}, {}, {}, {9}, {}, {}, {}, {}, {}, {3}}, 0.5);
  {
    GraphDelta delta;
    delta.RemoveKeyword(3, 9);
    Result<Graph> updated = ApplyDelta(base, delta);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_FALSE(updated->HasKeyword(3, 9));
    EXPECT_TRUE(updated->HasKeyword(9, 3));  // untouched mirror pair
  }
  {
    // Both mirror removals in one delta are distinct ops, not a duplicate.
    GraphDelta delta;
    delta.RemoveKeyword(3, 9);
    delta.RemoveKeyword(9, 3);
    Result<Graph> updated = ApplyDelta(base, delta);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_FALSE(updated->HasKeyword(3, 9));
    EXPECT_FALSE(updated->HasKeyword(9, 3));
  }
}

TEST(GraphDeltaTest, MakeRandomDeltaIsValidAndDeterministic) {
  const Graph base = MakeKeywordGraph(
      12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {6, 7}, {8, 9}},
      {{0, 1}, {2}, {3}, {4}, {5}, {6}, {7}, {0}, {1}, {2}, {}, {}}, 0.5);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    RandomDeltaOptions options;
    options.num_ops = 5;
    options.keyword_domain = 12;
    const GraphDelta delta = MakeRandomDelta(base, rng, options);
    Result<Graph> updated = ApplyDelta(base, delta);
    EXPECT_TRUE(updated.ok())
        << "seed " << seed << ": " << updated.status().ToString();
    // Same Rng state -> same stream.
    Rng rng2(seed);
    const GraphDelta again = MakeRandomDelta(base, rng2, options);
    EXPECT_EQ(again.NumOps(), delta.NumOps());
    EXPECT_EQ(again.TouchedVertices(), delta.TouchedVertices());
  }
}

TEST(GraphDeltaTest, TouchedVertices) {
  GraphDelta delta;
  delta.DeleteEdge(4, 2);
  delta.InsertEdge(2, 7, 0.5);
  delta.AddKeyword(9, 0);
  delta.RemoveKeyword(4, 1);
  EXPECT_EQ(delta.TouchedVertices(), (std::vector<VertexId>{2, 4, 7, 9}));
  EXPECT_EQ(delta.NumOps(), 4u);
  EXPECT_FALSE(delta.empty());
  EXPECT_TRUE(GraphDelta().empty());
}

TEST(GraphDeltaTest, TextRoundTrip) {
  GraphDelta delta;
  delta.DeleteEdge(1, 2);
  delta.InsertEdge(0, 3, 0.625, 0.75);
  delta.AddKeyword(2, 11);
  delta.RemoveKeyword(0, 4);

  TempFile file("roundtrip");
  ASSERT_TRUE(WriteGraphDeltaText(delta, file.path()).ok());
  Result<GraphDelta> read = ReadGraphDeltaText(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->edge_deletes.size(), 1u);
  EXPECT_EQ(read->edge_deletes[0].u, 1u);
  EXPECT_EQ(read->edge_deletes[0].v, 2u);
  ASSERT_EQ(read->edge_inserts.size(), 1u);
  EXPECT_EQ(read->edge_inserts[0].u, 0u);
  EXPECT_EQ(read->edge_inserts[0].v, 3u);
  EXPECT_FLOAT_EQ(read->edge_inserts[0].prob_uv, 0.625f);
  EXPECT_FLOAT_EQ(read->edge_inserts[0].prob_vu, 0.75f);
  ASSERT_EQ(read->keyword_adds.size(), 1u);
  EXPECT_EQ(read->keyword_adds[0].v, 2u);
  EXPECT_EQ(read->keyword_adds[0].w, 11u);
  ASSERT_EQ(read->keyword_removes.size(), 1u);
  EXPECT_EQ(read->keyword_removes[0].v, 0u);
  EXPECT_EQ(read->keyword_removes[0].w, 4u);
}

TEST(GraphDeltaTest, TextParserCommentsDefaultsAndErrors) {
  TempFile file("parse");
  {
    std::FILE* f = std::fopen(file.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# a comment line\n"
               "\n"
               "e+ 3 4 0.5   # symmetric: p_vu defaults to p_uv\n"
               "w+ 1 9\n",
               f);
    std::fclose(f);
    Result<GraphDelta> read = ReadGraphDeltaText(file.path());
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read->edge_inserts.size(), 1u);
    EXPECT_FLOAT_EQ(read->edge_inserts[0].prob_vu, 0.5f);
    EXPECT_EQ(read->keyword_adds.size(), 1u);
  }
  {
    std::FILE* f = std::fopen(file.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("eX 1 2\n", f);
    std::fclose(f);
    const Result<GraphDelta> read = ReadGraphDeltaText(file.path());
    ASSERT_FALSE(read.ok());
    EXPECT_TRUE(read.status().IsInvalidArgument());
  }
  {
    std::FILE* f = std::fopen(file.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("e- 1\n", f);
    std::fclose(f);
    EXPECT_FALSE(ReadGraphDeltaText(file.path()).ok());
  }
  {
    std::FILE* f = std::fopen(file.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("w- 1 2 3\n", f);
    std::fclose(f);
    EXPECT_FALSE(ReadGraphDeltaText(file.path()).ok());
  }
  {
    // A malformed optional probability must be rejected, not silently
    // defaulted (regression: the failed extraction used to swallow the
    // trailing-token check).
    std::FILE* f = std::fopen(file.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("e+ 0 1 0.5 bogus\n", f);
    std::fclose(f);
    EXPECT_FALSE(ReadGraphDeltaText(file.path()).ok());
  }
  {
    // Ids beyond 32 bits must fail instead of wrapping into another
    // vertex's id (4294967297 = 2^32 + 1 would truncate to vertex 1).
    std::FILE* f = std::fopen(file.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("e- 4294967297 5\n", f);
    std::fclose(f);
    const Result<GraphDelta> read = ReadGraphDeltaText(file.path());
    ASSERT_FALSE(read.ok());
    EXPECT_NE(read.status().ToString().find("exceeds 32 bits"),
              std::string::npos);
  }
  {
    std::FILE* f = std::fopen(file.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("w+ 2 4294967297\n", f);
    std::fclose(f);
    EXPECT_FALSE(ReadGraphDeltaText(file.path()).ok());
  }
  EXPECT_FALSE(ReadGraphDeltaText("/nonexistent/delta.txt").ok());
}

}  // namespace
}  // namespace topl
