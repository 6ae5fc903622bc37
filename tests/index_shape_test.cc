// Index-geometry invariance: the tree's fanout and leaf capacity are pure
// performance knobs — every shape must return byte-identical answers, and
// pruning must stay safe at the degenerate extremes (binary tree with
// single-vertex leaves; one giant root leaf), the keyword core's subtree
// marks included.

#include <tuple>

#include "core/brute_force.h"
#include "core/topl_detector.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::BuildIndexFor;
using testing::BuiltIndex;
using testing::Scores;

class IndexShapeTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(IndexShapeTest, ShapeDoesNotAffectAnswers) {
  const auto [fanout, leaf_capacity] = GetParam();
  SmallWorldOptions gen;
  gen.num_vertices = 150;
  gen.seed = 91;
  gen.keywords.domain_size = 10;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());

  TreeIndexOptions tree_opts;
  tree_opts.fanout = fanout;
  tree_opts.leaf_capacity = leaf_capacity;
  const BuiltIndex built = BuildIndexFor(*g, PrecomputeOptions(), tree_opts);
  TopLDetector detector(*g, built.pre(), built.tree);

  Query q;
  q.keywords = {0, 1, 2};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 5;
  Result<TopLResult> indexed = detector.Search(q);
  ASSERT_TRUE(indexed.ok());
  Result<TopLResult> brute = BruteForceTopL(*g, q);
  ASSERT_TRUE(brute.ok());

  const auto a = Scores(indexed->communities);
  const auto b = Scores(brute->communities);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9) << "fanout=" << fanout
                                  << " leaf=" << leaf_capacity << " rank " << i;
  }
  // Accounting must close under every shape.
  EXPECT_EQ(indexed->stats.TotalPruned() + indexed->stats.candidates_refined,
            g->NumVertices());

  // With keyword pruning alone, the descent's subtree marks and the leaf
  // filter keep exactly the query's keyword core, whatever the shape.
  QueryOptions keyword_only;
  keyword_only.use_support_pruning = false;
  keyword_only.use_score_pruning = false;
  Result<TopLResult> exhaustive = detector.Search(q, keyword_only);
  ASSERT_TRUE(exhaustive.ok());
  std::uint64_t core_size = 0;
  for (const char in_core : testing::ReferenceKeywordCore(*g, q.keywords, q.k)) {
    core_size += in_core;
  }
  EXPECT_EQ(exhaustive->stats.candidates_refined, core_size);
  EXPECT_EQ(exhaustive->stats.pruned_keyword, g->NumVertices() - core_size);
  const auto c = Scores(exhaustive->communities);
  ASSERT_EQ(c.size(), b.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i], a[i]) << "fanout=" << fanout << " leaf=" << leaf_capacity
                          << " rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IndexShapeTest,
    ::testing::Values(std::make_tuple(2u, 1u),     // binary tree, leaf per vertex
                      std::make_tuple(2u, 4u),
                      std::make_tuple(3u, 7u),     // sizes that do not divide n
                      std::make_tuple(8u, 16u),    // defaults
                      std::make_tuple(64u, 8u),    // flat and wide
                      std::make_tuple(4u, 1000u),  // single root leaf
                      std::make_tuple(1000u, 2u)));  // root directly over leaves

TEST(IndexShapeTest, HeightShrinksWithFanout) {
  SmallWorldOptions gen;
  gen.num_vertices = 300;
  gen.seed = 92;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  Result<PrecomputedData> pre = PrecomputedData::Build(*g, PrecomputeOptions());
  ASSERT_TRUE(pre.ok());
  TreeIndexOptions narrow;
  narrow.fanout = 2;
  narrow.leaf_capacity = 2;
  TreeIndexOptions wide;
  wide.fanout = 32;
  wide.leaf_capacity = 32;
  Result<TreeIndex> t_narrow = TreeIndex::Build(*g, *pre, narrow);
  Result<TreeIndex> t_wide = TreeIndex::Build(*g, *pre, wide);
  ASSERT_TRUE(t_narrow.ok());
  ASSERT_TRUE(t_wide.ok());
  EXPECT_GT(t_narrow->height(), t_wide->height());
  EXPECT_GT(t_narrow->NumNodes(), t_wide->NumNodes());
}

}  // namespace
}  // namespace topl
