#include "influence/propagation.h"

#include <algorithm>
#include <limits>
#include <map>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "influence/influence_calculator.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::MakeGraph;
using testing::ReferenceUpp;

std::map<VertexId, double> AsMap(const InfluencedCommunity& c) {
  std::map<VertexId, double> out;
  for (std::size_t i = 0; i < c.size(); ++i) out[c.vertices[i]] = c.cpp[i];
  return out;
}

TEST(PropagationTest, SeedsHaveCppOne) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0, 2};
  const auto result = engine.Compute(seeds, 0.4);
  const auto cpp = AsMap(result);
  EXPECT_DOUBLE_EQ(cpp.at(0), 1.0);
  EXPECT_DOUBLE_EQ(cpp.at(2), 1.0);
}

TEST(PropagationTest, PathProductChain) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0};
  const auto cpp = AsMap(engine.Compute(seeds, 0.0));
  EXPECT_DOUBLE_EQ(cpp.at(1), 0.5);
  EXPECT_DOUBLE_EQ(cpp.at(2), 0.25);
  EXPECT_DOUBLE_EQ(cpp.at(3), 0.125);
}

TEST(PropagationTest, ThresholdCutsTail) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0};
  const auto result = engine.Compute(seeds, 0.25);
  const auto cpp = AsMap(result);
  EXPECT_EQ(cpp.count(3), 0u);  // 0.125 < 0.25
  EXPECT_EQ(cpp.count(2), 1u);  // 0.25 >= 0.25 (inclusive per Definition 3)
  EXPECT_DOUBLE_EQ(result.score, 1.0 + 0.5 + 0.25);
}

TEST(PropagationTest, TakesBestPathNotShortest) {
  // Two routes 0→3: direct weak arc (0.1) vs two strong hops (0.6*0.6=0.36).
  GraphBuilder b(4);
  b.AddEdge(0, 3, 0.1);
  b.AddEdge(0, 1, 0.6);
  b.AddEdge(1, 3, 0.6);
  b.AddEdge(2, 3, 0.9);  // irrelevant branch
  Result<Graph> g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {0};
  const auto cpp = AsMap(engine.Compute(seeds, 0.0));
  EXPECT_NEAR(cpp.at(3), 0.36, 1e-6);  // arc probs are floats: 0.6f*0.6f
}

TEST(PropagationTest, DirectionalityRespected) {
  // p(0→1) = 0.9 but p(1→0) = 0.1: influence from 1 must use 0.1.
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.9, 0.1);
  Result<Graph> g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> s0 = {0};
  const std::vector<VertexId> s1 = {1};
  EXPECT_NEAR(AsMap(engine.Compute(s0, 0.0)).at(1), 0.9, 1e-6);
  EXPECT_NEAR(AsMap(engine.Compute(s1, 0.0)).at(0), 0.1, 1e-6);
}

TEST(PropagationTest, MultiSourceTakesMax) {
  // Seeds {0, 3} on a path: middle vertices get the better side.
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0, 3};
  const auto cpp = AsMap(engine.Compute(seeds, 0.0));
  EXPECT_DOUBLE_EQ(cpp.at(1), 0.5);  // from 0, not 0.25 via 3
  EXPECT_DOUBLE_EQ(cpp.at(2), 0.5);  // from 3
}

TEST(PropagationTest, DuplicateSeedsIgnored) {
  const Graph g = MakeGraph(3, {{0, 1}, {1, 2}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0, 0, 0};
  const auto result = engine.Compute(seeds, 0.0);
  EXPECT_DOUBLE_EQ(result.score, 1.0 + 0.5 + 0.25);
}

TEST(PropagationTest, EngineReusableAcrossQueries) {
  const Graph g = MakeGraph(3, {{0, 1}, {1, 2}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> s0 = {0};
  const std::vector<VertexId> s2 = {2};
  const auto first = engine.Compute(s0, 0.0);
  const auto second = engine.Compute(s2, 0.0);
  // No stale state: both runs see a fresh world.
  EXPECT_DOUBLE_EQ(first.score, second.score);
}

TEST(PropagationTest, ComputeFromSourceMatchesSingleSeed) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {0, 3}}, 0.6);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0};
  const auto a = engine.Compute(seeds, 0.1);
  const auto b = engine.ComputeFromSource(0, 0.1);
  EXPECT_EQ(AsMap(a), AsMap(b));
}

// Property: upp from the engine equals exhaustive simple-path enumeration.
class UppPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UppPropertyTest, MatchesPathEnumeration) {
  ErdosRenyiOptions opts;
  opts.num_vertices = 9;  // path enumeration is exponential
  opts.edge_prob = 0.3;
  opts.seed = GetParam();
  opts.weights.min_weight = 0.3;
  opts.weights.max_weight = 0.9;
  Result<Graph> g = MakeErdosRenyi(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  for (VertexId s = 0; s < g->NumVertices(); ++s) {
    const auto cpp = AsMap(engine.ComputeFromSource(s, 0.0));
    for (VertexId t = 0; t < g->NumVertices(); ++t) {
      const double reference = ReferenceUpp(*g, s, t);
      const auto it = cpp.find(t);
      const double engine_val = it == cpp.end() ? 0.0 : it->second;
      EXPECT_NEAR(engine_val, reference, 1e-9) << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UppPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6));

// Property: σ_θ is non-increasing in θ and gInf shrinks with θ.
class ThetaMonotonicityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThetaMonotonicityTest, ScoreMonotoneInTheta) {
  SmallWorldOptions opts;
  opts.num_vertices = 100;
  opts.seed = GetParam();
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {0, 1, 2};
  double prev_score = std::numeric_limits<double>::infinity();
  std::size_t prev_size = std::numeric_limits<std::size_t>::max();
  for (double theta : {0.05, 0.1, 0.2, 0.3, 0.5}) {
    const auto result = engine.Compute(seeds, theta);
    EXPECT_LE(result.score, prev_score);
    EXPECT_LE(result.size(), prev_size);
    prev_score = result.score;
    prev_size = result.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThetaMonotonicityTest, ::testing::Values(1, 2, 3));

TEST(ScoresAtThresholdsTest, MatchesIndividualRuns) {
  SmallWorldOptions opts;
  opts.num_vertices = 80;
  opts.seed = 9;
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {3, 4};
  const std::vector<double> thetas = {0.1, 0.2, 0.3};
  const auto base = engine.Compute(seeds, 0.1);
  const auto scores = ScoresAtThresholds(base, thetas);
  for (std::size_t z = 0; z < thetas.size(); ++z) {
    const auto direct = engine.Compute(seeds, thetas[z]);
    EXPECT_NEAR(scores[z], direct.score, 1e-9) << "theta=" << thetas[z];
  }
}

TEST(ScoresAtThresholdsTest, EmptyCommunityGivesZeros) {
  InfluencedCommunity empty;
  const std::vector<double> thetas = {0.1, 0.2};
  const auto scores = ScoresAtThresholds(empty, thetas);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
}

TEST(RestrictToThresholdTest, CanEmptyOut) {
  InfluencedCommunity c;
  c.vertices = {1, 2};
  c.cpp = {0.15, 0.12};
  c.score = 0.27;
  const auto restricted = RestrictToThreshold(c, 0.5);
  EXPECT_EQ(restricted.size(), 0u);
  EXPECT_DOUBLE_EQ(restricted.score, 0.0);
}

TEST(RestrictToThresholdTest, EquivalentToDirectRun) {
  SmallWorldOptions opts;
  opts.num_vertices = 80;
  opts.seed = 10;
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {5};
  const auto base = engine.Compute(seeds, 0.05);
  const auto restricted = RestrictToThreshold(base, 0.2);
  const auto direct = engine.Compute(seeds, 0.2);
  EXPECT_EQ(AsMap(restricted), AsMap(direct));
  EXPECT_NEAR(restricted.score, direct.score, 1e-12);
}

}  // namespace
}  // namespace topl
