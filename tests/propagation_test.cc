#include "influence/propagation.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "graph/generators.h"
#include "graph/local_subgraph.h"
#include "gtest/gtest.h"
#include "influence/influence_calculator.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::LargestArcProb;
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

// ---------------------------------------------------------------------------
// ComputeScores: the score-only kernel of the offline σ bounds must equal
// ScoresAtThresholds(Compute(seeds, θ_min), thetas) bit for bit.
// ---------------------------------------------------------------------------

std::vector<double> ReferenceScores(PropagationEngine& engine,
                                    std::span<const VertexId> seeds,
                                    const std::vector<double>& thetas) {
  return ScoresAtThresholds(engine.Compute(seeds, thetas.front()), thetas);
}

std::vector<double> FastScores(PropagationEngine& engine,
                               std::span<const VertexId> seeds,
                               const std::vector<double>& thetas) {
  std::vector<double> scores(thetas.size(), -1.0);
  engine.ComputeScores(seeds, thetas, scores);
  return scores;
}

void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t z = 0; z < want.size(); ++z) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[z]),
              std::bit_cast<std::uint64_t>(want[z]))
        << label << " z=" << z << ": " << got[z] << " vs " << want[z];
  }
}

// Vertices of `inf` that ComputeScores keeps off the heap: final cpp c with
// fl(c · p_max) < θ.
std::size_t CountTerminal(const InfluencedCommunity& inf, double p_max,
                          double theta) {
  std::size_t count = 0;
  for (double c : inf.cpp) count += c * p_max < theta ? 1 : 0;
  return count;
}

const std::vector<std::vector<double>>& ThetaSets() {
  static const std::vector<std::vector<double>> sets = {
      {0.0, 0.1, 0.25},   // nothing is terminal at θ_min = 0
      {0.1, 0.2, 0.3},    // the index default
      {0.15},             // a single threshold
      {0.995},            // above every non-seed cpp (weights < 0.99)
  };
  return sets;
}

// Every center's r = 1..3 ball, every θ set, one reused engine.
void ExpectScoresMatchOnEveryBall(const Graph& g, const std::string& name) {
  PropagationEngine engine(g);
  HopExtractor extractor(g);
  LocalGraph lg;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (std::uint32_t r = 1; r <= 3; ++r) {
      ASSERT_TRUE(extractor.Extract(v, r, {}, &lg));
      for (const std::vector<double>& thetas : ThetaSets()) {
        const std::string label = name + " v=" + std::to_string(v) + " r=" +
                                  std::to_string(r) +
                                  " theta_min=" + std::to_string(thetas.front());
        const std::vector<double> want = ReferenceScores(engine, lg.global_ids, thetas);
        const std::vector<double> got = FastScores(engine, lg.global_ids, thetas);
        ExpectBitEqual(got, want, label);
        if (thetas.size() == 1) {
          // The detectors rank by this σ and build gInf with Compute only for
          // the communities they return, so the two must agree exactly.
          ExpectBitEqual(got, {engine.Compute(lg.global_ids, thetas.front()).score},
                         label + " vs Compute");
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(ComputeScoresTest, MatchesReferenceOnUniBalls) {
  SmallWorldOptions opts;
  opts.num_vertices = 150;
  opts.seed = 21;
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  ExpectScoresMatchOnEveryBall(*g, "uni");
}

TEST(ComputeScoresTest, MatchesReferenceOnErdosRenyiBalls) {
  ErdosRenyiOptions opts;
  opts.num_vertices = 120;
  opts.edge_prob = 0.03;
  opts.seed = 22;
  opts.weights.min_weight = 0.2;
  opts.weights.max_weight = 0.9;
  Result<Graph> g = MakeErdosRenyi(opts);
  ASSERT_TRUE(g.ok());
  ExpectScoresMatchOnEveryBall(*g, "er");
}

TEST(ComputeScoresTest, MatchesReferenceOnPowerlawBalls) {
  PowerlawClusterOptions opts;
  opts.num_vertices = 150;
  opts.seed = 23;
  opts.weights.min_weight = 0.3;
  opts.weights.max_weight = 0.7;
  Result<Graph> g = MakePowerlawCluster(opts);
  ASSERT_TRUE(g.ok());
  ExpectScoresMatchOnEveryBall(*g, "powerlaw");
}

TEST(ComputeScoresTest, DuplicateSeeds) {
  SmallWorldOptions opts;
  opts.num_vertices = 80;
  opts.seed = 24;
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {5, 5, 9, 5, 9, 40};
  const std::vector<VertexId> distinct = {5, 9, 40};
  for (const std::vector<double>& thetas : ThetaSets()) {
    const std::vector<double> want = ReferenceScores(engine, distinct, thetas);
    ExpectBitEqual(FastScores(engine, seeds, thetas), want, "duplicates");
    ExpectBitEqual(ReferenceScores(engine, seeds, thetas), want, "reference");
  }
}

// One arc probability everywhere: cpp values are powers of 0.5, so the
// terminal values tie in large groups.
TEST(ComputeScoresTest, EqualArcProbabilitiesTieTerminalValues) {
  ErdosRenyiOptions opts;
  opts.num_vertices = 200;
  opts.edge_prob = 0.02;
  opts.seed = 25;
  opts.weights.min_weight = 0.5;
  opts.weights.max_weight = 0.5;
  Result<Graph> g = MakeErdosRenyi(opts);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(LargestArcProb(*g), 0.5);
  PropagationEngine engine(*g);
  const std::vector<double> thetas = {0.1, 0.2, 0.3};
  std::size_t most_terminal = 0;
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    const VertexId seeds[] = {v};
    const InfluencedCommunity inf = engine.Compute(seeds, thetas.front());
    most_terminal = std::max(most_terminal, CountTerminal(inf, 0.5, thetas.front()));
    ExpectBitEqual(FastScores(engine, seeds, thetas), ScoresAtThresholds(inf, thetas),
                   "v=" + std::to_string(v));
  }
  EXPECT_GE(most_terminal, 4u);  // 0.125-valued vertices tie as terminals
}

TEST(ComputeScoresTest, AllArcsCertain) {
  const Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 4}}, 1.0);
  PropagationEngine engine(g);
  const VertexId seeds[] = {0};
  for (const std::vector<double>& thetas : ThetaSets()) {
    const std::vector<double> got = FastScores(engine, seeds, thetas);
    ExpectBitEqual(got, ReferenceScores(engine, seeds, thetas), "p=1");
    EXPECT_EQ(got.front(), 5.0);  // vertex 5 is isolated
  }
}

TEST(ComputeScoresTest, GraphWithoutArcs) {
  GraphBuilder b(5);
  Result<Graph> g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {1, 3};
  for (const std::vector<double>& thetas : ThetaSets()) {
    const std::vector<double> got = FastScores(engine, seeds, thetas);
    ExpectBitEqual(got, ReferenceScores(engine, seeds, thetas), "no arcs");
    for (double score : got) EXPECT_EQ(score, 2.0);
  }
}

// A graph large enough that one propagation leaves hundreds of terminal
// vertices: the descending bucket order of the terminal values carries most
// of the sum.
TEST(ComputeScoresTest, HundredsOfTerminalVertices) {
  SmallWorldOptions opts;
  opts.num_vertices = 4000;
  opts.seed = 26;  // the paper's weights, [0.5, 0.6)
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  const double p_max = LargestArcProb(*g);
  PropagationEngine engine(*g);
  HopExtractor extractor(*g);
  LocalGraph lg;
  const std::vector<double> thetas = {0.1, 0.2, 0.3};
  std::size_t most_terminal = 0;
  for (VertexId v = 0; v < g->NumVertices(); v += 97) {
    ASSERT_TRUE(extractor.Extract(v, 2, {}, &lg));
    const InfluencedCommunity inf = engine.Compute(lg.global_ids, thetas.front());
    most_terminal = std::max(most_terminal, CountTerminal(inf, p_max, thetas.front()));
    ExpectBitEqual(FastScores(engine, lg.global_ids, thetas),
                   ScoresAtThresholds(inf, thetas), "v=" + std::to_string(v));
  }
  EXPECT_GE(most_terminal, 200u);
}

// Compute and ComputeScores share the engine's epoch-stamped scratch: calls
// interleaved on one engine must each match a fresh engine.
TEST(ComputeScoresTest, InterleavedWithCompute) {
  SmallWorldOptions opts;
  opts.num_vertices = 300;
  opts.seed = 27;
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine shared(*g);
  HopExtractor extractor(*g);
  LocalGraph lg;
  const std::vector<double> thetas = {0.1, 0.2, 0.3};
  for (VertexId v = 0; v < g->NumVertices(); v += 7) {
    ASSERT_TRUE(extractor.Extract(v, 2, {}, &lg));
    PropagationEngine fresh(*g);
    const InfluencedCommunity got = shared.Compute(lg.global_ids, 0.2);
    const InfluencedCommunity want = fresh.Compute(lg.global_ids, 0.2);
    EXPECT_EQ(got.vertices, want.vertices) << "v=" << v;
    EXPECT_EQ(got.cpp, want.cpp) << "v=" << v;
    ExpectBitEqual(FastScores(shared, lg.global_ids, thetas),
                   ReferenceScores(fresh, lg.global_ids, thetas),
                   "v=" + std::to_string(v));
  }
}

}  // namespace
}  // namespace topl
