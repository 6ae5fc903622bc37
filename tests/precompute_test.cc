#include "index/precompute.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/brute_force.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/local_subgraph.h"
#include "gtest/gtest.h"
#include "influence/influence_calculator.h"
#include "influence/propagation.h"
#include "tests/test_util.h"
#include "truss/support.h"
#include "truss/truss_decomposition.h"

namespace topl {
namespace {

using testing::MakeGraph;

PrecomputeOptions SmallOptions() {
  PrecomputeOptions opts;
  opts.r_max = 3;
  opts.thetas = {0.1, 0.2, 0.3};
  opts.signature_bits = 64;
  opts.num_threads = 2;
  return opts;
}

TEST(PrecomputeTest, RejectsBadOptions) {
  const Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  PrecomputeOptions opts = SmallOptions();
  opts.r_max = 0;
  EXPECT_FALSE(PrecomputedData::Build(g, opts).ok());
  opts = SmallOptions();
  opts.thetas = {};
  EXPECT_FALSE(PrecomputedData::Build(g, opts).ok());
  opts = SmallOptions();
  opts.thetas = {0.3, 0.2};  // not ascending
  EXPECT_FALSE(PrecomputedData::Build(g, opts).ok());
  opts = SmallOptions();
  opts.thetas = {0.2, 1.5};  // out of range
  EXPECT_FALSE(PrecomputedData::Build(g, opts).ok());
  opts = SmallOptions();
  opts.signature_bits = 4;
  EXPECT_FALSE(PrecomputedData::Build(g, opts).ok());
}

TEST(PrecomputeTest, ThresholdIndexSelection) {
  const Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  Result<PrecomputedData> pre = PrecomputedData::Build(g, SmallOptions());
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->ThresholdIndex(0.05), -1);  // below θ_1: no valid bound
  EXPECT_EQ(pre->ThresholdIndex(0.1), 0);
  EXPECT_EQ(pre->ThresholdIndex(0.15), 0);
  EXPECT_EQ(pre->ThresholdIndex(0.2), 1);
  EXPECT_EQ(pre->ThresholdIndex(0.25), 1);
  EXPECT_EQ(pre->ThresholdIndex(0.3), 2);
  EXPECT_EQ(pre->ThresholdIndex(0.9), 2);
}

TEST(PrecomputeTest, SupportBoundsMonotoneInRadius) {
  SmallWorldOptions gen;
  gen.num_vertices = 120;
  gen.seed = 31;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  Result<PrecomputedData> pre = PrecomputedData::Build(*g, SmallOptions());
  ASSERT_TRUE(pre.ok());
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    for (std::uint32_t r = 2; r <= 3; ++r) {
      EXPECT_GE(pre->SupportBound(v, r), pre->SupportBound(v, r - 1));
    }
  }
}

TEST(PrecomputeTest, ScoreBoundsMonotoneInRadiusAndTheta) {
  SmallWorldOptions gen;
  gen.num_vertices = 120;
  gen.seed = 32;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  Result<PrecomputedData> pre = PrecomputedData::Build(*g, SmallOptions());
  ASSERT_TRUE(pre.ok());
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    for (std::uint32_t r = 1; r <= 3; ++r) {
      if (r >= 2) {
        // Larger seed subgraph -> larger influence bound.
        EXPECT_GE(pre->ScoreBound(v, r, 0), pre->ScoreBound(v, r - 1, 0) - 1e-12);
      }
      for (std::uint32_t z = 1; z < 3; ++z) {
        // Larger theta -> smaller score.
        EXPECT_LE(pre->ScoreBound(v, r, z), pre->ScoreBound(v, r, z - 1) + 1e-12);
      }
    }
  }
}

TEST(PrecomputeTest, SupportBoundEqualsMaxBallSupportInHop) {
  // Algorithm 2 semantics: edge supports measured within hop(v, r_max), and
  // ub_sup_r = max over the edges of hop(v, r).
  SmallWorldOptions gen;
  gen.num_vertices = 100;
  gen.seed = 33;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  Result<PrecomputedData> pre = PrecomputedData::Build(*g, SmallOptions());
  ASSERT_TRUE(pre.ok());
  HopExtractor ex(*g);
  LocalGraph ball;
  for (VertexId v = 0; v < 20; ++v) {
    ASSERT_TRUE(ex.Extract(v, 3, {}, &ball));
    const std::vector<char> alive(ball.NumEdges(), 1);
    const auto ball_sup = ComputeLocalEdgeSupports(ball, alive);
    for (std::uint32_t r = 1; r <= 3; ++r) {
      std::uint32_t expect = 0;
      for (std::size_t e = 0; e < ball.NumEdges(); ++e) {
        if (ball.edge_radius[e] <= r) expect = std::max(expect, ball_sup[e]);
      }
      EXPECT_EQ(pre->SupportBound(v, r), expect) << "v=" << v << " r=" << r;
    }
  }
}

TEST(PrecomputeTest, CenterTrussBoundIsSafe) {
  // No seed community centered at v can exceed CenterTrussBound(v): for
  // every community the brute-force path finds at truss level k, the bound
  // of its center must be >= k.
  SmallWorldOptions gen;
  gen.num_vertices = 150;
  gen.seed = 37;
  gen.keywords.domain_size = 8;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  Result<PrecomputedData> pre = PrecomputedData::Build(*g, SmallOptions());
  ASSERT_TRUE(pre.ok());
  for (std::uint32_t k : {3u, 4u, 5u}) {
    Query q;
    q.keywords = {0, 1, 2, 3};
    q.k = k;
    q.radius = 2;
    q.theta = 0.2;
    q.top_l = 1000;
    Result<std::vector<CommunityResult>> all = EnumerateAllCommunities(*g, q);
    ASSERT_TRUE(all.ok());
    for (const CommunityResult& c : all.value()) {
      EXPECT_GE(pre->CenterTrussBound(c.community.center), k)
          << "center " << c.community.center << " k=" << k;
    }
  }
}

TEST(PrecomputeTest, CenterTrussBoundMatchesBallDecomposition) {
  SmallWorldOptions gen;
  gen.num_vertices = 80;
  gen.seed = 38;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  Result<PrecomputedData> pre = PrecomputedData::Build(*g, SmallOptions());
  ASSERT_TRUE(pre.ok());
  HopExtractor ex(*g);
  LocalGraph ball;
  for (VertexId v = 0; v < 30; ++v) {
    ASSERT_TRUE(ex.Extract(v, 3, {}, &ball));
    const auto trussness = LocalTrussDecomposition(ball);
    EXPECT_EQ(pre->CenterTrussBound(v), LocalCenterTrussness(ball, trussness));
  }
}

TEST(PrecomputeTest, ScoreBoundEqualsHopInfluence) {
  SmallWorldOptions gen;
  gen.num_vertices = 100;
  gen.seed = 34;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const PrecomputeOptions opts = SmallOptions();
  Result<PrecomputedData> pre = PrecomputedData::Build(*g, opts);
  ASSERT_TRUE(pre.ok());
  PropagationEngine engine(*g);
  HopExtractor ex(*g);
  LocalGraph lg;
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    for (std::uint32_t r = 1; r <= 3; ++r) {
      ASSERT_TRUE(ex.Extract(v, r, {}, &lg));
      // Bit for bit: one propagation at θ_min, read off at every θ_z.
      const std::vector<double> reference = ScoresAtThresholds(
          engine.Compute(lg.global_ids, opts.thetas.front()), opts.thetas);
      for (std::uint32_t z = 0; z < opts.thetas.size(); ++z) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(pre->ScoreBound(v, r, z)),
                  std::bit_cast<std::uint64_t>(reference[z]))
            << "v=" << v << " r=" << r << " z=" << z << ": "
            << pre->ScoreBound(v, r, z) << " vs " << reference[z];
        const auto direct = engine.Compute(lg.global_ids, opts.thetas[z]);
        EXPECT_NEAR(pre->ScoreBound(v, r, z), direct.score, 1e-9)
            << "v=" << v << " r=" << r << " z=" << z;
      }
    }
  }
}

TEST(PrecomputeTest, SignatureCoversAllHopKeywords) {
  SmallWorldOptions gen;
  gen.num_vertices = 100;
  gen.seed = 35;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  Result<PrecomputedData> pre = PrecomputedData::Build(*g, SmallOptions());
  ASSERT_TRUE(pre.ok());
  HopExtractor ex(*g);
  LocalGraph lg;
  for (VertexId v = 0; v < 20; ++v) {
    for (std::uint32_t r = 1; r <= 3; ++r) {
      ASSERT_TRUE(ex.Extract(v, r, {}, &lg));
      // Every keyword of every member must hit the signature — the
      // no-false-negative property keyword pruning relies on.
      for (VertexId member : lg.global_ids) {
        for (KeywordId w : g->Keywords(member)) {
          BitVector probe = BitVector::FromKeywords(std::vector<KeywordId>{w},
                                                    pre->signature_bits());
          EXPECT_TRUE(pre->SignatureIntersects(v, r, probe))
              << "keyword " << w << " of member " << member << " missing";
        }
      }
    }
  }
}

// THE safety property behind Lemma 4/7: the precomputed σ_z dominates the
// exact σ of every seed community centered at v, for every online θ ≥ θ_z.
class ScoreBoundSafetyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoreBoundSafetyTest, BoundDominatesExactScores) {
  SmallWorldOptions gen;
  gen.num_vertices = 150;
  gen.seed = GetParam();
  gen.keywords.domain_size = 10;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  Result<PrecomputedData> pre = PrecomputedData::Build(*g, SmallOptions());
  ASSERT_TRUE(pre.ok());

  Query q;
  q.keywords = {0, 1, 2, 3, 4};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.25;  // falls in [θ_2, θ_3) -> z = 1
  q.top_l = 1000;  // enumerate everything
  Result<std::vector<CommunityResult>> all = EnumerateAllCommunities(*g, q);
  ASSERT_TRUE(all.ok());
  const int z = pre->ThresholdIndex(q.theta);
  ASSERT_EQ(z, 1);
  for (const CommunityResult& c : all.value()) {
    EXPECT_LE(c.score(),
              pre->ScoreBound(c.community.center, q.radius,
                              static_cast<std::uint32_t>(z)) +
                  1e-9)
        << "center " << c.community.center;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreBoundSafetyTest, ::testing::Values(1, 2, 3, 4));

TEST(PrecomputeTest, SingleThreadMatchesParallel) {
  SmallWorldOptions gen;
  gen.num_vertices = 90;
  gen.seed = 36;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  PrecomputeOptions serial = SmallOptions();
  serial.num_threads = 1;
  PrecomputeOptions parallel = SmallOptions();
  parallel.num_threads = 4;
  Result<PrecomputedData> a = PrecomputedData::Build(*g, serial);
  Result<PrecomputedData> b = PrecomputedData::Build(*g, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    for (std::uint32_t r = 1; r <= 3; ++r) {
      EXPECT_EQ(a->SupportBound(v, r), b->SupportBound(v, r));
      for (std::uint32_t z = 0; z < 3; ++z) {
        EXPECT_DOUBLE_EQ(a->ScoreBound(v, r, z), b->ScoreBound(v, r, z));
      }
      const auto wa = a->SignatureWords(v, r);
      const auto wb = b->SignatureWords(v, r);
      for (std::size_t i = 0; i < wa.size(); ++i) EXPECT_EQ(wa[i], wb[i]);
    }
  }
}

}  // namespace
}  // namespace topl
