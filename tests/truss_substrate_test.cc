// Equivalence sweeps for the triangle substrate (truss/local_truss.h): the
// incremental path must be byte-identical to the from-scratch reference at
// every layer it replaced — raw supports under arbitrary kill streams, peel
// fixpoints, seed-community extraction, full TopL/DTopL answers, and the
// offline precompute + incremental index updater built on top of it.

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using ::topl::testing::BuildIndexFor;
using ::topl::testing::ExpectIdentical;
using ::topl::testing::VerifySeedCommunity;

constexpr int kSweepGraphs = 20;

Graph SweepGraph(int i) {
  ErdosRenyiOptions options;
  options.num_vertices = 70 + 7 * i;
  options.edge_prob = 0.05 + 0.004 * (i % 5);
  options.seed = 1000 + i;
  options.keywords.domain_size = 12;  // dense keywords: communities survive
  options.keywords.keywords_per_vertex = 3;
  Result<Graph> g = MakeErdosRenyi(options);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// Trussness by definition: τ(e) is the largest k whose k-truss peel keeps e.
// O(k_max · peel) — independent of the decomposition implementations.
std::vector<std::uint32_t> BruteForceLocalTrussness(const LocalGraph& lg) {
  std::vector<std::uint32_t> trussness(lg.NumEdges(), 2);
  for (std::uint32_t k = 3;; ++k) {
    std::vector<char> alive(lg.NumEdges(), 1);
    auto sup = ComputeLocalEdgeSupports(lg, alive);
    PeelToKTruss(lg, k, &alive, &sup);
    bool any = false;
    for (std::uint32_t e = 0; e < lg.NumEdges(); ++e) {
      if (alive[e]) {
        trussness[e] = k;
        any = true;
      }
    }
    if (!any) return trussness;
  }
}

TEST(TriangleSubstrateTest, OrientedSupportsMatchReferenceSweep) {
  for (int i = 0; i < kSweepGraphs; ++i) {
    const Graph g = SweepGraph(i);
    HopExtractor hop(g);
    LocalGraph lg;
    TriangleSubstrate substrate;
    Rng rng(7 * i + 1);
    for (int c = 0; c < 3; ++c) {
      const VertexId center = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      ASSERT_TRUE(hop.Extract(center, 3, {}, &lg));
      substrate.Bind(lg);

      std::vector<std::uint32_t> fast;
      substrate.ComputeAllSupports(&fast);
      const std::vector<char> all_alive(lg.NumEdges(), 1);
      EXPECT_EQ(fast, ComputeLocalEdgeSupports(lg, all_alive));

      // Filtered enumeration against a random liveness mask.
      std::vector<char> alive(lg.NumEdges());
      for (auto& a : alive) a = rng.NextBounded(4) != 0;
      substrate.ComputeSupports(alive, &fast);
      EXPECT_EQ(fast, ComputeLocalEdgeSupports(lg, alive));
    }
  }
}

TEST(TriangleSubstrateTest, IncrementalSupportsSurviveKillStreamsSweep) {
  for (int i = 0; i < kSweepGraphs; ++i) {
    const Graph g = SweepGraph(i);
    HopExtractor hop(g);
    LocalGraph lg;
    ASSERT_TRUE(hop.Extract(static_cast<VertexId>(i % g.NumVertices()), 3, {}, &lg));
    if (lg.NumEdges() == 0) continue;

    const std::uint32_t k = 3 + (i % 3);  // interleave peeling at k=3..5
    TriangleSubstrate substrate;
    substrate.Bind(lg);
    std::vector<char> alive(lg.NumEdges(), 1);
    std::vector<std::uint32_t> support;
    substrate.ComputeSupports(alive, &support);
    substrate.SeedPeelQueue(k, alive, support);

    Rng rng(9000 + i);
    for (int round = 0; round < 12; ++round) {
      // Kill a random batch of (possibly already dead) edges, then on odd
      // rounds drain the peel queue; supports must equal a from-scratch
      // recount over the surviving edges after every step.
      std::vector<std::uint32_t> doomed;
      for (int d = 0; d < 4; ++d) {
        doomed.push_back(static_cast<std::uint32_t>(rng.NextBounded(lg.NumEdges())));
      }
      substrate.KillEdges(doomed, k, &alive, &support);
      ASSERT_EQ(support, ComputeLocalEdgeSupports(lg, alive))
          << "graph " << i << " round " << round << " after KillEdges";
      if (round % 2 == 1) {
        substrate.Peel(k, &alive, &support);
        ASSERT_EQ(support, ComputeLocalEdgeSupports(lg, alive))
            << "graph " << i << " round " << round << " after Peel";
        // Peel postcondition: every alive edge closes >= k-2 triangles.
        for (std::uint32_t e = 0; e < lg.NumEdges(); ++e) {
          if (alive[e]) {
            ASSERT_GE(support[e] + 2, k);
          }
        }
      }
    }
  }
}

TEST(TriangleSubstrateTest, PeelMatchesReferencePeelSweep) {
  for (int i = 0; i < kSweepGraphs; ++i) {
    const Graph g = SweepGraph(i);
    HopExtractor hop(g);
    LocalGraph lg;
    ASSERT_TRUE(hop.Extract(0, 2, {}, &lg));
    for (std::uint32_t k = 2; k <= 6; ++k) {
      std::vector<char> ref_alive(lg.NumEdges(), 1);
      auto ref_support = ComputeLocalEdgeSupports(lg, ref_alive);
      PeelToKTruss(lg, k, &ref_alive, &ref_support);

      TriangleSubstrate substrate;
      substrate.Bind(lg);
      std::vector<char> alive(lg.NumEdges(), 1);
      std::vector<std::uint32_t> support;
      substrate.ComputeSupports(alive, &support);
      substrate.SeedPeelQueue(k, alive, support);
      substrate.Peel(k, &alive, &support);

      EXPECT_EQ(alive, ref_alive) << "graph " << i << " k=" << k;
      EXPECT_EQ(support, ref_support) << "graph " << i << " k=" << k;
    }
  }
}

TEST(TriangleSubstrateTest, LocalTrussDecompositionMatchesBruteForceSweep) {
  for (int i = 0; i < kSweepGraphs; ++i) {
    const Graph g = SweepGraph(i);
    HopExtractor hop(g);
    LocalGraph lg;
    ASSERT_TRUE(hop.Extract(static_cast<VertexId>((3 * i) % g.NumVertices()), 2,
                            {}, &lg));
    LocalTrussDecomposer decomposer;
    std::vector<std::uint32_t> trussness;
    std::vector<std::uint32_t> initial;
    decomposer.Decompose(lg, &trussness, &initial);
    EXPECT_EQ(initial,
              ComputeLocalEdgeSupports(lg, std::vector<char>(lg.NumEdges(), 1)));
    EXPECT_EQ(trussness, BruteForceLocalTrussness(lg)) << "graph " << i;
  }
}

TEST(TriangleSubstrateTest, ExtractorModesAgreeSweep) {
  for (int i = 0; i < kSweepGraphs; ++i) {
    const Graph g = SweepGraph(i);
    SeedCommunityExtractor incremental(g);
    SeedCommunityExtractor reference(g);
    for (const std::uint32_t k : {3u, 4u, 5u}) {
      for (const std::uint32_t r : {1u, 2u}) {
        Query query;
        query.keywords = {static_cast<KeywordId>(i % 6),
                          static_cast<KeywordId>(6 + i % 6)};
        query.k = k;
        query.radius = r;
        std::size_t found = 0;
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          SeedCommunity got;
          SeedCommunity want;
          const bool got_ok = incremental.Extract(
              v, query, SeedCommunityExtractor::Mode::kIncremental, &got);
          const bool want_ok = reference.Extract(
              v, query, SeedCommunityExtractor::Mode::kReference, &want);
          ASSERT_EQ(got_ok, want_ok) << "graph " << i << " v=" << v
                                     << " k=" << k << " r=" << r;
          if (!got_ok) continue;
          ++found;
          ASSERT_EQ(got.center, want.center);
          ASSERT_EQ(got.vertices, want.vertices);
          ASSERT_EQ(got.edges, want.edges);
          if (found == 1) {  // one deep Definition-2 audit per combo
            EXPECT_TRUE(VerifySeedCommunity(g, query, got));
          }
        }
      }
    }
  }
}

// The reference path never touches the substrate, so its counters stay 0;
// the incremental path reports the rounds it absorbed.
TEST(TriangleSubstrateTest, ExtractorReportsSubstrateCounters) {
  const Graph g = ::topl::testing::MakeClique(6);
  SeedCommunityExtractor extractor(g);
  Query query;
  query.keywords = {0};
  query.k = 4;
  query.radius = 1;
  SeedCommunity out;
  ASSERT_TRUE(extractor.Extract(0, query, &out));
  EXPECT_GT(extractor.last_triangles_inspected(), 0u);
  ASSERT_TRUE(extractor.Extract(0, query,
                                SeedCommunityExtractor::Mode::kReference, &out));
  EXPECT_EQ(extractor.last_triangles_inspected(), 0u);
  EXPECT_EQ(extractor.last_support_recomputes_avoided(), 0u);
}

// The detectors refine on the incremental substrate; brute force extracts on
// the reference path. Every community a detector returns must be
// byte-identical to brute force's for the same center, which stays exact
// when scores tie.
TEST(TriangleSubstrateTest, DetectorAnswersMatchReferenceExtractionSweep) {
  for (int i = 0; i < 8; ++i) {
    const Graph g = SweepGraph(2 * i);
    auto built = BuildIndexFor(g);
    TopLDetector detector(g, built.pre(), built.tree);
    DTopLDetector dtopl(g, built.pre(), built.tree);
    for (const std::uint32_t k : {3u, 4u}) {
      for (const std::uint32_t r : {1u, 2u}) {
        for (const double theta : {0.1, 0.3}) {
          for (const std::uint32_t top_l : {1u, 3u}) {
            Query query;
            query.keywords = {static_cast<KeywordId>(i % 5),
                              static_cast<KeywordId>(5 + i % 7)};
            query.k = k;
            query.radius = r;
            query.theta = theta;
            query.top_l = top_l;
            const std::string label =
                "graph " + std::to_string(i) + " k=" + std::to_string(k) +
                " r=" + std::to_string(r) + " theta=" + std::to_string(theta) +
                " L=" + std::to_string(top_l);

            Result<std::vector<CommunityResult>> all =
                EnumerateAllCommunities(g, query);
            ASSERT_TRUE(all.ok());
            std::vector<const CommunityResult*> reference(g.NumVertices());
            for (const CommunityResult& c : *all) {
              reference[c.community.center] = &c;
            }
            const auto expect_reference =
                [&](const std::vector<CommunityResult>& got) {
                  for (const CommunityResult& c : got) {
                    const CommunityResult* want = reference[c.community.center];
                    ASSERT_NE(want, nullptr) << label;
                    ExpectIdentical({c}, {*want}, label.c_str());
                  }
                };

            Result<TopLResult> got = detector.Search(query);
            ASSERT_TRUE(got.ok());
            ASSERT_EQ(got->communities.size(),
                      std::min<std::size_t>(top_l, all->size()))
                << label;
            expect_reference(got->communities);

            if (theta == 0.1 && top_l == 3) {
              Result<DTopLResult> dgot = dtopl.Search(query, DTopLOptions());
              ASSERT_TRUE(dgot.ok());
              expect_reference(dgot->communities);
            }
          }
        }
      }
    }
  }
}

// The offline rows derive from the substrate-backed decomposer; check them
// against definition-level recomputation, then check the incremental updater
// still reproduces a from-scratch build byte-for-byte on top of it.
TEST(TriangleSubstrateTest, PrecomputeBoundsMatchDefinitionSweep) {
  for (int i = 0; i < kSweepGraphs; ++i) {
    const Graph g = SweepGraph(i);
    PrecomputeOptions options;
    options.r_max = 2;
    auto built = BuildIndexFor(g, options);

    HopExtractor hop(g);
    LocalGraph ball;
    Rng rng(500 + i);
    for (int s = 0; s < 6; ++s) {
      const VertexId v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      ASSERT_TRUE(hop.Extract(v, options.r_max, {}, &ball));
      const auto sup =
          ComputeLocalEdgeSupports(ball, std::vector<char>(ball.NumEdges(), 1));
      std::uint32_t bound = 0;
      for (std::uint32_t r = 1; r <= options.r_max; ++r) {
        for (std::uint32_t e = 0; e < ball.NumEdges(); ++e) {
          if (ball.edge_radius[e] <= r) bound = std::max(bound, sup[e]);
        }
        EXPECT_EQ(built.pre().SupportBound(v, r), bound) << "v=" << v << " r=" << r;
      }
      EXPECT_EQ(built.pre().CenterTrussBound(v),
                LocalCenterTrussness(ball, BruteForceLocalTrussness(ball)))
          << "v=" << v;
    }
  }
}

TEST(TriangleSubstrateTest, IndexUpdaterMatchesRebuildRowsSweep) {
  for (int i = 0; i < 6; ++i) {
    Graph g = SweepGraph(3 * i);
    PrecomputeOptions options;
    options.r_max = 2;
    auto built = BuildIndexFor(g, options);

    Rng rng(77 + i);
    RandomDeltaOptions delta_options;
    delta_options.num_ops = 5;
    delta_options.keyword_domain = 12;
    const GraphDelta delta = MakeRandomDelta(g, rng, delta_options);

    Result<UpdatedIndex> updated =
        IndexUpdater::Apply(g, built.pre(), built.tree, delta);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    auto rebuilt = BuildIndexFor(updated->graph, options);

    const PrecomputedData& incr = *updated->pre;
    const PrecomputedData& full = rebuilt.pre();
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(incr.CenterTrussBound(v), full.CenterTrussBound(v)) << "v=" << v;
      for (std::uint32_t r = 1; r <= options.r_max; ++r) {
        ASSERT_EQ(incr.SupportBound(v, r), full.SupportBound(v, r))
            << "v=" << v << " r=" << r;
        for (std::uint32_t z = 0; z < incr.num_thetas(); ++z) {
          ASSERT_EQ(incr.ScoreBound(v, r, z), full.ScoreBound(v, r, z))
              << "v=" << v << " r=" << r << " z=" << z;
        }
      }
    }
  }
}

}  // namespace
}  // namespace topl
