// Epoch-stamped scratch across the 2^32 wraparound: HopExtractor and
// PropagationEngine (Compute and ComputeScores) each stamp visited vertices
// with a 32-bit per-call epoch. A peer moves an instance's epoch just below the
// wrap after it has left stale stamps behind, then every call across the
// wrap must return exactly what a fresh instance returns.

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/generators.h"
#include "graph/local_subgraph.h"
#include "gtest/gtest.h"
#include "influence/propagation.h"

namespace topl {

class EpochWrapTestPeer {
 public:
  static void SetEpoch(HopExtractor* extractor, std::uint32_t epoch) {
    extractor->epoch_ = epoch;
  }
  static void SetEpoch(PropagationEngine* engine, std::uint32_t epoch) {
    engine->epoch_ = epoch;
  }
};

namespace {

// The peer moves the epoch here, so the calls run at epochs max-2, max-1,
// max, then across the wrap (0 before the fix) and on through 4.
constexpr std::uint32_t kNearWrap = std::numeric_limits<std::uint32_t>::max() - 3;
constexpr std::uint32_t kCallsAcrossWrap = 8;
// Index of the first call past the wrap.
constexpr std::uint32_t kFirstWrappedCall = 3;
// Calls before the jump run at epochs 1..kAgingCalls, each on the input the
// post-wrap call at that same epoch will use: stale stamps then sit exactly
// where an aliased epoch would mistake them for fresh ones.
constexpr std::uint32_t kAgingCalls = kCallsAcrossWrap - kFirstWrappedCall - 1;

// Input of the call-th call across the wrap: two centers/seeds far apart on
// the 300-vertex ring.
VertexId First(std::uint32_t call) { return (37 * call) % 300; }
VertexId Second(std::uint32_t call) { return (37 * call + 150) % 300; }
std::uint32_t AgingInput(std::uint32_t aging_call) {
  return kFirstWrappedCall + 1 + aging_call;  // runs at epoch aging_call + 1
}

Graph MakeWorkload() {
  SmallWorldOptions gen;
  gen.num_vertices = 300;
  gen.seed = 7;
  gen.keywords.domain_size = 6;
  gen.keywords.keywords_per_vertex = 2;
  gen.weights.min_weight = 0.5;
  gen.weights.max_weight = 0.6;
  Result<Graph> g = MakeSmallWorld(gen);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

TEST(EpochWrapTest, HopExtractorMatchesFreshInstanceAcrossWrap) {
  const Graph g = MakeWorkload();
  const std::vector<KeywordId> filter = {0, 1, 2};
  HopExtractor aged(g);
  LocalGraph scratch;
  for (std::uint32_t a = 0; a < kAgingCalls; ++a) {
    aged.Extract(First(AgingInput(a)), 2, {}, &scratch);
  }
  EpochWrapTestPeer::SetEpoch(&aged, kNearWrap);

  for (std::uint32_t i = 0; i < kCallsAcrossWrap; ++i) {
    // Alternate filtered and unfiltered balls.
    const std::span<const KeywordId> keywords =
        i % 2 == 0 ? std::span<const KeywordId>(filter)
                   : std::span<const KeywordId>();
    LocalGraph got;
    LocalGraph want;
    HopExtractor fresh(g);
    const bool got_ok = aged.Extract(First(i), 2, keywords, &got);
    ASSERT_EQ(got_ok, fresh.Extract(First(i), 2, keywords, &want)) << "call " << i;
    EXPECT_EQ(got.global_ids, want.global_ids) << "call " << i;
    EXPECT_EQ(got.dist, want.dist) << "call " << i;
    EXPECT_EQ(got.offsets, want.offsets) << "call " << i;
    EXPECT_EQ(got.edge_endpoints, want.edge_endpoints) << "call " << i;
    EXPECT_EQ(got.global_edge_ids, want.global_edge_ids) << "call " << i;
  }
}

TEST(EpochWrapTest, PropagationMatchesFreshInstanceAcrossWrap) {
  const Graph g = MakeWorkload();
  PropagationEngine aged(g);
  for (std::uint32_t a = 0; a < kAgingCalls; ++a) {
    const VertexId seeds[] = {First(AgingInput(a)), Second(AgingInput(a))};
    aged.Compute(seeds, 0.3);
  }
  EpochWrapTestPeer::SetEpoch(&aged, kNearWrap);

  for (std::uint32_t i = 0; i < kCallsAcrossWrap; ++i) {
    const VertexId seeds[] = {First(i), Second(i)};
    const InfluencedCommunity got = aged.Compute(seeds, 0.3);
    const InfluencedCommunity want = PropagationEngine(g).Compute(seeds, 0.3);
    EXPECT_EQ(got.vertices, want.vertices) << "call " << i;
    EXPECT_EQ(got.cpp, want.cpp) << "call " << i;
    EXPECT_EQ(got.score, want.score) << "call " << i;
  }

  // The score-only form stamps the same scratch (its terminal list keys off
  // the stamps), so it is aged and checked across the wrap the same way.
  const std::vector<double> thetas = {0.3, 0.4};
  PropagationEngine aged_scores(g);
  std::vector<double> got(thetas.size());
  for (std::uint32_t a = 0; a < kAgingCalls; ++a) {
    const VertexId seeds[] = {First(AgingInput(a)), Second(AgingInput(a))};
    aged_scores.ComputeScores(seeds, thetas, got);
  }
  EpochWrapTestPeer::SetEpoch(&aged_scores, kNearWrap);

  for (std::uint32_t i = 0; i < kCallsAcrossWrap; ++i) {
    const VertexId seeds[] = {First(i), Second(i)};
    std::vector<double> want(thetas.size());
    aged_scores.ComputeScores(seeds, thetas, got);
    PropagationEngine(g).ComputeScores(seeds, thetas, want);
    EXPECT_EQ(got, want) << "call " << i;
  }
}

}  // namespace
}  // namespace topl
