// Locality reordering must be invisible to the algorithms: a reordered
// build answers every TopL/DTopL query with the same communities as the
// identity build once internal ids are unmapped through the stored
// permutation — bit-identical scores, identical member sets. The sweep
// drives 20 generator graphs through both builds; the remaining tests pin
// the permutation contract (validity, determinism, rejection of bad input)
// and the artifact round trip of the external-id section.

#include "graph/reorder.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <tuple>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "storage/artifact.h"
#include "tests/test_util.h"

namespace topl {
namespace {

Graph MakeSweepGraph(int which) {
  const std::size_t n = 200 + 100 * (which % 5);
  const std::uint64_t seed = 1000 + which;
  Result<Graph> g = Status::Internal("unset");
  switch (which % 4) {
    case 0: {
      SmallWorldOptions options;
      options.num_vertices = n;
      options.seed = seed;
      options.keywords.domain_size = 12;
      g = MakeSmallWorld(options);
      break;
    }
    case 1: {
      SmallWorldOptions options;
      options.num_vertices = n;
      options.seed = seed;
      options.keywords.domain_size = 12;
      options.keywords.distribution = KeywordDistribution::kZipf;
      g = MakeSmallWorld(options);
      break;
    }
    case 2:
      g = MakeDblpLike(n, seed);
      break;
    default:
      g = MakeAmazonLike(n, seed);
      break;
  }
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// Canonical form of a result list that is invariant under vertex
/// relabeling AND under reordering of equal-score communities: every
/// community becomes (score bits, sorted external members, sorted external
/// influence), and the list is sorted. Scores are compared as bit patterns —
/// the equivalence promised is bitwise, not approximate.
using CanonicalCommunity =
    std::tuple<std::uint64_t, std::vector<VertexId>, std::vector<VertexId>>;

std::vector<CanonicalCommunity> Canonicalize(
    const Engine& engine, const std::vector<CommunityResult>& communities) {
  std::vector<CanonicalCommunity> out;
  out.reserve(communities.size());
  for (const CommunityResult& c : communities) {
    std::vector<VertexId> members;
    members.reserve(c.community.vertices.size());
    for (VertexId v : c.community.vertices) members.push_back(engine.ExternalId(v));
    std::sort(members.begin(), members.end());
    std::vector<VertexId> influenced;
    influenced.reserve(c.influence.vertices.size());
    for (VertexId v : c.influence.vertices) influenced.push_back(engine.ExternalId(v));
    std::sort(influenced.begin(), influenced.end());
    out.emplace_back(std::bit_cast<std::uint64_t>(c.score()), std::move(members),
                     std::move(influenced));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Query> SweepQueries() {
  std::vector<Query> queries;
  for (std::uint32_t i = 0; i < 3; ++i) {
    Query q;
    q.keywords = {static_cast<KeywordId>(i), static_cast<KeywordId>(i + 3),
                  static_cast<KeywordId>(i + 7)};
    q.k = 3;
    q.radius = 1 + i % 2;
    q.theta = 0.2;
    // Large L: both builds must surface the complete answer set, so ties at
    // the cut line cannot make the lists differ by construction.
    q.top_l = 50;
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(ReorderTest, LocalityOrderIsAValidDeterministicPermutation) {
  for (int which = 0; which < 4; ++which) {
    const Graph g = MakeSweepGraph(which);
    const std::vector<VertexId> order = ComputeLocalityOrder(g);
    ASSERT_EQ(order.size(), g.NumVertices());
    std::vector<bool> seen(g.NumVertices(), false);
    for (VertexId v : order) {
      ASSERT_LT(v, g.NumVertices());
      ASSERT_FALSE(seen[v]) << "duplicate " << v;
      seen[v] = true;
    }
    // Deterministic: recomputing yields the identical order.
    EXPECT_EQ(ComputeLocalityOrder(g), order);
    // Hub-first: the first vertex is (one of) the max-degree vertices.
    std::size_t max_degree = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      max_degree = std::max(max_degree, g.Degree(v));
    }
    EXPECT_EQ(g.Degree(order.front()), max_degree);
  }
}

TEST(ReorderTest, ApplyVertexOrderRejectsNonPermutations) {
  const Graph g = MakeSweepGraph(0);
  const std::size_t n = g.NumVertices();

  std::vector<VertexId> short_order(n - 1);
  for (VertexId i = 0; i < n - 1; ++i) short_order[i] = i;
  EXPECT_TRUE(ApplyVertexOrder(g, short_order).status().IsInvalidArgument());

  std::vector<VertexId> dup(n);
  for (VertexId i = 0; i < n; ++i) dup[i] = i;
  dup[1] = dup[0];
  EXPECT_TRUE(ApplyVertexOrder(g, dup).status().IsInvalidArgument());

  std::vector<VertexId> out_of_range(n);
  for (VertexId i = 0; i < n; ++i) out_of_range[i] = i;
  out_of_range[0] = static_cast<VertexId>(n + 7);
  EXPECT_TRUE(ApplyVertexOrder(g, out_of_range).status().IsInvalidArgument());
}

TEST(ReorderTest, ReorderedGraphIsTheSameNetworkUnderNewNames) {
  const Graph g = MakeSweepGraph(1);
  Result<ReorderedGraph> reordered = ReorderForLocality(g);
  ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();
  const Graph& rg = reordered->graph;
  const std::vector<VertexId>& new_to_old = reordered->external_ids;
  ASSERT_EQ(rg.NumVertices(), g.NumVertices());
  ASSERT_EQ(rg.NumEdges(), g.NumEdges());
  EXPECT_EQ(rg.KeywordDomainBound(), g.KeywordDomainBound());

  std::vector<VertexId> old_to_new(g.NumVertices());
  for (VertexId v = 0; v < new_to_old.size(); ++v) old_to_new[new_to_old[v]] = v;

  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const VertexId nv = old_to_new[v];
    ASSERT_EQ(rg.Degree(nv), g.Degree(v)) << v;
    // Arc multiset must match under the relabeling, probabilities included.
    std::vector<std::pair<VertexId, float>> expected;
    for (const Graph::Arc& arc : g.Neighbors(v)) {
      expected.emplace_back(old_to_new[arc.to], arc.prob);
    }
    std::vector<std::pair<VertexId, float>> actual;
    for (const Graph::Arc& arc : rg.Neighbors(nv)) {
      actual.emplace_back(arc.to, arc.prob);
    }
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(actual, expected) << v;
    // Keyword sets carry over verbatim.
    const auto kw_old = g.Keywords(v);
    const auto kw_new = rg.Keywords(nv);
    ASSERT_TRUE(std::equal(kw_old.begin(), kw_old.end(), kw_new.begin(),
                           kw_new.end()))
        << v;
  }
}

TEST(ReorderTest, TwentyGraphSweepAnswersMatchModuloRelabeling) {
  for (int which = 0; which < 20; ++which) {
    SCOPED_TRACE("graph " + std::to_string(which));
    Graph identity_graph = MakeSweepGraph(which);
    Graph reorder_input = MakeSweepGraph(which);

    EngineOptions base;
    base.precompute.r_max = 2;
    Result<std::unique_ptr<Engine>> identity =
        Engine::FromGraph(std::move(identity_graph), base);
    ASSERT_TRUE(identity.ok()) << identity.status().ToString();
    ASSERT_TRUE((*identity)->ExternalIds().empty());

    EngineOptions reordered_options = base;
    reordered_options.reorder_vertices = true;
    Result<std::unique_ptr<Engine>> reordered =
        Engine::FromGraph(std::move(reorder_input), reordered_options);
    ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();
    ASSERT_FALSE((*reordered)->ExternalIds().empty());

    DTopLOptions dtopl_options;
    dtopl_options.n_factor = 3;
    for (const Query& q : SweepQueries()) {
      Result<TopLResult> a = (*identity)->Search(q);
      Result<TopLResult> b = (*reordered)->Search(q);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(Canonicalize(**identity, a->communities),
                Canonicalize(**reordered, b->communities));

      Result<DTopLResult> da = (*identity)->SearchDiversified(q, dtopl_options);
      Result<DTopLResult> db = (*reordered)->SearchDiversified(q, dtopl_options);
      ASSERT_TRUE(da.ok()) << da.status().ToString();
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      EXPECT_EQ(Canonicalize(**identity, da->communities),
                Canonicalize(**reordered, db->communities));
    }
  }
}

TEST(ReorderTest, PermutationRoundTripsThroughTheArtifact) {
  const Graph original = MakeSweepGraph(2);
  Result<ReorderedGraph> reordered = ReorderForLocality(original);
  ASSERT_TRUE(reordered.ok());

  const auto dir = std::filesystem::temp_directory_path() /
                   ("topl_reorder_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "reordered.idx").string();

  const testing::BuiltIndex built = testing::BuildIndexFor(reordered->graph);
  ArtifactWriteOptions options;
  options.external_ids = reordered->external_ids;
  ASSERT_TRUE(ArtifactWriter::Write(reordered->graph, built.pre(), built.tree,
                                    path, options)
                  .ok());

  Result<MappedIndex> mapped = ArtifactReader::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->external_ids, reordered->external_ids);

  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 3u);
  EXPECT_TRUE(info->has_external_ids);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace topl
