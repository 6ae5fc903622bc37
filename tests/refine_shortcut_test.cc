// The refine stage's exact short-circuits against the brute-force oracle
// (core/brute_force, which runs the full reference pipeline on every
// center):
//  - the per-query influence memo, which propagates each distinct seed set
//    once and re-propagates a repeat only when its known σ enters the top-L;
//  - the keyword core (KeywordMatch), which keeps the plan stage out of
//    every index subtree and away from every center outside the
//    (k−1)-core of the keyword holders' subgraph, and confines the
//    extractor's ball BFS to that core.
// Planted-clique graphs make every center of a clique yield the same
// community (memo hits); keyword-sparse graphs leave most keyword holders
// outside the core; hand-built ego networks pin the cases where a center
// with enough keyword neighbours still has no community. The three
// extraction paths (over the core, over keyword lists, and the reference)
// must agree on every center, and answers must be byte-identical to the
// oracle, sequentially, in parallel, for DTopL, and for a detector reused
// across queries.

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/brute_force.h"
#include "core/dtopl_detector.h"
#include "core/seed_community.h"
#include "core/topl_detector.h"
#include "graph/generators.h"
#include "graph/local_subgraph.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::BuildIndexFor;
using testing::BuiltIndex;
using testing::ExpectIdentical;

// Disjoint cliques of the query keywords {0, 1}, each with its own edge
// probability (two share size and probability, so their σ tie and the
// center id decides), joined by single bridge edges and trailed by keyword-5
// followers that only receive influence.
Graph MakePlantedCliques() {
  const std::vector<std::uint32_t> sizes = {4, 5, 6, 7, 8, 6, 6};
  const std::vector<double> probs = {0.7, 0.6, 0.5, 0.4, 0.35, 0.55, 0.55};
  std::size_t n = 0;
  for (const std::uint32_t s : sizes) n += 2 * s;  // clique + followers
  GraphBuilder b(n);
  VertexId next = 0;
  VertexId previous_first = kInvalidVertex;
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    const VertexId first = next;
    for (VertexId u = first; u < first + sizes[c]; ++u) {
      for (VertexId v = u + 1; v < first + sizes[c]; ++v) b.AddEdge(u, v, probs[c]);
      b.AddKeyword(u, static_cast<KeywordId>(u % 2));
    }
    next += sizes[c];
    // A follower chain hanging off the clique's last vertex.
    VertexId tail = first + sizes[c] - 1;
    for (std::uint32_t f = 0; f < sizes[c]; ++f, ++next) {
      b.AddEdge(tail, next, 0.8);
      b.AddKeyword(next, 5);
      tail = next;
    }
    if (previous_first != kInvalidVertex) b.AddEdge(previous_first, first, 0.3);
    previous_first = first;
  }
  Result<Graph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// A small-world graph where about one vertex in five carries a query keyword
// ({0, 1, 2, 3} of a 20-keyword domain, one keyword each).
Graph MakeKeywordSparse(std::uint64_t seed) {
  SmallWorldOptions gen;
  gen.num_vertices = 200;
  gen.ring_neighbors = 10;
  gen.seed = seed;
  gen.keywords.domain_size = 20;
  gen.keywords.keywords_per_vertex = 1;
  Result<Graph> g = MakeSmallWorld(gen);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

Query MakeQuery(std::vector<KeywordId> keywords, std::uint32_t k,
                std::uint32_t radius, double theta, std::uint32_t top_l) {
  Query q;
  q.keywords = std::move(keywords);
  q.k = k;
  q.radius = radius;
  q.theta = theta;
  q.top_l = top_l;
  return q;
}

std::string Label(const Query& q) {
  return "k=" + std::to_string(q.k) + " r=" + std::to_string(q.radius) +
         " theta=" + std::to_string(q.theta) + " L=" + std::to_string(q.top_l);
}

// The DTopL oracle: greedy selection over the brute-force top-(nL) pool.
void ExpectDTopLMatchesOracle(const Graph& g, DTopLDetector& detector,
                              const Query& q, const std::string& label,
                              const SearchControl& control = {},
                              const QueryOptions& topl_options = {}) {
  DTopLOptions options;
  options.n_factor = 3;
  options.topl_options = topl_options;
  Result<DTopLResult> got = detector.Search(q, options, control);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<std::vector<CommunityResult>> all = EnumerateAllCommunities(g, q);
  ASSERT_TRUE(all.ok());
  std::vector<CommunityResult> pool = *all;
  if (pool.size() > q.top_l * options.n_factor) {
    pool.resize(q.top_l * options.n_factor);
  }
  std::vector<CommunityResult> want;
  for (const std::size_t i : SelectDiversifiedGreedyWP(pool, q.top_l, nullptr)) {
    want.push_back(pool[i]);
  }
  ExpectIdentical(got->communities, want, ("dtopl " + label).c_str());
}

TEST(RefineShortcutTest, PlantedCliquesMatchBruteForce) {
  const Graph g = MakePlantedCliques();
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  DTopLDetector dtopl(g, built.pre(), built.tree);
  std::uint64_t found = 0;
  std::uint64_t propagations = 0;
  for (std::uint32_t k = 2; k <= 6; ++k) {
    for (std::uint32_t r = 1; r <= 2; ++r) {
      for (const double theta : {0.0, 0.1, 0.3}) {
        for (const std::uint32_t top_l : {1u, 3u, 8u}) {
          const Query q = MakeQuery({0, 1}, k, r, theta, top_l);
          Result<TopLResult> got = detector.Search(q);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          Result<TopLResult> want = BruteForceTopL(g, q);
          ASSERT_TRUE(want.ok());
          ExpectIdentical(got->communities, want->communities, Label(q).c_str());
          EXPECT_LE(got->stats.propagations, got->stats.communities_found);
          found += got->stats.communities_found;
          propagations += got->stats.propagations;
          ExpectDTopLMatchesOracle(g, dtopl, q, Label(q));
        }
      }
    }
  }
  // Centers of one clique share its community, so the memo must have saved
  // propagations across the sweep.
  EXPECT_LT(propagations, found);
}

TEST(RefineShortcutTest, RepeatedCommunityIsPropagatedOnceWhenItCannotEnter) {
  // With L = 1 the first center of the best clique fills the collector; its
  // clique-mates tie on σ but lose the center tie-break, so none of them is
  // propagated again.
  const Graph g = MakePlantedCliques();
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  const Query q = MakeQuery({0, 1}, 4, 1, 0.1, 1);
  Result<TopLResult> got = detector.Search(q);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->communities.size(), 1u);
  EXPECT_GT(got->stats.communities_found, got->stats.propagations);
}

TEST(RefineShortcutTest, KeywordSparseGraphsMatchBruteForce) {
  std::uint64_t found = 0;
  for (const std::uint64_t seed : {1u, 2u}) {
    const Graph g = MakeKeywordSparse(seed);
    const BuiltIndex built = BuildIndexFor(g);
    TopLDetector detector(g, built.pre(), built.tree);
    DTopLDetector dtopl(g, built.pre(), built.tree);
    for (std::uint32_t k = 2; k <= 6; ++k) {
      for (std::uint32_t r = 1; r <= 2; ++r) {
        for (const double theta : {0.0, 0.1, 0.3}) {
          const Query q = MakeQuery({0, 1, 2, 3}, k, r, theta, 4);
          const std::string label = "seed=" + std::to_string(seed) + " " + Label(q);
          Result<TopLResult> got = detector.Search(q);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          Result<TopLResult> want = BruteForceTopL(g, q);
          ASSERT_TRUE(want.ok());
          ExpectIdentical(got->communities, want->communities, label.c_str());
          found += got->communities.size();
          ExpectDTopLMatchesOracle(g, dtopl, q, label);
        }
      }
    }
  }
  EXPECT_GT(found, 0u);  // the sparse keywords still leave communities
}

// Extracts center v's community over the query's keyword core, over keyword
// lists, and on the reference path, and checks that all three agree.
// Returns whether the reference path found a community.
bool ExtractionPathsAgree(SeedCommunityExtractor& by_core,
                          SeedCommunityExtractor& by_list,
                          SeedCommunityExtractor& reference,
                          const KeywordMatch& match, VertexId v, const Query& q,
                          const std::string& label) {
  SeedCommunity cored;
  SeedCommunity listed;
  SeedCommunity want;
  const bool cored_ok = by_core.Extract(
      v, q, SeedCommunityExtractor::Mode::kIncremental, &cored, &match);
  const bool listed_ok = by_list.Extract(
      v, q, SeedCommunityExtractor::Mode::kIncremental, &listed);
  const bool want_ok =
      reference.Extract(v, q, SeedCommunityExtractor::Mode::kReference, &want);
  EXPECT_EQ(cored_ok, want_ok) << label << " center " << v;
  EXPECT_EQ(listed_ok, want_ok) << label << " center " << v;
  EXPECT_EQ(cored.vertices, want.vertices) << label << " center " << v;
  EXPECT_EQ(listed.vertices, want.vertices) << label << " center " << v;
  EXPECT_EQ(cored.edges, want.edges) << label << " center " << v;
  EXPECT_EQ(listed.edges, want.edges) << label << " center " << v;
  return want_ok;
}

TEST(RefineShortcutTest, ExtractionPathsAgreeOnEveryCenter) {
  std::uint64_t found = 0;
  std::uint64_t empty = 0;
  for (const std::uint64_t seed : {1u, 2u}) {
    const Graph g = MakeKeywordSparse(seed);
    SeedCommunityExtractor by_core(g);
    SeedCommunityExtractor by_list(g);
    SeedCommunityExtractor reference(g);
    KeywordMatch match;
    for (std::uint32_t k = 2; k <= 6; ++k) {
      const Query q = MakeQuery({0, 1, 2, 3}, k, 2, 0.1, 1);
      match.Fill(g, q.keywords, q.k);
      const std::string label = "seed=" + std::to_string(seed) + " k=" +
                                std::to_string(k);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        const bool has = ExtractionPathsAgree(by_core, by_list, reference,
                                              match, v, q, label);
        found += has;
        empty += !has;
      }
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_GT(empty, 0u);
}

// A center (vertex 0) joined to every vertex of its ego network F = {1, ...,
// size}, plus the given edges inside F. Every vertex carries keyword 0.
Graph MakeEgoNetwork(std::size_t size,
                     const std::vector<std::pair<VertexId, VertexId>>& inside) {
  std::vector<std::pair<VertexId, VertexId>> edges = inside;
  for (VertexId u = 1; u <= size; ++u) edges.emplace_back(0, u);
  return testing::MakeKeywordGraph(
      size + 1, edges, std::vector<std::vector<KeywordId>>(size + 1, {0}));
}

// Whether vertex 0 of an ego network has a community for keyword 0 at k,
// after checking that the three extraction paths agree on it at r = 1 and
// r = 2. Every member of an ego network is one hop from the center, so the
// answer is the same at both radii.
bool CenterHasCommunity(const Graph& g, std::uint32_t k,
                        const std::string& label) {
  SeedCommunityExtractor by_core(g);
  SeedCommunityExtractor by_list(g);
  SeedCommunityExtractor reference(g);
  KeywordMatch match;
  bool has = false;
  for (std::uint32_t r = 1; r <= 2; ++r) {
    const Query q = MakeQuery({0}, k, r, 0.1, 1);
    match.Fill(g, q.keywords, q.k);
    const bool has_at_r = ExtractionPathsAgree(
        by_core, by_list, reference, match, 0, q,
        label + " r=" + std::to_string(r));
    if (r == 1) {
      has = has_at_r;
    } else {
      EXPECT_EQ(has_at_r, has) << label;
    }
  }
  return has;
}

TEST(RefineShortcutTest, EgoNetworkOfDisjointEdgesHasNoFourTruss) {
  // k = 4: the center has four keyword neighbours (≥ k−1, so they all stay
  // in the keyword core), but each is adjacent to only one of the others,
  // below the 2 triangles a 4-truss edge through the center needs.
  const Graph g = MakeEgoNetwork(4, {{1, 2}, {3, 4}});
  EXPECT_FALSE(CenterHasCommunity(g, 4, "matching"));
  // The same ego network at k = 3 needs one triangle per edge: the two
  // triangles are the community.
  EXPECT_TRUE(CenterHasCommunity(g, 3, "matching k=3"));
}

TEST(RefineShortcutTest, KCliqueEgoNetworkIsTheTightestCommunity) {
  // K_k around the center: each of the k−1 neighbours is adjacent to exactly
  // k−2 of the others, the tightest ego network that holds a k-truss.
  for (std::uint32_t k = 3; k <= 7; ++k) {
    std::vector<std::pair<VertexId, VertexId>> inside;
    for (VertexId u = 1; u < k; ++u) {
      for (VertexId w = u + 1; w < k; ++w) inside.emplace_back(u, w);
    }
    const Graph g = MakeEgoNetwork(k - 1, inside);
    EXPECT_TRUE(CenterHasCommunity(g, k, "clique k=" + std::to_string(k)));
    // One edge short of a clique: no k-truss is left.
    inside.pop_back();
    EXPECT_FALSE(CenterHasCommunity(MakeEgoNetwork(k - 1, inside), k,
                                    "clique minus an edge k=" +
                                        std::to_string(k)));
  }
}

TEST(RefineShortcutTest, TrussPeelCascadesThroughTheEgoNetwork) {
  // k = 4. A path 1-2-3-4-5-6 in F: only the ends start with too few
  // triangles, and each peel takes the next vertex inward until nothing is
  // left.
  EXPECT_FALSE(CenterHasCommunity(
      MakeEgoNetwork(6, {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}), 4, "path"));
  // A triangle {1, 2, 3} with a path 3-4-5-6 hanging off it: the cascade
  // eats the path and stops at the triangle, whose K4 with the center is
  // the community.
  const Graph tail =
      MakeEgoNetwork(6, {{1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  EXPECT_TRUE(CenterHasCommunity(tail, 4, "triangle with a tail"));
  SeedCommunityExtractor extractor(tail);
  SeedCommunity community;
  ASSERT_TRUE(extractor.Extract(0, MakeQuery({0}, 4, 1, 0.1, 1), &community));
  EXPECT_EQ(community.vertices, (std::vector<VertexId>{0, 1, 2, 3}));
}

// Uni (small-world), Erdős–Rényi and power-law graphs with sparse query
// keywords, so that many keyword holders fall outside the core and some core
// centers still have no community.
std::vector<Graph> SweepGraphs() {
  KeywordModel keywords;
  keywords.domain_size = 12;
  keywords.keywords_per_vertex = 1;
  std::vector<Graph> graphs;
  SmallWorldOptions uni;
  uni.num_vertices = 200;
  uni.ring_neighbors = 10;
  uni.seed = 7;
  uni.keywords = keywords;
  graphs.push_back(MakeSmallWorld(uni).value());
  ErdosRenyiOptions er;
  er.num_vertices = 150;
  er.edge_prob = 0.12;
  er.seed = 8;
  er.keywords = keywords;
  graphs.push_back(MakeErdosRenyi(er).value());
  PowerlawClusterOptions plc;
  plc.num_vertices = 250;
  plc.edges_per_vertex = 5;
  plc.triangle_prob = 0.7;
  plc.seed = 9;
  plc.keywords = keywords;
  graphs.push_back(MakePowerlawCluster(plc).value());
  return graphs;
}

TEST(RefineShortcutTest, ExtractionPathsMatchBruteForceAcrossGenerators) {
  ThreadPool pool(4);
  std::uint64_t found = 0;
  std::uint64_t empty_core_centers = 0;
  const std::vector<KeywordId> keywords = {0, 1, 2, 3, 4};
  for (const Graph& g : SweepGraphs()) {
    const BuiltIndex built = BuildIndexFor(g);
    TopLDetector detector(g, built.pre(), built.tree);
    SeedCommunityExtractor by_core(g);
    SeedCommunityExtractor by_list(g);
    SeedCommunityExtractor reference(g);
    KeywordMatch match;
    for (std::uint32_t k = 3; k <= 5; ++k) {
      match.Fill(g, keywords, k);
      for (std::uint32_t r = 1; r <= 2; ++r) {
        const Query q = MakeQuery(keywords, k, r, 0.1, 4);
        const std::string label =
            "n=" + std::to_string(g.NumVertices()) + " " + Label(q);
        // Every center, with and without the KeywordMatch. A core center
        // without a community is one the truss peel itself must reject.
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          const bool has = ExtractionPathsAgree(by_core, by_list, reference,
                                                match, v, q, label);
          empty_core_centers += match.Contains(v) && !has;
        }
        // The detector, sequentially and fanned out, against brute force.
        Result<TopLResult> want = BruteForceTopL(g, q);
        ASSERT_TRUE(want.ok());
        Result<TopLResult> sequential = detector.Search(q);
        ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
        ExpectIdentical(sequential->communities, want->communities, label.c_str());
        EXPECT_LE(sequential->stats.communities_found,
                  sequential->stats.candidates_refined);
        SearchControl control;
        control.pool = &pool;
        control.chunk_size = 4;
        Result<TopLResult> parallel = detector.Search(q, QueryOptions(), control);
        ASSERT_TRUE(parallel.ok());
        ExpectIdentical(parallel->communities, want->communities,
                        ("parallel " + label).c_str());
        found += want->communities.size();
      }
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_GT(empty_core_centers, 0u);
}

TEST(RefineShortcutTest, CoreRejectsAreCounted) {
  // On the keyword-sparse graph most keyword holders lie outside the query's
  // keyword core. The plan stage prunes them, so they land in pruned_keyword,
  // and the counters still account for every vertex, sequentially and on
  // the pool. The engine-wide sum folds the counters like every other.
  const Graph g = MakeKeywordSparse(1);
  const std::size_t n = g.NumVertices();
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  ThreadPool pool(4);
  SearchControl control;
  control.pool = &pool;
  control.chunk_size = 2;
  // Keyword pruning alone: the plan stage visits every vertex, so it refines
  // exactly the core.
  QueryOptions keyword_only;
  keyword_only.use_support_pruning = false;
  keyword_only.use_score_pruning = false;
  QueryStats total;
  for (std::uint32_t k = 3; k <= 5; ++k) {
    const Query q = MakeQuery({0, 1, 2, 3}, k, 2, 0.0, 4);
    KeywordMatch match;
    match.Fill(g, q.keywords, q.k);
    SeedCommunityExtractor by_core(g);
    std::uint64_t core_size = 0;
    std::uint64_t core_found = 0;        // core centers with a community
    std::uint64_t outside_holders = 0;   // keyword holders outside the core
    for (VertexId v = 0; v < n; ++v) {
      outside_holders += match.Holds(v) && !match.Contains(v);
      if (!match.Contains(v)) continue;
      ++core_size;
      SeedCommunity community;
      core_found += by_core.Extract(
          v, q, SeedCommunityExtractor::Mode::kIncremental, &community, &match);
    }
    EXPECT_GT(outside_holders, 0u) << Label(q);
    for (const bool parallel : {false, true}) {
      const std::string label = Label(q) + (parallel ? " pooled" : "");
      Result<TopLResult> got = parallel
                                   ? detector.Search(q, keyword_only, control)
                                   : detector.Search(q, keyword_only);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->stats.pruned_keyword, n - core_size) << label;
      EXPECT_EQ(got->stats.candidates_refined, core_size) << label;
      EXPECT_EQ(got->stats.communities_found, core_found) << label;
      EXPECT_EQ(got->stats.TotalPruned() + got->stats.candidates_refined, n)
          << label;
      total += got->stats;

      // Every pruning rule on: the refined candidates are a subset of the
      // core, and the sequential accounting still closes.
      got = parallel ? detector.Search(q, QueryOptions(), control)
                     : detector.Search(q);
      ASSERT_TRUE(got.ok());
      EXPECT_LE(got->stats.candidates_refined, core_size) << label;
      EXPECT_LE(got->stats.communities_found, core_found) << label;
      EXPECT_LE(got->stats.communities_found, got->stats.candidates_refined)
          << label;
      if (!parallel) {
        EXPECT_EQ(got->stats.TotalPruned() + got->stats.candidates_refined, n)
            << label;
      }
      total += got->stats;
    }
  }
  EXPECT_GT(total.pruned_keyword, 0u);
  EXPECT_GT(total.candidates_refined, 0u);
}

// Cliques of the query keywords {0, 1}, each with its own edge probability,
// chained by bridge edges and trailed by keyword-5 followers, plus a long
// path of query-keyword holders hanging off the first clique. The path's
// vertices hold keywords but lie in no (k−1)-core for k ≥ 3, and their low
// precomputed bounds sort them together, so with small leaves they fill
// whole subtrees of the index.
Graph MakeCliquesWithKeywordPath() {
  const std::vector<std::uint32_t> sizes = {5, 6, 7, 5};
  const std::vector<double> probs = {0.6, 0.5, 0.4, 0.45};
  constexpr std::uint32_t kPath = 48;
  constexpr std::uint32_t kFollowers = 4;
  std::size_t n = kPath;
  for (const std::uint32_t size : sizes) n += size + kFollowers;
  GraphBuilder b(n);
  VertexId next = 0;
  VertexId previous_first = kInvalidVertex;
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    const VertexId first = next;
    for (VertexId u = first; u < first + sizes[c]; ++u) {
      for (VertexId v = u + 1; v < first + sizes[c]; ++v) b.AddEdge(u, v, probs[c]);
      b.AddKeyword(u, static_cast<KeywordId>(u % 2));
    }
    next += sizes[c];
    for (std::uint32_t f = 0; f < kFollowers; ++f, ++next) {
      b.AddEdge(first + f, next, 0.7);
      b.AddKeyword(next, 5);
    }
    if (previous_first != kInvalidVertex) b.AddEdge(previous_first, first, 0.3);
    previous_first = first;
  }
  VertexId tail = 0;
  for (std::uint32_t p = 0; p < kPath; ++p, ++next) {
    b.AddEdge(tail, next, 0.3);
    b.AddKeyword(next, static_cast<KeywordId>(p % 2));
    tail = next;
  }
  Result<Graph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

TEST(RefineShortcutTest, DescentSkipsSubtreesWithoutCoreVertices) {
  const Graph g = MakeCliquesWithKeywordPath();
  const std::size_t n = g.NumVertices();
  TreeIndexOptions shape;
  shape.fanout = 2;
  shape.leaf_capacity = 4;
  const BuiltIndex built = BuildIndexFor(g, PrecomputeOptions(), shape);
  const TreeIndex& tree = built.tree;
  TopLDetector detector(g, built.pre(), tree);
  DTopLDetector dtopl(g, built.pre(), tree);
  ThreadPool pool(4);
  QueryOptions keyword_only;
  keyword_only.use_support_pruning = false;
  keyword_only.use_score_pruning = false;
  std::uint64_t found = 0;
  for (std::uint32_t k = 3; k <= 5; ++k) {
    for (std::uint32_t r = 1; r <= 2; ++r) {
      const Query q = MakeQuery({0, 1}, k, r, 0.1, 3);
      const std::string label = Label(q);
      const std::vector<char> core = testing::ReferenceKeywordCore(g, q.keywords, k);
      std::uint64_t core_size = 0;
      for (const char in_core : core) core_size += in_core;

      // Which subtrees hold a keyword holder, and which a core vertex.
      // Children precede their parents in the arena.
      std::vector<char> holds_keyword(tree.NumNodes(), 0);
      std::vector<char> holds_core(tree.NumNodes(), 0);
      for (std::uint32_t id = 0; id < tree.NumNodes(); ++id) {
        const TreeIndex::Node& node = tree.node(id);
        if (node.is_leaf) {
          for (const VertexId v : tree.LeafVertices(node)) {
            holds_keyword[id] |= HopExtractor::HasAnyKeyword(g, v, q.keywords);
            holds_core[id] |= core[v];
          }
        } else {
          for (std::uint32_t c = 0; c < node.num_children; ++c) {
            holds_keyword[id] |= holds_keyword[node.first_child + c];
            holds_core[id] |= holds_core[node.first_child + c];
          }
        }
      }
      std::uint64_t keyword_only_subtrees = 0;
      std::uint64_t core_subtrees = 0;
      for (std::uint32_t id = 0; id < tree.NumNodes(); ++id) {
        if (id == tree.root()) continue;
        keyword_only_subtrees += holds_keyword[id] && !holds_core[id];
        core_subtrees += holds_core[id];
      }
      ASSERT_GT(keyword_only_subtrees, 0u) << label;

      // With keyword pruning alone the descent enters exactly the subtrees
      // that hold a core vertex: a subtree of keyword holders outside the
      // core is skipped, and its vertices count as pruned_keyword.
      for (const bool parallel : {false, true}) {
        SearchControl control;
        if (parallel) {
          control.pool = &pool;
          control.chunk_size = 2;
        }
        const std::string run = label + (parallel ? " pooled" : "");
        Result<TopLResult> exhaustive = detector.Search(q, keyword_only, control);
        ASSERT_TRUE(exhaustive.ok());
        EXPECT_EQ(exhaustive->stats.index_nodes_visited, 1 + core_subtrees) << run;
        EXPECT_EQ(exhaustive->stats.pruned_keyword, n - core_size) << run;
        EXPECT_EQ(exhaustive->stats.candidates_refined, core_size) << run;
        EXPECT_EQ(exhaustive->stats.TotalPruned() +
                      exhaustive->stats.candidates_refined,
                  n)
            << run;

        // Answers against brute force: TopL, DTopL and progressive (both
        // kinds), with every rule on and with keyword pruning alone.
        Result<TopLResult> want = BruteForceTopL(g, q);
        ASSERT_TRUE(want.ok());
        ExpectIdentical(exhaustive->communities, want->communities, run.c_str());
        found += want->communities.size();
        Result<TopLResult> all = detector.Search(q, QueryOptions(), control);
        ASSERT_TRUE(all.ok());
        ExpectIdentical(all->communities, want->communities, run.c_str());
        if (!parallel) {
          EXPECT_EQ(all->stats.TotalPruned() + all->stats.candidates_refined, n)
              << run;
        }
        SearchControl progressive = control;
        std::uint64_t updates = 0;
        progressive.on_progress = [&updates](const ProgressiveUpdate&) {
          ++updates;
          return true;
        };
        Result<TopLResult> streamed = detector.Search(q, QueryOptions(), progressive);
        ASSERT_TRUE(streamed.ok());
        EXPECT_FALSE(streamed->truncated) << run;
        ExpectIdentical(streamed->communities, want->communities,
                        ("progressive " + run).c_str());
        EXPECT_GT(updates, 0u) << run;
        for (const QueryOptions& options : {QueryOptions(), keyword_only}) {
          ExpectDTopLMatchesOracle(g, dtopl, q, run, control, options);
          ExpectDTopLMatchesOracle(g, dtopl, q, "progressive " + run, progressive,
                                   options);
        }
      }
    }
  }
  EXPECT_GT(found, 0u);
}

TEST(RefineShortcutTest, ReusedDetectorMatchesFreshDetectorAcrossTheta) {
  // The memo is per query: scores memoized at one θ must not answer the same
  // seed sets at another. A leaked lower score would wrongly skip a repeat,
  // a leaked higher one would cost extra propagations, so both directions
  // are run and the sequential counters must match a fresh detector's too.
  for (const bool cliques : {true, false}) {
    const Graph g = cliques ? MakePlantedCliques() : MakeKeywordSparse(3);
    const BuiltIndex built = BuildIndexFor(g);
    const std::vector<KeywordId> keywords =
        cliques ? std::vector<KeywordId>{0, 1} : std::vector<KeywordId>{0, 1, 2, 3};
    TopLDetector reused(g, built.pre(), built.tree);
    DTopLDetector reused_dtopl(g, built.pre(), built.tree);
    for (const double theta : {0.1, 0.3, 0.1}) {
      const Query q = MakeQuery(keywords, 3, 2, theta, 3);
      Result<TopLResult> got = reused.Search(q);
      ASSERT_TRUE(got.ok());
      TopLDetector fresh(g, built.pre(), built.tree);
      Result<TopLResult> want = fresh.Search(q);
      ASSERT_TRUE(want.ok());
      ExpectIdentical(got->communities, want->communities, Label(q).c_str());
      EXPECT_EQ(got->stats.propagations, want->stats.propagations) << Label(q);

      Result<DTopLResult> got_d = reused_dtopl.Search(q);
      ASSERT_TRUE(got_d.ok());
      DTopLDetector fresh_dtopl(g, built.pre(), built.tree);
      Result<DTopLResult> want_d = fresh_dtopl.Search(q);
      ASSERT_TRUE(want_d.ok());
      ExpectIdentical(got_d->communities, want_d->communities,
                      ("dtopl " + Label(q)).c_str());
      EXPECT_EQ(got_d->diversity_score, want_d->diversity_score);
      EXPECT_EQ(got_d->candidate_stats.propagations,
                want_d->candidate_stats.propagations)
          << Label(q);
    }
  }
}

TEST(RefineShortcutTest, ParallelPathMatchesSequential) {
  ThreadPool pool(4);
  std::uint64_t parallel_chunks = 0;
  for (const bool cliques : {true, false}) {
    const Graph g = cliques ? MakePlantedCliques() : MakeKeywordSparse(4);
    const BuiltIndex built = BuildIndexFor(g);
    const std::vector<KeywordId> keywords =
        cliques ? std::vector<KeywordId>{0, 1} : std::vector<KeywordId>{0, 1, 2, 3};
    TopLDetector detector(g, built.pre(), built.tree);
    DTopLDetector dtopl(g, built.pre(), built.tree);
    for (std::uint32_t k = 2; k <= 5; ++k) {
      for (const double theta : {0.0, 0.1, 0.3}) {
        for (const std::uint32_t top_l : {1u, 3u}) {
          const Query q = MakeQuery(keywords, k, 2, theta, top_l);
          Result<TopLResult> sequential = detector.Search(q);
          ASSERT_TRUE(sequential.ok());
          Result<DTopLResult> sequential_d = dtopl.Search(q);
          ASSERT_TRUE(sequential_d.ok());
          for (const std::size_t chunk : {1u, 8u}) {
            SearchControl control;
            control.pool = &pool;
            control.chunk_size = chunk;
            const std::string label =
                Label(q) + " chunk=" + std::to_string(chunk);
            Result<TopLResult> parallel = detector.Search(q, QueryOptions(), control);
            ASSERT_TRUE(parallel.ok());
            ExpectIdentical(parallel->communities, sequential->communities,
                            label.c_str());
            EXPECT_LE(parallel->stats.propagations,
                      parallel->stats.communities_found);
            parallel_chunks += parallel->stats.parallel_chunks;

            Result<DTopLResult> parallel_d = dtopl.Search(q, DTopLOptions(), control);
            ASSERT_TRUE(parallel_d.ok());
            ExpectIdentical(parallel_d->communities, sequential_d->communities,
                            ("dtopl " + label).c_str());
            EXPECT_EQ(parallel_d->diversity_score, sequential_d->diversity_score);
          }
        }
      }
    }
  }
  EXPECT_GT(parallel_chunks, 0u);  // the sweep exercised the fan-out
}

}  // namespace
}  // namespace topl
