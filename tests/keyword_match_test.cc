// The per-query keyword core (KeywordMatch) against the tests it stands in
// for on the detector's hot path:
//  - Holds(v) equals HopExtractor::HasAnyKeyword(g, v, Q) for every vertex,
//    across word boundaries, keyword-less vertices, query keywords beyond
//    the graph's keyword domain or held by no vertex, and keyword ids up to
//    kMaxKeywordId;
//  - Contains(v) equals a brute-force (max(k, 2)−1)-core of G[Q] at every
//    k ∈ {2, …, 6}, including cascades, a clique that survives whole, a
//    keyword that no vertex holds and the empty core;
//  - the posting lists the core is filled from hold exactly the vertices of
//    each keyword, ascending, and the core agrees with the brute force,
//    wherever the Graph comes from: GraphBuilder, a mapped artifact (raw and
//    compressed), an ApplyDelta stream that adds and removes keywords and
//    deletes edges, and a moved Graph;
//  - the core-filtered ball BFS builds the same LocalGraph as the
//    keyword-list-filtered BFS over the same graph with every keyword of
//    the vertices outside the core removed, for every center and radius;
//  - a detector reused across queries with disjoint keywords answers like a
//    fresh detector and like brute force, sequentially and in parallel, so no
//    bit of an earlier query leaks into a later one.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/brute_force.h"
#include "core/dtopl_detector.h"
#include "core/seed_community.h"
#include "core/topl_detector.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "graph/local_subgraph.h"
#include "gtest/gtest.h"
#include "storage/artifact.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::BuildIndexFor;
using testing::BuiltIndex;
using testing::ExpectIdentical;
using testing::ReferenceKeywordCore;

// A ring of n vertices. Every fifth vertex carries no keyword; the others
// carry one to three keywords of a 12-keyword domain.
Graph MakeRing(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; n > 1 && v < n; ++v) {
    b.AddEdge(v, static_cast<VertexId>((v + 1) % n), 0.5);
  }
  for (VertexId v = 0; v < n; ++v) {
    if (v % 5 == 0) continue;
    for (std::uint32_t i = 0; i <= v % 3; ++i) {
      b.AddKeyword(v, static_cast<KeywordId>((v * 7 + i * 5) % 12));
    }
  }
  Result<Graph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

Graph MakeSmallWorldGraph(std::uint64_t seed, std::uint32_t domain,
                          std::uint32_t keywords_per_vertex) {
  SmallWorldOptions gen;
  gen.num_vertices = 200;
  gen.ring_neighbors = 10;
  gen.seed = seed;
  gen.keywords.domain_size = domain;
  gen.keywords.keywords_per_vertex = keywords_per_vertex;
  Result<Graph> g = MakeSmallWorld(gen);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

Query MakeQuery(std::vector<KeywordId> keywords, std::uint32_t k,
                std::uint32_t radius, std::uint32_t top_l) {
  Query q;
  q.keywords = std::move(keywords);
  q.k = k;
  q.radius = radius;
  q.theta = 0.1;
  q.top_l = top_l;
  return q;
}

void ExpectSameBall(const LocalGraph& got, const LocalGraph& want,
                    const std::string& label) {
  EXPECT_EQ(got.center, want.center) << label;
  EXPECT_EQ(got.global_ids, want.global_ids) << label;
  EXPECT_EQ(got.dist, want.dist) << label;
  EXPECT_EQ(got.offsets, want.offsets) << label;
  ASSERT_EQ(got.arcs.size(), want.arcs.size()) << label;
  for (std::size_t i = 0; i < got.arcs.size(); ++i) {
    EXPECT_EQ(got.arcs[i].to, want.arcs[i].to) << label << " arc " << i;
    EXPECT_EQ(got.arcs[i].local_edge, want.arcs[i].local_edge)
        << label << " arc " << i;
  }
  EXPECT_EQ(got.edge_endpoints, want.edge_endpoints) << label;
  EXPECT_EQ(got.edge_radius, want.edge_radius) << label;
  EXPECT_EQ(got.global_edge_ids, want.global_edge_ids) << label;
}

TEST(KeywordMatchTest, MembershipEqualsHasAnyKeywordForEveryVertex) {
  // One instance reused across every graph and query: refilling must
  // overwrite every word, whether the graph grew or shrank.
  KeywordMatch match;
  std::uint64_t matched = 0;
  for (const std::size_t n : {1000u, 1u, 63u, 64u, 65u, 1000u}) {
    const Graph g = MakeRing(n);
    const KeywordId domain = g.KeywordDomainBound();
    const std::vector<std::vector<KeywordId>> queries = {
        {0},       {1, 3},          {2, 5, 11}, {11},
        {4, 40},   {domain},        {domain + 1, domain + 100},
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
    };
    for (const std::vector<KeywordId>& q : queries) {
      match.Fill(g, q, 2);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        const bool want = HopExtractor::HasAnyKeyword(g, v, q);
        ASSERT_EQ(match.Holds(v), want)
            << "n=" << n << " query[0]=" << q[0] << " vertex " << v;
        matched += want;
      }
    }
  }
  EXPECT_GT(matched, 0u);

  // A graph without any keyword: the domain is empty and nothing matches.
  const Graph bare = testing::MakeGraph(65, {{0, 1}, {1, 64}});
  ASSERT_EQ(bare.KeywordDomainBound(), 0u);
  match.Fill(bare, std::vector<KeywordId>{0, 3}, 2);
  for (VertexId v = 0; v < bare.NumVertices(); ++v) {
    EXPECT_FALSE(match.Holds(v)) << "vertex " << v;
    EXPECT_FALSE(match.Contains(v)) << "vertex " << v;
  }
}

TEST(KeywordMatchTest, MembershipWithKeywordIdsUpToTheLargest) {
  // Ids on both sides of a bitmap word boundary, of 2^16, and at the top of
  // the id range. The posting lists are keyed by the ids in use, so memory
  // follows the number of distinct ids, not their values.
  const std::vector<KeywordId> ids = {
      0, 63, 64, 65535, 65536, 65537, KeywordId{1} << 31, kMaxKeywordId};
  GraphBuilder b(70);
  for (VertexId v = 0; v + 1 < 70; ++v) b.AddEdge(v, v + 1, 0.5);
  for (VertexId v = 0; v < 70; ++v) {
    if (v % 5 == 0) continue;
    b.AddKeyword(v, ids[v % ids.size()]);
    b.AddKeyword(v, ids[(v * 3 + 1) % ids.size()]);
  }
  Result<Graph> built = std::move(b).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Graph& g = *built;
  ASSERT_EQ(g.KeywordDomainBound(), kMaxKeywordId + 1);

  std::vector<std::vector<KeywordId>> queries = {
      ids,
      {65535, 65536},
      {0, kMaxKeywordId},
      {65536, KeywordId{1} << 31},
      {kMaxKeywordId + 1},
      {1, 66000, KeywordId{1} << 30},
  };
  for (const KeywordId w : ids) queries.push_back({w});
  KeywordMatch match;
  std::uint64_t matched = 0;
  for (const std::vector<KeywordId>& q : queries) {
    match.Fill(g, q, 2);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const bool want = HopExtractor::HasAnyKeyword(g, v, q);
      ASSERT_EQ(match.Holds(v), want)
          << "|Q|=" << q.size() << " Q[0]=" << q[0] << " vertex " << v;
      matched += want;
    }
  }
  EXPECT_GT(matched, 0u);
}

TEST(KeywordMatchTest, CoreEqualsTheReferencePeel) {
  // Ids straddle bitmap words, so the peel's ranks cross word boundaries.
  // Keyword 1 is the query keyword; keyword 9 is held by no vertex.
  constexpr std::size_t kN = 140;
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::vector<std::vector<KeywordId>> keywords(kN);
  const auto hold = [&](std::initializer_list<VertexId> vs) {
    for (const VertexId v : vs) keywords[v] = {1};
  };
  // K5 on {60, …, 64} with a pendant 65: every member keeps 4 neighbours.
  for (VertexId u = 60; u < 65; ++u) {
    for (VertexId v = u + 1; v < 65; ++v) edges.emplace_back(u, v);
  }
  edges.emplace_back(64, 65);
  hold({60, 61, 62, 63, 64, 65});
  // A triangle {100, 101, 102} with two tails, which bound 2 unravels from
  // their loose ends up to the triangle. The ids of 102-5-130-7 jump back
  // and forth, so a removal reaches members the forward pass has not counted
  // yet, and 5 leaves after it passed its count. 101-31-32-33-34-135 is
  // counted from the triangle outward: every member passes its count until
  // 135, and only cascaded removals, which read adjacency again, take the
  // rest apart. The keyword-less hub 0 touches the first tail and never
  // counts.
  edges.insert(edges.end(), {{100, 101}, {100, 102}, {101, 102}, {5, 102},
                             {5, 130}, {7, 130}, {0, 5}, {0, 7}, {0, 130},
                             {31, 101}, {31, 32}, {32, 33}, {33, 34}, {34, 135}});
  hold({100, 101, 102, 5, 130, 7, 31, 32, 33, 34, 135});
  // K4 on {20, 21, 22, 23}, where 23 holds only an unqueried keyword: G[Q]
  // keeps a triangle of it.
  for (VertexId u = 20; u < 24; ++u) {
    for (VertexId v = u + 1; v < 24; ++v) edges.emplace_back(u, v);
  }
  hold({20, 21, 22});
  keywords[23] = {2};
  // A keyword holder with no keyword neighbour.
  edges.emplace_back(120, 121);
  hold({120});
  const Graph g = testing::MakeKeywordGraph(kN, edges, keywords);

  KeywordMatch match;
  const auto core_of = [&](const std::vector<KeywordId>& q, std::uint32_t k) {
    match.Fill(g, q, k);
    EXPECT_EQ(match.degree_bound(), std::max<std::uint32_t>(k, 2) - 1);
    const std::vector<char> want = ReferenceKeywordCore(g, q, k);
    std::vector<VertexId> members;
    for (VertexId v = 0; v < kN; ++v) {
      EXPECT_EQ(match.Contains(v), want[v] != 0) << "k=" << k << " vertex " << v;
      if (match.Contains(v)) {
        EXPECT_TRUE(match.Holds(v)) << "k=" << k << " vertex " << v;
        members.push_back(v);
      }
    }
    std::vector<VertexId> listed;
    match.ForEachInCore([&](VertexId v) { listed.push_back(v); });
    EXPECT_EQ(listed, members) << "k=" << k;
    return members;
  };
  using Members = std::vector<VertexId>;
  for (const std::vector<KeywordId>& q : {std::vector<KeywordId>{1},
                                          std::vector<KeywordId>{1, 9}}) {
    // Bound 1: every holder with a holder neighbour, the tail included.
    EXPECT_EQ(core_of(q, 2), (Members{5, 7, 20, 21, 22, 31, 32, 33, 34, 60, 61,
                                      62, 63, 64, 65, 100, 101, 102, 130, 135}));
    // Bound 2: the peel eats both tails; the pendant goes.
    EXPECT_EQ(core_of(q, 3),
              (Members{20, 21, 22, 60, 61, 62, 63, 64, 100, 101, 102}));
    // Bounds 3 and 4: only the K5 survives, whole.
    EXPECT_EQ(core_of(q, 4), (Members{60, 61, 62, 63, 64}));
    EXPECT_EQ(core_of(q, 5), (Members{60, 61, 62, 63, 64}));
    // Bound 5: the empty core.
    EXPECT_EQ(core_of(q, 6), Members{});
  }
  // A query keyword that no vertex holds fills nothing.
  for (std::uint32_t k = 2; k <= 6; ++k) {
    EXPECT_EQ(core_of({9}, k), Members{}) << "k=" << k;
  }
  // A refill at a lower k after a higher one starts from scratch.
  EXPECT_EQ(core_of({1}, 2).size(), 20u);
}

// Vertices carry even keyword ids below 40 only (every sixth carries none),
// so each odd id below 40 is a query keyword that no vertex holds.
Graph MakeEvenKeywordGraph() {
  constexpr std::size_t kN = 300;
  GraphBuilder b(kN);
  for (VertexId v = 0; v < kN; ++v) {
    b.AddEdge(v, static_cast<VertexId>((v + 1) % kN), 0.5);
    b.AddEdge(v, static_cast<VertexId>((v + 7) % kN), 0.4);
  }
  for (VertexId v = 0; v < kN; ++v) {
    if (v % 6 == 0) continue;
    for (std::uint32_t i = 0; i <= v % 3; ++i) {
      b.AddKeyword(v, static_cast<KeywordId>(2 * ((v * 5 + i * 3) % 20)));
    }
  }
  Result<Graph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// Every posting list of g equals the vertices holding its keyword, and a
// KeywordMatch filled from them agrees with HasAnyKeyword (Holds) and with
// the brute-force core at k = 2..6 (Contains) on every vertex. Returns the
// number of (query, k, vertex) core members.
std::uint64_t ExpectPostingsAndMatchAgree(const Graph& g,
                                          const std::string& label) {
  std::vector<std::vector<KeywordId>> queries = {
      {0}, {1}, {2, 3}, {1, 3, 5, 39}, {38, 40}, {41}, {kMaxKeywordId},
      {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38}};
  for (KeywordId w = 0; w < 42; ++w) queries.push_back({w});
  KeywordMatch match;
  std::uint64_t matched = 0;
  for (const std::vector<KeywordId>& q : queries) {
    for (const KeywordId w : q) {
      std::vector<VertexId> holders;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.HasKeyword(v, w)) holders.push_back(v);
      }
      const std::span<const VertexId> postings = g.Postings(w);
      EXPECT_EQ(std::vector<VertexId>(postings.begin(), postings.end()), holders)
          << label << " keyword " << w;
    }
    for (std::uint32_t k = 2; k <= 6; ++k) {
      match.Fill(g, q, k);
      const std::vector<char> core = ReferenceKeywordCore(g, q, k);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(match.Holds(v), HopExtractor::HasAnyKeyword(g, v, q))
            << label << " Q[0]=" << q[0] << " |Q|=" << q.size() << " vertex " << v;
        EXPECT_EQ(match.Contains(v), core[v] != 0)
            << label << " Q[0]=" << q[0] << " |Q|=" << q.size() << " k=" << k
            << " vertex " << v;
        matched += core[v];
      }
    }
  }
  return matched;
}

TEST(KeywordMatchTest, PostingsAgreeWhereverTheGraphComesFrom) {
  const Graph built = MakeEvenKeywordGraph();
  ASSERT_TRUE(built.Postings(1).empty());  // held by no vertex
  EXPECT_GT(ExpectPostingsAndMatchAgree(built, "builder"), 0u);

  // Mapped artifacts, raw and compressed: the postings are derived at open.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("topl_keyword_match_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    const BuiltIndex index = BuildIndexFor(built);
    for (const bool compress : {false, true}) {
      const std::string path =
          (dir / (compress ? "compressed.idx" : "raw.idx")).string();
      ArtifactWriteOptions options;
      options.compress = compress;
      ASSERT_TRUE(
          ArtifactWriter::Write(built, index.pre(), index.tree, path, options).ok());
      Result<MappedIndex> mapped = ArtifactReader::Open(path);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      ASSERT_EQ(mapped->compressed, compress);
      EXPECT_GT(ExpectPostingsAndMatchAgree(
                    mapped->graph, compress ? "compressed artifact" : "raw artifact"),
                0u);
    }
  }
  std::filesystem::remove_all(dir);

  // An update stream: each delta adds keywords (among them ids no vertex
  // held, one past the old domain bound), removes keywords, and deletes
  // edges. Every snapshot builds a fresh Graph, so each one is checked.
  Graph current = MakeEvenKeywordGraph();
  for (VertexId round = 0; round < 3; ++round) {
    GraphDelta delta;
    const VertexId base = 10 + 40 * round;
    delta.AddKeyword(base, 1);       // odd: newly held
    delta.AddKeyword(base + 1, 41);  // past the old bound
    delta.AddKeyword(30 + 42 * round, 2 * round + 3);  // a keyword-less vertex
    for (VertexId v = base + 2; v < base + 5; ++v) {
      for (const KeywordId w : current.Keywords(v)) delta.RemoveKeyword(v, w);
    }
    delta.DeleteEdge(base + 7, base + 8);
    delta.DeleteEdge(base + 9, base + 16);
    Result<Graph> next = ApplyDelta(current, delta);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    current = std::move(next).value();
    ASSERT_FALSE(current.Postings(1).empty());
    EXPECT_GT(ExpectPostingsAndMatchAgree(
                  current, "delta round " + std::to_string(round)),
              0u);
  }

  // Moving a Graph keeps its postings valid, by construction and by
  // assignment over a graph that had its own.
  Graph moved(std::move(current));
  EXPECT_GT(ExpectPostingsAndMatchAgree(moved, "move-constructed"), 0u);
  Graph assigned = MakeRing(64);
  assigned = std::move(moved);
  EXPECT_GT(ExpectPostingsAndMatchAgree(assigned, "move-assigned"), 0u);
}

TEST(KeywordMatchTest, MatchingExtractionWalksTheKeywordCore) {
  const Graph g = MakeSmallWorldGraph(5, 12, 2);
  HopExtractor by_bitmap(g);
  SeedCommunityExtractor incremental(g);
  SeedCommunityExtractor reference(g);
  KeywordMatch match;
  std::uint64_t balls = 0;
  std::uint64_t trimmed = 0;  // balls the core made smaller
  for (const std::vector<KeywordId>& keywords :
       {std::vector<KeywordId>{0}, std::vector<KeywordId>{1, 4, 7},
        std::vector<KeywordId>{2, 3, 5, 6, 8, 9, 10, 11}}) {
    for (std::uint32_t k = 2; k <= 4; ++k) {
      match.Fill(g, keywords, k);
      // The same graph with every keyword of the vertices outside the core
      // removed: same adjacency and edge ids, and its query-keyword holders
      // are exactly the core.
      const std::vector<char> core = ReferenceKeywordCore(g, keywords, k);
      GraphDelta strip;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (core[v]) continue;
        for (const KeywordId w : g.Keywords(v)) strip.RemoveKeyword(v, w);
      }
      Result<Graph> stripped = ApplyDelta(g, strip);
      ASSERT_TRUE(stripped.ok()) << stripped.status().ToString();
      HopExtractor by_list(*stripped);
      HopExtractor unstripped(g);
      for (std::uint32_t r = 1; r <= 3; ++r) {
        const Query q = MakeQuery(keywords, k, r, 1);
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          const std::string label = "|Q|=" + std::to_string(keywords.size()) +
                                    " k=" + std::to_string(k) +
                                    " r=" + std::to_string(r) + " center " +
                                    std::to_string(v);
          LocalGraph got;
          LocalGraph want;
          const bool got_ok = by_bitmap.ExtractMatching(v, r, match, &got);
          const bool want_ok = by_list.Extract(v, r, keywords, &want);
          ASSERT_EQ(got_ok, want_ok) << label;
          ExpectSameBall(got, want, label);
          balls += got_ok;
          LocalGraph whole;
          if (unstripped.Extract(v, r, keywords, &whole)) {
            trimmed += whole.NumVertices() > got.NumVertices();
          }

          // The seed community built on the core equals the reference
          // pipeline's, which tests keyword lists over the whole ball.
          SeedCommunity got_c;
          SeedCommunity want_c;
          const bool got_c_ok = incremental.Extract(
              v, q, SeedCommunityExtractor::Mode::kIncremental, &got_c, &match);
          const bool want_c_ok = reference.Extract(
              v, q, SeedCommunityExtractor::Mode::kReference, &want_c);
          ASSERT_EQ(got_c_ok, want_c_ok) << label;
          EXPECT_EQ(got_c.vertices, want_c.vertices) << label;
          EXPECT_EQ(got_c.edges, want_c.edges) << label;
        }
      }
    }
  }
  EXPECT_GT(balls, 0u);
  EXPECT_GT(trimmed, 0u);
}

TEST(KeywordMatchTest, ReusedDetectorAcrossDisjointQueriesMatchesFresh) {
  // Q1 and Q2 share no keyword, so a bit left over from the previous query
  // would admit a wrong center or ball vertex. The keyword beyond the domain
  // matches nothing, so its query is answered empty — possibly without ever
  // reaching a leaf, which leaves the bitmap unfilled in between.
  const Graph g = MakeSmallWorldGraph(3, 8, 1);
  const BuiltIndex built = BuildIndexFor(g);
  const std::vector<KeywordId> q1 = {0, 1, 2, 3};
  const std::vector<KeywordId> q2 = {4, 5, 6, 7};
  const std::vector<KeywordId> none = {1000};
  ThreadPool pool(4);
  std::uint64_t found = 0;
  for (const std::uint32_t chunk : {0u, 1u, 8u}) {  // 0: sequential
    SearchControl control;
    control.pool = chunk == 0 ? nullptr : &pool;
    control.chunk_size = chunk;
    TopLDetector reused(g, built.pre(), built.tree);
    DTopLDetector reused_dtopl(g, built.pre(), built.tree);
    for (const std::vector<KeywordId>* keywords : {&q1, &q2, &none, &q1, &q2}) {
      for (std::uint32_t k = 3; k <= 4; ++k) {
        for (std::uint32_t r = 1; r <= 2; ++r) {
          const Query q = MakeQuery(*keywords, k, r, 3);
          const std::string label =
              "chunk=" + std::to_string(chunk) + " Q[0]=" +
              std::to_string((*keywords)[0]) + " k=" + std::to_string(k) +
              " r=" + std::to_string(r);
          Result<TopLResult> got = reused.Search(q, {}, control);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          TopLDetector fresh(g, built.pre(), built.tree);
          Result<TopLResult> want = fresh.Search(q, {}, control);
          ASSERT_TRUE(want.ok());
          ExpectIdentical(got->communities, want->communities, label.c_str());
          Result<TopLResult> oracle = BruteForceTopL(g, q);
          ASSERT_TRUE(oracle.ok());
          ExpectIdentical(got->communities, oracle->communities, label.c_str());
          found += got->communities.size();

          Result<DTopLResult> got_d = reused_dtopl.Search(q, {}, control);
          ASSERT_TRUE(got_d.ok());
          DTopLDetector fresh_dtopl(g, built.pre(), built.tree);
          Result<DTopLResult> want_d = fresh_dtopl.Search(q, {}, control);
          ASSERT_TRUE(want_d.ok());
          ExpectIdentical(got_d->communities, want_d->communities,
                          ("dtopl " + label).c_str());
        }
      }
    }
  }
  EXPECT_GT(found, 0u);
}

}  // namespace
}  // namespace topl
