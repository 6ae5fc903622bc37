#ifndef TOPL_TESTS_TEST_UTIL_H_
#define TOPL_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "topl.h"

namespace topl {
namespace testing {

/// Builds a graph from an edge list with symmetric probability `prob` and no
/// keywords. Aborts the test on builder failure.
inline Graph MakeGraph(std::size_t n,
                       const std::vector<std::pair<VertexId, VertexId>>& edges,
                       double prob = 0.5) {
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.AddEdge(u, v, prob);
  Result<Graph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// Builds a graph where every vertex additionally gets the listed keywords.
inline Graph MakeKeywordGraph(
    std::size_t n, const std::vector<std::pair<VertexId, VertexId>>& edges,
    const std::vector<std::vector<KeywordId>>& keywords, double prob = 0.5) {
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.AddEdge(u, v, prob);
  for (VertexId v = 0; v < keywords.size(); ++v) {
    for (KeywordId w : keywords[v]) b.AddKeyword(v, w);
  }
  Result<Graph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// The complete graph K_n; every vertex carries keyword 0.
inline Graph MakeClique(std::size_t n, double prob = 0.5) {
  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) b.AddEdge(u, v, prob);
    b.AddKeyword(u, 0);
  }
  Result<Graph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// The largest arc probability of `g` (0 when it has no arcs): the p_max
/// below which PropagationEngine::ComputeScores keeps vertices off its heap.
inline double LargestArcProb(const Graph& g) {
  float p_max = 0.0f;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Graph::Arc& arc : g.Neighbors(v)) p_max = std::max(p_max, arc.prob);
  }
  return p_max;
}

/// A miniature of the paper's Fig. 1 scenario: a K4 "movies" core
/// {0, 1, 2, 3} (a 4-truss), a weaker triangle {4, 5, 6}, and a chain of
/// influenced users hanging off the core. Keyword ids: 0 = movies,
/// 1 = books, 2 = health.
inline Graph MakeFig1Like() {
  GraphBuilder b(11);
  const double strong = 0.8;
  const double weak = 0.5;
  // K4 core.
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v, strong);
  }
  // Side triangle (only a 3-truss).
  b.AddEdge(4, 5, weak);
  b.AddEdge(5, 6, weak);
  b.AddEdge(4, 6, weak);
  // Bridge core -> triangle and an influence chain 3 -> 7 -> 8 -> 9 -> 10.
  b.AddEdge(0, 4, weak);
  b.AddEdge(3, 7, strong);
  b.AddEdge(7, 8, strong);
  b.AddEdge(8, 9, strong);
  b.AddEdge(9, 10, strong);
  for (VertexId v = 0; v < 4; ++v) b.AddKeyword(v, 0);
  b.AddKeyword(0, 1);
  for (VertexId v = 4; v < 7; ++v) b.AddKeyword(v, 2);
  for (VertexId v = 7; v < 11; ++v) {
    b.AddKeyword(v, 0);
    b.AddKeyword(v, 1);
  }
  Result<Graph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// O(n·deg²) reference triangle count per edge (independent of the library's
/// intersection-based implementation).
inline std::vector<std::uint32_t> ReferenceSupports(const Graph& g) {
  std::vector<std::uint32_t> support(g.NumEdges(), 0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const VertexId u = g.EdgeSource(e);
    const VertexId v = g.EdgeTarget(e);
    for (const Graph::Arc& arc : g.Neighbors(u)) {
      if (arc.to != v && g.HasEdge(arc.to, v)) ++support[e];
    }
  }
  return support;
}

/// The query's keyword core by its definition: starting from the vertices
/// that hold a keyword of Q, drop every vertex with fewer than max(k, 2)−1
/// neighbours left, and repeat over the whole graph until nothing is dropped.
/// O(rounds · m); independent of KeywordMatch's one-pass peel.
inline std::vector<char> ReferenceKeywordCore(const Graph& g,
                                              const std::vector<KeywordId>& query,
                                              std::uint32_t k) {
  const std::uint32_t bound = std::max<std::uint32_t>(k, 2) - 1;
  std::vector<char> alive(g.NumVertices(), 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const KeywordId w : query) alive[v] |= g.HasKeyword(v, w) ? 1 : 0;
  }
  for (bool dropped = true; dropped;) {
    dropped = false;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (!alive[v]) continue;
      std::uint32_t degree = 0;
      for (const Graph::Arc& arc : g.Neighbors(v)) degree += alive[arc.to];
      if (degree < bound) {
        alive[v] = 0;
        dropped = true;
      }
    }
  }
  return alive;
}

/// Exhaustive upp(u, v) by enumerating every simple path (exponential; tiny
/// graphs only). Returns 0 when v is unreachable.
inline double ReferenceUpp(const Graph& g, VertexId source, VertexId target) {
  if (source == target) return 1.0;
  std::vector<char> on_path(g.NumVertices(), 0);
  double best = 0.0;
  auto dfs = [&](auto&& self, VertexId u, double prob) -> void {
    if (u == target) {
      best = std::max(best, prob);
      return;
    }
    on_path[u] = 1;
    for (const Graph::Arc& arc : g.Neighbors(u)) {
      if (!on_path[arc.to]) {
        self(self, arc.to, prob * static_cast<double>(arc.prob));
      }
    }
    on_path[u] = 0;
  };
  dfs(dfs, source, 1.0);
  return best;
}

/// Verifies every Definition 2 constraint of a seed community with
/// independent re-computation over the induced subgraph.
inline ::testing::AssertionResult VerifySeedCommunity(const Graph& g,
                                                      const Query& query,
                                                      const SeedCommunity& c) {
  if (c.empty()) return ::testing::AssertionFailure() << "community is empty";
  const std::set<VertexId> members(c.vertices.begin(), c.vertices.end());
  if (members.count(c.center) == 0) {
    return ::testing::AssertionFailure() << "center not a member";
  }
  if (members.size() != c.vertices.size()) {
    return ::testing::AssertionFailure() << "duplicate member vertices";
  }
  // Bullet 4: every member holds a query keyword.
  for (VertexId v : members) {
    if (!HopExtractor::HasAnyKeyword(g, v, query.keywords)) {
      return ::testing::AssertionFailure()
             << "vertex " << v << " has no query keyword";
    }
  }
  // Induced adjacency restricted to the community's *edge set* (the k-truss
  // structure), not all member-to-member edges of G.
  std::map<VertexId, std::vector<VertexId>> adj;
  std::set<std::pair<VertexId, VertexId>> edge_set;
  for (EdgeId e : c.edges) {
    const VertexId a = g.EdgeSource(e);
    const VertexId b = g.EdgeTarget(e);
    if (members.count(a) == 0 || members.count(b) == 0) {
      return ::testing::AssertionFailure()
             << "edge {" << a << "," << b << "} leaves the community";
    }
    adj[a].push_back(b);
    adj[b].push_back(a);
    edge_set.emplace(std::min(a, b), std::max(a, b));
  }
  // Bullet 3: k-truss — every community edge closes >= k-2 triangles whose
  // edges are community edges.
  for (const auto& [a, b] : edge_set) {
    std::uint32_t triangles = 0;
    for (VertexId w : adj[a]) {
      if (w == b) continue;
      const auto key = std::make_pair(std::min(w, b), std::max(w, b));
      if (edge_set.count(key) != 0) ++triangles;
    }
    if (query.k >= 2 && triangles < query.k - 2) {
      return ::testing::AssertionFailure()
             << "edge {" << a << "," << b << "} has support " << triangles
             << " < k-2=" << query.k - 2;
    }
  }
  // Bullets 1-2: connectivity and radius from the center, measured inside
  // the community.
  std::map<VertexId, std::uint32_t> dist;
  dist[c.center] = 0;
  std::vector<VertexId> frontier = {c.center};
  while (!frontier.empty()) {
    std::vector<VertexId> next;
    for (VertexId u : frontier) {
      for (VertexId w : adj[u]) {
        if (dist.count(w) == 0) {
          dist[w] = dist[u] + 1;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  for (VertexId v : members) {
    auto it = dist.find(v);
    if (it == dist.end()) {
      return ::testing::AssertionFailure()
             << "vertex " << v << " disconnected from center";
    }
    if (it->second > query.radius) {
      return ::testing::AssertionFailure()
             << "vertex " << v << " at distance " << it->second << " > r="
             << query.radius;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Score multiset of a result list (for index-vs-bruteforce equivalence; the
/// particular communities may differ under ties, the scores may not).
inline std::vector<double> Scores(const std::vector<CommunityResult>& results) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const CommunityResult& r : results) out.push_back(r.score());
  return out;
}

/// Byte-identical equality: same centers, same member lists, same influenced
/// vertices, bit-identical cpp values and scores, same order.
inline void ExpectIdentical(const std::vector<CommunityResult>& actual,
                            const std::vector<CommunityResult>& expected,
                            const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].community.center, expected[i].community.center)
        << label << " rank " << i;
    EXPECT_EQ(actual[i].community.vertices, expected[i].community.vertices)
        << label << " rank " << i;
    EXPECT_EQ(actual[i].community.edges, expected[i].community.edges)
        << label << " rank " << i;
    EXPECT_EQ(actual[i].influence.vertices, expected[i].influence.vertices)
        << label << " rank " << i;
    EXPECT_EQ(actual[i].influence.cpp, expected[i].influence.cpp)
        << label << " rank " << i;
    EXPECT_EQ(actual[i].score(), expected[i].score()) << label << " rank " << i;
  }
}

/// Builds precompute + tree index with the given options; aborts on failure.
/// PrecomputedData sits behind a unique_ptr so the TreeIndex's back-pointer
/// stays valid when BuiltIndex moves.
struct BuiltIndex {
  std::unique_ptr<PrecomputedData> data;
  TreeIndex tree;

  const PrecomputedData& pre() const { return *data; }
};

inline BuiltIndex BuildIndexFor(const Graph& g,
                                PrecomputeOptions pre_opts = PrecomputeOptions(),
                                TreeIndexOptions tree_opts = TreeIndexOptions()) {
  Result<PrecomputedData> pre = PrecomputedData::Build(g, pre_opts);
  EXPECT_TRUE(pre.ok()) << pre.status().ToString();
  BuiltIndex built;
  built.data = std::make_unique<PrecomputedData>(std::move(pre).value());
  Result<TreeIndex> tree = TreeIndex::Build(g, *built.data, tree_opts);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  built.tree = std::move(tree).value();
  return built;
}

}  // namespace testing
}  // namespace topl

#endif  // TOPL_TESTS_TEST_UTIL_H_
