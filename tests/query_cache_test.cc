// The result-cache contract: serving through the snapshot-epoch cache is
// invisible except in wall-clock. Cached answers must stay byte-identical to
// a cache-free engine across arbitrary query/update interleavings (a
// 20-graph sweep re-issues every previously-cached query after every
// ApplyUpdate), an update must only invalidate entries its dirty region can
// actually change (epoch bumps alone keep clean entries resident), keys must
// canonicalize keyword order/duplication, eviction must bound residency, and
// the single-flight path must coalesce concurrent identical queries — raced
// here against updates and eviction for TSan.

#include "cache/query_cache.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "topl.h"

namespace topl {
namespace {

using testing::BuildIndexFor;
using testing::BuiltIndex;
using testing::MakeClique;

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

std::vector<KeywordId> SampleQueryKeywords(const Graph& g, Rng& rng,
                                           std::uint32_t count) {
  std::vector<KeywordId> out;
  for (int attempt = 0; out.size() < count && attempt < 1000; ++attempt) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const auto kws = g.Keywords(v);
    if (kws.empty()) continue;
    const KeywordId w = kws[rng.NextBounded(kws.size())];
    if (std::find(out.begin(), out.end(), w) == out.end()) out.push_back(w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameCommunities(const std::vector<CommunityResult>& got,
                           const std::vector<CommunityResult>& want,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].community.center, want[i].community.center) << context;
    EXPECT_EQ(got[i].community.vertices, want[i].community.vertices) << context;
    EXPECT_EQ(got[i].community.edges, want[i].community.edges) << context;
    EXPECT_EQ(got[i].influence.vertices, want[i].influence.vertices) << context;
    EXPECT_EQ(got[i].influence.cpp, want[i].influence.cpp) << context;
    EXPECT_EQ(got[i].score(), want[i].score()) << context;
  }
}

// Issues `query` on both engines and requires field-identical answers.
void ExpectSameAnswer(Engine* cached, Engine* uncached, const Query& query,
                      bool diversified, const std::string& context) {
  if (diversified) {
    Result<DTopLResult> got = cached->SearchDiversified(query, DTopLOptions());
    Result<DTopLResult> want =
        uncached->SearchDiversified(query, DTopLOptions());
    ASSERT_EQ(got.ok(), want.ok()) << context;
    if (!got.ok()) return;
    ExpectSameCommunities(got->communities, want->communities, context);
    EXPECT_EQ(got->diversity_score, want->diversity_score) << context;
    EXPECT_EQ(got->truncated, want->truncated) << context;
    EXPECT_EQ(got->score_upper_bound, want->score_upper_bound) << context;
    return;
  }
  Result<TopLResult> got = cached->Search(query);
  Result<TopLResult> want = uncached->Search(query);
  ASSERT_EQ(got.ok(), want.ok()) << context;
  if (!got.ok()) return;
  ExpectSameCommunities(got->communities, want->communities, context);
  EXPECT_EQ(got->truncated, want->truncated) << context;
  EXPECT_EQ(got->score_upper_bound, want->score_upper_bound) << context;
}

// ---------------------------------------------------------------------------
// CacheKey canonicalization
// ---------------------------------------------------------------------------

TEST(CacheKeyTest, PermutedAndDuplicatedKeywordsShareOneKey) {
  const Query canonical = MakeQuery({1, 5, 9}, 4, 2, 0.2, 5);
  Query permuted = canonical;
  permuted.keywords = {9, 1, 5};
  Query duplicated = canonical;
  duplicated.keywords = {5, 9, 1, 5, 9, 9};

  const CacheKey base = CacheKey::ForTopL(canonical, QueryOptions());
  for (const Query& variant : {permuted, duplicated}) {
    const CacheKey key = CacheKey::ForTopL(variant, QueryOptions());
    EXPECT_EQ(key, base);
    EXPECT_EQ(key.Hash(), base.Hash());
    EXPECT_EQ(key.keywords, (std::vector<KeywordId>{1, 5, 9}));
  }

  const CacheKey d_base = CacheKey::ForDTopL(canonical, DTopLOptions());
  const CacheKey d_permuted = CacheKey::ForDTopL(permuted, DTopLOptions());
  EXPECT_EQ(d_permuted, d_base);
  EXPECT_EQ(d_permuted.Hash(), d_base.Hash());
  // TopL and DTopL keys of the same query never collide.
  EXPECT_NE(d_base, base);
}

TEST(CacheKeyTest, EveryQueryDimensionSeparatesKeys) {
  const Query base = MakeQuery({1, 5, 9}, 4, 2, 0.2, 5);

  std::vector<CacheKey> keys;
  keys.push_back(CacheKey::ForTopL(base, QueryOptions()));
  Query q = base;
  q.k = 5;
  keys.push_back(CacheKey::ForTopL(q, QueryOptions()));
  q = base;
  q.radius = 1;
  keys.push_back(CacheKey::ForTopL(q, QueryOptions()));
  q = base;
  q.theta = 0.3;
  keys.push_back(CacheKey::ForTopL(q, QueryOptions()));
  q = base;
  q.top_l = 3;
  keys.push_back(CacheKey::ForTopL(q, QueryOptions()));
  q = base;
  q.keywords = {1, 5};
  keys.push_back(CacheKey::ForTopL(q, QueryOptions()));
  // Pruning toggles select different executions; they key separately.
  QueryOptions options;
  options.use_score_pruning = false;
  keys.push_back(CacheKey::ForTopL(base, options));
  // DTopL dimensions.
  keys.push_back(CacheKey::ForDTopL(base, DTopLOptions()));
  DTopLOptions dtopl;
  dtopl.n_factor = 3;
  keys.push_back(CacheKey::ForDTopL(base, dtopl));
  dtopl = DTopLOptions();
  dtopl.algorithm = DTopLAlgorithm::kGreedyWithoutPruning;
  keys.push_back(CacheKey::ForDTopL(base, dtopl));
  dtopl = DTopLOptions();
  dtopl.max_optimal_subsets = 123;
  keys.push_back(CacheKey::ForDTopL(base, dtopl));

  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << "keys " << i << " and " << j << " collide";
    }
  }
}

// ---------------------------------------------------------------------------
// Cache-level unit tests (no engine)
// ---------------------------------------------------------------------------

struct CacheFixture {
  Graph graph = MakeClique(5, 0.8);
  std::unique_ptr<PrecomputedData> pre;

  CacheFixture() {
    PrecomputeOptions options;
    options.r_max = 2;
    Result<PrecomputedData> built = PrecomputedData::Build(graph, options);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    pre = std::make_unique<PrecomputedData>(std::move(built).value());
  }
};

TEST(QueryCacheTest, EpochBumpAloneKeepsCleanEntriesResident) {
  CacheFixture fx;
  QueryCache cache(QueryCache::Config{});
  const Query query = MakeQuery({0}, 3, 1, 0.2, 2);
  const CacheKey key = CacheKey::ForTopL(query, QueryOptions());

  QueryCache::LookupResult lookup = cache.Lookup(key);
  ASSERT_TRUE(lookup.leader);
  auto result = std::make_shared<TopLResult>();
  cache.FillTopL(key, lookup.flight, /*executed_epoch=*/0, result);
  EXPECT_EQ(cache.counters().entries, 1u);

  // An update whose dirty region is empty must not flush anything — the
  // epoch advances, the entry rebases in place.
  cache.OnUpdate({}, fx.graph, fx.graph, *fx.pre, /*new_epoch=*/1);
  EXPECT_EQ(cache.current_epoch(), 1u);
  EXPECT_EQ(cache.counters().entries, 1u);
  EXPECT_EQ(cache.counters().invalidated, 0u);
  EXPECT_TRUE(cache.Lookup(key).hit);

  // A fill whose execution started before the update is stale: published to
  // followers, never inserted.
  const Query other = MakeQuery({0}, 3, 1, 0.2, 3);
  const CacheKey other_key = CacheKey::ForTopL(other, QueryOptions());
  QueryCache::LookupResult stale = cache.Lookup(other_key);
  ASSERT_TRUE(stale.leader);
  cache.FillTopL(other_key, stale.flight, /*executed_epoch=*/0, result);
  EXPECT_EQ(cache.counters().entries, 1u);
  EXPECT_FALSE(cache.Lookup(other_key).hit);
}

TEST(QueryCacheTest, TruncatedResultsAreNeverInserted) {
  QueryCache cache(QueryCache::Config{});
  const Query query = MakeQuery({0}, 3, 1, 0.2, 2);
  const CacheKey key = CacheKey::ForTopL(query, QueryOptions());

  QueryCache::LookupResult lookup = cache.Lookup(key);
  ASSERT_TRUE(lookup.leader);
  auto truncated = std::make_shared<TopLResult>();
  truncated->truncated = true;
  cache.FillTopL(key, lookup.flight, /*executed_epoch=*/0, truncated);
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_FALSE(cache.Lookup(key).hit);
}

TEST(QueryCacheTest, SingleFlightCoalescesAndPropagatesFailure) {
  QueryCache cache(QueryCache::Config{});
  const Query query = MakeQuery({0}, 3, 1, 0.2, 2);
  const CacheKey key = CacheKey::ForTopL(query, QueryOptions());

  QueryCache::LookupResult leader = cache.Lookup(key);
  ASSERT_TRUE(leader.leader);

  // Concurrent identical lookups either join the flight (coalesced) or, if
  // they arrive after the fill, hit — never a second execution.
  std::atomic<int> answered{0};
  std::vector<std::thread> followers;
  for (int t = 0; t < 3; ++t) {
    followers.emplace_back([&] {
      QueryCache::LookupResult lookup = cache.Lookup(key);
      if (lookup.hit) {
        answered.fetch_add(1);
        return;
      }
      ASSERT_FALSE(lookup.leader);
      Result<QueryCache::CachedAnswer> shared = cache.Await(lookup.flight);
      ASSERT_TRUE(shared.ok());
      ASSERT_NE(shared->topl, nullptr);
      answered.fetch_add(1);
    });
  }
  auto result = std::make_shared<TopLResult>();
  cache.FillTopL(key, leader.flight, /*executed_epoch=*/0, result);
  for (std::thread& thread : followers) thread.join();
  EXPECT_EQ(answered.load(), 3);
  const QueryCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits + counters.coalesced, 3u);

  // A failed leader propagates its status; nothing is inserted.
  const Query failing = MakeQuery({7}, 3, 1, 0.2, 2);
  const CacheKey failing_key = CacheKey::ForTopL(failing, QueryOptions());
  QueryCache::LookupResult fail_leader = cache.Lookup(failing_key);
  ASSERT_TRUE(fail_leader.leader);
  // Abandon unregisters the flight, so a lookup after it would become a
  // fresh leader; hold the abandon until the follower has joined.
  std::atomic<bool> joined{false};
  std::thread follower([&] {
    QueryCache::LookupResult lookup = cache.Lookup(failing_key);
    joined.store(true);
    if (lookup.hit) {
      FAIL() << "abandoned flight must not produce a hit";
      return;
    }
    ASSERT_FALSE(lookup.leader);
    Result<QueryCache::CachedAnswer> shared = cache.Await(lookup.flight);
    EXPECT_FALSE(shared.ok());
  });
  while (!joined.load()) std::this_thread::yield();
  cache.Abandon(failing_key, fail_leader.flight,
                Status::InvalidArgument("boom"));
  follower.join();
  EXPECT_FALSE(cache.Lookup(failing_key).hit);
}

// ---------------------------------------------------------------------------
// Engine-level behavior
// ---------------------------------------------------------------------------

EngineOptions CachedEngineOptions(bool cached) {
  EngineOptions options;
  options.precompute.r_max = 2;
  options.num_threads = 2;
  options.enable_result_cache = cached;
  return options;
}

Graph CopyGraph(const Graph& g) {
  Result<Graph> copy = ApplyDelta(g, GraphDelta());
  EXPECT_TRUE(copy.ok()) << copy.status().ToString();
  return std::move(copy).value();
}

// Two disconnected cliques with disjoint keywords: an update inside one
// cluster must leave the other cluster's cached answers resident (exact
// invalidation, not epoch flushing), and an update inside the cached
// cluster must invalidate them.
TEST(QueryCacheEngineTest, UnrelatedUpdateKeepsCleanEntriesResident) {
  GraphBuilder b(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v, 0.8);
    b.AddKeyword(u, 1);
  }
  for (VertexId u = 5; u < 10; ++u) {
    for (VertexId v = u + 1; v < 10; ++v) b.AddEdge(u, v, 0.8);
    b.AddKeyword(u, 2);
  }
  Result<Graph> built = std::move(b).Build();
  ASSERT_TRUE(built.ok());
  const Graph base = CopyGraph(*built);

  Result<std::unique_ptr<Engine>> cached =
      Engine::FromGraph(std::move(built).value(), CachedEngineOptions(true));
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();

  const Query q_b = MakeQuery({2}, 4, 1, 0.2, 2);
  ASSERT_TRUE((*cached)->Search(q_b).ok());
  EngineStats stats = (*cached)->Stats();
  EXPECT_TRUE(stats.cache_enabled);
  EXPECT_EQ(stats.cache_misses, 1u);
  ASSERT_EQ(stats.cache_entries, 1u);

  // Update strictly inside cluster A (vertices 0-4): cluster B's entry is
  // outside the dirty region and no A-center can enter a keyword-2 answer.
  GraphDelta unrelated;
  unrelated.DeleteEdge(0, 1);
  ASSERT_TRUE((*cached)->ApplyUpdate(unrelated).ok());
  stats = (*cached)->Stats();
  EXPECT_EQ(stats.cache_invalidated, 0u);
  EXPECT_EQ(stats.cache_entries, 1u);

  // The surviving entry serves hits and still matches a cold engine over
  // the mutated graph.
  const std::uint64_t hits_before = stats.cache_hits;
  Result<Graph> mutated = ApplyDelta(base, unrelated);
  ASSERT_TRUE(mutated.ok());
  Result<std::unique_ptr<Engine>> cold =
      Engine::FromGraph(std::move(mutated).value(), CachedEngineOptions(false));
  ASSERT_TRUE(cold.ok());
  ExpectSameAnswer(cached->get(), cold->get(), q_b, /*diversified=*/false,
                   "clean entry after unrelated update");
  EXPECT_EQ((*cached)->Stats().cache_hits, hits_before + 1);

  // An update inside cluster B invalidates the entry.
  GraphDelta related;
  related.DeleteEdge(5, 6);
  ASSERT_TRUE((*cached)->ApplyUpdate(related).ok());
  stats = (*cached)->Stats();
  EXPECT_GE(stats.cache_invalidated, 1u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

// A keyword add that lets a new center into a cached answer. Clique A (0-4)
// holds keyword 1; clique B (5-9) holds keyword 1 on 5-8 only, so at k = 5
// only A has a community and the cached answer is A's. B also influences
// two followers (10, 11, keyword 3), so once adding keyword 1 to vertex 9
// completes B's 5-truss of keyword holders, B's community outscores A's and
// takes the answer. No precomputed row
// reads keywords, but DirtyCenters still expands the keyword epicenter by
// r_max hops: those centers are the newcomers the cache's admission check
// must see, since none of them is in the entry's dependence set.
TEST(QueryCacheEngineTest, KeywordAddLetsANewCenterIntoACachedAnswer) {
  GraphBuilder b(12);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v, 0.5);
    b.AddKeyword(u, 1);
  }
  for (VertexId u = 5; u < 10; ++u) {
    for (VertexId v = u + 1; v < 10; ++v) b.AddEdge(u, v, 0.9);
    b.AddKeyword(u, u < 9 ? 1 : 2);
  }
  for (VertexId follower = 10; follower < 12; ++follower) {
    b.AddEdge(5, follower, 0.9);
    b.AddKeyword(follower, 3);
  }
  Result<Graph> built = std::move(b).Build();
  ASSERT_TRUE(built.ok());
  const Graph base = CopyGraph(*built);
  const EngineOptions options = CachedEngineOptions(true);
  Result<std::unique_ptr<Engine>> cached =
      Engine::FromGraph(std::move(built).value(), options);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();

  const Query q = MakeQuery({1}, 5, 1, 0.2, 1);
  Result<TopLResult> before = (*cached)->Search(q);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->communities.size(), 1u);
  EXPECT_EQ(before->communities[0].community.center, 0u);
  ASSERT_EQ((*cached)->Stats().cache_entries, 1u);

  GraphDelta delta;
  delta.AddKeyword(9, 1);
  Result<Graph> mutated = ApplyDelta(base, delta);
  ASSERT_TRUE(mutated.ok());
  EXPECT_EQ(IndexUpdater::DirtyCenters(base, *mutated, delta,
                                       options.precompute.r_max,
                                       options.precompute.thetas.front()),
            (std::vector<VertexId>{5, 6, 7, 8, 9, 10, 11}));

  ASSERT_TRUE((*cached)->ApplyUpdate(delta).ok());
  EngineStats stats = (*cached)->Stats();
  EXPECT_EQ(stats.cache_invalidated, 1u);
  EXPECT_EQ(stats.cache_entries, 0u);

  // The engine's answer is a fresh detector's over the mutated graph, and
  // B's community has entered it.
  const BuiltIndex fresh_index = BuildIndexFor(*mutated, options.precompute);
  TopLDetector fresh(*mutated, fresh_index.pre(), fresh_index.tree);
  Result<TopLResult> want = fresh.Search(q);
  ASSERT_TRUE(want.ok());
  Result<TopLResult> got = (*cached)->Search(q);
  ASSERT_TRUE(got.ok());
  ExpectSameCommunities(got->communities, want->communities,
                        "after keyword add");
  ASSERT_EQ(got->communities.size(), 1u);
  EXPECT_EQ(got->communities[0].community.center, 5u);
}

// The invalidation-exactness sweep: random graphs, random query pools,
// random update streams. After every ApplyUpdate, every previously-cached
// query is re-issued on the cached engine and compared field-by-field
// against an engine that never caches — fills, repeat hits, and
// invalidation survivors all have to be byte-identical.
TEST(QueryCacheEngineTest, SweepCachedAnswersMatchUncachedAcrossUpdates) {
  for (std::uint64_t graph_seed = 0; graph_seed < 20; ++graph_seed) {
    ErdosRenyiOptions gen;
    gen.num_vertices = 70;
    gen.edge_prob = 0.09;
    gen.seed = 1000 + graph_seed;
    gen.keywords.domain_size = 12;
    Result<Graph> graph = MakeErdosRenyi(gen);
    ASSERT_TRUE(graph.ok());
    Graph mirror = CopyGraph(*graph);

    Result<std::unique_ptr<Engine>> cached =
        Engine::FromGraph(CopyGraph(*graph), CachedEngineOptions(true));
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    Result<std::unique_ptr<Engine>> uncached =
        Engine::FromGraph(std::move(graph).value(), CachedEngineOptions(false));
    ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();

    Rng rng(2000 + graph_seed);
    std::vector<std::pair<Query, bool>> pool;
    for (int qi = 0; qi < 5; ++qi) {
      Query q;
      q.keywords = SampleQueryKeywords(mirror, rng, 2);
      if (q.keywords.empty()) continue;
      q.k = 3 + static_cast<std::uint32_t>(rng.NextBounded(2));
      q.radius = 1 + static_cast<std::uint32_t>(rng.NextBounded(2));
      q.theta = qi % 2 == 0 ? 0.2 : 0.1;
      q.top_l = 3;
      pool.emplace_back(std::move(q), qi % 3 == 2);
    }
    ASSERT_FALSE(pool.empty());

    RandomDeltaOptions delta_options;
    delta_options.num_ops = 5;
    delta_options.keyword_domain = 12;
    for (int round = 0; round < 3; ++round) {
      const std::string context = "graph " + std::to_string(graph_seed) +
                                  " round " + std::to_string(round);
      for (const auto& [query, diversified] : pool) {
        ExpectSameAnswer(cached->get(), uncached->get(), query, diversified,
                         context);
      }
      const GraphDelta delta =
          MakeRandomDelta(*(*cached)->snapshot()->graph, rng, delta_options);
      if (delta.empty()) continue;
      ASSERT_TRUE((*cached)->ApplyUpdate(delta).ok());
      ASSERT_TRUE((*uncached)->ApplyUpdate(delta).ok());
      for (const auto& [query, diversified] : pool) {
        ExpectSameAnswer(cached->get(), uncached->get(), query, diversified,
                         context + " post-update");
      }
    }
    // The cache must have actually served traffic in this sweep — every
    // repeat of a resident key is a hit.
    EXPECT_GT((*cached)->Stats().cache_hits, 0u) << "graph " << graph_seed;
  }
}

TEST(QueryCacheEngineTest, EvictionBoundsResidency) {
  ErdosRenyiOptions gen;
  gen.num_vertices = 80;
  gen.edge_prob = 0.08;
  gen.seed = 77;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());
  const Graph base = CopyGraph(*graph);

  EngineOptions options = CachedEngineOptions(true);
  options.cache_max_bytes = 2048;  // a few hundred answers will not fit
  Result<std::unique_ptr<Engine>> engine =
      Engine::FromGraph(std::move(graph).value(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Rng rng(5);
  for (int i = 0; i < 48; ++i) {
    Query q;
    q.keywords = SampleQueryKeywords(base, rng, 2);
    ASSERT_FALSE(q.keywords.empty());
    q.k = 3 + static_cast<std::uint32_t>(i % 2);
    q.radius = 1 + static_cast<std::uint32_t>(i % 2);
    q.theta = 0.2;
    q.top_l = 1 + static_cast<std::uint32_t>(i % 6);
    ASSERT_TRUE((*engine)->Search(q).ok());
  }
  const EngineStats stats = (*engine)->Stats();
  EXPECT_GT(stats.cache_evicted, 0u);
  // Each of the 16 shards keeps at most one over-budget entry alive.
  EXPECT_LE(stats.cache_entries, 16u);
  EXPECT_GT(stats.cache_bytes, 0u);
  EXPECT_NE(stats.ToString().find("cache{"), std::string::npos);
}

// TSan coverage: concurrent identical + distinct queries (single-flight
// leaders, followers, and hits), a live ApplyUpdate stream (invalidation +
// epoch rebasing), and a tiny byte budget (eviction) all racing.
TEST(QueryCacheEngineTest, ConcurrentSearchUpdateEvictionIsRaceFree) {
  ErdosRenyiOptions gen;
  gen.num_vertices = 60;
  gen.edge_prob = 0.1;
  gen.seed = 33;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());
  const Graph base = CopyGraph(*graph);

  EngineOptions options = CachedEngineOptions(true);
  options.cache_max_bytes = 8192;
  Result<std::unique_ptr<Engine>> engine =
      Engine::FromGraph(std::move(graph).value(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Rng pool_rng(9);
  std::vector<Query> pool;
  for (int qi = 0; qi < 6; ++qi) {
    Query q;
    q.keywords = SampleQueryKeywords(base, pool_rng, 2);
    if (q.keywords.empty()) continue;
    q.k = 3;
    q.radius = 1 + static_cast<std::uint32_t>(qi % 2);
    q.theta = 0.2;
    q.top_l = 2 + static_cast<std::uint32_t>(qi % 3);
    pool.push_back(std::move(q));
  }
  ASSERT_FALSE(pool.empty());

  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 40; ++i) {
        const Query& q = pool[rng.NextBounded(pool.size())];
        if (i % 5 == 4) {
          if (!(*engine)->SearchDiversified(q, DTopLOptions()).ok()) {
            failures.fetch_add(1);
          }
        } else if (!(*engine)->Search(q).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread updater([&] {
    Rng rng(7);
    RandomDeltaOptions delta_options;
    delta_options.num_ops = 3;
    delta_options.keyword_domain = 12;
    for (int u = 0; u < 6; ++u) {
      const GraphDelta delta =
          MakeRandomDelta(*(*engine)->snapshot()->graph, rng, delta_options);
      if (delta.empty()) continue;
      if (!(*engine)->ApplyUpdate(delta).ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& worker : workers) worker.join();
  updater.join();

  EXPECT_EQ(failures.load(), 0u);
  const EngineStats stats = (*engine)->Stats();
  // Every lookup resolved exactly one way; the counters must account for
  // all of them.
  EXPECT_GT(stats.cache_hits + stats.cache_misses + stats.cache_coalesced, 0u);
  EXPECT_GE(stats.cache_misses, 1u);
}

}  // namespace
}  // namespace topl
