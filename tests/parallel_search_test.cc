// Determinism and anytime-contract tests of the staged plan/score/merge
// pipeline (core/topl_detector.cc): parallel scoring must return
// byte-identical results to the sequential path, truncation must preserve
// the best-so-far invariant, and progressive updates must converge
// monotonically to the exact answer.

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force.h"
#include "core/dtopl_detector.h"
#include "core/topl_detector.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "influence/propagation.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::BuildIndexFor;
using testing::BuiltIndex;
using testing::ExpectIdentical;

Graph MakeRandomGraph(std::uint64_t seed, std::size_t vertices = 220) {
  SmallWorldOptions gen;
  gen.num_vertices = vertices;
  gen.seed = seed;
  gen.keywords.domain_size = 14;
  gen.keywords.keywords_per_vertex = 3;
  Result<Graph> g = MakeSmallWorld(gen);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// The headline determinism property: across ≥20 random graphs, the parallel
// scoring path (several chunk sizes, several pool widths) returns results
// byte-identical to the sequential path — which in turn matches brute force.
TEST(ParallelSearchTest, ParallelMatchesSequentialAcross20RandomGraphs) {
  ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = MakeRandomGraph(seed);
    const BuiltIndex built = BuildIndexFor(g);
    TopLDetector detector(g, built.pre(), built.tree);

    Query q;
    q.keywords = {0, 2, 5, 7};
    q.k = 3;
    q.radius = 2;
    q.theta = 0.2;
    q.top_l = 4;

    Result<TopLResult> sequential = detector.Search(q);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    EXPECT_FALSE(sequential->truncated);

    Result<TopLResult> brute = BruteForceTopL(g, q);
    ASSERT_TRUE(brute.ok());
    ExpectIdentical(sequential->communities, brute->communities, "seq-vs-brute");

    for (std::uint32_t chunk : {1u, 3u, 8u}) {
      SearchControl control;
      control.pool = &pool;
      control.chunk_size = chunk;
      Result<TopLResult> parallel = detector.Search(q, QueryOptions(), control);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_FALSE(parallel->truncated);
      ExpectIdentical(parallel->communities, sequential->communities,
                      ("chunk=" + std::to_string(chunk)).c_str());
    }
  }
}

TEST(ParallelSearchTest, ParallelDiversifiedMatchesSequential) {
  ThreadPool pool(3);
  for (std::uint64_t seed : {31u, 32u, 33u, 34u, 35u}) {
    const Graph g = MakeRandomGraph(seed);
    const BuiltIndex built = BuildIndexFor(g);
    DTopLDetector detector(g, built.pre(), built.tree);

    Query q;
    q.keywords = {1, 3, 6};
    q.k = 3;
    q.radius = 2;
    q.theta = 0.2;
    q.top_l = 3;
    DTopLOptions options;
    options.n_factor = 3;

    Result<DTopLResult> sequential = detector.Search(q, options);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

    SearchControl control;
    control.pool = &pool;
    control.chunk_size = 4;
    Result<DTopLResult> parallel = detector.Search(q, options, control);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_FALSE(parallel->truncated);
    ExpectIdentical(parallel->communities, sequential->communities, "dtopl");
    EXPECT_EQ(parallel->diversity_score, sequential->diversity_score);
  }
}

TEST(ParallelSearchTest, ExactAnswerReportsMinusInfinityUpperBound) {
  const Graph g = MakeRandomGraph(7);
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  Query q;
  q.keywords = {0, 2};
  q.k = 3;
  q.radius = 1;
  q.theta = 0.2;
  q.top_l = 3;
  Result<TopLResult> result = detector.Search(q);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->truncated);
  EXPECT_EQ(result->score_upper_bound,
            -std::numeric_limits<double>::infinity());
}

TEST(ParallelSearchTest, PreCancelledTokenTruncatesBeforeFirstResult) {
  const Graph g = MakeRandomGraph(8);
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  Query q;
  q.keywords = {0, 2, 5};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;

  SearchControl control;
  control.cancel = CancelToken::Create();
  control.cancel.Cancel();
  Result<TopLResult> result = detector.Search(q, QueryOptions(), control);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  EXPECT_TRUE(result->communities.empty());
  EXPECT_EQ(result->stats.candidates_refined, 0u);
  // The gap covers the whole unexplored space: at least the best score.
  Result<TopLResult> exact = detector.Search(q);
  ASSERT_TRUE(exact.ok());
  if (!exact->communities.empty()) {
    EXPECT_GE(result->score_upper_bound, exact->communities.front().score());
  }
}

TEST(ParallelSearchTest, ZeroDeadlineExpiresMidSearchWithBestSoFar) {
  const Graph g = MakeRandomGraph(9);
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  Query q;
  q.keywords = {0, 2, 5};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;

  SearchControl control;
  control.deadline_seconds = 1e-12;  // expires at the first checkpoint
  Result<TopLResult> result = detector.Search(q, QueryOptions(), control);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  // Best-so-far: whatever was returned is a subset of the exact answer's
  // candidate space, sorted canonically, scores bounded by the reported gap.
  for (std::size_t i = 1; i < result->communities.size(); ++i) {
    EXPECT_TRUE(!BetterCommunity(result->communities[i],
                                 result->communities[i - 1]));
  }
}

TEST(ParallelSearchTest, GenerousDeadlineDoesNotTruncate) {
  const Graph g = MakeRandomGraph(10);
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  Query q;
  q.keywords = {0, 2, 5};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;

  SearchControl control;
  control.deadline_seconds = 3600.0;
  Result<TopLResult> controlled = detector.Search(q, QueryOptions(), control);
  Result<TopLResult> plain = detector.Search(q);
  ASSERT_TRUE(controlled.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(controlled->truncated);
  ExpectIdentical(controlled->communities, plain->communities, "deadline-noop");
}

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

// The score stage ranks by σ alone and builds gInf only for the communities
// it outputs, so every streamed or returned community must carry exactly the
// gInf a fresh propagation of its seed set gives.
void ExpectExactInfluence(const Graph& g, std::span<const CommunityResult> got,
                          double theta, const std::string& label) {
  for (const CommunityResult& c : got) {
    const InfluencedCommunity want =
        PropagationEngine(g).Compute(c.community.vertices, theta);
    const std::string where = label + " center " + std::to_string(c.community.center);
    EXPECT_EQ(c.influence.vertices, want.vertices) << where;
    EXPECT_EQ(Bits(c.influence.cpp), Bits(want.cpp)) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.score()),
              std::bit_cast<std::uint64_t>(want.score))
        << where;
  }
}

TEST(ParallelSearchTest, ProgressiveUpdatesConvergeToExactAnswer) {
  const Graph g = MakeRandomGraph(11);
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  Query q;
  q.keywords = {0, 2, 5, 7};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 4;

  Result<TopLResult> exact = detector.Search(q);
  ASSERT_TRUE(exact.ok());
  ExpectExactInfluence(g, exact->communities, q.theta, "exact");

  ThreadPool pool(4);
  for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string label = use_pool == nullptr ? "sequential" : "pool";
    std::vector<double> best_scores;
    std::vector<double> bounds;
    SearchControl control;
    control.pool = use_pool;
    control.on_progress = [&](const ProgressiveUpdate& update) {
      if (!update.communities.empty()) {
        best_scores.push_back(update.communities.front().score());
        // Canonical order within every update.
        for (std::size_t i = 1; i < update.communities.size(); ++i) {
          EXPECT_TRUE(!BetterCommunity(update.communities[i],
                                       update.communities[i - 1]));
        }
      }
      ExpectExactInfluence(g, update.communities, q.theta,
                           label + " wave " + std::to_string(update.wave));
      bounds.push_back(update.upper_bound);
      return true;
    };
    Result<TopLResult> progressive = detector.Search(q, QueryOptions(), control);
    ASSERT_TRUE(progressive.ok());
    EXPECT_FALSE(progressive->truncated);
    ExpectIdentical(progressive->communities, exact->communities, label.c_str());
    ExpectExactInfluence(g, progressive->communities, q.theta, label);

    // The running best never regresses, and the final streamed best equals
    // the exact top score.
    for (std::size_t i = 1; i < best_scores.size(); ++i) {
      EXPECT_GE(best_scores[i], best_scores[i - 1]) << label;
    }
    if (!exact->communities.empty()) {
      ASSERT_FALSE(best_scores.empty()) << label;
      EXPECT_EQ(best_scores.back(), exact->communities.front().score()) << label;
    }
  }
}

TEST(ParallelSearchTest, ProgressiveCallbackCanStopEarly) {
  const Graph g = MakeRandomGraph(12);
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  Query q;
  q.keywords = {0, 2, 5};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;
  Result<TopLResult> exact = detector.Search(q);
  ASSERT_TRUE(exact.ok());

  ThreadPool pool(4);
  for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string label = use_pool == nullptr ? "sequential" : "pool";
    int updates = 0;
    SearchControl control;
    control.pool = use_pool;
    control.on_progress = [&](const ProgressiveUpdate& update) {
      ++updates;
      ExpectExactInfluence(g, update.communities, q.theta, label + " update");
      return false;  // stop after the first update
    };
    Result<TopLResult> result = detector.Search(q, QueryOptions(), control);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(updates, 1) << label;
    EXPECT_TRUE(result->truncated) << label;
    EXPECT_FALSE(result->communities.empty()) << label;
    ExpectExactInfluence(g, result->communities, q.theta, label + " returned");
    // Anytime contract: any community the stopped run missed scores at most
    // the reported upper bound.
    for (const CommunityResult& community : exact->communities) {
      bool returned = false;
      for (const CommunityResult& got : result->communities) {
        if (got.community.center == community.community.center) returned = true;
      }
      if (!returned) {
        EXPECT_LE(community.score(), result->score_upper_bound) << label;
      }
    }
  }
}

TEST(ParallelSearchTest, ParallelScratchPoolGrowsToChunkConcurrencyOnly) {
  ThreadPool pool(4);
  const Graph g = MakeRandomGraph(13);
  const BuiltIndex built = BuildIndexFor(g);
  TopLDetector detector(g, built.pre(), built.tree);
  Query q;
  q.keywords = {0, 2, 5};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;

  SearchControl control;
  control.pool = &pool;
  control.chunk_size = 2;
  for (int i = 0; i < 5; ++i) {
    Result<TopLResult> result = detector.Search(q, QueryOptions(), control);
    ASSERT_TRUE(result.ok());
  }
  // Scratch is recycled across waves and queries: bounded by pool width (+1
  // for the calling thread's help-first participation).
  EXPECT_LE(detector.pooled_scratch(), pool.num_threads() + 1);
}

TEST(RefineScratchPoolTest, ConcurrentLeasesComputeIdenticalResults) {
  // Threads leasing scratch concurrently must each get the results of a
  // private extractor and engine, and the pool must grow only to peak
  // concurrency.
  const Graph g = MakeRandomGraph(5, 300);
  Query q;
  q.keywords = {0, 2, 5};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;

  RefineScratch reference(g);
  std::vector<SeedCommunity> expected_communities(16);
  std::vector<InfluencedCommunity> expected_influence(16);
  for (VertexId v = 0; v < 16; ++v) {
    reference.extractor.Extract(v, q, &expected_communities[v]);
    expected_influence[v] = reference.engine.ComputeFromSource(v, q.theta);
  }

  RefineScratchPool pool(g);
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        RefineScratchPool::Lease scratch(&pool);
        for (VertexId v = 0; v < 16; ++v) {
          SeedCommunity community;
          scratch->extractor.Extract(v, q, &community);
          const InfluencedCommunity influence =
              scratch->engine.ComputeFromSource(v, q.theta);
          if (community.vertices != expected_communities[v].vertices ||
              community.edges != expected_communities[v].edges ||
              influence.vertices != expected_influence[v].vertices ||
              influence.cpp != expected_influence[v].cpp ||
              influence.score != expected_influence[v].score) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_LE(pool.size(), static_cast<std::size_t>(kThreads));
}

TEST(ParallelSearchTest, DetectorsSharingAScratchPoolAnswerAlike) {
  // Detectors handed one RefineScratchPool (as the engine does per
  // snapshot) answer exactly like detectors that own theirs, sequential or
  // parallel, and the shared pool holds one instance per thread refining.
  ThreadPool threads(4);
  const Graph g = MakeRandomGraph(21);
  const BuiltIndex built = BuildIndexFor(g);
  auto shared = std::make_shared<RefineScratchPool>(g);
  TopLDetector topl(g, built.pre(), built.tree, shared);
  DTopLDetector dtopl(g, built.pre(), built.tree, shared);
  TopLDetector own_topl(g, built.pre(), built.tree);
  DTopLDetector own_dtopl(g, built.pre(), built.tree);
  Query q;
  q.keywords = {0, 2, 5};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;
  SearchControl control;
  control.pool = &threads;
  control.chunk_size = 2;
  Result<TopLResult> expected = own_topl.Search(q);
  Result<DTopLResult> expected_d = own_dtopl.Search(q);
  ASSERT_TRUE(expected.ok() && expected_d.ok());
  for (const SearchControl& c : {SearchControl{}, control}) {
    Result<TopLResult> got = topl.Search(q, QueryOptions(), c);
    Result<DTopLResult> got_d = dtopl.Search(q, DTopLOptions(), c);
    ASSERT_TRUE(got.ok() && got_d.ok());
    ExpectIdentical(got->communities, expected->communities, "topl");
    ExpectIdentical(got_d->communities, expected_d->communities, "dtopl");
  }
  EXPECT_EQ(topl.pooled_scratch(), shared->size());
  EXPECT_LE(shared->size(), threads.num_threads() + 1);
}

}  // namespace
}  // namespace topl
