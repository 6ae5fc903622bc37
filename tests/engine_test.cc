#include "engine/engine.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace topl {
namespace {

// Shared serving workload: one small-world graph plus reference detectors.
// Built once — the offline phase dominates this test binary's runtime.
class EngineTest : public ::testing::Test {
 protected:
  struct World {
    Graph graph;
    testing::BuiltIndex index;
    std::unique_ptr<Engine> engine;
    std::vector<Query> queries;
    std::vector<bool> diversified;  // per query: run through DTopL?
  };

  static World* world_;

  // Graph is move-only; engines take ownership of theirs. The generator is
  // deterministic per seed, so regenerating yields a bit-identical graph.
  static Graph MakeWorldGraph() {
    SmallWorldOptions gen;
    gen.num_vertices = 400;
    gen.seed = 17;
    gen.keywords.domain_size = 30;
    gen.keywords.keywords_per_vertex = 3;
    Result<Graph> g = MakeSmallWorld(gen);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return std::move(g).value();
  }

  static void SetUpTestSuite() {
    world_ = new World();
    world_->graph = MakeWorldGraph();

    PrecomputeOptions pre_opts;
    pre_opts.r_max = 2;
    world_->index = testing::BuildIndexFor(world_->graph, pre_opts);

    EngineOptions engine_opts;
    engine_opts.num_threads = 4;
    // The engine gets its own copy of the offline phase so the reference
    // detectors below keep using `index` independently.
    Result<std::unique_ptr<Engine>> engine =
        MakeEngineFromSharedIndex(engine_opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    world_->engine = std::move(engine).value();

    // A mixed query workload with population-weighted keywords (uniform
    // domain draws on a 30-keyword domain often match nobody).
    for (std::uint64_t seed = 1; seed <= 9; ++seed) {
      Query q;
      Rng rng(seed);
      std::vector<KeywordId> kws;
      while (kws.size() < 3) {
        const VertexId v =
            static_cast<VertexId>(rng.NextBounded(world_->graph.NumVertices()));
        const auto vertex_kws = world_->graph.Keywords(v);
        if (vertex_kws.empty()) continue;
        const KeywordId w = vertex_kws[rng.NextBounded(vertex_kws.size())];
        if (std::find(kws.begin(), kws.end(), w) == kws.end()) kws.push_back(w);
      }
      std::sort(kws.begin(), kws.end());
      q.keywords = std::move(kws);
      q.k = 3 + static_cast<std::uint32_t>(seed % 2);  // k in {3, 4}
      q.radius = 1 + static_cast<std::uint32_t>(seed % 2);
      q.theta = 0.2;
      q.top_l = 4;
      world_->queries.push_back(std::move(q));
      world_->diversified.push_back(seed % 3 == 0);
    }
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  /// Fresh Engine over a copy of the shared precomputed data (tree rebuilt
  /// so its back-pointer targets the copy) and a regenerated graph.
  static Result<std::unique_ptr<Engine>> MakeEngineFromSharedIndex(
      const EngineOptions& options) {
    auto pre_copy = std::make_unique<PrecomputedData>(world_->index.pre());
    Result<TreeIndex> tree =
        TreeIndex::Build(world_->graph, *pre_copy, TreeIndexOptions());
    if (!tree.ok()) return tree.status();
    return Engine::Create(MakeWorldGraph(), std::move(pre_copy),
                          std::move(tree).value(), options);
  }

  /// A fresh engine on a one-thread pool, where Search runs the sequential
  /// detector path by contract: same traversal, so same pruning trace.
  static std::unique_ptr<Engine> MakeSequentialEngine() {
    EngineOptions options;
    options.num_threads = 1;
    Result<std::unique_ptr<Engine>> engine = MakeEngineFromSharedIndex(options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  static DTopLOptions DiversifiedOptions() {
    DTopLOptions options;
    options.n_factor = 3;
    return options;
  }

  // Engine graph/index vs reference: the engine serves from an identical
  // copy of the offline phase, so answers must match *exactly* — same
  // communities, same member lists, bit-identical scores.
  static void ExpectSameCommunities(const std::vector<CommunityResult>& actual,
                                    const std::vector<CommunityResult>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].community.center, expected[i].community.center) << i;
      EXPECT_EQ(actual[i].community.vertices, expected[i].community.vertices) << i;
      EXPECT_EQ(actual[i].influence.vertices, expected[i].influence.vertices) << i;
      EXPECT_EQ(actual[i].influence.cpp, expected[i].influence.cpp) << i;
      EXPECT_EQ(actual[i].score(), expected[i].score()) << i;
    }
  }
};

EngineTest::World* EngineTest::world_ = nullptr;

TEST_F(EngineTest, SearchMatchesSingleThreadedDetector) {
  const std::unique_ptr<Engine> engine = MakeSequentialEngine();
  ASSERT_NE(engine, nullptr);
  TopLDetector reference(world_->graph, world_->index.pre(), world_->index.tree);
  for (const Query& query : world_->queries) {
    Result<TopLResult> expected = reference.Search(query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    Result<TopLResult> actual = engine->Search(query);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectSameCommunities(actual->communities, expected->communities);
    // The pruning trace must match too: same index, same traversal.
    EXPECT_EQ(actual->stats.heap_pops, expected->stats.heap_pops);
    EXPECT_EQ(actual->stats.TotalPruned(), expected->stats.TotalPruned());
  }
}

TEST_F(EngineTest, SearchDiversifiedMatchesSingleThreadedDetector) {
  DTopLDetector reference(world_->graph, world_->index.pre(), world_->index.tree);
  for (const Query& query : world_->queries) {
    Result<DTopLResult> expected = reference.Search(query, DiversifiedOptions());
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    Result<DTopLResult> actual =
        world_->engine->SearchDiversified(query, DiversifiedOptions());
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectSameCommunities(actual->communities, expected->communities);
    EXPECT_EQ(actual->diversity_score, expected->diversity_score);
  }
}

TEST_F(EngineTest, ConcurrentMixedQueriesMatchSingleThreaded) {
  // Reference answers, computed single-threaded.
  TopLDetector topl_ref(world_->graph, world_->index.pre(), world_->index.tree);
  DTopLDetector dtopl_ref(world_->graph, world_->index.pre(), world_->index.tree);
  std::vector<TopLResult> expected_topl(world_->queries.size());
  std::vector<DTopLResult> expected_dtopl(world_->queries.size());
  for (std::size_t i = 0; i < world_->queries.size(); ++i) {
    if (world_->diversified[i]) {
      Result<DTopLResult> r =
          dtopl_ref.Search(world_->queries[i], DiversifiedOptions());
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected_dtopl[i] = std::move(r).value();
    } else {
      Result<TopLResult> r = topl_ref.Search(world_->queries[i]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected_topl[i] = std::move(r).value();
    }
  }

  // N threads, each sweeping the whole mixed workload M times against the
  // one shared engine, all comparing against the single-threaded answers.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        // Stagger start index per thread so threads hit different queries
        // (and thus differently-sized scratch) at the same time.
        for (std::size_t j = 0; j < world_->queries.size(); ++j) {
          const std::size_t i = (j + t) % world_->queries.size();
          const std::vector<CommunityResult>* expected;
          std::vector<CommunityResult> actual;
          if (world_->diversified[i]) {
            Result<DTopLResult> r = world_->engine->SearchDiversified(
                world_->queries[i], DiversifiedOptions());
            if (!r.ok()) {
              failures[t] = r.status().ToString();
              return;
            }
            actual = std::move(r).value().communities;
            expected = &expected_dtopl[i].communities;
          } else {
            Result<TopLResult> r = world_->engine->Search(world_->queries[i]);
            if (!r.ok()) {
              failures[t] = r.status().ToString();
              return;
            }
            actual = std::move(r).value().communities;
            expected = &expected_topl[i].communities;
          }
          if (actual.size() != expected->size()) {
            failures[t] = "result size mismatch on query " + std::to_string(i);
            return;
          }
          for (std::size_t c = 0; c < actual.size(); ++c) {
            if (actual[c].community.center != (*expected)[c].community.center ||
                actual[c].community.vertices != (*expected)[c].community.vertices ||
                actual[c].influence.vertices != (*expected)[c].influence.vertices ||
                actual[c].influence.cpp != (*expected)[c].influence.cpp) {
              failures[t] = "community mismatch on query " + std::to_string(i);
              return;
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }
  // The context pool grew to at most the peak concurrency, not per query.
  EXPECT_GE(world_->engine->pooled_contexts(), 1u);
  EXPECT_LE(world_->engine->pooled_contexts(),
            kThreads + world_->engine->num_threads());
}

TEST_F(EngineTest, SynchronousSearchFansOutOverThePool) {
  // Plain Search/SearchDiversified refine over the engine's pool. Callers and
  // pool workers then refine side by side, yet the answers are those of
  // fresh sequential detectors, and the snapshot's shared refinement scratch
  // grows only to the threads refining at once.
  EngineOptions options;
  options.num_threads = 4;
  Result<std::unique_ptr<Engine>> made = MakeEngineFromSharedIndex(options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Engine& engine = **made;

  std::vector<TopLResult> expected_topl(world_->queries.size());
  std::vector<DTopLResult> expected_dtopl(world_->queries.size());
  for (std::size_t i = 0; i < world_->queries.size(); ++i) {
    TopLDetector topl(world_->graph, world_->index.pre(), world_->index.tree);
    Result<TopLResult> t = topl.Search(world_->queries[i]);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    expected_topl[i] = std::move(t).value();
    DTopLDetector dtopl(world_->graph, world_->index.pre(), world_->index.tree);
    Result<DTopLResult> d = dtopl.Search(world_->queries[i], DiversifiedOptions());
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    expected_dtopl[i] = std::move(d).value();
  }

  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRounds = 3;
  std::vector<TopLResult> actual_topl(kCallers * kRounds * world_->queries.size());
  std::vector<DTopLResult> actual_dtopl(actual_topl.size());
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t j = 0; j < world_->queries.size(); ++j) {
          const std::size_t i = (j + t) % world_->queries.size();
          const std::size_t slot =
              (t * kRounds + round) * world_->queries.size() + i;
          Result<TopLResult> r = engine.Search(world_->queries[i]);
          if (r.ok()) actual_topl[slot] = std::move(r).value();
          Result<DTopLResult> d =
              engine.SearchDiversified(world_->queries[i], DiversifiedOptions());
          if (d.ok()) actual_dtopl[slot] = std::move(d).value();
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  std::uint64_t parallel_chunks = 0;
  for (std::size_t slot = 0; slot < actual_topl.size(); ++slot) {
    const std::size_t i = slot % world_->queries.size();
    const std::string label = "query " + std::to_string(i);
    testing::ExpectIdentical(actual_topl[slot].communities,
                             expected_topl[i].communities, label.c_str());
    testing::ExpectIdentical(actual_dtopl[slot].communities,
                             expected_dtopl[i].communities, label.c_str());
    EXPECT_EQ(actual_dtopl[slot].diversity_score, expected_dtopl[i].diversity_score)
        << label;
    EXPECT_EQ(actual_dtopl[slot].pool_centers, expected_dtopl[i].pool_centers)
        << label;
    parallel_chunks += actual_topl[slot].stats.parallel_chunks +
                       actual_dtopl[slot].candidate_stats.parallel_chunks;
  }
  EXPECT_GT(parallel_chunks, 0u);
  EXPECT_EQ(engine.Stats().failed_queries, 0u);
  EXPECT_GE(engine.pooled_scratch(), 1u);
  EXPECT_LE(engine.pooled_scratch(), engine.num_threads() + kCallers);
}

TEST_F(EngineTest, SearchBatchMatchesPerSlotSearch) {
  std::vector<Result<TopLResult>> batch =
      world_->engine->SearchBatch(world_->queries);
  ASSERT_EQ(batch.size(), world_->queries.size());
  TopLDetector reference(world_->graph, world_->index.pre(), world_->index.tree);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    Result<TopLResult> expected = reference.Search(world_->queries[i]);
    ASSERT_TRUE(expected.ok());
    ExpectSameCommunities(batch[i]->communities, expected->communities);
  }
}

TEST_F(EngineTest, StatsAggregateAcrossQueries) {
  // A fresh engine so counters start from zero, on one thread so that
  // Search and SearchBatch both take the sequential path and the pruning
  // counters double exactly.
  const std::unique_ptr<Engine> engine = MakeSequentialEngine();
  ASSERT_NE(engine, nullptr);

  QueryStats expected_sum;
  for (const Query& query : world_->queries) {
    Result<TopLResult> r = engine->Search(query);
    ASSERT_TRUE(r.ok());
    expected_sum += r->stats;
  }
  Result<DTopLResult> d =
      engine->SearchDiversified(world_->queries.front(), DiversifiedOptions());
  ASSERT_TRUE(d.ok());
  expected_sum += d->candidate_stats;

  // One malformed query (radius beyond r_max) must count as failed.
  Query bad = world_->queries.front();
  bad.radius = 99;
  Result<TopLResult> failed = engine->Search(bad);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsInvalidArgument());

  engine->SearchBatch(world_->queries);

  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.topl_queries, 2 * world_->queries.size() + 1);
  EXPECT_EQ(stats.dtopl_queries, 1u);
  EXPECT_EQ(stats.queries_total, stats.topl_queries + stats.dtopl_queries);
  EXPECT_EQ(stats.failed_queries, 1u);
  EXPECT_EQ(stats.batches, 1u);
  // The deterministic counters doubled exactly (batch reran the same list).
  EXPECT_EQ(stats.query_stats.heap_pops,
            2 * expected_sum.heap_pops - d->candidate_stats.heap_pops);
  EXPECT_LE(stats.p50_latency_seconds, stats.p99_latency_seconds);
  EXPECT_LE(stats.p99_latency_seconds, stats.p999_latency_seconds);
  EXPECT_LE(stats.p999_latency_seconds, stats.max_latency_seconds);
  EXPECT_GT(stats.query_stats.elapsed_seconds, 0.0);
}

TEST_F(EngineTest, QueryStatsMergeHelper) {
  QueryStats a;
  a.heap_pops = 3;
  a.pruned_keyword = 1;
  a.pruned_termination = 2;
  a.candidates_refined = 4;
  a.precheck_rejected = 2;
  a.propagations = 3;
  a.elapsed_seconds = 0.25;
  a.triangles_inspected = 10;
  QueryStats b;
  b.heap_pops = 5;
  b.pruned_support = 7;
  b.communities_found = 1;
  b.precheck_rejected = 5;
  b.propagations = 6;
  b.triangles_inspected = 30;
  b.support_recomputes_avoided = 2;
  b.elapsed_seconds = 0.5;
  a += b;
  EXPECT_EQ(a.heap_pops, 8u);
  EXPECT_EQ(a.pruned_keyword, 1u);
  EXPECT_EQ(a.pruned_support, 7u);
  EXPECT_EQ(a.pruned_termination, 2u);
  EXPECT_EQ(a.TotalPruned(), 10u);
  EXPECT_EQ(a.candidates_refined, 4u);
  EXPECT_EQ(a.communities_found, 1u);
  EXPECT_EQ(a.precheck_rejected, 7u);
  EXPECT_EQ(a.propagations, 9u);
  EXPECT_EQ(a.triangles_inspected, 40u);
  EXPECT_EQ(a.support_recomputes_avoided, 2u);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, 0.75);
}

TEST_F(EngineTest, SubstrateCountersReachEngineStats) {
  Result<std::unique_ptr<Engine>> engine =
      MakeEngineFromSharedIndex(EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::uint64_t triangles = 0;
  std::uint64_t propagations = 0;
  std::uint64_t precheck_rejected = 0;
  for (const Query& q : world_->queries) {
    Result<TopLResult> result = (*engine)->Search(q);
    ASSERT_TRUE(result.ok());
    triangles += result->stats.triangles_inspected;
    propagations += result->stats.propagations;
    precheck_rejected += result->stats.precheck_rejected;
    if (result->stats.communities_found > 0) {
      // Extracting a community walks its triangles on the (default)
      // incremental path, so this query must have metered some, and its
      // first community is always propagated.
      EXPECT_GT(result->stats.triangles_inspected, 0u);
      EXPECT_GT(result->stats.propagations, 0u);
    }
    EXPECT_LE(result->stats.propagations, result->stats.communities_found);
  }
  ASSERT_GT(triangles, 0u);  // the workload finds communities
  // The per-query counters must fold into the engine aggregate.
  EXPECT_EQ((*engine)->Stats().query_stats.triangles_inspected, triangles);
  EXPECT_EQ((*engine)->Stats().query_stats.propagations, propagations);
  EXPECT_EQ((*engine)->Stats().query_stats.precheck_rejected, precheck_rejected);
}

TEST_F(EngineTest, CreateRejectsMismatchedParts) {
  // pre built over a different (smaller) graph.
  Graph other = testing::MakeClique(6);
  Result<PrecomputedData> other_pre =
      PrecomputedData::Build(other, PrecomputeOptions());
  ASSERT_TRUE(other_pre.ok());
  auto other_owned = std::make_unique<PrecomputedData>(std::move(other_pre).value());
  Result<TreeIndex> other_tree =
      TreeIndex::Build(other, *other_owned, TreeIndexOptions());
  ASSERT_TRUE(other_tree.ok());

  Graph graph_copy = testing::MakeClique(6);
  Result<std::unique_ptr<Engine>> null_pre = Engine::Create(
      testing::MakeClique(6), nullptr, TreeIndex(), EngineOptions());
  EXPECT_FALSE(null_pre.ok());

  // Tree built over a different PrecomputedData instance than the one handed in.
  auto second_pre = std::make_unique<PrecomputedData>(*other_owned);
  Result<std::unique_ptr<Engine>> mismatched =
      Engine::Create(std::move(graph_copy), std::move(second_pre),
                     std::move(other_tree).value(), EngineOptions());
  EXPECT_FALSE(mismatched.ok());
  EXPECT_TRUE(mismatched.status().IsInvalidArgument());
}

TEST_F(EngineTest, OpenLoadsBuildsAndPersists) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "topl_engine_test";
  std::filesystem::create_directories(dir);
  const std::string graph_path = (dir / "graph.bin").string();
  const std::string index_path = (dir / "index.bin").string();
  std::filesystem::remove(index_path);
  ASSERT_TRUE(WriteGraphBinary(world_->graph, graph_path).ok());

  EngineOptions options;
  options.graph_path = graph_path;
  options.index_path = index_path;
  options.precompute.r_max = 2;
  options.num_threads = 2;

  // First Open: no index file -> built in-process and persisted.
  Result<std::unique_ptr<Engine>> built = Engine::Open(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(index_path));

  // Second Open: loads the persisted index; answers match the first engine.
  Result<std::unique_ptr<Engine>> loaded = Engine::Open(options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const Query& query : world_->queries) {
    Result<TopLResult> a = (*built)->Search(query);
    Result<TopLResult> b = (*loaded)->Search(query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameCommunities(b->communities, a->communities);
  }

  // Refusing to build when asked not to.
  std::filesystem::remove(index_path);
  EngineOptions strict = options;
  strict.build_index_if_missing = false;
  Result<std::unique_ptr<Engine>> missing = Engine::Open(strict);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());

  // Missing graph path is an InvalidArgument, not a crash.
  Result<std::unique_ptr<Engine>> no_graph = Engine::Open(EngineOptions());
  EXPECT_FALSE(no_graph.ok());

  std::filesystem::remove_all(dir);
}

TEST_F(EngineTest, ProgressiveMatchesPlainSearch) {
  // The progressive/parallel path must return byte-identical answers to the
  // plain sequential path when it runs to completion.
  for (const Query& query : world_->queries) {
    Result<TopLResult> plain = world_->engine->Search(query);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ProgressiveOptions options;
    options.chunk_size = 4;
    int updates = 0;
    Result<TopLResult> progressive = world_->engine->SearchProgressive(
        query, options, [&](const ProgressiveUpdate&) {
          ++updates;
          return true;
        });
    ASSERT_TRUE(progressive.ok()) << progressive.status().ToString();
    EXPECT_FALSE(progressive->truncated);
    ExpectSameCommunities(progressive->communities, plain->communities);
    if (!plain->communities.empty()) {
      EXPECT_GE(updates, 1);
    }
  }
}

TEST_F(EngineTest, ProgressiveDiversifiedMatchesPlainSearch) {
  for (const Query& query : world_->queries) {
    Result<DTopLResult> plain =
        world_->engine->SearchDiversified(query, DiversifiedOptions());
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    Result<DTopLResult> progressive =
        world_->engine->SearchDiversifiedProgressive(query, DiversifiedOptions());
    ASSERT_TRUE(progressive.ok()) << progressive.status().ToString();
    EXPECT_FALSE(progressive->truncated);
    ExpectSameCommunities(progressive->communities, plain->communities);
    EXPECT_EQ(progressive->diversity_score, plain->diversity_score);
  }
}

TEST_F(EngineTest, ProgressiveDiversifiedHonorsPruningToggles) {
  // The progressive path must take its pruning toggles from
  // DTopLOptions::topl_options, exactly like SearchDiversified — not from
  // ProgressiveOptions::query. Keyword pruning fires on every workload
  // query, so with it disabled (and parallelism off, making the traversal
  // identical to the plain path) the refinement counters must match the
  // plain path's non-default-toggle run exactly — and visibly exceed the
  // default-toggle run.
  // The plain path runs sequentially on a one-thread engine.
  const std::unique_ptr<Engine> engine = MakeSequentialEngine();
  ASSERT_NE(engine, nullptr);
  DTopLOptions no_keyword_pruning = DiversifiedOptions();
  no_keyword_pruning.topl_options.use_keyword_pruning = false;
  ProgressiveOptions sequential;
  sequential.parallel = false;
  for (const Query& query : world_->queries) {
    Result<DTopLResult> plain = engine->SearchDiversified(query, no_keyword_pruning);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    Result<DTopLResult> progressive =
        engine->SearchDiversifiedProgressive(query, no_keyword_pruning, sequential);
    ASSERT_TRUE(progressive.ok()) << progressive.status().ToString();
    ExpectSameCommunities(progressive->communities, plain->communities);
    EXPECT_EQ(progressive->candidate_stats.candidates_refined,
              plain->candidate_stats.candidates_refined);
    EXPECT_EQ(progressive->candidate_stats.pruned_keyword, 0u);

    Result<DTopLResult> defaults = engine->SearchDiversifiedProgressive(
        query, DiversifiedOptions(), sequential);
    ASSERT_TRUE(defaults.ok());
    EXPECT_GE(progressive->candidate_stats.candidates_refined,
              defaults->candidate_stats.candidates_refined);
  }
}

TEST_F(EngineTest, DeadlineExpiryReturnsTruncatedBestSoFar) {
  ProgressiveOptions options;
  options.deadline_seconds = 1e-12;  // expires at the first checkpoint
  Result<TopLResult> result =
      world_->engine->SearchProgressive(world_->queries.front(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  // Upper bound covers everything the truncated run missed.
  Result<TopLResult> exact = world_->engine->Search(world_->queries.front());
  ASSERT_TRUE(exact.ok());
  for (const CommunityResult& community : exact->communities) {
    bool returned = false;
    for (const CommunityResult& got : result->communities) {
      if (got.community.center == community.community.center) returned = true;
    }
    if (!returned) {
      EXPECT_LE(community.score(), result->score_upper_bound);
    }
  }
}

TEST_F(EngineTest, CancellationBeforeFirstResult) {
  CancelToken cancel = CancelToken::Create();
  cancel.Cancel();
  ProgressiveOptions options;
  options.cancel = cancel;
  Result<TopLResult> result =
      world_->engine->SearchProgressive(world_->queries.front(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  EXPECT_TRUE(result->communities.empty());
  EXPECT_EQ(result->stats.candidates_refined, 0u);
}

TEST_F(EngineTest, ConcurrentCancellationIsClean) {
  // One thread cancels while others run the same token's queries: exercises
  // the cancel-flag and chunk-skip paths under TSan.
  CancelToken cancel = CancelToken::Create();
  ProgressiveOptions options;
  options.cancel = cancel;
  options.chunk_size = 1;
  constexpr std::size_t kThreads = 3;
  std::vector<std::thread> threads;
  std::atomic<int> truncated{0};
  std::atomic<int> failures{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < world_->queries.size(); ++i) {
        Result<TopLResult> r = world_->engine->SearchProgressive(
            world_->queries[(i + t) % world_->queries.size()], options);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (r->truncated) truncated.fetch_add(1);
      }
    });
  }
  cancel.Cancel();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Every query issued after the cancel must have come back truncated; the
  // race with in-flight ones is inherently timing-dependent, so only the
  // absence of crashes/races and of failures is asserted beyond that.
  EXPECT_GE(truncated.load(), 0);
}

TEST_F(EngineTest, StatsTagLatenciesByQueryKind) {
  // Fresh engine: single, batch, diversified, and progressive queries must
  // land in their own latency histograms, not one mixed pool.
  EngineOptions options;
  options.num_threads = 2;
  Result<std::unique_ptr<Engine>> engine = MakeEngineFromSharedIndex(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  ASSERT_TRUE((*engine)->Search(world_->queries[0]).ok());
  ASSERT_TRUE((*engine)->Search(world_->queries[1]).ok());
  (*engine)->SearchBatch(world_->queries);
  ASSERT_TRUE(
      (*engine)->SearchDiversified(world_->queries[0], DiversifiedOptions()).ok());
  ProgressiveOptions prog;
  prog.deadline_seconds = 1e-12;
  ASSERT_TRUE((*engine)->SearchProgressive(world_->queries[0], prog).ok());

  const EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.ForKind(QueryKind::kSearch).count, 2u);
  EXPECT_EQ(stats.ForKind(QueryKind::kBatch).count, world_->queries.size());
  EXPECT_EQ(stats.ForKind(QueryKind::kDiversified).count, 1u);
  EXPECT_EQ(stats.ForKind(QueryKind::kProgressive).count, 1u);
  EXPECT_EQ(stats.progressive_queries, 1u);
  EXPECT_EQ(stats.truncated_queries, 1u);  // the zero-deadline progressive one
  // Per-kind percentile invariants hold independently.
  for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
    const LatencySummary& summary = stats.latency[k];
    EXPECT_LE(summary.p50_seconds, summary.p99_seconds);
    EXPECT_LE(summary.p99_seconds, summary.p999_seconds);
    EXPECT_LE(summary.p999_seconds, summary.max_seconds);
  }
  // The legacy aggregate view still covers every sample.
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < kNumQueryKinds; ++k) total += stats.latency[k].count;
  EXPECT_EQ(total, stats.queries_total);
  EXPECT_LE(stats.p50_latency_seconds, stats.p99_latency_seconds);
  EXPECT_LE(stats.p99_latency_seconds, stats.p999_latency_seconds);
  EXPECT_LE(stats.p999_latency_seconds, stats.max_latency_seconds);
}

TEST_F(EngineTest, SequentialQueriesReuseOneContext) {
  Result<std::unique_ptr<Engine>> engine =
      MakeEngineFromSharedIndex(EngineOptions());
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 5; ++i) {
    Result<TopLResult> r = (*engine)->Search(world_->queries.front());
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ((*engine)->pooled_contexts(), 1u);
}

}  // namespace
}  // namespace topl
