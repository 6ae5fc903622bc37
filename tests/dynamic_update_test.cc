// The dynamic-update contract: after any sequence of graph deltas,
// incremental maintenance (IndexUpdater / Engine::ApplyUpdate) must produce
// TopL and DTopL answers byte-identical to a full offline rebuild of the
// mutated graph — same communities, same member/edge lists, bit-identical
// scores and cpp values. A 20-graph × random-update-stream sweep enforces
// exactly that, alongside targeted cases (deletes that disconnect a
// component, keyword shrink below the query keywords), engine snapshot
// isolation, and a concurrent ApplyUpdate-vs-Search race for TSan.

#include "index/index_update.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "topl.h"

namespace topl {
namespace {

using testing::LargestArcProb;
using testing::MakeGraph;
using testing::MakeKeywordGraph;

PrecomputeOptions SweepPrecomputeOptions() {
  PrecomputeOptions options;
  options.r_max = 2;
  options.signature_bits = 64;
  return options;
}

/// Owned copy of a graph (base + empty delta ≡ from-scratch rebuild of the
/// same edge/keyword lists).
Graph CopyGraph(const Graph& g) {
  Result<Graph> copy = ApplyDelta(g, GraphDelta());
  EXPECT_TRUE(copy.ok()) << copy.status().ToString();
  return std::move(copy).value();
}

/// The current incremental pipeline state: graph + offline phase, advanced
/// delta by delta through IndexUpdater::Apply.
struct Pipeline {
  Graph graph;
  std::unique_ptr<PrecomputedData> pre;
  TreeIndex tree;
};

Pipeline BuildPipeline(Graph graph, const PrecomputeOptions& options) {
  Pipeline p;
  Result<PrecomputedData> pre = PrecomputedData::Build(graph, options);
  EXPECT_TRUE(pre.ok()) << pre.status().ToString();
  p.pre = std::make_unique<PrecomputedData>(std::move(pre).value());
  Result<TreeIndex> tree = TreeIndex::Build(graph, *p.pre);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  p.tree = std::move(tree).value();
  p.graph = std::move(graph);
  return p;
}

void ExpectSameCommunities(const std::vector<CommunityResult>& got,
                           const std::vector<CommunityResult>& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].community.center, want[i].community.center) << label;
    EXPECT_EQ(got[i].community.vertices, want[i].community.vertices) << label;
    EXPECT_EQ(got[i].community.edges, want[i].community.edges) << label;
    EXPECT_EQ(got[i].influence.vertices, want[i].influence.vertices) << label;
    EXPECT_EQ(got[i].influence.cpp, want[i].influence.cpp) << label;
    EXPECT_EQ(got[i].score(), want[i].score()) << label;
  }
}

/// Runs the same TopL + DTopL queries through the incrementally maintained
/// pipeline and through a full rebuild of `p.graph`, and demands identical
/// answers.
void ExpectMatchesFullRebuild(const Pipeline& p, const PrecomputeOptions& options,
                              const std::vector<Query>& queries,
                              const std::string& label) {
  Result<PrecomputedData> fresh_pre = PrecomputedData::Build(p.graph, options);
  ASSERT_TRUE(fresh_pre.ok()) << fresh_pre.status().ToString();
  Result<TreeIndex> fresh_tree = TreeIndex::Build(p.graph, *fresh_pre);
  ASSERT_TRUE(fresh_tree.ok()) << fresh_tree.status().ToString();

  TopLDetector incremental(p.graph, *p.pre, p.tree);
  TopLDetector rebuilt(p.graph, *fresh_pre, *fresh_tree);
  DTopLDetector incremental_d(p.graph, *p.pre, p.tree);
  DTopLDetector rebuilt_d(p.graph, *fresh_pre, *fresh_tree);

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const std::string where = label + " query#" + std::to_string(qi);
    Result<TopLResult> got = incremental.Search(queries[qi]);
    Result<TopLResult> want = rebuilt.Search(queries[qi]);
    ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << where << ": " << want.status().ToString();
    EXPECT_FALSE(got->truncated) << where;
    EXPECT_EQ(got->score_upper_bound, want->score_upper_bound) << where;
    ExpectSameCommunities(got->communities, want->communities, where);

    Result<DTopLResult> got_d = incremental_d.Search(queries[qi]);
    Result<DTopLResult> want_d = rebuilt_d.Search(queries[qi]);
    ASSERT_TRUE(got_d.ok()) << where << ": " << got_d.status().ToString();
    ASSERT_TRUE(want_d.ok()) << where << ": " << want_d.status().ToString();
    EXPECT_EQ(got_d->diversity_score, want_d->diversity_score) << where;
    ExpectSameCommunities(got_d->communities, want_d->communities,
                          where + " (dtopl)");
  }
}

/// Sweep update streams draw from the library's shared generator with the
/// test graphs' small keyword domain.
GraphDelta MakeSweepDelta(const Graph& g, Rng& rng, int ops) {
  RandomDeltaOptions options;
  options.num_ops = ops;
  options.keyword_domain = 12;
  return MakeRandomDelta(g, rng, options);
}

/// Query keywords drawn from keywords actually present in the graph.
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

// The acceptance sweep: 20 random graphs, each advanced through 3 random
// delta batches; after every batch the incrementally maintained index must
// answer exactly like a from-scratch rebuild.
TEST(DynamicUpdateSweepTest, IncrementalEqualsRebuildOnRandomStreams) {
  const PrecomputeOptions options = SweepPrecomputeOptions();
  for (std::uint64_t graph_seed = 0; graph_seed < 20; ++graph_seed) {
    ErdosRenyiOptions gen;
    gen.num_vertices = 48 + 4 * graph_seed;  // 48..124 vertices
    gen.edge_prob = 0.08;
    gen.seed = 1000 + graph_seed;
    gen.keywords.domain_size = 12;
    gen.keywords.keywords_per_vertex = 3;
    Result<Graph> graph = MakeErdosRenyi(gen);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();

    Rng rng(7000 + graph_seed);
    Pipeline pipeline = BuildPipeline(std::move(graph).value(), options);

    for (int batch = 0; batch < 3; ++batch) {
      const GraphDelta delta = MakeSweepDelta(pipeline.graph, rng, 6);
      Result<UpdatedIndex> updated = IndexUpdater::Apply(
          pipeline.graph, *pipeline.pre, pipeline.tree, delta);
      ASSERT_TRUE(updated.ok()) << updated.status().ToString();
      EXPECT_EQ(updated->scope.num_vertices, pipeline.graph.NumVertices());
      EXPECT_LE(updated->scope.dirty_centers, updated->scope.num_vertices);
      pipeline.graph = std::move(updated->graph);
      pipeline.pre = std::move(updated->pre);
      pipeline.tree = std::move(updated->tree);

      std::vector<Query> queries;
      for (int qi = 0; qi < 3; ++qi) {
        Query q;
        q.keywords = SampleQueryKeywords(pipeline.graph, rng, 2);
        if (q.keywords.empty()) continue;
        q.k = 3 + static_cast<std::uint32_t>(rng.NextBounded(2));
        q.radius = 1 + static_cast<std::uint32_t>(rng.NextBounded(2));
        q.theta = 0.2;
        q.top_l = 3;
        queries.push_back(std::move(q));
      }
      ExpectMatchesFullRebuild(pipeline, options, queries,
                               "graph#" + std::to_string(graph_seed) +
                                   " batch#" + std::to_string(batch));
    }
  }
}

// Deleting the bridge between two triangles must disconnect them in every
// derived structure; the incrementally patched index answers exactly like a
// rebuild on the now-disconnected graph.
TEST(DynamicUpdateTest, DeleteDisconnectsComponent) {
  const PrecomputeOptions options = SweepPrecomputeOptions();
  Pipeline pipeline = BuildPipeline(
      MakeKeywordGraph(7,
                       {{0, 1}, {1, 2}, {0, 2},  // triangle A
                        {3, 4}, {4, 5}, {3, 5},  // triangle B
                        {2, 3},                  // the bridge
                        {5, 6}},                 // pendant
                       {{0}, {0}, {0}, {0}, {0}, {0}, {0}}, 0.6),
      options);

  GraphDelta delta;
  delta.DeleteEdge(2, 3);
  Result<UpdatedIndex> updated =
      IndexUpdater::Apply(pipeline.graph, *pipeline.pre, pipeline.tree, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_FALSE(updated->graph.HasEdge(2, 3));
  pipeline.graph = std::move(updated->graph);
  pipeline.pre = std::move(updated->pre);
  pipeline.tree = std::move(updated->tree);

  Query q;
  q.keywords = {0};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 5;
  ExpectMatchesFullRebuild(pipeline, options, {q}, "disconnect");

  // Sanity: no answer community spans both triangles any more.
  TopLDetector detector(pipeline.graph, *pipeline.pre, pipeline.tree);
  Result<TopLResult> answer = detector.Search(q);
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->communities.empty());
  for (const CommunityResult& c : answer->communities) {
    bool has_a = false;
    bool has_b = false;
    for (VertexId v : c.community.vertices) {
      has_a |= v <= 2;
      has_b |= v >= 3 && v <= 5;
    }
    EXPECT_FALSE(has_a && has_b) << "community spans the deleted bridge";
  }
}

// Shrinking keyword sets below the query keywords: once no vertex carries
// the query keyword, the maintained index (whose signatures must have been
// refreshed) returns the same empty answer a rebuild does.
TEST(DynamicUpdateTest, KeywordShrinkBelowQueryKeywords) {
  const PrecomputeOptions options = SweepPrecomputeOptions();
  Pipeline pipeline = BuildPipeline(
      MakeKeywordGraph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
                       {{0, 1}, {0, 1}, {0, 1}, {0, 1}}, 0.6),
      options);

  Query q;
  q.keywords = {1};
  q.k = 3;
  q.radius = 1;
  q.theta = 0.2;
  q.top_l = 3;
  {
    TopLDetector detector(pipeline.graph, *pipeline.pre, pipeline.tree);
    Result<TopLResult> before = detector.Search(q);
    ASSERT_TRUE(before.ok());
    EXPECT_FALSE(before->communities.empty());
  }

  GraphDelta delta;
  for (VertexId v = 0; v < 4; ++v) delta.RemoveKeyword(v, 1);
  Result<UpdatedIndex> updated =
      IndexUpdater::Apply(pipeline.graph, *pipeline.pre, pipeline.tree, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  pipeline.graph = std::move(updated->graph);
  pipeline.pre = std::move(updated->pre);
  pipeline.tree = std::move(updated->tree);

  ExpectMatchesFullRebuild(pipeline, options, {q}, "keyword-shrink");
  TopLDetector detector(pipeline.graph, *pipeline.pre, pipeline.tree);
  Result<TopLResult> after = detector.Search(q);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->communities.empty());
}

// A keyword-only change dirties exactly the r_max-ball around the touched
// vertex: on a path graph that is 3 of 8 vertices, and the scope report says
// so.
TEST(DynamicUpdateTest, RebuildScopeIsLocalForKeywordChange) {
  const PrecomputeOptions options = SweepPrecomputeOptions();
  Pipeline pipeline = BuildPipeline(
      MakeKeywordGraph(8,
                       {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}},
                       {{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}}, 0.5),
      options);

  GraphDelta delta;
  delta.AddKeyword(0, 3);
  const std::vector<VertexId> dirty = IndexUpdater::DirtyCenters(
      pipeline.graph, pipeline.graph, delta, options.r_max,
      /*theta_min=*/0.1);
  EXPECT_EQ(dirty, (std::vector<VertexId>{0, 1, 2}));

  Result<UpdatedIndex> updated =
      IndexUpdater::Apply(pipeline.graph, *pipeline.pre, pipeline.tree, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->scope.dirty_centers, 3u);
  EXPECT_EQ(updated->scope.touched_vertices, 1u);
  EXPECT_GT(updated->scope.precompute_avoided(), 0.6);
  EXPECT_GT(updated->scope.tree_nodes_patched, 0u);
  EXPECT_FALSE(updated->scope.ToString().empty());
}

/// Every row of `got` (signatures, support bounds, center trussness, score
/// bounds) is bit-identical to `want`'s.
void ExpectSameRows(const PrecomputedData& got, const PrecomputedData& want,
                    const std::string& label) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices()) << label;
  ASSERT_EQ(got.r_max(), want.r_max()) << label;
  ASSERT_EQ(got.num_thetas(), want.num_thetas()) << label;
  for (VertexId v = 0; v < got.num_vertices(); ++v) {
    ASSERT_EQ(got.CenterTrussBound(v), want.CenterTrussBound(v)) << label << " v=" << v;
    for (std::uint32_t r = 1; r <= got.r_max(); ++r) {
      const auto got_sig = got.SignatureWords(v, r);
      const auto want_sig = want.SignatureWords(v, r);
      ASSERT_TRUE(std::equal(got_sig.begin(), got_sig.end(), want_sig.begin(),
                             want_sig.end()))
          << label << " v=" << v << " r=" << r;
      ASSERT_EQ(got.SupportBound(v, r), want.SupportBound(v, r))
          << label << " v=" << v << " r=" << r;
      for (std::uint32_t z = 0; z < got.num_thetas(); ++z) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.ScoreBound(v, r, z)),
                  std::bit_cast<std::uint64_t>(want.ScoreBound(v, r, z)))
            << label << " v=" << v << " r=" << r << " z=" << z;
      }
    }
  }
}

// The score bounds keep a vertex off the propagation heap when
// fl(c · p_max) < θ_min, with p_max the largest arc probability of the graph
// being propagated over. An update moves p_max: the first delta inserts an
// edge above the old maximum, the second deletes the edge that carries the
// maximum, and after each the incrementally recomputed rows must be
// byte-identical to a rebuild over the new graph.
TEST(DynamicUpdateTest, RowsMatchRebuildWhenLargestArcProbabilityMoves) {
  const PrecomputeOptions options = SweepPrecomputeOptions();
  // A 16-vertex path at p = 0.4 plus a triangle: two hops from a ball a
  // vertex holds 0.16, terminal under p_max = 0.4 (0.16 · 0.4 < θ_min = 0.1)
  // but not once a 0.95 arc leaves it (0.16 · 0.95 ≥ 0.1).
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i + 1 < 16; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(0, 2);
  Pipeline pipeline = BuildPipeline(
      MakeKeywordGraph(16, edges, std::vector<std::vector<KeywordId>>(16, {0}), 0.4),
      options);
  const double old_max = LargestArcProb(pipeline.graph);

  const auto apply = [&](const GraphDelta& delta, const std::string& label) {
    Result<UpdatedIndex> updated =
        IndexUpdater::Apply(pipeline.graph, *pipeline.pre, pipeline.tree, delta);
    ASSERT_TRUE(updated.ok()) << label << ": " << updated.status().ToString();
    pipeline.graph = std::move(updated->graph);
    pipeline.pre = std::move(updated->pre);
    pipeline.tree = std::move(updated->tree);
    Result<PrecomputedData> rebuilt = PrecomputedData::Build(pipeline.graph, options);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ExpectSameRows(*pipeline.pre, *rebuilt, label);
    // Both sides above run the score-only kernel; the full propagation
    // needs no p_max, so it also catches a p_max both sides got wrong.
    PropagationEngine engine(pipeline.graph);
    HopExtractor extractor(pipeline.graph);
    LocalGraph ball;
    for (VertexId c = 0; c < pipeline.graph.NumVertices(); ++c) {
      for (std::uint32_t r = 1; r <= options.r_max; ++r) {
        ASSERT_TRUE(extractor.Extract(c, r, {}, &ball));
        const std::vector<double> reference = ScoresAtThresholds(
            engine.Compute(ball.global_ids, options.thetas.front()), options.thetas);
        for (std::uint32_t z = 0; z < options.thetas.size(); ++z) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(pipeline.pre->ScoreBound(c, r, z)),
                    std::bit_cast<std::uint64_t>(reference[z]))
              << label << " reference c=" << c << " r=" << r << " z=" << z;
        }
      }
    }
  };

  // Raise: an edge between two non-adjacent vertices, both directions above
  // every old arc.
  const VertexId u = 3;
  const VertexId v = 12;
  GraphDelta raise;
  raise.InsertEdge(u, v, 0.95, 0.9);
  apply(raise, "raise");
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GT(LargestArcProb(pipeline.graph), old_max);

  // Delete the edge carrying the maximum: p_max falls back below 0.95.
  GraphDelta drop;
  drop.DeleteEdge(u, v);
  apply(drop, "drop");
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(LargestArcProb(pipeline.graph), old_max);
}

// Engine-level MVCC: in-flight/pinned snapshots keep answering with the old
// state, new queries see the new state, counters track the update, and a
// failed update leaves the engine serving untouched.
TEST(DynamicUpdateTest, EngineSnapshotIsolationAndStats) {
  EngineOptions engine_options;
  engine_options.precompute = SweepPrecomputeOptions();
  engine_options.num_threads = 2;

  ErdosRenyiOptions gen;
  gen.num_vertices = 80;
  gen.edge_prob = 0.08;
  gen.seed = 11;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());
  const Graph base = CopyGraph(*graph);

  Result<std::unique_ptr<Engine>> engine =
      Engine::FromGraph(std::move(graph).value(), engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Rng rng(99);
  Query q;
  q.keywords = SampleQueryKeywords(base, rng, 2);
  ASSERT_FALSE(q.keywords.empty());
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;

  Result<TopLResult> before = (*engine)->Search(q);
  ASSERT_TRUE(before.ok());
  std::shared_ptr<const EngineSnapshot> pinned = (*engine)->snapshot();
  EXPECT_EQ(pinned->epoch, 0u);

  const GraphDelta delta = MakeSweepDelta(base, rng, 8);
  Result<RebuildScope> scope = (*engine)->ApplyUpdate(delta);
  ASSERT_TRUE(scope.ok()) << scope.status().ToString();
  EXPECT_GT(scope->dirty_centers, 0u);

  // New queries run on the new snapshot and match a from-scratch engine.
  Result<Graph> mutated = ApplyDelta(base, delta);
  ASSERT_TRUE(mutated.ok());
  Result<std::unique_ptr<Engine>> rebuilt =
      Engine::FromGraph(std::move(mutated).value(), engine_options);
  ASSERT_TRUE(rebuilt.ok());
  Result<TopLResult> after = (*engine)->Search(q);
  Result<TopLResult> expected = (*rebuilt)->Search(q);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(expected.ok());
  ExpectSameCommunities(after->communities, expected->communities,
                        "engine-after-update");

  // The pinned snapshot still answers exactly like before the update.
  {
    TopLDetector old_detector(*pinned->graph, *pinned->pre, *pinned->tree);
    Result<TopLResult> pinned_answer = old_detector.Search(q);
    ASSERT_TRUE(pinned_answer.ok());
    ExpectSameCommunities(pinned_answer->communities, before->communities,
                          "pinned-snapshot");
  }

  EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.snapshot_epoch, 1u);
  EXPECT_EQ(stats.update_dirty_centers, scope->dirty_centers);
  EXPECT_GE(stats.live_snapshots, 1u);
  // Counters survive context retirement across the swap.
  EXPECT_EQ(stats.topl_queries, 2u);

  // A bad delta fails without touching the serving state.
  GraphDelta bad;
  bad.DeleteEdge(0, 0);
  Result<RebuildScope> failed = (*engine)->ApplyUpdate(bad);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ((*engine)->Stats().snapshot_epoch, 1u);
  EXPECT_EQ((*engine)->Stats().updates_applied, 1u);
  Result<TopLResult> still = (*engine)->Search(q);
  ASSERT_TRUE(still.ok());
  ExpectSameCommunities(still->communities, expected->communities,
                        "engine-after-failed-update");
}

// Keyword ids at the top of the 32-bit range. The delta text format accepts
// any 32-bit id, but 4294967295 is one past kMaxKeywordId (the keyword
// domain bound would wrap to 0), so the update fails and the engine keeps
// serving. Ids just below it apply, and queries over them answer like a
// rebuilt engine and like brute force.
TEST(DynamicUpdateTest, LargestKeywordIdsThroughDeltaAndQuery) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("topl_dynupd_kw_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto read_delta = [&](const std::string& name, const std::string& text) {
    const std::string path = (dir / name).string();
    {
      std::ofstream out(path);
      out << text;
    }
    Result<GraphDelta> delta = ReadGraphDeltaText(path);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    return std::move(delta).value();
  };

  EngineOptions engine_options;
  engine_options.precompute = SweepPrecomputeOptions();
  engine_options.num_threads = 2;
  ErdosRenyiOptions gen;
  gen.num_vertices = 80;
  gen.edge_prob = 0.08;
  gen.seed = 11;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());
  const Graph base = CopyGraph(*graph);
  Result<std::unique_ptr<Engine>> engine =
      Engine::FromGraph(std::move(graph).value(), engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const GraphDelta too_large = read_delta("too_large.txt", "w+ 0 4294967295\n");
  Result<RebuildScope> failed = (*engine)->ApplyUpdate(too_large);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsInvalidArgument()) << failed.status().ToString();
  EXPECT_EQ((*engine)->Stats().snapshot_epoch, 0u);
  EXPECT_EQ((*engine)->Stats().updates_applied, 0u);

  // Every vertex gains 4294967294; every third vertex also gains 2^31.
  std::string text;
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    text += "w+ " + std::to_string(v) + " 4294967294\n";
    if (v % 3 == 0) text += "w+ " + std::to_string(v) + " 2147483648\n";
  }
  const GraphDelta large = read_delta("large.txt", text);
  Result<RebuildScope> scope = (*engine)->ApplyUpdate(large);
  ASSERT_TRUE(scope.ok()) << scope.status().ToString();
  EXPECT_EQ((*engine)->graph().KeywordDomainBound(), 4294967295u);

  Result<Graph> mutated = ApplyDelta(base, large);
  ASSERT_TRUE(mutated.ok());
  const Graph expected_graph = CopyGraph(*mutated);
  Result<std::unique_ptr<Engine>> rebuilt =
      Engine::FromGraph(std::move(mutated).value(), engine_options);
  ASSERT_TRUE(rebuilt.ok());
  std::size_t found = 0;
  for (const std::vector<KeywordId>& keywords :
       {std::vector<KeywordId>{4294967294u},
        std::vector<KeywordId>{2147483648u, 4294967295u},
        std::vector<KeywordId>{3, 2147483648u}}) {
    Query q;
    q.keywords = keywords;
    q.k = 3;
    q.radius = 2;
    q.theta = 0.2;
    q.top_l = 3;
    const std::string label = "large-ids |Q|=" + std::to_string(keywords.size()) +
                              " Q[0]=" + std::to_string(keywords[0]);
    Result<TopLResult> got = (*engine)->Search(q);
    Result<TopLResult> want = (*rebuilt)->Search(q);
    Result<TopLResult> oracle = BruteForceTopL(expected_graph, q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(oracle.ok());
    ExpectSameCommunities(got->communities, want->communities, label);
    ExpectSameCommunities(got->communities, oracle->communities, label);
    found += got->communities.size();
  }
  EXPECT_GT(found, 0u);
  fs::remove_all(dir);
}

// Updates against a mmap-served artifact: the mapped snapshot must be
// materialized (never written through) and the patched state must match a
// rebuild; the artifact file on disk stays byte-identical.
TEST(DynamicUpdateTest, EngineUpdateOnMappedArtifact) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("topl_dynupd_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string graph_path = (dir / "graph.bin").string();
  const std::string index_path = (dir / "index.idx").string();

  ErdosRenyiOptions gen;
  gen.num_vertices = 60;
  gen.edge_prob = 0.09;
  gen.seed = 21;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());
  const Graph base = CopyGraph(*graph);
  ASSERT_TRUE(WriteGraphBinary(*graph, graph_path).ok());

  EngineOptions options;
  options.graph_path = graph_path;
  options.index_path = index_path;
  options.precompute = SweepPrecomputeOptions();
  options.num_threads = 2;
  options.save_built_index = true;
  {
    // First open builds + persists the artifact.
    Result<std::unique_ptr<Engine>> build = Engine::Open(options);
    ASSERT_TRUE(build.ok()) << build.status().ToString();
  }
  Result<std::unique_ptr<Engine>> engine = Engine::Open(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ((*engine)->index_source(), Engine::IndexSource::kMappedArtifact);
  const auto artifact_bytes_before = fs::file_size(index_path);

  Rng rng(5);
  const GraphDelta delta = MakeSweepDelta(base, rng, 6);
  Result<RebuildScope> scope = (*engine)->ApplyUpdate(delta);
  ASSERT_TRUE(scope.ok()) << scope.status().ToString();
  EXPECT_FALSE((*engine)->graph().IsMapped());

  Query q;
  q.keywords = SampleQueryKeywords(base, rng, 2);
  ASSERT_FALSE(q.keywords.empty());
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;

  Result<Graph> mutated = ApplyDelta(base, delta);
  ASSERT_TRUE(mutated.ok());
  EngineOptions rebuild_options;
  rebuild_options.precompute = options.precompute;
  rebuild_options.num_threads = 2;
  Result<std::unique_ptr<Engine>> rebuilt =
      Engine::FromGraph(std::move(mutated).value(), rebuild_options);
  ASSERT_TRUE(rebuilt.ok());
  Result<TopLResult> got = (*engine)->Search(q);
  Result<TopLResult> want = (*rebuilt)->Search(q);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ExpectSameCommunities(got->communities, want->communities, "mmap-update");

  EXPECT_EQ(fs::file_size(index_path), artifact_bytes_before);
  fs::remove_all(dir);
}

// The TSan target: queries streaming through the engine while updates swap
// snapshots underneath them. Every query must succeed against whichever
// epoch it pinned; afterwards the stats account for every query served.
TEST(DynamicUpdateTest, ConcurrentApplyUpdateAndSearch) {
  EngineOptions engine_options;
  engine_options.precompute = SweepPrecomputeOptions();
  engine_options.num_threads = 4;

  ErdosRenyiOptions gen;
  gen.num_vertices = 120;
  gen.edge_prob = 0.06;
  gen.seed = 31;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());
  const Graph base = CopyGraph(*graph);

  Result<std::unique_ptr<Engine>> engine =
      Engine::FromGraph(std::move(graph).value(), engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Rng rng(77);
  Query q;
  q.keywords = SampleQueryKeywords(base, rng, 2);
  ASSERT_FALSE(q.keywords.empty());
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;

  constexpr int kUpdates = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        Result<TopLResult> answer = (*engine)->Search(q);
        if (!answer.ok()) failures.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }

  for (int u = 0; u < kUpdates; ++u) {
    // Deltas are generated against the engine's *current* snapshot — this
    // thread is the only writer, so the snapshot cannot change under it.
    std::shared_ptr<const EngineSnapshot> current = (*engine)->snapshot();
    Rng update_rng(500 + u);
    const GraphDelta delta = MakeSweepDelta(*current->graph, update_rng, 4);
    Result<RebuildScope> scope = (*engine)->ApplyUpdate(delta);
    ASSERT_TRUE(scope.ok()) << scope.status().ToString();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  const EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.updates_applied, kUpdates);
  EXPECT_EQ(stats.snapshot_epoch, kUpdates);
  // Every search is accounted for, whether its context was retired or not.
  EXPECT_EQ(stats.topl_queries, served.load());
  EXPECT_EQ(stats.live_snapshots, 1u);  // all readers joined; only current
}

}  // namespace
}  // namespace topl
