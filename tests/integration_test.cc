// End-to-end pipeline tests: generate/persist a graph, build + persist the
// index, and answer TopL-ICDE / DTopL-ICDE queries across the full stack —
// exactly the flow a library user runs (README quickstart).

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "topl.h"

namespace topl {
namespace {

using testing::Scores;
using testing::VerifySeedCommunity;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("topl_integration_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
  std::vector<std::vector<double>> scores_;
  std::vector<std::vector<VertexId>> centers_;
};

TEST_F(IntegrationTest, FullPipelineOverPersistedArtifacts) {
  // 1. Generate a synthetic social network and persist it.
  SmallWorldOptions gen;
  gen.num_vertices = 300;
  gen.seed = 2024;
  gen.keywords.domain_size = 10;
  Result<Graph> generated = MakeSmallWorld(gen);
  ASSERT_TRUE(generated.ok());
  ASSERT_TRUE(WriteGraphBinary(*generated, Path("graph.bin")).ok());

  // 2. Reload it (as a separate session would).
  Result<Graph> graph = ReadGraphBinary(Path("graph.bin"));
  ASSERT_TRUE(graph.ok());

  // 3. Offline phase: precompute + index + persist.
  PrecomputeOptions pre_opts;
  pre_opts.num_threads = 2;
  Result<PrecomputedData> pre = PrecomputedData::Build(*graph, pre_opts);
  ASSERT_TRUE(pre.ok());
  Result<TreeIndex> tree = TreeIndex::Build(*graph, *pre);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(
      ArtifactWriter::Write(*graph, *pre, *tree, Path("index.idx")).ok());

  // 4. Reload the index (mmap-ed, graph included) and query.
  Result<MappedIndex> loaded = ArtifactReader::Open(Path("index.idx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  TopLDetector detector(loaded->graph, *loaded->pre, loaded->tree);
  Query q;
  q.keywords = {0, 1, 2, 3, 4};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 5;
  Result<TopLResult> answer = detector.Search(q);
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->communities.empty());
  for (const CommunityResult& c : answer->communities) {
    EXPECT_TRUE(VerifySeedCommunity(*graph, q, c.community));
    EXPECT_GT(c.score(), 0.0);
  }

  // 5. Cross-check against the exhaustive reference.
  Result<TopLResult> brute = BruteForceTopL(*graph, q);
  ASSERT_TRUE(brute.ok());
  const auto a = Scores(answer->communities);
  const auto b = Scores(brute->communities);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);

  // 6. DTopL on the same index.
  DTopLDetector dtopl(loaded->graph, *loaded->pre, loaded->tree);
  DTopLOptions dopts;
  dopts.n_factor = 3;
  Result<DTopLResult> diversified = dtopl.Search(q, dopts);
  ASSERT_TRUE(diversified.ok());
  EXPECT_LE(diversified->communities.size(), q.top_l);
  EXPECT_GT(diversified->diversity_score, 0.0);
}

TEST_F(IntegrationTest, SnapPipelineWithDictionary) {
  // SNAP ingestion with human-readable keywords resolved via the dictionary,
  // mirroring a user bringing their own labeled data.
  {
    std::ofstream out(Path("edges.txt"));
    out << "# toy co-purchase network\n";
    // Two K4s sharing a bridge.
    out << "100 101\n100 102\n100 103\n101 102\n101 103\n102 103\n";
    out << "200 201\n200 202\n200 203\n201 202\n201 203\n202 203\n";
    out << "103 200\n";
  }
  EdgeListLoadOptions load;
  load.assign_attributes = true;
  load.keywords.keywords_per_vertex = 2;
  load.keywords.domain_size = 4;
  Result<Graph> graph = LoadSnapEdgeList(Path("edges.txt"), load);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->NumVertices(), 8u);

  KeywordDictionary dict;
  // Ids 0..3 exist in the domain; give them names for the query surface.
  const std::vector<KeywordId> query_ids =
      dict.InternAll({"movies", "books", "sports", "travel"});
  ASSERT_EQ(query_ids.size(), 4u);

  PrecomputeOptions pre_opts;
  pre_opts.num_threads = 1;
  Result<PrecomputedData> pre = PrecomputedData::Build(*graph, pre_opts);
  ASSERT_TRUE(pre.ok());
  Result<TreeIndex> tree = TreeIndex::Build(*graph, *pre);
  ASSERT_TRUE(tree.ok());
  TopLDetector detector(*graph, *pre, *tree);
  Query q;
  q.keywords = query_ids;  // all four: every vertex qualifies
  q.k = 4;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 2;
  Result<TopLResult> answer = detector.Search(q);
  ASSERT_TRUE(answer.ok());
  // Each K4 yields a 4-truss community; the bridge edge cannot.
  ASSERT_FALSE(answer->communities.empty());
  for (const CommunityResult& c : answer->communities) {
    EXPECT_EQ(c.community.vertices.size(), 4u);
  }
}

TEST_F(IntegrationTest, DeterministicEndToEnd) {
  // The same seed must reproduce identical answers across full rebuilds —
  // the reproducibility claim of the benchmark harness.
  auto run_once = [this](const std::string& tag) {
    SmallWorldOptions gen;
    gen.num_vertices = 150;
    gen.seed = 7;
    gen.keywords.domain_size = 8;
    Result<Graph> g = MakeSmallWorld(gen);
    EXPECT_TRUE(g.ok());
    ASSERT_TRUE(WriteGraphBinary(*g, Path("graph_" + tag + ".bin")).ok());
    PrecomputeOptions pre_opts;
    pre_opts.num_threads = 4;  // parallelism must not break determinism
    Result<PrecomputedData> pre = PrecomputedData::Build(*g, pre_opts);
    ASSERT_TRUE(pre.ok());
    Result<TreeIndex> tree = TreeIndex::Build(*g, *pre);
    ASSERT_TRUE(tree.ok());
    TopLDetector detector(*g, *pre, *tree);
    Query q;
    q.keywords = {0, 1, 2};
    q.k = 3;
    q.radius = 2;
    q.theta = 0.2;
    q.top_l = 5;
    Result<TopLResult> answer = detector.Search(q);
    ASSERT_TRUE(answer.ok());
    std::vector<VertexId> centers;
    for (const CommunityResult& c : answer->communities) {
      centers.push_back(c.community.center);
    }
    scores_.push_back(Scores(answer->communities));
    centers_.push_back(centers);
  };
  run_once("a");
  run_once("b");
  ASSERT_EQ(scores_.size(), 2u);
  EXPECT_EQ(scores_[0], scores_[1]);
  EXPECT_EQ(centers_[0], centers_[1]);
}

}  // namespace
}  // namespace topl
