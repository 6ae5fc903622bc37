// The TOPLIDX2 storage layer: an owned-memory offline phase and its
// mmap-loaded twin must be indistinguishable to the detectors, the artifact
// must reject corruption via per-section checksums, and Engine::Open must
// take the zero-copy path (reusing engine_test's exact-match bar: same
// communities, same member lists, bit-identical scores).

#include "storage/artifact.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/dtopl_detector.h"
#include "core/topl_detector.h"
#include "engine/engine.h"
#include "graph/binary_io.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "storage/mapped_file.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::BuildIndexFor;
using testing::BuiltIndex;

class ArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("topl_artifact_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    graph_ = std::make_unique<Graph>(MakeTestGraph(120, /*seed=*/81));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Graph MakeTestGraph(std::size_t n, std::uint64_t seed) {
    SmallWorldOptions gen;
    gen.num_vertices = n;
    gen.seed = seed;
    gen.keywords.domain_size = 10;
    Result<Graph> g = MakeSmallWorld(gen);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return std::move(g).value();
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  /// A handful of queries that actually match vertices of the 10-keyword
  /// domain, mixing radii and truss levels.
  static std::vector<Query> TestQueries() {
    std::vector<Query> queries;
    for (std::uint32_t i = 0; i < 4; ++i) {
      Query q;
      q.keywords = {static_cast<KeywordId>(i), static_cast<KeywordId>(i + 2),
                    static_cast<KeywordId>(i + 5)};
      q.k = 3;
      q.radius = 1 + i % 2;
      q.theta = 0.2;
      q.top_l = 4;
      queries.push_back(std::move(q));
    }
    return queries;
  }

  static void ExpectSameCommunities(const std::vector<CommunityResult>& actual,
                                    const std::vector<CommunityResult>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].community.center, expected[i].community.center) << i;
      EXPECT_EQ(actual[i].community.vertices, expected[i].community.vertices) << i;
      EXPECT_EQ(actual[i].influence.vertices, expected[i].influence.vertices) << i;
      EXPECT_EQ(actual[i].score(), expected[i].score()) << i;
    }
  }

  static std::vector<char> ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  static void WriteAll(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
  std::unique_ptr<Graph> graph_;
};

TEST_F(ArtifactTest, MappedTwinAnswersIdenticalTopLAndDTopLQueries) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());

  Result<MappedIndex> mapped = ArtifactReader::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->graph.IsMapped());
  EXPECT_TRUE(mapped->pre->IsMapped());
  EXPECT_TRUE(mapped->tree.IsMapped());
  EXPECT_FALSE(graph_->IsMapped());
  ASSERT_EQ(mapped->graph.NumVertices(), graph_->NumVertices());
  ASSERT_EQ(mapped->graph.NumEdges(), graph_->NumEdges());

  TopLDetector owned_topl(*graph_, built.pre(), built.tree);
  TopLDetector mapped_topl(mapped->graph, *mapped->pre, mapped->tree);
  DTopLDetector owned_dtopl(*graph_, built.pre(), built.tree);
  DTopLDetector mapped_dtopl(mapped->graph, *mapped->pre, mapped->tree);
  DTopLOptions dtopl_options;
  dtopl_options.n_factor = 3;

  for (const Query& q : TestQueries()) {
    Result<TopLResult> a = owned_topl.Search(q);
    Result<TopLResult> b = mapped_topl.Search(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameCommunities(b->communities, a->communities);
    EXPECT_EQ(a->stats.heap_pops, b->stats.heap_pops);
    EXPECT_EQ(a->stats.candidates_refined, b->stats.candidates_refined);
    EXPECT_EQ(a->stats.TotalPruned(), b->stats.TotalPruned());

    Result<DTopLResult> da = owned_dtopl.Search(q, dtopl_options);
    Result<DTopLResult> db = mapped_dtopl.Search(q, dtopl_options);
    ASSERT_TRUE(da.ok()) << da.status().ToString();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ExpectSameCommunities(db->communities, da->communities);
    EXPECT_EQ(da->diversity_score, db->diversity_score);
  }
}

TEST_F(ArtifactTest, MappedStructuresOutliveTheMappedIndex) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());

  // Move the pieces out and drop the MappedIndex (and even delete the file:
  // the mapping holds the pages).
  Result<MappedIndex> opened = ArtifactReader::Open(path);
  ASSERT_TRUE(opened.ok());
  Graph graph = std::move(opened->graph);
  std::unique_ptr<PrecomputedData> pre = std::move(opened->pre);
  TreeIndex tree = std::move(opened->tree);
  opened = Status::Internal("dropped");
  std::filesystem::remove(path);

  TopLDetector detector(graph, *pre, tree);
  Result<TopLResult> answer = detector.Search(TestQueries()[0]);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->communities.empty());
}

TEST_F(ArtifactTest, CopyOfMappedPrecomputeIsOwnedAndEqual) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());
  Result<MappedIndex> mapped = ArtifactReader::Open(path);
  ASSERT_TRUE(mapped.ok());

  PrecomputedData copy = *mapped->pre;  // deep copy materializes the views
  EXPECT_FALSE(copy.IsMapped());
  for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
    EXPECT_EQ(copy.CenterTrussBound(v), built.pre().CenterTrussBound(v));
    for (std::uint32_t r = 1; r <= copy.r_max(); ++r) {
      EXPECT_EQ(copy.SupportBound(v, r), built.pre().SupportBound(v, r));
      for (std::uint32_t z = 0; z < copy.num_thetas(); ++z) {
        EXPECT_EQ(copy.ScoreBound(v, r, z), built.pre().ScoreBound(v, r, z));
      }
    }
  }
}

TEST_F(ArtifactTest, EngineOpensArtifactThroughMmapPathWithIdenticalResults) {
  const std::string graph_path = Path("graph.bin");
  const std::string index_path = Path("index.idx");
  ASSERT_TRUE(WriteGraphBinary(*graph_, graph_path).ok());
  const BuiltIndex built = BuildIndexFor(*graph_);
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, index_path).ok());

  EngineOptions options;
  options.graph_path = graph_path;
  options.index_path = index_path;
  options.build_index_if_missing = false;
  Result<std::unique_ptr<Engine>> mmap_engine = Engine::Open(options);
  ASSERT_TRUE(mmap_engine.ok()) << mmap_engine.status().ToString();
  EXPECT_EQ((*mmap_engine)->index_source(), Engine::IndexSource::kMappedArtifact);
  EXPECT_TRUE((*mmap_engine)->graph().IsMapped());
  EXPECT_TRUE((*mmap_engine)->precomputed().IsMapped());
  EXPECT_TRUE((*mmap_engine)->tree().IsMapped());

  // The same offline phase built in-process must answer identically.
  Result<std::unique_ptr<Engine>> built_engine =
      Engine::FromGraph(MakeTestGraph(120, /*seed=*/81));
  ASSERT_TRUE(built_engine.ok()) << built_engine.status().ToString();
  EXPECT_EQ((*built_engine)->index_source(), Engine::IndexSource::kInMemory);

  for (const Query& q : TestQueries()) {
    Result<TopLResult> a = (*built_engine)->Search(q);
    Result<TopLResult> b = (*mmap_engine)->Search(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameCommunities(b->communities, a->communities);
  }
}

TEST_F(ArtifactTest, EngineOpensArtifactWithoutGraphFile) {
  const std::string index_path = Path("index.idx");
  const BuiltIndex built = BuildIndexFor(*graph_);
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, index_path).ok());

  EngineOptions options;
  options.index_path = index_path;  // no graph_path: embedded graph serves
  options.build_index_if_missing = false;
  Result<std::unique_ptr<Engine>> engine = Engine::Open(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->graph().NumVertices(), graph_->NumVertices());
  Result<TopLResult> answer = (*engine)->Search(TestQueries()[0]);
  EXPECT_TRUE(answer.ok());
}

TEST_F(ArtifactTest, EngineRejectsGraphArtifactMismatchDistinctly) {
  // Artifact built over a 120-vertex graph; graph file has 80 vertices.
  const std::string graph_path = Path("other_graph.bin");
  const std::string index_path = Path("index.idx");
  const Graph other = MakeTestGraph(80, /*seed=*/7);
  ASSERT_TRUE(WriteGraphBinary(other, graph_path).ok());
  const BuiltIndex built = BuildIndexFor(*graph_);
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, index_path).ok());

  EngineOptions options;
  options.graph_path = graph_path;
  options.index_path = index_path;
  options.build_index_if_missing = false;
  Result<std::unique_ptr<Engine>> engine = Engine::Open(options);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
  EXPECT_NE(engine.status().message().find("graph/artifact mismatch"),
            std::string::npos)
      << engine.status().ToString();
}

TEST_F(ArtifactTest, EngineSavesBuiltIndexAsArtifact) {
  const std::string graph_path = Path("graph.bin");
  const std::string index_path = Path("saved.idx");
  ASSERT_TRUE(WriteGraphBinary(*graph_, graph_path).ok());

  EngineOptions options;
  options.graph_path = graph_path;
  options.index_path = index_path;
  options.precompute.r_max = 2;
  Result<std::unique_ptr<Engine>> first = Engine::Open(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*first)->index_source(), Engine::IndexSource::kInMemory);
  ASSERT_TRUE(ArtifactReader::IsArtifact(index_path));

  Result<std::unique_ptr<Engine>> second = Engine::Open(options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ((*second)->index_source(), Engine::IndexSource::kMappedArtifact);
  for (const Query& q : TestQueries()) {
    Result<TopLResult> a = (*first)->Search(q);
    Result<TopLResult> b = (*second)->Search(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameCommunities(b->communities, a->communities);
  }
}

TEST_F(ArtifactTest, InPlaceRewritePreservesTheArtifact) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());
  const std::vector<char> original = ReadAll(path);

  // Migrate with --in == --out: the payload spans are views into the very
  // mapping being rewritten, so Write must not truncate in place.
  Result<MappedIndex> mapped = ArtifactReader::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->pre->IsMapped());
  ASSERT_TRUE(
      ArtifactWriter::Write(mapped->graph, *mapped->pre, mapped->tree, path)
          .ok());
  EXPECT_EQ(ReadAll(path), original);
  EXPECT_TRUE(ArtifactReader::Open(path).ok());
}

TEST_F(ArtifactTest, InspectReportsSectionsAndChecksums) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());

  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 1u);
  EXPECT_TRUE(info->checksums_ok);
  EXPECT_EQ(info->num_vertices, graph_->NumVertices());
  EXPECT_EQ(info->num_edges, graph_->NumEdges());
  EXPECT_EQ(info->sections.size(), 17u);
  EXPECT_EQ(info->sections.front().name, "meta");
  for (const ArtifactSectionInfo& s : info->sections) {
    EXPECT_EQ(s.offset % 64, 0u) << s.name;
  }
}

TEST_F(ArtifactTest, FlippedBytesInEverySectionAreRejected) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());
  const std::vector<char> original = ReadAll(path);

  // One flip in the magic, one in the section table, and one in the middle
  // of every non-empty section payload: each must surface as Corruption.
  std::vector<std::size_t> positions = {0, 64 + 17};
  for (const ArtifactSectionInfo& s : info->sections) {
    if (s.size > 0) positions.push_back(s.offset + s.size / 2);
  }
  for (const std::size_t pos : positions) {
    ASSERT_LT(pos, original.size());
    std::vector<char> mutated = original;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x20);
    WriteAll(path, mutated);
    Result<MappedIndex> opened = ArtifactReader::Open(path);
    ASSERT_FALSE(opened.ok()) << "flip at " << pos << " was accepted";
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
  // The pristine file still opens.
  WriteAll(path, original);
  EXPECT_TRUE(ArtifactReader::Open(path).ok());
}

TEST_F(ArtifactTest, TruncationsAndTrailingBytesAreRejected) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());
  const std::vector<char> original = ReadAll(path);

  for (const double fraction : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const std::size_t len = static_cast<std::size_t>(
        static_cast<double>(original.size()) * fraction);
    WriteAll(path, std::vector<char>(original.begin(), original.begin() + len));
    Result<MappedIndex> opened = ArtifactReader::Open(path);
    ASSERT_FALSE(opened.ok()) << "truncation to " << len << " was accepted";
    EXPECT_TRUE(opened.status().IsCorruption());
  }
  std::vector<char> extended = original;
  extended.insert(extended.end(), {'e', 'x', 't', 'r', 'a'});
  WriteAll(path, extended);
  EXPECT_TRUE(ArtifactReader::Open(path).status().IsCorruption());
}

TEST_F(ArtifactTest, ChecksumVerificationCanBeSkippedButStructureIsStillChecked) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());

  ArtifactReadOptions no_verify;
  no_verify.verify_checksums = false;
  EXPECT_TRUE(ArtifactReader::Open(path, no_verify).ok());

  // Structural damage (out-of-range root) is caught even without checksums:
  // corrupt the meta block's tree_root field directly.
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());
  std::vector<char> mutated = ReadAll(path);
  const std::size_t meta_offset = info->sections.front().offset;
  const std::size_t root_offset = meta_offset + 48;  // MetaBlock::tree_root
  std::uint32_t bogus_root = 0xFFFFFFFF;
  std::memcpy(mutated.data() + root_offset, &bogus_root, sizeof(bogus_root));
  WriteAll(path, mutated);
  Result<MappedIndex> opened = ArtifactReader::Open(path, no_verify);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption());
}

TEST_F(ArtifactTest, HugeIntermediateOffsetIsRejectedWithoutChecksums) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());

  // offsets[1] = 2^60: monotone w.r.t. offsets[0], wildly past the arcs
  // section. Validation must bound the whole offsets array before
  // dereferencing arcs through it — even with the checksum pass disabled.
  std::vector<char> mutated = ReadAll(path);
  const ArtifactSectionInfo& offsets_section = info->sections[1];
  ASSERT_EQ(offsets_section.name, "g.offsets");
  const std::uint64_t huge = 1ULL << 60;
  std::memcpy(mutated.data() + offsets_section.offset + 8, &huge, sizeof(huge));
  WriteAll(path, mutated);

  ArtifactReadOptions no_verify;
  no_verify.verify_checksums = false;
  Result<MappedIndex> opened = ArtifactReader::Open(path, no_verify);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption());
  EXPECT_NE(opened.status().message().find("non-monotonic arc offsets"),
            std::string::npos)
      << opened.status().ToString();
}

TEST_F(ArtifactTest, MissingFileIsIOError) {
  EXPECT_TRUE(ArtifactReader::Open(Path("absent.idx")).status().IsIOError());
  EXPECT_FALSE(ArtifactReader::IsArtifact(Path("absent.idx")));
}

TEST_F(ArtifactTest, JunkFileIsNotAnArtifact) {
  const std::string path = Path("junk.bin");
  WriteAll(path, std::vector<char>(256, 'x'));
  EXPECT_FALSE(ArtifactReader::IsArtifact(path));
  EXPECT_TRUE(ArtifactReader::Open(path).status().IsCorruption());
}

TEST_F(ArtifactTest, EngineOpenRefusesANonArtifactIndexFile) {
  // An existing index file that is not TOPLIDX2 must fail Open as it is:
  // building the index in its place would overwrite the caller's file.
  const std::string graph_path = Path("graph.bin");
  const std::string index_path = Path("junk.idx");
  ASSERT_TRUE(WriteGraphBinary(*graph_, graph_path).ok());
  const std::vector<char> junk(256, 'x');
  WriteAll(index_path, junk);

  EngineOptions options;
  options.graph_path = graph_path;
  options.index_path = index_path;
  options.build_index_if_missing = true;
  options.save_built_index = true;
  Result<std::unique_ptr<Engine>> engine = Engine::Open(options);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsCorruption()) << engine.status().ToString();
  EXPECT_NE(engine.status().message().find(index_path), std::string::npos)
      << engine.status().ToString();
  EXPECT_EQ(ReadAll(index_path), junk);
}

TEST_F(ArtifactTest, CompressedArtifactIsSmallerAndAnswersIdentically) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string raw_path = Path("raw.idx");
  const std::string packed_path = Path("packed.idx");
  ASSERT_TRUE(
      ArtifactWriter::Write(*graph_, built.pre(), built.tree, raw_path).ok());
  ArtifactWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree,
                                    packed_path, compress)
                  .ok());
  EXPECT_LT(std::filesystem::file_size(packed_path),
            std::filesystem::file_size(raw_path));

  // The raw write stays version 1 (byte-stable for old readers); compression
  // is what opts in to version 2 and per-section encodings.
  Result<ArtifactInfo> raw_info = ArtifactReader::Inspect(raw_path);
  Result<ArtifactInfo> packed_info = ArtifactReader::Inspect(packed_path);
  ASSERT_TRUE(raw_info.ok());
  ASSERT_TRUE(packed_info.ok());
  EXPECT_EQ(raw_info->version, 1u);
  EXPECT_EQ(packed_info->version, 2u);
  std::size_t encoded_sections = 0;
  for (const ArtifactSectionInfo& s : packed_info->sections) {
    if (s.encoding != 0) ++encoded_sections;
  }
  EXPECT_GT(encoded_sections, 0u);

  Result<MappedIndex> raw = ArtifactReader::Open(raw_path);
  Result<MappedIndex> packed = ArtifactReader::Open(packed_path);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_FALSE(raw->compressed);
  EXPECT_TRUE(packed->compressed);

  TopLDetector raw_topl(raw->graph, *raw->pre, raw->tree);
  TopLDetector packed_topl(packed->graph, *packed->pre, packed->tree);
  for (const Query& q : TestQueries()) {
    Result<TopLResult> a = raw_topl.Search(q);
    Result<TopLResult> b = packed_topl.Search(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameCommunities(b->communities, a->communities);
  }
}

TEST_F(ArtifactTest, UnknownVersionThreeIsRejectedNotReadAsVersionTwo) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("v3.idx");
  ArtifactWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(
      ArtifactWriter::Write(*graph_, built.pre(), built.tree, path, compress)
          .ok());
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->version, 2u);

  // Header layout: 8-byte magic, then the u32 version. The header's only
  // checksum (table_checksum) covers the section table, which is untouched,
  // so after the bump every checksum still matches and the version field
  // alone decides whether the reader accepts the file.
  std::vector<char> mutated = ReadAll(path);
  const std::uint32_t version = 3;
  std::memcpy(mutated.data() + 8, &version, sizeof(version));
  WriteAll(path, mutated);

  Result<MappedIndex> opened = ArtifactReader::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  EXPECT_NE(opened.status().message().find("unsupported artifact version 3"),
            std::string::npos)
      << opened.status().ToString();
  EXPECT_TRUE(ArtifactReader::Inspect(path).status().IsCorruption());
}

TEST_F(ArtifactTest, CompressedSectionCorruptionIsRejected) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("packed.idx");
  ArtifactWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(
      ArtifactWriter::Write(*graph_, built.pre(), built.tree, path, compress)
          .ok());
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());
  const std::vector<char> original = ReadAll(path);

  // Even with the checksum pass disabled, mangled varint payloads must fail
  // the decode (structurally), never crash or mis-decode silently.
  ArtifactReadOptions no_verify;
  no_verify.verify_checksums = false;
  std::size_t rejected = 0;
  for (const ArtifactSectionInfo& s : info->sections) {
    if (s.encoding == 0 || s.size == 0) continue;
    std::vector<char> mutated = original;
    // Truncate the stream logically: overwrite its tail with continuation
    // bytes so the last varint never terminates.
    for (std::size_t i = s.size > 4 ? s.size - 4 : 0; i < s.size; ++i) {
      mutated[s.offset + i] = static_cast<char>(0x80);
    }
    WriteAll(path, mutated);
    Result<MappedIndex> opened = ArtifactReader::Open(path, no_verify);
    if (!opened.ok()) {
      EXPECT_TRUE(opened.status().IsCorruption()) << s.name;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  WriteAll(path, original);
  EXPECT_TRUE(ArtifactReader::Open(path).ok());
}

TEST_F(ArtifactTest, ExternalIdPermutationRoundTrips) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("extids.idx");
  // Any bijection round-trips; reverse order exercises non-identity fully.
  std::vector<VertexId> permutation(graph_->NumVertices());
  for (VertexId v = 0; v < permutation.size(); ++v) {
    permutation[v] = static_cast<VertexId>(permutation.size() - 1 - v);
  }
  ArtifactWriteOptions options;
  options.external_ids = permutation;
  ASSERT_TRUE(
      ArtifactWriter::Write(*graph_, built.pre(), built.tree, path, options)
          .ok());

  Result<MappedIndex> mapped = ArtifactReader::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->external_ids, permutation);
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2u);
  EXPECT_TRUE(info->has_external_ids);
}

TEST_F(ArtifactTest, WriterRejectsNonPermutationExternalIds) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("bad_extids.idx");

  std::vector<VertexId> wrong_length(graph_->NumVertices() - 1, 0);
  ArtifactWriteOptions options;
  options.external_ids = wrong_length;
  EXPECT_TRUE(
      ArtifactWriter::Write(*graph_, built.pre(), built.tree, path, options)
          .IsInvalidArgument());

  std::vector<VertexId> duplicate(graph_->NumVertices());
  for (VertexId v = 0; v < duplicate.size(); ++v) duplicate[v] = v;
  duplicate[1] = duplicate[0];
  options.external_ids = duplicate;
  EXPECT_TRUE(
      ArtifactWriter::Write(*graph_, built.pre(), built.tree, path, options)
          .IsInvalidArgument());
}

TEST_F(ArtifactTest, CorruptedExternalIdSectionIsRejected) {
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("extids.idx");
  std::vector<VertexId> permutation(graph_->NumVertices());
  for (VertexId v = 0; v < permutation.size(); ++v) permutation[v] = v;
  ArtifactWriteOptions options;
  options.external_ids = permutation;
  ASSERT_TRUE(
      ArtifactWriter::Write(*graph_, built.pre(), built.tree, path, options)
          .ok());
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());
  const ArtifactSectionInfo* extids = nullptr;
  for (const ArtifactSectionInfo& s : info->sections) {
    if (s.name == "g.extids") extids = &s;
  }
  ASSERT_NE(extids, nullptr);
  const std::vector<char> original = ReadAll(path);
  ArtifactReadOptions no_verify;
  no_verify.verify_checksums = false;

  // A duplicated entry (no longer a bijection) must be rejected even without
  // the checksum pass.
  std::vector<char> duplicated = original;
  std::memcpy(duplicated.data() + extids->offset,
              duplicated.data() + extids->offset + sizeof(VertexId),
              sizeof(VertexId));
  WriteAll(path, duplicated);
  Result<MappedIndex> opened = ArtifactReader::Open(path, no_verify);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();

  // An out-of-range entry likewise.
  std::vector<char> out_of_range = original;
  const VertexId bogus = static_cast<VertexId>(graph_->NumVertices() + 13);
  std::memcpy(out_of_range.data() + extids->offset, &bogus, sizeof(bogus));
  WriteAll(path, out_of_range);
  opened = ArtifactReader::Open(path, no_verify);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();

  WriteAll(path, original);
  EXPECT_TRUE(ArtifactReader::Open(path, no_verify).ok());
}

TEST_F(ArtifactTest, TreeShapeCorruptionIsRejectedWithoutChecksums) {
  // A query marks the subtrees that hold its keyword core in one ascending
  // pass over the arena and a vertex→leaf map, so the reader must reject an
  // arena whose children do not precede their parent, leaves that do not
  // partition the vertex slots, and a vertex order that is not a
  // permutation, even with the checksum pass disabled.
  TreeIndexOptions shape;
  shape.fanout = 2;
  shape.leaf_capacity = 4;
  const BuiltIndex built = BuildIndexFor(*graph_, PrecomputeOptions(), shape);
  const std::string path = Path("tree.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*graph_, built.pre(), built.tree, path).ok());
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());
  std::size_t nodes_offset = 0;
  std::size_t sorted_offset = 0;
  for (const ArtifactSectionInfo& section : info->sections) {
    if (section.name == "t.nodes") nodes_offset = section.offset;
    if (section.name == "t.sorted") sorted_offset = section.offset;
  }
  ASSERT_GT(nodes_offset, 0u);
  ASSERT_GT(sorted_offset, 0u);
  const std::vector<char> original = ReadAll(path);
  ArtifactReadOptions no_verify;
  no_verify.verify_checksums = false;
  ASSERT_TRUE(ArtifactReader::Open(path, no_verify).ok());

  const auto node_at = [&](const std::vector<char>& bytes, std::uint32_t id) {
    TreeIndex::Node node;
    std::memcpy(&node, bytes.data() + nodes_offset + id * sizeof(node),
                sizeof(node));
    return node;
  };
  const auto expect_rejected = [&](const std::vector<char>& bytes,
                                   const std::string& reason) {
    WriteAll(path, bytes);
    Result<MappedIndex> opened = ArtifactReader::Open(path, no_verify);
    ASSERT_FALSE(opened.ok()) << reason;
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
    EXPECT_NE(opened.status().message().find(reason), std::string::npos)
        << opened.status().ToString();
  };
  const auto with_node = [&](std::uint32_t id, const TreeIndex::Node& node) {
    std::vector<char> bytes = original;
    std::memcpy(bytes.data() + nodes_offset + id * sizeof(node), &node,
                sizeof(node));
    return bytes;
  };

  // The first internal node, and the first leaf followed by another leaf.
  const std::uint32_t num_nodes = static_cast<std::uint32_t>(built.tree.NumNodes());
  std::uint32_t internal = num_nodes;
  std::uint32_t leaf = num_nodes;
  for (std::uint32_t id = 0; id < num_nodes; ++id) {
    const TreeIndex::Node node = node_at(original, id);
    if (!node.is_leaf && internal == num_nodes) internal = id;
    if (node.is_leaf && leaf == num_nodes && id + 1 < num_nodes &&
        node_at(original, id + 1).is_leaf) {
      leaf = id;
    }
  }
  ASSERT_LT(internal + 2, num_nodes);  // not the root
  ASSERT_LT(leaf, num_nodes);

  // A child range that ends past its parent, still inside the arena.
  TreeIndex::Node node = node_at(original, internal);
  ASSERT_GE(internal + 2, node.num_children);
  node.first_child = internal + 2 - node.num_children;
  expect_rejected(with_node(internal, node), "node does not follow its children");

  // Two leaves claiming one slot, and a slot no leaf claims.
  node = node_at(original, leaf);
  ASSERT_EQ(node_at(original, leaf + 1).begin, node.end);
  ++node.end;
  expect_rejected(with_node(leaf, node), "leaves overlap");
  node.end -= 2;
  ASSERT_LE(node.begin, node.end);
  expect_rejected(with_node(leaf, node), "leaves do not cover every vertex");

  // A vertex order that repeats a vertex (and so misses another).
  std::vector<char> duplicated = original;
  std::memcpy(duplicated.data() + sorted_offset,
              duplicated.data() + sorted_offset + sizeof(VertexId),
              sizeof(VertexId));
  expect_rejected(duplicated, "sorted vertices are not a permutation");

  WriteAll(path, original);
  EXPECT_TRUE(ArtifactReader::Open(path, no_verify).ok());
}

TEST_F(ArtifactTest, CompressedCorruptionSweepStaysRejectedWithChecksums) {
  // The v1 flip sweep (FlippedBytesInEverySectionAreRejected) re-run over a
  // compressed v2 artifact: per-section checksums still catch every flip.
  const BuiltIndex built = BuildIndexFor(*graph_);
  const std::string path = Path("packed.idx");
  ArtifactWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(
      ArtifactWriter::Write(*graph_, built.pre(), built.tree, path, compress)
          .ok());
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  ASSERT_TRUE(info.ok());
  const std::vector<char> original = ReadAll(path);

  std::vector<std::size_t> positions = {0};
  for (const ArtifactSectionInfo& s : info->sections) {
    if (s.size > 0) positions.push_back(s.offset + s.size / 2);
  }
  for (const std::size_t pos : positions) {
    ASSERT_LT(pos, original.size());
    std::vector<char> mutated = original;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x20);
    WriteAll(path, mutated);
    Result<MappedIndex> opened = ArtifactReader::Open(path);
    ASSERT_FALSE(opened.ok()) << "flip at " << pos << " was accepted";
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
  WriteAll(path, original);
  EXPECT_TRUE(ArtifactReader::Open(path).ok());
}

}  // namespace
}  // namespace topl
