// Robustness fuzzing of the binary codecs: a reader fed truncated or
// bit-flipped files must return a clean Status (never crash, never hand back
// a structurally invalid object). Complements the targeted corruption cases
// in io_test / artifact_test with a sweep over corruption positions.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "common/rng.h"
#include "graph/binary_io.h"
#include "graph/delta_io.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "gtest/gtest.h"
#include "storage/artifact.h"
#include "storage/update_journal.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::BuildIndexFor;
using testing::BuiltIndex;

class SerializationFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("topl_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::vector<char> ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  void WriteAll(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

TEST_F(SerializationFuzzTest, GraphTruncationSweepNeverCrashes) {
  SmallWorldOptions gen;
  gen.num_vertices = 60;
  gen.seed = 17;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const std::string path = Path("g.bin");
  ASSERT_TRUE(WriteGraphBinary(*g, path).ok());
  const std::vector<char> bytes = ReadAll(path);

  // Every truncation length across the file (stride keeps runtime sane).
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    WriteAll(path, std::vector<char>(bytes.begin(), bytes.begin() + len));
    Result<Graph> loaded = ReadGraphBinary(path);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << len << " parsed";
  }
  // The untouched file still round-trips.
  WriteAll(path, bytes);
  EXPECT_TRUE(ReadGraphBinary(path).ok());
}

TEST_F(SerializationFuzzTest, GraphBitFlipsNeverYieldInvalidGraph) {
  SmallWorldOptions gen;
  gen.num_vertices = 50;
  gen.seed = 18;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const std::string path = Path("g.bin");
  ASSERT_TRUE(WriteGraphBinary(*g, path).ok());
  const std::vector<char> original = ReadAll(path);

  Rng rng(19);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> mutated = original;
    const std::size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.NextBounded(8)));
    WriteAll(path, mutated);
    Result<Graph> loaded = ReadGraphBinary(path);
    if (!loaded.ok()) continue;  // rejected: fine
    // Accepted mutants must still be structurally sound: arcs in range,
    // neighbor lists sorted, edge ids consistent.
    const Graph& m = *loaded;
    for (VertexId v = 0; v < m.NumVertices(); ++v) {
      VertexId prev = kInvalidVertex;
      for (const Graph::Arc& arc : m.Neighbors(v)) {
        ASSERT_LT(arc.to, m.NumVertices());
        ASSERT_LT(arc.edge, m.NumEdges());
        if (prev != kInvalidVertex) {
          ASSERT_GT(arc.to, prev);
        }
        prev = arc.to;
      }
    }
  }
}

TEST_F(SerializationFuzzTest, ArtifactTruncationSweepNeverCrashes) {
  SmallWorldOptions gen;
  gen.num_vertices = 60;
  gen.seed = 23;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const BuiltIndex built = BuildIndexFor(*g);
  const std::string path = Path("a.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*g, built.pre(), built.tree, path).ok());
  const std::vector<char> bytes = ReadAll(path);

  for (std::size_t len = 0; len < bytes.size(); len += 101) {
    WriteAll(path, std::vector<char>(bytes.begin(), bytes.begin() + len));
    Result<MappedIndex> loaded = ArtifactReader::Open(path);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << len << " parsed";
  }
  WriteAll(path, bytes);
  EXPECT_TRUE(ArtifactReader::Open(path).ok());
}

TEST_F(SerializationFuzzTest, ArtifactBitFlipsAreRejectedOrHarmless) {
  SmallWorldOptions gen;
  gen.num_vertices = 50;
  gen.seed = 24;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const BuiltIndex built = BuildIndexFor(*g);
  const std::string path = Path("a.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*g, built.pre(), built.tree, path).ok());
  const std::vector<char> original = ReadAll(path);

  // Reference answer from the pristine artifact.
  Query q;
  q.keywords = {0, 1, 2, 3, 4};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 5;
  std::vector<double> reference;
  {
    Result<MappedIndex> pristine = ArtifactReader::Open(path);
    ASSERT_TRUE(pristine.ok());
    TopLDetector detector(pristine->graph, *pristine->pre, pristine->tree);
    Result<TopLResult> answer = detector.Search(q);
    ASSERT_TRUE(answer.ok());
    reference = testing::Scores(answer->communities);
  }

  // Header, table and every section payload are checksummed, so the only
  // acceptable mutants are flips in dead bytes (header reserved area,
  // inter-section padding) — and those must serve the exact same answers.
  Rng rng(25);
  int accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<char> mutated = original;
    const std::size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.NextBounded(8)));
    WriteAll(path, mutated);
    Result<MappedIndex> loaded = ArtifactReader::Open(path);
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
      continue;
    }
    ++accepted;
    TopLDetector detector(loaded->graph, *loaded->pre, loaded->tree);
    Result<TopLResult> answer = detector.Search(q);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(testing::Scores(answer->communities), reference)
        << "flip at " << pos << " changed query results";
  }
  // The dead-byte fraction of an artifact is small; the vast majority of
  // flips must have been rejected.
  EXPECT_LT(accepted, 60);
}

// ---------------------------------------------------------------------------
// Update journal + delta codecs (storage/update_journal.h, graph/delta_io.h)
// ---------------------------------------------------------------------------

/// A few deterministic, sequentially-valid deltas for `g`.
std::vector<GraphDelta> FuzzDeltas(const Graph& g, std::size_t count,
                                   std::uint64_t seed) {
  std::vector<GraphDelta> deltas;
  std::unique_ptr<Graph> evolved;
  const Graph* current = &g;
  Rng rng(seed);
  while (deltas.size() < count) {
    GraphDelta d = MakeRandomDelta(*current, rng);
    if (d.empty()) continue;
    Result<Graph> next = ApplyDelta(*current, d);
    EXPECT_TRUE(next.ok());
    if (!next.ok()) break;
    evolved = std::make_unique<Graph>(std::move(*next));
    current = evolved.get();
    deltas.push_back(std::move(d));
  }
  return deltas;
}

bool SameDelta(const GraphDelta& a, const GraphDelta& b) {
  return UpdateJournal::EncodeDelta(a) == UpdateJournal::EncodeDelta(b);
}

TEST_F(SerializationFuzzTest, JournalTruncationSweepYieldsDurablePrefix) {
  SmallWorldOptions gen;
  gen.num_vertices = 60;
  gen.seed = 26;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const std::vector<GraphDelta> deltas = FuzzDeltas(*g, 6, 27);
  ASSERT_EQ(deltas.size(), 6u);

  const std::string path = Path("j.jrn");
  {
    Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (const GraphDelta& d : deltas) ASSERT_TRUE((*journal)->Append(d).ok());
  }
  const std::vector<char> bytes = ReadAll(path);

  // A journal cut anywhere — torn header, torn record, clean record
  // boundary — replays exactly the committed prefix, never garbage.
  for (std::size_t len = 0; len <= bytes.size(); len += 3) {
    WriteAll(path, std::vector<char>(bytes.begin(), bytes.begin() + len));
    Result<std::vector<GraphDelta>> replayed = UpdateJournal::Replay(path);
    if (!replayed.ok()) continue;  // torn header: typed rejection is fine
    ASSERT_LE(replayed->size(), deltas.size()) << "truncation at " << len;
    for (std::size_t i = 0; i < replayed->size(); ++i) {
      EXPECT_TRUE(SameDelta((*replayed)[i], deltas[i]))
          << "truncation at " << len << " diverged at record " << i;
    }
  }
  WriteAll(path, bytes);
  Result<std::vector<GraphDelta>> full = UpdateJournal::Replay(path);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), deltas.size());
}

TEST_F(SerializationFuzzTest, JournalBitFlipsNeverFabricateRecords) {
  SmallWorldOptions gen;
  gen.num_vertices = 60;
  gen.seed = 28;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const std::vector<GraphDelta> deltas = FuzzDeltas(*g, 5, 29);
  ASSERT_EQ(deltas.size(), 5u);

  const std::string path = Path("jf.jrn");
  {
    Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (const GraphDelta& d : deltas) ASSERT_TRUE((*journal)->Append(d).ok());
  }
  const std::vector<char> original = ReadAll(path);

  // Every record payload is XXH64-checksummed: a flip either rejects (typed
  // status) or cuts the chain at the damaged record — the surviving replay
  // is always a prefix of what was written, bit-identical.
  Rng rng(30);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<char> mutated = original;
    const std::size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.NextBounded(8)));
    WriteAll(path, mutated);
    Result<std::vector<GraphDelta>> replayed = UpdateJournal::Replay(path);
    if (!replayed.ok()) continue;
    ASSERT_LE(replayed->size(), deltas.size()) << "flip at " << pos;
    for (std::size_t i = 0; i < replayed->size(); ++i) {
      EXPECT_TRUE(SameDelta((*replayed)[i], deltas[i]))
          << "flip at " << pos << " fabricated record " << i;
    }
  }
}

TEST_F(SerializationFuzzTest, DecodeDeltaRejectsGarbageAndTruncations) {
  SmallWorldOptions gen;
  gen.num_vertices = 50;
  gen.seed = 31;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const std::vector<GraphDelta> deltas = FuzzDeltas(*g, 3, 32);
  ASSERT_EQ(deltas.size(), 3u);

  for (const GraphDelta& d : deltas) {
    const std::vector<std::uint8_t> encoded = UpdateJournal::EncodeDelta(d);
    // Round trip.
    Result<GraphDelta> decoded =
        UpdateJournal::DecodeDelta(encoded.data(), encoded.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(SameDelta(*decoded, d));
    // The payload is exact-fit: every proper prefix and every extension must
    // be rejected, not padded or silently ignored.
    for (std::size_t len = 0; len < encoded.size(); ++len) {
      EXPECT_FALSE(UpdateJournal::DecodeDelta(encoded.data(), len).ok())
          << "prefix of " << len << " parsed";
    }
    std::vector<std::uint8_t> extended = encoded;
    extended.push_back(0);
    EXPECT_FALSE(
        UpdateJournal::DecodeDelta(extended.data(), extended.size()).ok());
  }

  // Random buffers: decode must bound-check counts before trusting them.
  Rng rng(33);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> garbage(rng.NextBounded(200));
    for (std::uint8_t& b : garbage) {
      b = static_cast<std::uint8_t>(rng.NextBounded(256));
    }
    Result<GraphDelta> decoded =
        UpdateJournal::DecodeDelta(garbage.data(), garbage.size());
    (void)decoded;  // error or a (vacuously) valid delta — just never a crash
  }
}

TEST_F(SerializationFuzzTest, DeltaTextGarbageNeverCrashes) {
  SmallWorldOptions gen;
  gen.num_vertices = 50;
  gen.seed = 34;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const std::vector<GraphDelta> deltas = FuzzDeltas(*g, 1, 35);
  ASSERT_EQ(deltas.size(), 1u);
  const std::string path = Path("d.txt");
  ASSERT_TRUE(WriteGraphDeltaText(deltas[0], path).ok());
  const std::vector<char> original = ReadAll(path);
  ASSERT_TRUE(ReadGraphDeltaText(path).ok());

  Rng rng(36);
  // Mutated valid files: swap random characters for random printable bytes.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> mutated = original;
    const std::size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(' ' + rng.NextBounded(95));
    WriteAll(path, mutated);
    Result<GraphDelta> parsed = ReadGraphDeltaText(path);
    (void)parsed;  // typed error or a still-valid delta; never a crash
  }
  // Pure garbage lines.
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<char> garbage(rng.NextBounded(400));
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(127) + 1);  // no NULs
    }
    WriteAll(path, garbage);
    Result<GraphDelta> parsed = ReadGraphDeltaText(path);
    (void)parsed;
  }
}

}  // namespace
}  // namespace topl
