// The durability substrate: the write-ahead update journal must round-trip
// deltas bit-exactly, heal torn tails at the exact record boundary, and
// reject corrupted committed records with a typed error; AtomicFile must
// leave the destination untouched on any failure path. The injected-fault
// cases drive the same code paths a real crash or failing disk would.

#include "storage/update_journal.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "gtest/gtest.h"
#include "storage/artifact.h"
#include "storage/atomic_file.h"
#include "tests/test_util.h"

namespace topl {
namespace {

class UpdateJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("topl_journal_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    fault::Disarm();
  }
  void TearDown() override {
    fault::Disarm();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::vector<GraphDelta> TestDeltas(std::size_t count) {
    SmallWorldOptions gen;
    gen.num_vertices = 80;
    gen.seed = 7;
    gen.keywords.domain_size = 10;
    Result<Graph> g = MakeSmallWorld(gen);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    Rng rng(99);
    std::vector<GraphDelta> deltas;
    while (deltas.size() < count) {
      GraphDelta d = MakeRandomDelta(*g, rng);
      if (!d.empty()) deltas.push_back(std::move(d));
    }
    return deltas;
  }

  static void ExpectSameDelta(const GraphDelta& actual,
                              const GraphDelta& expected) {
    // Bit-exact comparison through the canonical encoding.
    EXPECT_EQ(UpdateJournal::EncodeDelta(actual),
              UpdateJournal::EncodeDelta(expected));
  }

  static std::uint64_t FileSize(const std::string& path) {
    return static_cast<std::uint64_t>(std::filesystem::file_size(path));
  }

  std::filesystem::path dir_;
};

TEST_F(UpdateJournalTest, EncodeDecodeRoundtrip) {
  for (const GraphDelta& delta : TestDeltas(8)) {
    const std::vector<std::uint8_t> bytes = UpdateJournal::EncodeDelta(delta);
    Result<GraphDelta> decoded =
        UpdateJournal::DecodeDelta(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameDelta(*decoded, delta);
  }
}

TEST_F(UpdateJournalTest, EncodeDeltaGoldenBytes) {
  // The journal's on-disk payload format, pinned byte for byte: four u32
  // counts, then each op's fields as little-endian u32/f32, in the order
  // deletes, inserts, keyword adds, keyword removes.
  GraphDelta delta;
  delta.edge_deletes.push_back({1, 2});
  delta.edge_inserts.push_back({3, 0x01020304u, 0.5f, 0.25f});
  delta.keyword_adds.push_back({5, 6});
  delta.keyword_removes.push_back({7, 0xA0B0C0D0u});
  const std::vector<std::uint8_t> expected = {
      1, 0, 0, 0,  1, 0, 0, 0,  1, 0, 0, 0,  1, 0, 0, 0,      // counts
      1, 0, 0, 0,  2, 0, 0, 0,                                // delete {1, 2}
      3, 0, 0, 0,  4, 3, 2, 1,                                // insert {3, v}
      0, 0, 0, 0x3F,  0, 0, 0x80, 0x3E,                       // 0.5f, 0.25f
      5, 0, 0, 0,  6, 0, 0, 0,                                // add (5, 6)
      7, 0, 0, 0,  0xD0, 0xC0, 0xB0, 0xA0,                    // remove (7, w)
  };
  EXPECT_EQ(UpdateJournal::EncodeDelta(delta), expected);
}

TEST_F(UpdateJournalTest, AppendReopenReplay) {
  const std::string path = Path("wal.jrn");
  const std::vector<GraphDelta> deltas = TestDeltas(5);

  UpdateJournal::OpenInfo info;
  Result<std::unique_ptr<UpdateJournal>> journal =
      UpdateJournal::Open(path, &info);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(info.created);
  EXPECT_EQ(info.records, 0u);

  for (const GraphDelta& delta : deltas) {
    ASSERT_TRUE((*journal)->Append(delta).ok());
  }
  EXPECT_EQ((*journal)->num_records(), deltas.size());
  journal->reset();  // close the append fd

  // Reopen: all records are retained, nothing is torn.
  journal = UpdateJournal::Open(path, &info);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_FALSE(info.created);
  EXPECT_EQ(info.records, deltas.size());
  EXPECT_EQ(info.torn_bytes_discarded, 0u);

  Result<std::vector<GraphDelta>> replayed = UpdateJournal::Replay(path);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed->size(), deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    ExpectSameDelta((*replayed)[i], deltas[i]);
  }
}

TEST_F(UpdateJournalTest, MissingFileReplaysEmpty) {
  Result<std::vector<GraphDelta>> replayed =
      UpdateJournal::Replay(Path("never_written.jrn"));
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_TRUE(replayed->empty());
}

TEST_F(UpdateJournalTest, TornTailHealedAtRecordBoundary) {
  const std::string path = Path("torn.jrn");
  const std::vector<GraphDelta> deltas = TestDeltas(3);
  {
    Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (const GraphDelta& delta : deltas) {
      ASSERT_TRUE((*journal)->Append(delta).ok());
    }
  }
  // Simulate a crash mid-append of record 3: chop a few bytes off the end.
  const std::uint64_t full = FileSize(path);
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, full - 5);

  // Replay (read-only) stops at the last complete record.
  std::uint64_t torn = 0;
  Result<std::vector<GraphDelta>> replayed = UpdateJournal::Replay(path, &torn);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->size(), 2u);
  EXPECT_GT(torn, 0u);

  // Open heals: the torn tail is truncated away and appends continue.
  UpdateJournal::OpenInfo info;
  Result<std::unique_ptr<UpdateJournal>> journal =
      UpdateJournal::Open(path, &info);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(info.records, 2u);
  EXPECT_GT(info.torn_bytes_discarded, 0u);
  ASSERT_TRUE((*journal)->Append(deltas[2]).ok());
  journal->reset();

  replayed = UpdateJournal::Replay(path, &torn);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 3u);
  EXPECT_EQ(torn, 0u);
  ExpectSameDelta((*replayed)[2], deltas[2]);
}

TEST_F(UpdateJournalTest, CorruptedRecordDropsSuffixNotPrefix) {
  const std::string path = Path("flip.jrn");
  const std::vector<GraphDelta> deltas = TestDeltas(4);
  std::vector<std::uint64_t> sizes;  // file size after each append
  {
    Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (const GraphDelta& delta : deltas) {
      ASSERT_TRUE((*journal)->Append(delta).ok());
      sizes.push_back(FileSize(path));
    }
  }
  // Flip one payload byte inside record 3. The checksum no longer matches,
  // so the chain is cut there: records 1-2 survive, 3-4 are discarded (a
  // checksum mismatch is indistinguishable from a torn concurrent write).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(sizes[1]) + 20);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(sizes[1]) + 20);
    f.write(&byte, 1);
  }
  std::uint64_t torn = 0;
  Result<std::vector<GraphDelta>> replayed = UpdateJournal::Replay(path, &torn);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed->size(), 2u);
  EXPECT_EQ(torn, FileSize(path) - sizes[1]);
  ExpectSameDelta((*replayed)[0], deltas[0]);
  ExpectSameDelta((*replayed)[1], deltas[1]);
}

TEST_F(UpdateJournalTest, TruncateDropsAllRecords) {
  const std::string path = Path("trunc.jrn");
  Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path);
  ASSERT_TRUE(journal.ok());
  for (const GraphDelta& delta : TestDeltas(3)) {
    ASSERT_TRUE((*journal)->Append(delta).ok());
  }
  ASSERT_TRUE((*journal)->Truncate().ok());
  EXPECT_EQ((*journal)->num_records(), 0u);

  Result<std::vector<GraphDelta>> replayed = UpdateJournal::Replay(path);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->empty());

  // The journal stays usable after a truncate.
  ASSERT_TRUE((*journal)->Append(TestDeltas(1)[0]).ok());
  journal->reset();
  replayed = UpdateJournal::Replay(path);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->size(), 1u);
}

TEST_F(UpdateJournalTest, GarbageHeaderRejected) {
  const std::string path = Path("garbage.jrn");
  std::ofstream(path, std::ios::binary) << "this is not a journal at all";
  Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path);
  EXPECT_FALSE(journal.ok());
  Result<std::vector<GraphDelta>> replayed = UpdateJournal::Replay(path);
  EXPECT_FALSE(replayed.ok());
}

// ---------------------------------------------------------------------------
// Injected faults (compiled in via TOPL_FAULT_INJECTION; skip otherwise)
// ---------------------------------------------------------------------------

TEST_F(UpdateJournalTest, InjectedAppendErrorLeavesJournalConsistent) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = Path("fault_append.jrn");
  const std::vector<GraphDelta> deltas = TestDeltas(2);
  Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(deltas[0]).ok());

  fault::Arm("journal.append", fault::Action::kIOError);
  const Status failed = (*journal)->Append(deltas[1]);
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  fault::Disarm();
  journal->reset();

  // The failed append wrote nothing: exactly record 1 replays.
  std::uint64_t torn = 0;
  Result<std::vector<GraphDelta>> replayed = UpdateJournal::Replay(path, &torn);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 1u);
  EXPECT_EQ(torn, 0u);
  ExpectSameDelta((*replayed)[0], deltas[0]);
}

TEST_F(UpdateJournalTest, InjectedShortWriteIsHealedOnReopen) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = Path("fault_short.jrn");
  const std::vector<GraphDelta> deltas = TestDeltas(2);
  {
    Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(deltas[0]).ok());
    // The short write persists a record prefix (header + partial payload),
    // exactly what a crash mid-append leaves behind.
    fault::Arm("journal.append", fault::Action::kShortWrite);
    EXPECT_FALSE((*journal)->Append(deltas[1]).ok());
    fault::Disarm();
  }
  UpdateJournal::OpenInfo info;
  Result<std::unique_ptr<UpdateJournal>> journal =
      UpdateJournal::Open(path, &info);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(info.records, 1u);
  EXPECT_GT(info.torn_bytes_discarded, 0u);
  // The healed journal accepts the delta that previously tore.
  ASSERT_TRUE((*journal)->Append(deltas[1]).ok());
  journal->reset();
  Result<std::vector<GraphDelta>> replayed = UpdateJournal::Replay(path);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 2u);
  ExpectSameDelta((*replayed)[1], deltas[1]);
}

TEST_F(UpdateJournalTest, AtomicFileCommitReplacesAtomically) {
  const std::string path = Path("target.bin");
  std::ofstream(path, std::ios::binary) << "old content";
  Result<AtomicFile> file = AtomicFile::Create(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::string payload = "new content, longer than before";
  ASSERT_TRUE(file->Append(payload.data(), payload.size()).ok());
  ASSERT_TRUE(file->Commit().ok());

  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, payload);
  // No temp litter.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator()),
            1);
}

TEST_F(UpdateJournalTest, AtomicFileAbandonedWriterLeavesOldFile) {
  const std::string path = Path("keep.bin");
  std::ofstream(path, std::ios::binary) << "precious";
  {
    Result<AtomicFile> file = AtomicFile::Create(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("doomed", 6).ok());
    // Destroyed without Commit: temp removed, destination untouched.
  }
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "precious");
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator()),
            1);
}

TEST_F(UpdateJournalTest, InjectedCommitFaultsLeaveDestinationUntouched) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = Path("fault_commit.bin");
  std::ofstream(path, std::ios::binary) << "survivor";
  for (const char* point : {"atomic.fsync", "atomic.rename"}) {
    fault::Arm(point, fault::Action::kIOError);
    Result<AtomicFile> file = AtomicFile::Create(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("clobber", 7).ok());
    EXPECT_FALSE(file->Commit().ok()) << point;
    fault::Disarm();
    std::ifstream in(path, std::ios::binary);
    std::string got((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(got, "survivor") << point;
  }
  // And the failed commits removed their temp files.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator()),
            1);
}

TEST_F(UpdateJournalTest, InjectedArtifactWriteFaultKeepsOldArtifact) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SmallWorldOptions gen;
  gen.num_vertices = 60;
  gen.seed = 3;
  gen.keywords.domain_size = 8;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  testing::BuiltIndex built = testing::BuildIndexFor(*g);

  const std::string path = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(*g, built.pre(), built.tree, path).ok());
  const std::uint64_t original_size = FileSize(path);

  for (const char* point : {"artifact.write", "atomic.write", "atomic.fsync",
                            "atomic.rename"}) {
    fault::Arm(point, fault::Action::kIOError);
    EXPECT_FALSE(
        ArtifactWriter::Write(*g, built.pre(), built.tree, path).ok())
        << point;
    fault::Disarm();
    EXPECT_EQ(FileSize(path), original_size) << point;
    Result<MappedIndex> reopened = ArtifactReader::Open(path);
    EXPECT_TRUE(reopened.ok()) << point << ": " << reopened.status().ToString();
  }
}

}  // namespace
}  // namespace topl
