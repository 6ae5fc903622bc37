// The fault-tolerance layer's serving-side contracts: bounded admission
// (shed with a typed retryable status, or degrade to an anytime answer when
// the caller brought a deadline), defined post-shutdown behavior on every
// entry point, journal-backed recovery that is byte-identical to live
// serving, and clean errors — not SIGBUS — when the artifact shrinks under
// an open mmap.

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "gtest/gtest.h"
#include "storage/artifact.h"
#include "storage/update_journal.h"
#include "tests/test_util.h"

namespace topl {
namespace {

class EngineRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("topl_robust_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static Graph MakeTestGraph(std::size_t n = 150, std::uint64_t seed = 17) {
    SmallWorldOptions gen;
    gen.num_vertices = n;
    gen.seed = seed;
    gen.keywords.domain_size = 10;
    Result<Graph> g = MakeSmallWorld(gen);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return std::move(g).value();
  }

  static std::vector<Query> QueryBattery() {
    std::vector<Query> queries;
    for (std::uint32_t i = 0; i < 5; ++i) {
      Query q;
      q.keywords = {static_cast<KeywordId>(i % 10),
                    static_cast<KeywordId>((i + 3) % 10),
                    static_cast<KeywordId>((i + 6) % 10)};
      std::sort(q.keywords.begin(), q.keywords.end());
      q.k = 3;
      q.radius = 1 + i % 2;
      q.theta = 0.2;
      q.top_l = 4;
      queries.push_back(std::move(q));
    }
    return queries;
  }

  static void ExpectSameAnswers(Engine& actual, Engine& expected) {
    for (const Query& q : QueryBattery()) {
      Result<TopLResult> a = actual.Search(q);
      Result<TopLResult> e = expected.Search(q);
      ASSERT_EQ(a.ok(), e.ok()) << a.status().ToString();
      if (!a.ok()) continue;
      ASSERT_EQ(a->communities.size(), e->communities.size());
      for (std::size_t i = 0; i < a->communities.size(); ++i) {
        EXPECT_EQ(a->communities[i].community.center,
                  e->communities[i].community.center);
        EXPECT_EQ(a->communities[i].community.vertices,
                  e->communities[i].community.vertices);
        EXPECT_EQ(a->communities[i].score(), e->communities[i].score());
      }
    }
  }

  std::filesystem::path dir_;
};

/// Deterministic, sequentially-valid deltas for `g`'s lineage (each delta is
/// drawn against — and validated on — the graph the previous ones produced).
std::vector<GraphDelta> MakeDeltaStream(const Graph& g, std::size_t count) {
  std::vector<GraphDelta> deltas;
  std::unique_ptr<Graph> evolved;  // owns the post-delta graphs; g is the base
  const Graph* current = &g;
  Rng rng(4242);
  while (deltas.size() < count) {
    GraphDelta d = MakeRandomDelta(*current, rng);
    if (d.empty()) continue;
    Result<Graph> next = ApplyDelta(*current, d);
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok()) break;
    evolved = std::make_unique<Graph>(std::move(*next));
    current = evolved.get();
    deltas.push_back(std::move(d));
  }
  return deltas;
}

// ---------------------------------------------------------------------------
// Overload-graceful serving
// ---------------------------------------------------------------------------

TEST_F(EngineRobustnessTest, FullEngineShedsWithRetryableStatus) {
  EngineOptions options;
  options.num_threads = 2;
  options.max_in_flight_queries = 1;
  Result<std::unique_ptr<Engine>> engine =
      Engine::FromGraph(MakeTestGraph(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Query query = QueryBattery()[0];

  // Occupy the single admission slot with a progressive query whose callback
  // blocks until this test has probed the overload behavior.
  std::mutex mu;
  std::condition_variable cv;
  bool in_flight = false;
  bool release = false;
  std::thread holder([&] {
    ProgressiveOptions prog;
    prog.chunk_size = 1;  // callback fires per wave, early and often
    Result<TopLResult> r = (*engine)->SearchProgressive(
        query, prog, [&](const ProgressiveUpdate&) {
          std::unique_lock<std::mutex> lock(mu);
          in_flight = true;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
          return true;
        });
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_flight; });
  }

  // Deadline-less entry points shed with the typed retryable status.
  Result<TopLResult> shed = (*engine)->Search(query);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  Result<DTopLResult> shed_dtopl =
      (*engine)->SearchDiversified(query, DTopLOptions());
  ASSERT_FALSE(shed_dtopl.ok());
  EXPECT_TRUE(shed_dtopl.status().IsUnavailable());

  // A whole batch is rejected as one unit, every slot typed.
  const std::vector<Query> batch_queries = {query, query};
  std::vector<Result<TopLResult>> batch =
      (*engine)->SearchBatch(batch_queries);
  ASSERT_EQ(batch.size(), 2u);
  for (const Result<TopLResult>& r : batch) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnavailable());
  }

  // A deadline-bearing progressive query degrades instead: a valid anytime
  // answer flagged `degraded`, never a rejection.
  ProgressiveOptions with_deadline;
  with_deadline.deadline_seconds = 5.0;
  Result<TopLResult> degraded =
      (*engine)->SearchProgressive(query, with_deadline);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);

  // Release the slot; the engine serves normally again.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  Result<TopLResult> after = (*engine)->Search(query);
  EXPECT_TRUE(after.ok()) << after.status().ToString();

  const EngineStats stats = (*engine)->Stats();
  // search + dtopl + batch (one admission decision per batch, however many
  // slots it rejects).
  EXPECT_GE(stats.queries_shed, 3u);
  EXPECT_GE(stats.queries_degraded, 1u);
  // Shed queries are rejections, not served queries.
  EXPECT_GE(stats.queries_total, 1u);
}

TEST_F(EngineRobustnessTest, DegradedAnswerSatisfiesUpperBoundContract) {
  EngineOptions options;
  options.num_threads = 2;
  options.max_in_flight_queries = 1;
  Result<std::unique_ptr<Engine>> engine =
      Engine::FromGraph(MakeTestGraph(), options);
  ASSERT_TRUE(engine.ok());

  for (const Query& query : QueryBattery()) {
    // Full answer for reference (engine is idle here, so it admits).
    Result<TopLResult> full = (*engine)->Search(query);
    ASSERT_TRUE(full.ok()) << full.status().ToString();

    // Saturate, then issue the degradable query.
    std::mutex mu;
    std::condition_variable cv;
    bool in_flight = false;
    bool release = false;
    std::thread holder([&] {
      ProgressiveOptions prog;
      prog.chunk_size = 1;
      (void)(*engine)->SearchProgressive(
          query, prog, [&](const ProgressiveUpdate&) {
            std::unique_lock<std::mutex> lock(mu);
            in_flight = true;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
            return true;
          });
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight; });
    }
    ProgressiveOptions with_deadline;
    with_deadline.deadline_seconds = 5.0;
    Result<TopLResult> degraded =
        (*engine)->SearchProgressive(query, with_deadline);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    holder.join();

    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_TRUE(degraded->degraded);
    ASSERT_LE(degraded->communities.size(), query.top_l);
    // Truncated-result contract: every community the degraded answer did
    // return is genuine (it appears in the full answer with the same score),
    // and everything it left out scores at or below the reported bound.
    const double bound = degraded->score_upper_bound + 1e-9;
    for (std::size_t i = 0; i < full->communities.size(); ++i) {
      const double score = full->communities[i].score();
      if (i < degraded->communities.size()) {
        EXPECT_EQ(score, degraded->communities[i].score()) << i;
      } else if (degraded->truncated) {
        EXPECT_LE(score, bound) << i;
      }
    }
  }
}

TEST_F(EngineRobustnessTest, AdmissionQueueWaitAdmitsWhenSlotFrees) {
  EngineOptions options;
  options.num_threads = 2;
  options.max_in_flight_queries = 1;
  options.admission_queue_wait_seconds = 30.0;  // generous; released in ~ms
  Result<std::unique_ptr<Engine>> engine =
      Engine::FromGraph(MakeTestGraph(), options);
  ASSERT_TRUE(engine.ok());
  const Query query = QueryBattery()[0];

  std::mutex mu;
  std::condition_variable cv;
  bool in_flight = false;
  bool release = false;
  std::thread holder([&] {
    ProgressiveOptions prog;
    prog.chunk_size = 1;
    (void)(*engine)->SearchProgressive(
        query, prog, [&](const ProgressiveUpdate&) {
          std::unique_lock<std::mutex> lock(mu);
          if (!in_flight) {
            in_flight = true;
            cv.notify_all();
          }
          cv.wait(lock, [&] { return release; });
          return true;
        });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_flight; });
  }
  // Release the slot shortly after the waiter parks on the gate.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  });
  Result<TopLResult> waited = (*engine)->Search(query);
  EXPECT_TRUE(waited.ok()) << waited.status().ToString();
  releaser.join();
  holder.join();
  EXPECT_EQ((*engine)->Stats().queries_shed, 0u);
}

// ---------------------------------------------------------------------------
// Defined post-shutdown behavior
// ---------------------------------------------------------------------------

TEST_F(EngineRobustnessTest, ShutdownGivesTypedErrorsOnEveryEntryPoint) {
  Result<std::unique_ptr<Engine>> engine =
      Engine::FromGraph(MakeTestGraph(), EngineOptions());
  ASSERT_TRUE(engine.ok());
  const Query query = QueryBattery()[0];
  ASSERT_TRUE((*engine)->Search(query).ok());

  (*engine)->Shutdown();
  EXPECT_TRUE((*engine)->is_shutdown());
  (*engine)->Shutdown();  // idempotent

  Result<TopLResult> search = (*engine)->Search(query);
  ASSERT_FALSE(search.ok());
  EXPECT_TRUE(search.status().IsUnavailable());
  EXPECT_TRUE((*engine)->SearchDiversified(query, DTopLOptions())
                  .status()
                  .IsUnavailable());
  EXPECT_TRUE((*engine)->SearchProgressive(query).status().IsUnavailable());
  GraphDelta delta;
  delta.AddKeyword(0, 9);
  EXPECT_TRUE((*engine)->ApplyUpdate(delta).status().IsUnavailable());

  const std::vector<Query> one_query = {query};
  std::vector<Result<TopLResult>> batch = (*engine)->SearchBatch(one_query);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].status().IsUnavailable());

  // Async submission resolves (never hangs, never aborts) to the same typed
  // status.
  std::future<Result<TopLResult>> future = (*engine)->Submit(query);
  Result<TopLResult> resolved = future.get();
  ASSERT_FALSE(resolved.ok());
  EXPECT_TRUE(resolved.status().IsUnavailable());
}

// ---------------------------------------------------------------------------
// Journal-backed recovery
// ---------------------------------------------------------------------------

TEST_F(EngineRobustnessTest, RecoverReplaysJournalByteIdentically) {
  const Graph graph = MakeTestGraph();
  testing::BuiltIndex built = testing::BuildIndexFor(graph);
  const std::string artifact = Path("index.idx");
  ASSERT_TRUE(ArtifactWriter::Write(graph, built.pre(), built.tree, artifact).ok());

  const std::vector<GraphDelta> deltas = MakeDeltaStream(graph, 3);
  ASSERT_EQ(deltas.size(), 3u);

  // Live engine: journal attached, updates acknowledged.
  EngineOptions options;
  options.index_path = artifact;
  options.journal_path = Path("wal.jrn");
  options.num_threads = 2;
  Result<std::unique_ptr<Engine>> live = Engine::Open(options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_TRUE((*live)->recovery_info().journal_created);
  for (const GraphDelta& delta : deltas) {
    Result<RebuildScope> applied = (*live)->ApplyUpdate(delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }

  // Crash-and-recover: a fresh engine over the unchanged artifact + journal.
  RecoveryInfo info;
  Result<std::unique_ptr<Engine>> recovered = Engine::Recover(options, &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(info.records_replayed, deltas.size());
  EXPECT_EQ(info.torn_bytes_discarded, 0u);
  EXPECT_FALSE(info.journal_created);
  EXPECT_EQ((*recovered)->Stats().snapshot_epoch, deltas.size());

  ExpectSameAnswers(**recovered, **live);
}

TEST_F(EngineRobustnessTest, RecoverRequiresJournalPath) {
  EngineOptions options;
  options.index_path = Path("whatever.idx");
  Result<std::unique_ptr<Engine>> recovered = Engine::Recover(options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsInvalidArgument())
      << recovered.status().ToString();
}

TEST_F(EngineRobustnessTest, MismatchedJournalRejectedAtOpen) {
  // Journal records deltas against graph A; opening artifact B with that
  // journal must fail with a typed error, not serve a diverged state.
  const Graph graph_a = MakeTestGraph(150, 17);
  const Graph graph_b = MakeTestGraph(80, 99);
  testing::BuiltIndex built_b = testing::BuildIndexFor(graph_b);
  const std::string artifact_b = Path("b.idx");
  ASSERT_TRUE(
      ArtifactWriter::Write(graph_b, built_b.pre(), built_b.tree, artifact_b).ok());

  const std::string journal_path = Path("a.jrn");
  {
    Result<std::unique_ptr<UpdateJournal>> journal =
        UpdateJournal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    GraphDelta delta;
    // Vertex id far outside graph B's id space.
    delta.AddKeyword(140, 3);
    ASSERT_TRUE((*journal)->Append(delta).ok());
  }

  EngineOptions options;
  options.index_path = artifact_b;
  options.journal_path = journal_path;
  Result<std::unique_ptr<Engine>> opened = Engine::Open(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

// ---------------------------------------------------------------------------
// mmap truncation safety
// ---------------------------------------------------------------------------

TEST_F(EngineRobustnessTest, TruncatedArtifactFailsCleanlyNotSigbus) {
  const Graph graph = MakeTestGraph(100, 23);
  testing::BuiltIndex built = testing::BuildIndexFor(graph);
  const std::string artifact = Path("trunc.idx");
  ASSERT_TRUE(ArtifactWriter::Write(graph, built.pre(), built.tree, artifact).ok());
  const std::uintmax_t full = std::filesystem::file_size(artifact);

  // Open first, truncate after: the backing map was sized at open time, so
  // pages past the new EOF would SIGBUS on first touch. Revalidate is the
  // guard readers run before trusting a long-lived mapping.
  Result<MappedIndex> mapped = ArtifactReader::Open(artifact);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_NE(mapped->backing, nullptr);
  EXPECT_TRUE(mapped->backing->Revalidate().ok());

  std::filesystem::resize_file(artifact, full / 2);
  const Status shrunk = mapped->backing->Revalidate();
  ASSERT_FALSE(shrunk.ok());
  EXPECT_TRUE(shrunk.IsCorruption()) << shrunk.ToString();

  // A fresh open of the truncated file is a typed error, not a crash.
  Result<MappedIndex> reopened = ArtifactReader::Open(artifact);
  ASSERT_FALSE(reopened.ok());

  // Growth (e.g. a concurrent append by a buggy writer) is fine for the
  // existing mapping — only shrinkage invalidates mapped pages.
  std::filesystem::resize_file(artifact, full * 2);
  Result<MappedIndex> grown_open = ArtifactReader::Open(artifact);
  (void)grown_open;  // may or may not parse; must not crash
}

}  // namespace
}  // namespace topl
