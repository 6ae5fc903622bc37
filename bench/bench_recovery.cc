// bench_recovery — durability-path costs and the recovery exactness witness,
// on one fixed-seed synthetic graph.
//
// Three measured phases:
//   1. journal append throughput: UpdateJournal::Append (checksummed record
//      + fsync per delta) on a standalone journal;
//   2. the live journaled update path: Engine::ApplyUpdate with a journal
//      attached (append + fsync + incremental index maintenance per delta);
//   3. recovery: Engine::Recover over the untouched base artifact + journal,
//      replaying every record.
//
// After recovery the binary answers the same query battery on the recovered
// engine and on the live engine that acknowledged the updates; any
// field-level mismatch (centers, member and edge lists, influenced
// vertices, cpp values, scores) makes it exit non-zero — the benchmark
// doubles as the divergence witness for the journal contract: a
// crash-recovered engine serves byte-identical answers.
//
//   bench_recovery [--vertices=1000] [--seed=42] [--rmax=2] [--deltas=50]
//                  [--appends=1000] [--ops=4] [--queries=4]
//                  [--json=BENCH_recovery.json]
//
// Emits a human summary on stdout and a machine-readable JSON file
// (journal ops/s, journaled update rate, recovery rate and ms-per-1k-deltas)
// consumed by the CI regression gate.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.h"

namespace {

using namespace topl;  // NOLINT(build/namespaces)

}  // namespace

int main(int argc, char** argv) {
  using K = FlagKind;
  const auto flags = bench::ParseBenchFlags(
      argc, argv,
      {{"vertices", K::kUint}, {"seed", K::kUint}, {"rmax", K::kUint},
       {"deltas", K::kUint}, {"appends", K::kUint}, {"ops", K::kUint},
       {"queries", K::kUint}, {"json", K::kString}});
  const std::size_t vertices = IntFlag(flags, "vertices", 1000);
  const std::uint64_t seed = IntFlag(flags, "seed", 42);
  const auto rmax = static_cast<std::uint32_t>(IntFlag(flags, "rmax", 2));
  const int num_deltas = static_cast<int>(IntFlag(flags, "deltas", 50));
  const int appends = static_cast<int>(IntFlag(flags, "appends", 1000));
  const int ops = static_cast<int>(IntFlag(flags, "ops", 4));
  const int queries = static_cast<int>(IntFlag(flags, "queries", 4));
  const std::string json_path = FlagOr(flags, "json", "BENCH_recovery.json");

  std::printf("== durability: journal append / journaled updates / recovery "
              "replay ==\n");
  SmallWorldOptions gen;
  gen.num_vertices = vertices;
  gen.seed = seed;
  gen.keywords.domain_size = 50;
  gen.keywords.keywords_per_vertex = 3;
  Result<Graph> built = MakeSmallWorld(gen);
  TOPL_CHECK(built.ok(), built.status().ToString().c_str());
  const Graph& graph = *built;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("topl_bench_recovery_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string artifact = (dir / "base.idx").string();
  const std::string journal_path = (dir / "wal.jrn").string();

  {
    PrecomputeOptions pre_opts;
    pre_opts.r_max = rmax;
    Result<PrecomputedData> pre = PrecomputedData::Build(graph, pre_opts);
    TOPL_CHECK(pre.ok(), pre.status().ToString().c_str());
    Result<TreeIndex> tree = TreeIndex::Build(graph, *pre);
    TOPL_CHECK(tree.ok(), tree.status().ToString().c_str());
    TOPL_CHECK(ArtifactWriter::Write(graph, *pre, *tree, artifact).ok(),
               "artifact write failed");
  }
  std::printf("graph: %zu vertices, %zu edges; artifact %s\n",
              graph.NumVertices(), graph.NumEdges(), artifact.c_str());

  // Sequentially-valid delta stream (each delta drawn against the graph the
  // previous ones produced).
  std::vector<GraphDelta> deltas;
  {
    RandomDeltaOptions delta_options;
    delta_options.num_ops = ops;
    delta_options.keyword_domain = gen.keywords.domain_size;
    std::unique_ptr<Graph> evolved;
    const Graph* current = &graph;
    Rng rng(seed + 1);
    while (deltas.size() < static_cast<std::size_t>(num_deltas)) {
      GraphDelta d = MakeRandomDelta(*current, rng, delta_options);
      if (d.empty()) continue;
      Result<Graph> next = ApplyDelta(*current, d);
      TOPL_CHECK(next.ok(), next.status().ToString().c_str());
      evolved = std::make_unique<Graph>(std::move(*next));
      current = evolved.get();
      deltas.push_back(std::move(d));
    }
  }

  // Phase 1: raw journal append throughput (record encode + write + fsync),
  // cycling the delta stream up to `appends` records on a throwaway journal.
  double append_seconds = 0.0;
  std::uint64_t append_bytes = 0;
  {
    const std::string path = (dir / "throughput.jrn").string();
    Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path);
    TOPL_CHECK(journal.ok(), journal.status().ToString().c_str());
    Timer timer;
    for (int i = 0; i < appends; ++i) {
      const Status appended =
          (*journal)->Append(deltas[static_cast<std::size_t>(i) %
                                    deltas.size()]);
      TOPL_CHECK(appended.ok(), appended.ToString().c_str());
    }
    append_seconds = timer.ElapsedSeconds();
    append_bytes = std::filesystem::file_size(path);
  }
  const double appends_per_s =
      append_seconds > 0.0 ? appends / append_seconds : 0.0;
  std::printf("journal append: %d records in %.3fs (%.0f ops/s, %llu bytes)\n",
              appends, append_seconds, appends_per_s,
              static_cast<unsigned long long>(append_bytes));

  // Phase 2: the live journaled update path — what a serving engine pays per
  // acknowledged delta (journal append + fsync + incremental maintenance).
  EngineOptions options;
  options.index_path = artifact;
  options.journal_path = journal_path;
  options.num_threads = 2;
  Result<std::unique_ptr<Engine>> live = Engine::Open(options);
  TOPL_CHECK(live.ok(), live.status().ToString().c_str());
  Timer apply_timer;
  for (const GraphDelta& delta : deltas) {
    Result<RebuildScope> applied = (*live)->ApplyUpdate(delta);
    TOPL_CHECK(applied.ok(), applied.status().ToString().c_str());
  }
  const double apply_seconds = apply_timer.ElapsedSeconds();
  const double apply_per_s =
      apply_seconds > 0.0 ? num_deltas / apply_seconds : 0.0;
  std::printf("journaled updates: %d deltas in %.3fs (%.1f updates/s)\n",
              num_deltas, apply_seconds, apply_per_s);

  // Phase 3: crash recovery — a fresh engine over the untouched artifact +
  // journal replays every record.
  RecoveryInfo info;
  Timer recover_timer;
  Result<std::unique_ptr<Engine>> recovered = Engine::Recover(options, &info);
  const double recovery_seconds = recover_timer.ElapsedSeconds();
  TOPL_CHECK(recovered.ok(), recovered.status().ToString().c_str());
  TOPL_CHECK(info.records_replayed == deltas.size(),
             "recovery did not replay every journal record");
  const double recovery_per_s =
      recovery_seconds > 0.0 ? num_deltas / recovery_seconds : 0.0;
  const double ms_per_1k =
      recovery_seconds * 1000.0 * (1000.0 / num_deltas);
  std::printf("recovery: %llu records in %.3fs (%.1f updates/s, "
              "%.0f ms per 1k deltas)\n",
              static_cast<unsigned long long>(info.records_replayed),
              recovery_seconds, recovery_per_s, ms_per_1k);

  // Divergence witness: recovered answers vs the live engine that
  // acknowledged the stream, field by field.
  bool exact = true;
  for (int qi = 0; qi < queries; ++qi) {
    Query q;
    q.keywords = bench::MakeQueryKeywordsFromGraph(graph, 5, seed + 100 + qi);
    q.k = 4;
    q.radius = std::min<std::uint32_t>(2, rmax);
    q.theta = 0.2;
    q.top_l = 5;
    Result<TopLResult> got = (*recovered)->Search(q);
    Result<TopLResult> want = (*live)->Search(q);
    TOPL_CHECK(got.ok() && want.ok(), "witness query failed");
    if (!bench::SameCommunities(got->communities, want->communities)) {
      exact = false;
      std::fprintf(stderr,
                   "MISMATCH: query %d diverges between recovered and live "
                   "engines\n",
                   qi);
    }
  }
  std::printf("divergence witness: %d queries, %s\n", queries,
              exact ? "exact" : "MISMATCH");

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(
      json,
      "{\n"
      "  \"benchmark\": \"recovery\",\n"
      "  \"vertices\": %zu,\n"
      "  \"seed\": %llu,\n"
      "  \"num_deltas\": %d,\n"
      "  \"ops_per_delta\": %d,\n"
      "  \"exact_match\": %s,\n"
      "  \"journal\": {\"appends\": %d, \"total_seconds\": %.6f,\n"
      "              \"ops_per_s\": %.3f, \"bytes\": %llu},\n"
      "  \"apply\": {\"total_seconds\": %.6f, \"updates_per_s\": %.3f},\n"
      "  \"recovery\": {\"records_replayed\": %llu, \"total_seconds\": %.6f,\n"
      "               \"updates_per_s\": %.3f, \"ms_per_1k_deltas\": %.3f,\n"
      "               \"torn_bytes_discarded\": %llu}\n"
      "}\n",
      vertices, static_cast<unsigned long long>(seed), num_deltas,
      ops, exact ? "true" : "false", appends, append_seconds,
      appends_per_s, static_cast<unsigned long long>(append_bytes),
      apply_seconds, apply_per_s,
      static_cast<unsigned long long>(info.records_replayed), recovery_seconds,
      recovery_per_s, ms_per_1k,
      static_cast<unsigned long long>(info.torn_bytes_discarded));
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());

  std::filesystem::remove_all(dir);
  return exact ? 0 : 1;
}
