// bench_parallel_query — single-query latency of the staged TopL pipeline:
// the classic sequential detector loop vs intra-query parallel scoring
// (Engine::SearchProgressive) at increasing worker counts, on one fixed-seed
// synthetic graph.
//
// Every parallel run's answers are compared field-by-field (centers, member
// and edge lists, influenced vertices, cpp values, scores) against the
// sequential answers: the pipeline contract is that parallelism changes
// wall-clock, never results, and this benchmark doubles as the enforcement point — it
// exits non-zero on any mismatch.
//
//   bench_parallel_query [--vertices=8000] [--seed=42] [--rmax=2]
//                        [--queries=8] [--repeat=3] [--chunk=8]
//                        [--threads=1,2,4,8] [--json=BENCH_parallel_query.json]
//
// Emits a human summary on stdout and a machine-readable JSON file
// (per-thread-count latency, throughput, speedup, work efficiency, plus
// progressive time-to-first-result) consumed by the CI regression gate.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace topl;  // NOLINT(build/namespaces)

struct RunResult {
  std::size_t threads = 0;
  double total_seconds = 0.0;  // best-of-repeat sum over the query set
  double queries_per_s = 0.0;
  double speedup = 1.0;
  std::uint64_t candidates_refined = 0;
  bool exact_match = true;
};

}  // namespace

int main(int argc, char** argv) {
  using K = FlagKind;
  const auto flags = bench::ParseBenchFlags(
      argc, argv,
      {{"vertices", K::kUint}, {"seed", K::kUint}, {"rmax", K::kUint},
       {"queries", K::kUint}, {"repeat", K::kUint}, {"chunk", K::kUint},
       {"threads", K::kUintList}, {"json", K::kString}});
  const std::size_t vertices = IntFlag(flags, "vertices", 8000);
  const std::uint64_t seed = IntFlag(flags, "seed", 42);
  const auto rmax = static_cast<std::uint32_t>(IntFlag(flags, "rmax", 2));
  const std::size_t num_queries = IntFlag(flags, "queries", 8);
  const int repeat = static_cast<int>(IntFlag(flags, "repeat", 3));
  const auto chunk = static_cast<std::uint32_t>(IntFlag(flags, "chunk", 8));
  const std::vector<std::uint64_t> thread_counts =
      UintListFlag(flags, "threads", {1, 2, 4, 8});
  const std::string json_path =
      FlagOr(flags, "json", "BENCH_parallel_query.json");

  std::printf("== parallel single-query scoring: sequential detector vs "
              "intra-query chunked refinement ==\n");
  SmallWorldOptions gen;
  gen.num_vertices = vertices;
  gen.seed = seed;
  gen.keywords.domain_size = 50;
  gen.keywords.keywords_per_vertex = 3;
  Result<Graph> graph = MakeSmallWorld(gen);
  TOPL_CHECK(graph.ok(), graph.status().ToString().c_str());

  Timer offline;
  PrecomputeOptions pre_opts;
  pre_opts.r_max = rmax;
  Result<PrecomputedData> pre_built = PrecomputedData::Build(*graph, pre_opts);
  TOPL_CHECK(pre_built.ok(), pre_built.status().ToString().c_str());
  auto pre = std::make_unique<PrecomputedData>(std::move(pre_built).value());
  Result<TreeIndex> tree = TreeIndex::Build(*graph, *pre);
  TOPL_CHECK(tree.ok(), tree.status().ToString().c_str());
  std::printf("graph: %zu vertices, %zu edges; offline %.2fs\n",
              graph->NumVertices(), graph->NumEdges(), offline.ElapsedSeconds());

  std::vector<Query> queries;
  for (std::size_t i = 0; i < num_queries; ++i) {
    Query q;
    q.keywords = bench::MakeQueryKeywordsFromGraph(*graph, 5, seed + i + 1);
    q.k = 4;
    q.radius = std::min<std::uint32_t>(2, rmax);
    q.theta = 0.2;
    q.top_l = 5;
    queries.push_back(std::move(q));
  }

  // Sequential reference: the classic one-candidate-at-a-time loop on a bare
  // detector — the tightest-pruning, zero-overhead baseline.
  TopLDetector reference(*graph, *pre, *tree);
  std::vector<TopLResult> expected(queries.size());
  RunResult sequential;
  sequential.threads = 1;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    double best = 0.0;
    for (int rep = 0; rep < repeat; ++rep) {
      Timer timer;
      Result<TopLResult> result = reference.Search(queries[i]);
      const double elapsed = timer.ElapsedSeconds();
      TOPL_CHECK(result.ok(), result.status().ToString().c_str());
      if (rep == 0 || elapsed < best) best = elapsed;
      if (rep == 0) expected[i] = std::move(result).value();
    }
    sequential.total_seconds += best;
    sequential.candidates_refined += expected[i].stats.candidates_refined;
  }
  sequential.queries_per_s =
      static_cast<double>(queries.size()) / sequential.total_seconds;
  std::printf("%8s %12s %12s %9s %9s %8s\n", "threads", "total(s)", "qps",
              "speedup", "refined", "exact");
  std::printf("%8s %12.4f %12.1f %9s %9llu %8s\n", "seq",
              sequential.total_seconds, sequential.queries_per_s, "1.00x",
              static_cast<unsigned long long>(sequential.candidates_refined),
              "ref");

  // Parallel runs: one engine per thread count, queries served one at a time
  // through the progressive path (intra-query chunk fan-out, no deadline).
  std::vector<RunResult> runs;
  bool all_exact = true;
  double first_update_seconds = -1.0;
  for (std::size_t threads : thread_counts) {
    auto pre_copy = std::make_unique<PrecomputedData>(*pre);
    Result<TreeIndex> tree_copy = TreeIndex::Build(*graph, *pre_copy);
    TOPL_CHECK(tree_copy.ok(), tree_copy.status().ToString().c_str());
    Result<Graph> graph_copy = MakeSmallWorld(gen);
    TOPL_CHECK(graph_copy.ok(), graph_copy.status().ToString().c_str());
    EngineOptions engine_opts;
    engine_opts.num_threads = threads;
    Result<std::unique_ptr<Engine>> engine =
        Engine::Create(std::move(graph_copy).value(), std::move(pre_copy),
                       std::move(tree_copy).value(), engine_opts);
    TOPL_CHECK(engine.ok(), engine.status().ToString().c_str());

    ProgressiveOptions prog;
    prog.parallel = true;
    prog.chunk_size = chunk;

    RunResult run;
    run.threads = threads;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      double best = 0.0;
      for (int rep = 0; rep < repeat; ++rep) {
        Timer timer;
        Result<TopLResult> result = (*engine)->SearchProgressive(queries[i], prog);
        const double elapsed = timer.ElapsedSeconds();
        TOPL_CHECK(result.ok(), result.status().ToString().c_str());
        if (rep == 0 || elapsed < best) best = elapsed;
        if (rep == 0) {
          run.candidates_refined += result->stats.candidates_refined;
          if (!bench::SameCommunities(result->communities,
                                      expected[i].communities) ||
              result->truncated) {
            run.exact_match = false;
            all_exact = false;
            std::fprintf(stderr,
                         "MISMATCH: query %zu at %zu threads differs from the "
                         "sequential answer\n",
                         i, threads);
          }
        }
      }
      run.total_seconds += best;
    }
    run.queries_per_s = static_cast<double>(queries.size()) / run.total_seconds;
    run.speedup = sequential.total_seconds / run.total_seconds;
    std::printf("%8zu %12.4f %12.1f %8.2fx %9llu %8s\n", threads,
                run.total_seconds, run.queries_per_s, run.speedup,
                static_cast<unsigned long long>(run.candidates_refined),
                run.exact_match ? "yes" : "NO");
    runs.push_back(run);

    // Anytime responsiveness at the widest configuration: wall-clock until
    // the first progressive update lands vs the full query.
    if (threads == thread_counts.back()) {
      Timer timer;
      double first = -1.0;
      Result<TopLResult> result = (*engine)->SearchProgressive(
          queries.front(), prog, [&](const ProgressiveUpdate&) {
            if (first < 0.0) first = timer.ElapsedSeconds();
            return true;
          });
      TOPL_CHECK(result.ok(), result.status().ToString().c_str());
      first_update_seconds = first;
    }
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"benchmark\": \"parallel_query\",\n"
               "  \"vertices\": %zu,\n"
               "  \"seed\": %llu,\n"
               "  \"num_queries\": %zu,\n"
               "  \"exact_match\": %s,\n"
               "  \"sequential\": {\"total_seconds\": %.6f, \"queries_per_s\": "
               "%.3f, \"candidates_refined\": %llu},\n"
               "  \"first_update_seconds\": %.6f,\n"
               "  \"runs\": [\n",
               vertices, static_cast<unsigned long long>(seed),
               queries.size(), all_exact ? "true" : "false",
               sequential.total_seconds, sequential.queries_per_s,
               static_cast<unsigned long long>(sequential.candidates_refined),
               first_update_seconds);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(json,
                 "    {\"threads\": %zu, \"total_seconds\": %.6f, "
                 "\"queries_per_s\": %.3f, \"speedup\": %.3f, "
                 "\"candidates_refined\": %llu, \"exact_match\": %s}%s\n",
                 runs[i].threads, runs[i].total_seconds, runs[i].queries_per_s,
                 runs[i].speedup,
                 static_cast<unsigned long long>(runs[i].candidates_refined),
                 runs[i].exact_match ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return all_exact ? 0 : 1;
}
