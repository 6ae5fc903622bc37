// bench_updates — incremental index maintenance (IndexUpdater) vs full
// offline rebuild on a stream of random graph deltas, on one fixed-seed
// synthetic graph.
//
// After every delta both pipelines answer the same TopL and DTopL queries;
// any field-level mismatch (centers, member/edge lists, influenced vertices,
// cpp values, scores) makes the benchmark exit non-zero — like
// bench_parallel_query, it doubles as the enforcement point for the
// update contract: incremental maintenance changes wall-clock, never
// answers.
//
//   bench_updates [--vertices=8000] [--seed=42] [--rmax=2] [--updates=6]
//                 [--ops=4] [--queries=4] [--json=BENCH_updates.json]
//
// Emits a human summary on stdout and a machine-readable JSON file
// (incremental vs rebuild latency, updates/s, speedup, rebuild-avoided
// ratio) consumed by the CI regression gate.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace topl;  // NOLINT(build/namespaces)

struct Offline {
  std::unique_ptr<PrecomputedData> pre;
  TreeIndex tree;
};

Offline BuildOffline(const Graph& g, const PrecomputeOptions& options) {
  Offline out;
  Result<PrecomputedData> pre = PrecomputedData::Build(g, options);
  TOPL_CHECK(pre.ok(), pre.status().ToString().c_str());
  out.pre = std::make_unique<PrecomputedData>(std::move(pre).value());
  Result<TreeIndex> tree = TreeIndex::Build(g, *out.pre);
  TOPL_CHECK(tree.ok(), tree.status().ToString().c_str());
  out.tree = std::move(tree).value();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using K = FlagKind;
  const auto flags = bench::ParseBenchFlags(
      argc, argv,
      {{"vertices", K::kUint}, {"seed", K::kUint}, {"rmax", K::kUint},
       {"updates", K::kUint}, {"ops", K::kUint}, {"queries", K::kUint},
       {"json", K::kString}});
  const std::size_t vertices = IntFlag(flags, "vertices", 8000);
  const std::uint64_t seed = IntFlag(flags, "seed", 42);
  const auto rmax = static_cast<std::uint32_t>(IntFlag(flags, "rmax", 2));
  const int updates = static_cast<int>(IntFlag(flags, "updates", 6));
  const int ops = static_cast<int>(IntFlag(flags, "ops", 4));
  const int queries = static_cast<int>(IntFlag(flags, "queries", 4));
  const std::string json_path = FlagOr(flags, "json", "BENCH_updates.json");

  std::printf("== dynamic updates: incremental maintenance (IndexUpdater) vs "
              "full offline rebuild ==\n");
  SmallWorldOptions gen;
  gen.num_vertices = vertices;
  gen.seed = seed;
  gen.keywords.domain_size = 50;
  gen.keywords.keywords_per_vertex = 3;
  Result<Graph> built = MakeSmallWorld(gen);
  TOPL_CHECK(built.ok(), built.status().ToString().c_str());
  Graph graph = std::move(built).value();

  PrecomputeOptions pre_opts;
  pre_opts.r_max = rmax;

  Timer offline_timer;
  Offline incremental = BuildOffline(graph, pre_opts);
  const double offline_seconds = offline_timer.ElapsedSeconds();
  std::printf("graph: %zu vertices, %zu edges; initial offline phase %.2fs\n",
              graph.NumVertices(), graph.NumEdges(), offline_seconds);

  ThreadPool pool(0);
  Rng rng(seed + 1);
  // The same update distribution the dynamic_update_test sweep enforces.
  RandomDeltaOptions delta_options;
  delta_options.num_ops = ops;
  delta_options.keyword_domain = gen.keywords.domain_size;
  bool all_exact = true;
  double incremental_seconds = 0.0;
  double rebuild_seconds = 0.0;
  std::uint64_t dirty_total = 0;
  std::uint64_t patched_total = 0;

  std::printf("%8s %10s %12s %12s %9s %10s %8s\n", "update", "ops",
              "incr(s)", "rebuild(s)", "speedup", "dirty", "exact");
  for (int u = 0; u < updates; ++u) {
    const GraphDelta delta = MakeRandomDelta(graph, rng, delta_options);

    Timer incr_timer;
    Result<UpdatedIndex> updated = IndexUpdater::Apply(
        graph, *incremental.pre, incremental.tree, delta, &pool);
    const double incr = incr_timer.ElapsedSeconds();
    TOPL_CHECK(updated.ok(), updated.status().ToString().c_str());
    graph = std::move(updated->graph);
    incremental.pre = std::move(updated->pre);
    incremental.tree = std::move(updated->tree);
    dirty_total += updated->scope.dirty_centers;
    patched_total += updated->scope.tree_nodes_patched;

    Timer rebuild_timer;
    Offline rebuilt = BuildOffline(graph, pre_opts);
    const double rebuild = rebuild_timer.ElapsedSeconds();

    // Enforcement: both pipelines must answer identically, TopL and DTopL.
    bool exact = true;
    TopLDetector incr_topl(graph, *incremental.pre, incremental.tree);
    TopLDetector full_topl(graph, *rebuilt.pre, rebuilt.tree);
    DTopLDetector incr_dtopl(graph, *incremental.pre, incremental.tree);
    DTopLDetector full_dtopl(graph, *rebuilt.pre, rebuilt.tree);
    for (int qi = 0; qi < queries; ++qi) {
      Query q;
      q.keywords =
          bench::MakeQueryKeywordsFromGraph(graph, 5, seed + 100 * u + qi);
      q.k = 4;
      q.radius = std::min<std::uint32_t>(2, rmax);
      q.theta = 0.2;
      q.top_l = 5;
      Result<TopLResult> got = incr_topl.Search(q);
      Result<TopLResult> want = full_topl.Search(q);
      TOPL_CHECK(got.ok() && want.ok(), "query failed");
      if (!bench::SameCommunities(got->communities, want->communities)) {
        exact = false;
      }
      if (qi == 0) {
        Result<DTopLResult> got_d = incr_dtopl.Search(q);
        Result<DTopLResult> want_d = full_dtopl.Search(q);
        TOPL_CHECK(got_d.ok() && want_d.ok(), "dtopl query failed");
        if (!bench::SameCommunities(got_d->communities, want_d->communities) ||
            got_d->diversity_score != want_d->diversity_score) {
          exact = false;
        }
      }
    }
    if (!exact) {
      all_exact = false;
      std::fprintf(stderr,
                   "MISMATCH: update %d answers diverge from full rebuild\n", u);
    }

    incremental_seconds += incr;
    rebuild_seconds += rebuild;
    std::printf("%8d %10zu %12.4f %12.4f %8.2fx %6zu/%zu %8s\n", u,
                delta.NumOps(), incr, rebuild, rebuild / incr,
                updated->scope.dirty_centers, updated->scope.num_vertices,
                exact ? "yes" : "NO");
  }

  const double speedup = incremental_seconds > 0.0
                             ? rebuild_seconds / incremental_seconds
                             : 0.0;
  const double avoided =
      1.0 - static_cast<double>(dirty_total) /
                (static_cast<double>(updates) *
                 static_cast<double>(graph.NumVertices()));
  std::printf("total: incremental %.3fs, rebuild %.3fs, speedup %.2fx, "
              "rebuild avoided %.1f%%\n",
              incremental_seconds, rebuild_seconds, speedup, avoided * 100.0);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(
      json,
      "{\n"
      "  \"benchmark\": \"updates\",\n"
      "  \"vertices\": %zu,\n"
      "  \"seed\": %llu,\n"
      "  \"num_updates\": %d,\n"
      "  \"ops_per_update\": %d,\n"
      "  \"exact_match\": %s,\n"
      "  \"initial_offline_seconds\": %.6f,\n"
      "  \"incremental\": {\"total_seconds\": %.6f, \"updates_per_s\": %.3f,\n"
      "                  \"dirty_centers\": %llu, \"tree_nodes_patched\": %llu},\n"
      "  \"rebuild\": {\"total_seconds\": %.6f, \"updates_per_s\": %.3f},\n"
      "  \"speedup\": %.3f,\n"
      "  \"rebuild_avoided_ratio\": %.4f\n"
      "}\n",
      vertices, static_cast<unsigned long long>(seed),
      updates, ops, all_exact ? "true" : "false", offline_seconds,
      incremental_seconds,
      incremental_seconds > 0.0 ? updates / incremental_seconds : 0.0,
      static_cast<unsigned long long>(dirty_total),
      static_cast<unsigned long long>(patched_total), rebuild_seconds,
      rebuild_seconds > 0.0 ? updates / rebuild_seconds : 0.0, speedup,
      avoided);
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return all_exact ? 0 : 1;
}
