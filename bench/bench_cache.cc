// bench_cache — snapshot-epoch result cache: cached vs uncached serving on
// one fixed-seed synthetic graph, plus the correctness witness for the
// cache's exact dirty-region invalidation.
//
// Phase 1 (enforcement): two engines over identical graphs — one serving
// through the result cache, one cold — answer the same interleaved stream of
// TopL/DTopL queries and ApplyUpdate deltas. Every query is issued on both
// engines after every update, so each cached answer (fresh fill, repeat hit,
// or invalidation survivor) is compared field-by-field against an engine
// that can only ever execute. Any divergence exits non-zero: the cache
// changes wall-clock, never answers.
//
// Phase 2 (throughput): closed-loop repeat_heavy runs (high-zipf repeated
// queries, no updates) through loadgen::LoadInjector against each engine;
// the warmup pass populates the cache so the measured run reflects serving
// steady state. Reports ops_per_s for both, the cached run's hit_rate, and
// the cached/uncached speedup.
//
//   bench_cache [--vertices=2000] [--seed=42] [--rmax=2] [--workers=4]
//               [--engine-threads=2] [--seconds=3] [--warmup-seconds=1]
//               [--verify-rounds=4] [--verify-queries=24]
//               [--cache-max-mb=64] [--json=BENCH_cache.json]
//
// The JSON feeds ci/check_bench_regression.py: `speedup` and
// `cached.hit_rate` carry absolute --require floors, both ops_per_s values
// are gated relative to the committed baseline.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace topl;  // NOLINT(build/namespaces)

// Builds one engine over a private copy of the fixed-seed graph (Graph is
// non-copyable, so each engine regenerates + re-precomputes it).
std::unique_ptr<Engine> BuildEngine(
    const std::map<std::string, std::string>& flags, bool cached) {
  SmallWorldOptions gen;
  gen.num_vertices = IntFlag(flags, "vertices", 2000);
  gen.seed = IntFlag(flags, "seed", 42);
  gen.keywords.domain_size = 50;
  gen.keywords.keywords_per_vertex = 3;
  Result<Graph> graph = MakeSmallWorld(gen);
  TOPL_CHECK(graph.ok(), graph.status().ToString().c_str());

  PrecomputeOptions pre_opts;
  pre_opts.r_max = static_cast<std::uint32_t>(IntFlag(flags, "rmax", 2));
  Result<PrecomputedData> pre_built = PrecomputedData::Build(*graph, pre_opts);
  TOPL_CHECK(pre_built.ok(), pre_built.status().ToString().c_str());
  auto pre = std::make_unique<PrecomputedData>(std::move(pre_built).value());
  Result<TreeIndex> tree = TreeIndex::Build(*graph, *pre);
  TOPL_CHECK(tree.ok(), tree.status().ToString().c_str());

  EngineOptions options;
  options.num_threads = IntFlag(flags, "engine-threads", 2);
  options.enable_result_cache = cached;
  options.cache_max_bytes = IntFlag(flags, "cache-max-mb", 64) << 20;
  Result<std::unique_ptr<Engine>> engine =
      Engine::Create(std::move(graph).value(), std::move(pre),
                     std::move(tree).value(), options);
  TOPL_CHECK(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

loadgen::WorkloadSpec RepeatHeavySpec(const Engine& engine,
                                      std::uint64_t seed) {
  Result<loadgen::WorkloadSpec> spec =
      loadgen::WorkloadSpec::Named("repeat_heavy");
  TOPL_CHECK(spec.ok(), spec.status().ToString().c_str());
  spec->seed = seed;
  spec->FitToIndex(engine.precomputed());
  return std::move(spec).value();
}

// One verification op: issue on both engines, compare every answer field the
// detectors define (communities, truncation, anytime bound). DTopL
// additionally pins selection order and diversity score.
bool VerifyOne(Engine* cached, Engine* uncached, const Query& query,
               bool diversified) {
  if (diversified) {
    Result<DTopLResult> got = cached->SearchDiversified(query, DTopLOptions());
    Result<DTopLResult> want =
        uncached->SearchDiversified(query, DTopLOptions());
    if (got.ok() != want.ok()) return false;
    if (!got.ok()) return true;  // both rejected: identical behavior
    return bench::SameCommunities(got->communities, want->communities) &&
           got->diversity_score == want->diversity_score &&
           got->truncated == want->truncated &&
           got->score_upper_bound == want->score_upper_bound;
  }
  Result<TopLResult> got = cached->Search(query);
  Result<TopLResult> want = uncached->Search(query);
  if (got.ok() != want.ok()) return false;
  if (!got.ok()) return true;
  return bench::SameCommunities(got->communities, want->communities) &&
         got->truncated == want->truncated &&
         got->score_upper_bound == want->score_upper_bound;
}

}  // namespace

int main(int argc, char** argv) {
  using K = FlagKind;
  const auto flags = bench::ParseBenchFlags(
      argc, argv,
      {{"vertices", K::kUint}, {"seed", K::kUint}, {"rmax", K::kUint},
       {"workers", K::kUint}, {"engine-threads", K::kUint},
       {"seconds", K::kDouble}, {"warmup-seconds", K::kDouble},
       {"verify-rounds", K::kUint}, {"verify-queries", K::kUint},
       {"cache-max-mb", K::kUint}, {"json", K::kString}});
  const std::uint64_t seed = IntFlag(flags, "seed", 42);
  const std::size_t workers = IntFlag(flags, "workers", 4);
  const double seconds = DoubleFlag(flags, "seconds", 3.0);
  const double warmup_seconds = DoubleFlag(flags, "warmup-seconds", 1.0);
  const int verify_rounds =
      static_cast<int>(IntFlag(flags, "verify-rounds", 4));
  const int verify_queries =
      static_cast<int>(IntFlag(flags, "verify-queries", 24));
  const std::string json_path = FlagOr(flags, "json", "BENCH_cache.json");

  std::printf("== result cache: cached vs uncached serving, invalidation "
              "exactness witness ==\n");
  Timer offline;
  std::unique_ptr<Engine> cached = BuildEngine(flags, /*cached=*/true);
  std::unique_ptr<Engine> uncached = BuildEngine(flags, /*cached=*/false);
  std::printf("graph: %zu vertices, %zu edges; offline x2 %.2fs\n",
              cached->graph().NumVertices(), cached->graph().NumEdges(),
              offline.ElapsedSeconds());

  const loadgen::WorkloadSpec spec = RepeatHeavySpec(*cached, seed);
  Result<loadgen::WorkloadGenerator> generator =
      loadgen::WorkloadGenerator::Create(spec, cached->graph());
  TOPL_CHECK(generator.ok(), generator.status().ToString().c_str());

  // -------------------------------------------------------------------
  // Phase 1: interleaved query/update stream, byte-identical answers.
  // -------------------------------------------------------------------
  std::uint64_t verified_ops = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::pair<Query, bool>> issued;  // (query, diversified)
  Rng delta_rng(seed + 7);
  RandomDeltaOptions delta_options;
  delta_options.keyword_domain = 50;
  std::uint64_t op_index = 0;
  for (int round = 0; round < verify_rounds; ++round) {
    // Fresh queries this round: fills on the cached engine, plus repeat
    // traffic over everything issued so far (cache hits).
    for (int qi = 0; qi < verify_queries; ++qi) {
      loadgen::Operation op = generator->At(op_index++);
      while (op.kind == loadgen::OpKind::kUpdate) {  // repeat_heavy has none
        op = generator->At(op_index++);
      }
      const bool diversified = op.kind == loadgen::OpKind::kDTopL;
      if (!VerifyOne(cached.get(), uncached.get(), op.query, diversified)) {
        ++mismatches;
      }
      ++verified_ops;
      issued.emplace_back(op.query, diversified);
    }

    // One update, applied identically to both engines (the graphs are
    // identical, so one materialized delta is valid for both).
    const GraphDelta delta =
        MakeRandomDelta(*cached->snapshot()->graph, delta_rng, delta_options);
    if (!delta.empty()) {
      Result<RebuildScope> a = cached->ApplyUpdate(delta);
      Result<RebuildScope> b = uncached->ApplyUpdate(delta);
      TOPL_CHECK(a.ok() && b.ok(), "ApplyUpdate failed");
    }

    // Re-issue everything ever cached: survivors of the dirty-region scan
    // must still match a cache-free engine on the new snapshot.
    for (const auto& [query, diversified] : issued) {
      if (!VerifyOne(cached.get(), uncached.get(), query, diversified)) {
        ++mismatches;
      }
      ++verified_ops;
    }
  }
  const EngineStats verify_stats = cached->Stats();
  std::printf("verify: %llu ops across %d update rounds, %llu mismatches "
              "(%llu hits, %llu misses, %llu invalidated)\n",
              static_cast<unsigned long long>(verified_ops),
              verify_rounds,
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(verify_stats.cache_hits),
              static_cast<unsigned long long>(verify_stats.cache_misses),
              static_cast<unsigned long long>(verify_stats.cache_invalidated));
  if (mismatches != 0) {
    std::fprintf(stderr, "MISMATCH: cached answers diverge from uncached\n");
    return 1;
  }

  // -------------------------------------------------------------------
  // Phase 2: closed-loop repeat_heavy throughput, cached vs uncached.
  // -------------------------------------------------------------------
  auto run = [&](Engine* engine) -> loadgen::LoadReport {
    loadgen::InjectorOptions inject;
    inject.num_workers = workers;
    inject.duration_seconds = seconds;
    if (warmup_seconds > 0.0) {
      loadgen::InjectorOptions warmup = inject;
      warmup.duration_seconds = warmup_seconds;
      Result<loadgen::LoadReport> ignored =
          loadgen::LoadInjector(engine, *generator, warmup).Run();
      TOPL_CHECK(ignored.ok(), ignored.status().ToString().c_str());
    }
    Result<loadgen::LoadReport> report =
        loadgen::LoadInjector(engine, *generator, inject).Run();
    TOPL_CHECK(report.ok(), report.status().ToString().c_str());
    return std::move(report).value();
  };

  const loadgen::LoadReport base = run(uncached.get());
  const loadgen::LoadReport fast = run(cached.get());
  const double speedup =
      base.ops_per_s > 0.0 ? fast.ops_per_s / base.ops_per_s : 0.0;

  std::printf("uncached: %.1f ops/s (p99 %.3fms)\n", base.ops_per_s,
              base.overall.p99_ms);
  std::printf("cached:   %.1f ops/s (p99 %.3fms, %.1f%% hit rate)\n",
              fast.ops_per_s, fast.overall.p99_ms, 100.0 * fast.hit_rate);
  std::printf("speedup:  %.2fx\n", speedup);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"benchmark\": \"cache\",\n"
               "  \"verified_ops\": %llu,\n"
               "  \"mismatches\": %llu,\n"
               "  \"uncached\": {\"ops_per_s\": %.3f, \"p99_ms\": %.4f,"
               " \"count\": %llu},\n"
               "  \"cached\": {\"ops_per_s\": %.3f, \"p99_ms\": %.4f,"
               " \"count\": %llu, \"hit_rate\": %.4f},\n"
               "  \"speedup\": %.4f\n"
               "}\n",
               static_cast<unsigned long long>(verified_ops),
               static_cast<unsigned long long>(mismatches), base.ops_per_s,
               base.overall.p99_ms,
               static_cast<unsigned long long>(base.ops_total),
               fast.ops_per_s, fast.overall.p99_ms,
               static_cast<unsigned long long>(fast.ops_total),
               fast.hit_rate, speedup);
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
