// Microbenchmarks of the substrates underneath TopL-ICDE: hop extraction,
// support counting, truss decomposition, MIA propagation (query form and
// the offline score-only form), seed-community extraction, and the offline
// precompute throughput. Not a paper figure — these isolate where the query
// time of Figs. 2-3 goes, and anchor the ablation discussion in
// EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace {

using namespace topl;         // NOLINT(build/namespaces)
using namespace topl::bench;  // NOLINT(build/namespaces)

const Workload& DefaultWorkload() {
  DatasetConfig config;
  config.kind = DatasetKind::kUni;
  config.num_vertices = DefaultVertices();
  return GetWorkload(config);
}

void BM_HopExtraction(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  HopExtractor extractor(w.graph);
  LocalGraph lg;
  VertexId v = 0;
  const std::uint32_t radius = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    extractor.Extract(v, radius, {}, &lg);
    v = static_cast<VertexId>((v + 7919) % w.graph.NumVertices());
    benchmark::DoNotOptimize(lg.NumEdges());
  }
}
BENCHMARK(BM_HopExtraction)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

void BM_GlobalSupports(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  for (auto _ : state) {
    auto sup = ComputeGlobalEdgeSupports(w.graph);
    benchmark::DoNotOptimize(sup.data());
  }
}
BENCHMARK(BM_GlobalSupports)->Unit(benchmark::kMillisecond);

void BM_TrussDecomposition(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  for (auto _ : state) {
    auto trussness = TrussDecomposition(w.graph);
    benchmark::DoNotOptimize(trussness.data());
  }
}
BENCHMARK(BM_TrussDecomposition)->Unit(benchmark::kMillisecond);

void BM_CoreDecomposition(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  for (auto _ : state) {
    auto core = CoreDecomposition(w.graph);
    benchmark::DoNotOptimize(core.data());
  }
}
BENCHMARK(BM_CoreDecomposition)->Unit(benchmark::kMillisecond);

void BM_Propagation(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  PropagationEngine engine(w.graph);
  const double theta = static_cast<double>(state.range(0)) / 100.0;
  VertexId v = 0;
  for (auto _ : state) {
    const VertexId seeds[1] = {v};
    auto result = engine.Compute(seeds, theta);
    benchmark::DoNotOptimize(result.score);
    v = static_cast<VertexId>((v + 7919) % w.graph.NumVertices());
  }
}
BENCHMARK(BM_Propagation)->Arg(10)->Arg(20)->Arg(30)->Unit(benchmark::kMicrosecond);

// One offline σ-bound row per iteration: the radius-r ball of a rotating
// center propagated at θ_min and read off at every θ_z, through Compute +
// ScoresAtThresholds (arg 0 = 0, the reference) or the score-only
// ComputeScores that VertexPrecomputer runs (arg 0 = 1).
void BM_PrecomputeScores(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  const bool score_only = state.range(0) != 0;
  const auto radius = static_cast<std::uint32_t>(state.range(1));
  const std::vector<double> thetas = PrecomputeOptions{}.thetas;
  // Balls are extracted up front so the loop times propagation only.
  std::vector<std::vector<VertexId>> balls;
  {
    HopExtractor extractor(w.graph);
    LocalGraph lg;
    VertexId v = 0;
    for (int i = 0; i < 256; ++i) {
      extractor.Extract(v, radius, {}, &lg);
      balls.push_back(lg.global_ids);
      v = static_cast<VertexId>((v + 7919) % w.graph.NumVertices());
    }
  }
  PropagationEngine engine(w.graph);
  std::vector<double> scores(thetas.size());
  std::size_t next = 0;
  for (auto _ : state) {
    const std::vector<VertexId>& ball = balls[next];
    next = (next + 1) % balls.size();
    if (score_only) {
      engine.ComputeScores(ball, thetas, scores);
    } else {
      scores = ScoresAtThresholds(engine.Compute(ball, thetas.front()), thetas);
    }
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(score_only ? "ComputeScores" : "Compute+ScoresAtThresholds");
}
BENCHMARK(BM_PrecomputeScores)
    ->ArgNames({"score_only", "r"})
    ->ArgsProduct({{0, 1}, {2, 3}})
    ->Unit(benchmark::kMicrosecond);

void BM_SeedExtraction(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  SeedCommunityExtractor extractor(w.graph);
  const Query query = DefaultQuery();
  SeedCommunity community;
  VertexId v = 0;
  for (auto _ : state) {
    extractor.Extract(v, query, &community);
    benchmark::DoNotOptimize(community.vertices.data());
    v = static_cast<VertexId>((v + 7919) % w.graph.NumVertices());
  }
}
BENCHMARK(BM_SeedExtraction)->Unit(benchmark::kMicrosecond);

void BM_PrecomputeThroughput(benchmark::State& state) {
  // Offline phase over a fresh small graph per iteration (not cached).
  SmallWorldOptions gen;
  gen.num_vertices = 2000;
  Result<Graph> g = MakeSmallWorld(gen);
  TOPL_CHECK(g.ok(), g.status().ToString().c_str());
  PrecomputeOptions opts;
  opts.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Result<PrecomputedData> pre = PrecomputedData::Build(*g, opts);
    TOPL_CHECK(pre.ok(), pre.status().ToString().c_str());
    benchmark::DoNotOptimize(pre->num_vertices());
  }
  state.counters["vertices_per_s"] = benchmark::Counter(
      static_cast<double>(g->NumVertices()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PrecomputeThroughput)->Arg(1)->Arg(4)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
