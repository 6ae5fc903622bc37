// Design-choice ablation (README, "Design notes"): the paper's support pruning rule
// (max edge support within hop(v, r_max), Lemma 2/6) versus the strengthened
// center-trussness bound this library adds on top. Both are safe; the
// question is pruning power — especially on heterogeneous (power-law)
// graphs, where every ball contains some high-support edge and the paper's
// max form rarely fires.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace {

using namespace topl;         // NOLINT(build/namespaces)
using namespace topl::bench;  // NOLINT(build/namespaces)

void BM_SupportVariant(benchmark::State& state, DatasetConfig config,
                       bool center_truss) {
  const Workload& w = GetWorkload(config);
  TopLDetector detector(w.graph, *w.pre, w.tree);
  const Query query = DefaultQueryFor(w);
  QueryOptions options;
  options.use_center_truss_bound = center_truss;
  QueryStats last;
  for (auto _ : state) {
    Result<TopLResult> result = detector.Search(query, options);
    TOPL_CHECK(result.ok(), result.status().ToString().c_str());
    last = result->stats;
    benchmark::DoNotOptimize(result->communities.data());
  }
  state.counters["pruned_support"] = static_cast<double>(last.pruned_support);
  state.counters["refined"] = static_cast<double>(last.candidates_refined);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Ablation: paper support bound (max ball support) vs "
              "+center-trussness ==\n");
  for (DatasetKind kind : {DatasetKind::kDblp, DatasetKind::kAmazon,
                           DatasetKind::kUni, DatasetKind::kGau,
                           DatasetKind::kZipf}) {
    DatasetConfig config;
    config.kind = kind;
    config.num_vertices = DefaultVertices();
    const std::string ds = DatasetName(kind);
    benchmark::RegisterBenchmark(
        ("support_bound/paper/" + ds).c_str(),
        [config](benchmark::State& s) { BM_SupportVariant(s, config, false); })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.1);
    benchmark::RegisterBenchmark(
        ("support_bound/center_truss/" + ds).c_str(),
        [config](benchmark::State& s) { BM_SupportVariant(s, config, true); })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
