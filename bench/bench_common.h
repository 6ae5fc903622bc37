#ifndef TOPL_BENCH_BENCH_COMMON_H_
#define TOPL_BENCH_BENCH_COMMON_H_

// Shared helpers for every bench binary. The figure-reproduction benchmarks
// (DESIGN.md §5) build the graphs + indexes they need once (cached per
// process) and then time only the online phase, mirroring the paper's
// offline/online split. The standalone benches (no google-benchmark) use
// the population-weighted keyword draw, the field-by-field answer check and
// ParseBenchFlags over the shared flag parser (tools/flags.h).
//
// Environment knobs:
//   TOPL_BENCH_V     default synthetic vertex count (default 10000)
//   TOPL_BENCH_FULL  =1: paper-scale sizes (minutes to hours of precompute)
//   TOPL_DATA_DIR    directory holding real SNAP files (com-dblp.ungraph.txt,
//                    com-amazon.ungraph.txt); used instead of the stand-ins
//                    when present.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "tools/flags.h"
#include "topl.h"

namespace topl {
namespace bench {

enum class DatasetKind { kUni, kGau, kZipf, kDblp, kAmazon };

inline const char* DatasetName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kUni:
      return "Uni";
    case DatasetKind::kGau:
      return "Gau";
    case DatasetKind::kZipf:
      return "Zipf";
    case DatasetKind::kDblp:
      return "DBLP";
    case DatasetKind::kAmazon:
      return "Amazon";
  }
  return "?";
}

struct DatasetConfig {
  DatasetKind kind = DatasetKind::kUni;
  std::size_t num_vertices = 10000;
  std::uint32_t keywords_per_vertex = 3;  // paper default |v.W| = 3
  std::uint32_t keyword_domain = 50;      // paper default |Σ| = 50
  std::uint64_t seed = 42;

  auto Key() const {
    return std::make_tuple(static_cast<int>(kind), num_vertices,
                           keywords_per_vertex, keyword_domain, seed);
  }
};

struct Workload {
  Graph graph;
  std::unique_ptr<PrecomputedData> pre;
  TreeIndex tree;
  double offline_seconds = 0.0;  // precompute + index build
};

inline std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(raw, nullptr, 10));
}

inline bool FullScale() {
  const char* raw = std::getenv("TOPL_BENCH_FULL");
  return raw != nullptr && raw[0] == '1';
}

/// Default synthetic |V| for benches; the paper default is 250K — we scale
/// down so the whole harness finishes in minutes (DESIGN.md §4).
inline std::size_t DefaultVertices() {
  return EnvSize("TOPL_BENCH_V", FullScale() ? 250000 : 10000);
}

inline Graph BuildGraph(const DatasetConfig& config) {
  KeywordModel keywords;
  keywords.keywords_per_vertex = config.keywords_per_vertex;
  keywords.domain_size = config.keyword_domain;

  switch (config.kind) {
    case DatasetKind::kUni:
    case DatasetKind::kGau:
    case DatasetKind::kZipf: {
      SmallWorldOptions opts;
      opts.num_vertices = config.num_vertices;
      opts.seed = config.seed;
      opts.keywords = keywords;
      opts.keywords.distribution =
          config.kind == DatasetKind::kUni   ? KeywordDistribution::kUniform
          : config.kind == DatasetKind::kGau ? KeywordDistribution::kGaussian
                                             : KeywordDistribution::kZipf;
      Result<Graph> g = MakeSmallWorld(opts);
      TOPL_CHECK(g.ok(), g.status().ToString().c_str());
      return std::move(g).value();
    }
    case DatasetKind::kDblp:
    case DatasetKind::kAmazon: {
      // Real SNAP data when available; powerlaw-cluster stand-in otherwise.
      const char* data_dir = std::getenv("TOPL_DATA_DIR");
      const std::string file = config.kind == DatasetKind::kDblp
                                   ? "com-dblp.ungraph.txt"
                                   : "com-amazon.ungraph.txt";
      if (data_dir != nullptr) {
        const std::filesystem::path path = std::filesystem::path(data_dir) / file;
        if (std::filesystem::exists(path)) {
          EdgeListLoadOptions load;
          load.assign_attributes = true;
          load.keywords = keywords;
          load.attribute_seed = config.seed;
          load.restrict_to_largest_component = true;
          Result<Graph> g = LoadSnapEdgeList(path.string(), load);
          TOPL_CHECK(g.ok(), g.status().ToString().c_str());
          return std::move(g).value();
        }
      }
      PowerlawClusterOptions opts;
      opts.num_vertices = config.num_vertices;
      opts.edges_per_vertex = 3;
      opts.triangle_prob = config.kind == DatasetKind::kDblp ? 0.7 : 0.3;
      opts.seed = config.seed;
      opts.keywords = keywords;
      Result<Graph> g = MakePowerlawCluster(opts);
      TOPL_CHECK(g.ok(), g.status().ToString().c_str());
      return std::move(g).value();
    }
  }
  TOPL_CHECK(false, "unreachable dataset kind");
  std::abort();
}

/// Builds (or returns the cached) workload: graph + offline phase.
inline const Workload& GetWorkload(const DatasetConfig& config) {
  static std::map<decltype(config.Key()), std::unique_ptr<Workload>>* cache =
      new std::map<decltype(config.Key()), std::unique_ptr<Workload>>();
  auto it = cache->find(config.Key());
  if (it != cache->end()) return *it->second;

  auto workload = std::make_unique<Workload>();
  workload->graph = BuildGraph(config);
  Timer offline;
  PrecomputeOptions pre_opts;  // r_max=3, thetas {0.1,0.2,0.3}, all cores
  Result<PrecomputedData> pre = PrecomputedData::Build(workload->graph, pre_opts);
  TOPL_CHECK(pre.ok(), pre.status().ToString().c_str());
  workload->pre = std::make_unique<PrecomputedData>(std::move(pre).value());
  Result<TreeIndex> tree = TreeIndex::Build(workload->graph, *workload->pre);
  TOPL_CHECK(tree.ok(), tree.status().ToString().c_str());
  workload->tree = std::move(tree).value();
  workload->offline_seconds = offline.ElapsedSeconds();

  auto [pos, inserted] = cache->emplace(config.Key(), std::move(workload));
  return *pos->second;
}

/// |Q| random distinct keywords from the domain (paper §VIII-A: "randomly
/// select |Q| keywords from the keyword domain Σ"), deterministic per seed.
inline std::vector<KeywordId> MakeQueryKeywords(std::uint32_t domain,
                                                std::uint32_t count,
                                                std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<KeywordId> out;
  while (out.size() < count && out.size() < domain) {
    const KeywordId w = static_cast<KeywordId>(rng.NextBounded(domain));
    if (std::find(out.begin(), out.end(), w) == out.end()) out.push_back(w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The paper's default query: θ=0.2, |Q|=5, k=4, r=2, L=5.
inline Query DefaultQuery(std::uint32_t keyword_domain = 50) {
  Query q;
  q.keywords = MakeQueryKeywords(keyword_domain, 5);
  q.k = 4;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 5;
  return q;
}

/// |Q| random distinct keywords drawn from the *population*: pick a random
/// vertex, then one of its keywords. Under skewed assignment models (Gau /
/// Zipf) a uniform draw over Σ mostly selects keywords almost nobody holds
/// and every query comes back empty; frequency-weighted sampling keeps all
/// three synthetic datasets comparable, which is what the paper's figures
/// assume.
inline std::vector<KeywordId> MakeQueryKeywordsFromGraph(const Graph& g,
                                                         std::uint32_t count,
                                                         std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<KeywordId> out;
  for (int guard = 0; out.size() < count && guard < 100000; ++guard) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const auto kws = g.Keywords(v);
    if (kws.empty()) continue;
    const KeywordId w = kws[rng.NextBounded(kws.size())];
    if (std::find(out.begin(), out.end(), w) == out.end()) out.push_back(w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Field-by-field answer identity in result order: center, member and edge
/// lists, influenced vertices, cpp values and score.
inline bool SameCommunities(const std::vector<CommunityResult>& a,
                            const std::vector<CommunityResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].community.center != b[i].community.center ||
        a[i].community.vertices != b[i].community.vertices ||
        a[i].community.edges != b[i].community.edges ||
        a[i].influence.vertices != b[i].influence.vertices ||
        a[i].influence.cpp != b[i].influence.cpp ||
        a[i].score() != b[i].score()) {
      return false;
    }
  }
  return true;
}

/// Parses a standalone bench's argv against `known`. An unknown flag or a
/// malformed value prints the Status and exits 2 before anything is built.
inline std::map<std::string, std::string> ParseBenchFlags(
    int argc, char** argv, const FlagTable& known) {
  std::map<std::string, std::string> flags;
  const Status parsed = ParseFlags(argc, argv, 1, known, &flags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.ToString().c_str());
    std::exit(2);
  }
  return flags;
}

/// Default query with population-weighted keywords from the workload graph.
inline Query DefaultQueryFor(const Workload& w, std::uint32_t q_size = 5) {
  Query q;
  q.keywords = MakeQueryKeywordsFromGraph(w.graph, q_size);
  q.k = 4;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 5;
  return q;
}

/// Prints a Table II-style header for a set of datasets.
inline void PrintDatasetTable(const std::vector<DatasetConfig>& configs) {
  std::printf("%-8s %12s %12s %10s\n", "dataset", "|V(G)|", "|E(G)|",
              "offline(s)");
  for (const DatasetConfig& config : configs) {
    const Workload& w = GetWorkload(config);
    std::printf("%-8s %12zu %12zu %10.2f\n", DatasetName(config.kind),
                w.graph.NumVertices(), w.graph.NumEdges(), w.offline_seconds);
  }
}

}  // namespace bench
}  // namespace topl

#endif  // TOPL_BENCH_BENCH_COMMON_H_
