// bench_fig3h_scalability — the paper's Fig. 3(h) scalability curve as a
// CI-gated measurement: offline build time, artifact footprint, and online
// query latency as |V| grows into the millions, on the deterministic Uni
// small-world generator (§VIII-A).
//
// Each size runs the full production pipeline twice — identity labeling and
// locality-reordered labeling (graph/reorder.h) — and persists each build
// both raw and delta+varint compressed, giving four artifacts. Before any
// number is reported the bench proves the four stacks are interchangeable:
//
//   exact:     {in-memory, raw mmap, compressed mmap} of one labeling answer
//              every probe query identically, field by field in result
//              order (bench::SameCommunities);
//   canonical: identity vs reordered answers match after unmapping internal
//              ids through the stored permutation (equal-score communities
//              may legally reorder, so lists are compared as sorted sets).
//
// Any divergence prints the offending query and exits non-zero — the
// scalability numbers are only meaningful if the cheap configurations are
// still computing the same function.
//
//   bench_fig3h_scalability [--sizes=100000[,250000,...]] [--rmax=2]
//                           [--seed=42] [--repeat=3] [--json=BENCH_scale.json]
//                           [--dir=DIR] [--threads=0]
//
// Default is the 100k point (PR-tier CI). TOPL_BENCH_FULL=1 switches the
// default to 100k/250k/1M (nightly tier); --sizes overrides both.
//
// Per size the JSON reports: V, E, offline_build_s (identity precompute +
// tree build), reorder_s (permutation compute + apply only), artifact_bytes
// (identity raw — permutation-invariant), compressed_bytes (reordered +
// compressed, the deployment configuration), compression_ratio
// (artifact_bytes / compressed_bytes), query_p50_ms (reordered-compressed
// mmap engine, over `repeat` rounds of the probe queries), and rss_mb
// (open + one query in a forked child, so allocator state never leaks
// between sizes).

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace topl;  // NOLINT(build/namespaces)

struct SizeReport {
  std::size_t vertices = 0;
  std::size_t edges = 0;
  double offline_build_s = 0.0;
  double reorder_s = 0.0;
  std::uint64_t artifact_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  double compression_ratio = 0.0;
  double query_p50_ms = 0.0;
  double rss_mb = 0.0;
  bool ok = false;
};

long ReadRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// Probe queries with keywords certain to exist under the default keyword
/// model (domain 50, three uniform draws per vertex): mixed radii, large
/// enough L that the cut line cannot truncate ties differently per build.
std::vector<Query> ProbeQueries(std::uint32_t r_max) {
  std::vector<Query> queries;
  for (std::uint32_t i = 0; i < 3; ++i) {
    Query q;
    q.keywords = {static_cast<KeywordId>(i), static_cast<KeywordId>(i + 3),
                  static_cast<KeywordId>(i + 7)};
    q.k = 3;
    q.radius = std::min<std::uint32_t>(1 + i % 2, r_max);
    q.theta = 0.2;
    q.top_l = 20;
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Labeling-invariant fingerprint: (score bits, sorted external members),
/// list sorted — equal-score communities may reorder across labelings.
using CanonicalAnswer =
    std::vector<std::pair<std::uint64_t, std::vector<VertexId>>>;

CanonicalAnswer CanonicalFingerprint(
    const std::vector<CommunityResult>& communities,
    const std::vector<VertexId>& external_ids) {
  CanonicalAnswer out;
  out.reserve(communities.size());
  for (const CommunityResult& c : communities) {
    std::vector<VertexId> members;
    members.reserve(c.community.vertices.size());
    for (VertexId v : c.community.vertices) {
      members.push_back(external_ids.empty() ? v : external_ids[v]);
    }
    std::sort(members.begin(), members.end());
    out.emplace_back(std::bit_cast<std::uint64_t>(c.score()),
                     std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::unique_ptr<Engine>> OpenArtifact(const std::string& path) {
  EngineOptions options;
  options.index_path = path;
  options.build_index_if_missing = false;
  return Engine::Open(options);
}

/// RSS of serving the deployment configuration (reordered + compressed,
/// mmap): open + one query in a forked child, footprint shipped back over a
/// pipe. The fresh process keeps the parent's builds out of the figure.
double MeasureServingRssMb(const std::string& path, const Query& query) {
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return 0.0;
  }
  if (pid == 0) {
    close(fds[0]);
    const long before = ReadRssKb();
    long delta_kb = 0;
    Result<std::unique_ptr<Engine>> engine = OpenArtifact(path);
    if (engine.ok() && (*engine)->Search(query).ok()) {
      delta_kb = ReadRssKb() - before;
    }
    ssize_t ignored = write(fds[1], &delta_kb, sizeof(delta_kb));
    (void)ignored;
    close(fds[1]);
    _exit(delta_kb > 0 ? 0 : 1);
  }
  close(fds[1]);
  long delta_kb = 0;
  const ssize_t got = read(fds[0], &delta_kb, sizeof(delta_kb));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof(delta_kb))) return 0.0;
  return static_cast<double>(delta_kb) / 1024.0;
}

/// Runs the whole pipeline for one size. Returns report.ok == false (after
/// printing why) on any build failure or answer divergence.
SizeReport RunSize(std::size_t vertices, std::uint32_t r_max,
                   std::uint64_t seed, int repeat, std::size_t threads,
                   const std::string& dir) {
  SizeReport report;
  report.vertices = vertices;
  const std::string tag = std::to_string(vertices);
  const std::string identity_raw = dir + "/identity_" + tag + ".idx";
  const std::string identity_packed = dir + "/identity_" + tag + ".cidx";
  const std::string reordered_raw = dir + "/reordered_" + tag + ".idx";
  const std::string reordered_packed = dir + "/reordered_" + tag + ".cidx";

  // ---- Generate + identity offline build (the timed Fig. 3(h) numbers). --
  SmallWorldOptions gen;
  gen.num_vertices = vertices;
  gen.seed = seed;
  Result<Graph> graph = MakeSmallWorld(gen);
  if (!graph.ok()) {
    std::fprintf(stderr, "[%s] generate failed: %s\n", tag.c_str(),
                 graph.status().ToString().c_str());
    return report;
  }
  report.edges = graph->NumEdges();

  PrecomputeOptions pre_options;
  pre_options.r_max = r_max;
  pre_options.num_threads = threads;
  Timer build_timer;
  Result<PrecomputedData> pre_built = PrecomputedData::Build(*graph, pre_options);
  if (!pre_built.ok()) {
    std::fprintf(stderr, "[%s] precompute failed: %s\n", tag.c_str(),
                 pre_built.status().ToString().c_str());
    return report;
  }
  // Heap-allocate before building the tree: TreeIndex keeps a pointer to the
  // PrecomputedData it was built over, and Engine::Create checks identity.
  auto pre = std::make_unique<PrecomputedData>(std::move(*pre_built));
  Result<TreeIndex> tree = TreeIndex::Build(*graph, *pre);
  if (!tree.ok()) {
    std::fprintf(stderr, "[%s] tree build failed: %s\n", tag.c_str(),
                 tree.status().ToString().c_str());
    return report;
  }
  report.offline_build_s = build_timer.ElapsedSeconds();

  // ---- Locality reorder (timed separately) + second offline build. -------
  Timer reorder_timer;
  Result<ReorderedGraph> reordered = ReorderForLocality(*graph);
  if (!reordered.ok()) {
    std::fprintf(stderr, "[%s] reorder failed: %s\n", tag.c_str(),
                 reordered.status().ToString().c_str());
    return report;
  }
  report.reorder_s = reorder_timer.ElapsedSeconds();
  Result<PrecomputedData> pre2_built =
      PrecomputedData::Build(reordered->graph, pre_options);
  if (!pre2_built.ok()) {
    std::fprintf(stderr, "[%s] reordered precompute failed: %s\n", tag.c_str(),
                 pre2_built.status().ToString().c_str());
    return report;
  }
  auto pre2 = std::make_unique<PrecomputedData>(std::move(*pre2_built));
  Result<TreeIndex> tree2 = TreeIndex::Build(reordered->graph, *pre2);
  if (!tree2.ok()) {
    std::fprintf(stderr, "[%s] reordered tree build failed: %s\n", tag.c_str(),
                 tree2.status().ToString().c_str());
    return report;
  }

  // ---- Persist all four artifacts. ---------------------------------------
  {
    ArtifactWriteOptions raw_opts;
    ArtifactWriteOptions packed_opts;
    packed_opts.compress = true;
    Status status =
        ArtifactWriter::Write(*graph, *pre, *tree, identity_raw, raw_opts);
    if (status.ok()) {
      status = ArtifactWriter::Write(*graph, *pre, *tree, identity_packed,
                                     packed_opts);
    }
    ArtifactWriteOptions reorder_raw_opts;
    reorder_raw_opts.external_ids = reordered->external_ids;
    ArtifactWriteOptions reorder_packed_opts = reorder_raw_opts;
    reorder_packed_opts.compress = true;
    if (status.ok()) {
      status = ArtifactWriter::Write(reordered->graph, *pre2, *tree2,
                                     reordered_raw, reorder_raw_opts);
    }
    if (status.ok()) {
      status = ArtifactWriter::Write(reordered->graph, *pre2, *tree2,
                                     reordered_packed, reorder_packed_opts);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "[%s] artifact write failed: %s\n", tag.c_str(),
                   status.ToString().c_str());
      return report;
    }
  }
  report.artifact_bytes = FileBytes(identity_raw);
  report.compressed_bytes = FileBytes(reordered_packed);
  report.compression_ratio =
      report.compressed_bytes > 0
          ? static_cast<double>(report.artifact_bytes) /
                static_cast<double>(report.compressed_bytes)
          : 0.0;

  // ---- Equivalence gate: six engines, three per labeling. ----------------
  const std::vector<VertexId> external_ids = reordered->external_ids;
  Result<std::unique_ptr<Engine>> identity_mem = Engine::Create(
      std::move(*graph), std::move(pre), std::move(*tree));
  Result<std::unique_ptr<Engine>> reordered_mem = Engine::Create(
      std::move(reordered->graph), std::move(pre2), std::move(*tree2));
  Result<std::unique_ptr<Engine>> identity_raw_eng = OpenArtifact(identity_raw);
  Result<std::unique_ptr<Engine>> identity_packed_eng =
      OpenArtifact(identity_packed);
  Result<std::unique_ptr<Engine>> reordered_raw_eng =
      OpenArtifact(reordered_raw);
  Result<std::unique_ptr<Engine>> reordered_packed_eng =
      OpenArtifact(reordered_packed);
  for (const auto* e :
       {&identity_mem, &reordered_mem, &identity_raw_eng, &identity_packed_eng,
        &reordered_raw_eng, &reordered_packed_eng}) {
    if (!e->ok()) {
      std::fprintf(stderr, "[%s] engine open failed: %s\n", tag.c_str(),
                   e->status().ToString().c_str());
      return report;
    }
  }
  struct Stack {
    const char* name;
    Engine* engine;
    const std::vector<VertexId>* external_ids;  // empty = identity labeling
  };
  const std::vector<VertexId> no_ids;
  const Stack identity_stacks[] = {
      {"identity/in-memory", identity_mem->get(), &no_ids},
      {"identity/raw-mmap", identity_raw_eng->get(), &no_ids},
      {"identity/compressed-mmap", identity_packed_eng->get(), &no_ids},
  };
  const Stack reordered_stacks[] = {
      {"reordered/in-memory", reordered_mem->get(), &external_ids},
      {"reordered/raw-mmap", reordered_raw_eng->get(), &external_ids},
      {"reordered/compressed-mmap", reordered_packed_eng->get(), &external_ids},
  };
  const std::vector<Query> queries = ProbeQueries(r_max);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    CanonicalAnswer canonical[2];
    int group = 0;
    for (const auto* stacks : {identity_stacks, reordered_stacks}) {
      std::vector<CommunityResult> exact;
      for (int si = 0; si < 3; ++si) {
        const Stack& stack = stacks[si];
        Result<TopLResult> answer = stack.engine->Search(q);
        if (!answer.ok()) {
          std::fprintf(stderr, "[%s] query %zu failed on %s: %s\n", tag.c_str(),
                       qi, stack.name, answer.status().ToString().c_str());
          return report;
        }
        if (si == 0) {
          exact = answer->communities;
          canonical[group] =
              CanonicalFingerprint(answer->communities, *stack.external_ids);
        } else if (!bench::SameCommunities(answer->communities, exact)) {
          std::fprintf(stderr,
                       "[%s] DIVERGENCE: query %zu answers differ between %s "
                       "and %s (same labeling — must be bit-identical)\n",
                       tag.c_str(), qi, stacks[0].name, stack.name);
          return report;
        }
      }
      ++group;
    }
    if (canonical[0] != canonical[1]) {
      std::fprintf(stderr,
                   "[%s] DIVERGENCE: query %zu identity vs reordered answers "
                   "differ after unmapping the permutation\n",
                   tag.c_str(), qi);
      return report;
    }
  }

  // ---- query_p50_ms on the deployment configuration. ---------------------
  Engine* serving = reordered_packed_eng->get();
  std::vector<double> latencies_ms;
  latencies_ms.reserve(queries.size() * static_cast<std::size_t>(repeat));
  for (int round = 0; round < repeat; ++round) {
    for (const Query& q : queries) {
      Timer timer;
      Result<TopLResult> answer = serving->Search(q);
      if (!answer.ok()) {
        std::fprintf(stderr, "[%s] timing query failed: %s\n", tag.c_str(),
                     answer.status().ToString().c_str());
        return report;
      }
      latencies_ms.push_back(timer.ElapsedSeconds() * 1e3);
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  report.query_p50_ms = latencies_ms[latencies_ms.size() / 2];

  report.rss_mb = MeasureServingRssMb(reordered_packed, queries.front());
  report.ok = true;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  using K = FlagKind;
  const auto flags = bench::ParseBenchFlags(
      argc, argv,
      {{"sizes", K::kUintList}, {"rmax", K::kUint}, {"seed", K::kUint},
       {"repeat", K::kUint}, {"json", K::kString}, {"dir", K::kString},
       {"threads", K::kUint}});
  const std::vector<std::uint64_t> sizes = UintListFlag(
      flags, "sizes",
      bench::FullScale() ? std::vector<std::uint64_t>{100000, 250000, 1000000}
                         : std::vector<std::uint64_t>{100000});
  if (sizes.empty()) {
    std::fprintf(stderr, "no sizes to run\n");
    return 2;
  }
  const std::uint32_t r_max =
      static_cast<std::uint32_t>(IntFlag(flags, "rmax", 2));
  const std::uint64_t seed = IntFlag(flags, "seed", 42);
  const int repeat = static_cast<int>(IntFlag(flags, "repeat", 3));
  const std::size_t threads = IntFlag(flags, "threads", 0);
  const std::string json_path = FlagOr(flags, "json", "BENCH_scale.json");
  const std::string dir = FlagOr(
      flags, "dir",
      (std::filesystem::temp_directory_path() /
       ("topl_scale_" + std::to_string(::getpid()))).string());
  std::filesystem::create_directories(dir);

  std::vector<SizeReport> reports;
  bool all_ok = true;
  for (std::size_t vertices : sizes) {
    std::printf("== %zu vertices ==\n", vertices);
    std::fflush(stdout);
    const SizeReport report =
        RunSize(vertices, r_max, seed, repeat, threads, dir);
    all_ok = all_ok && report.ok;
    std::printf(
        "  V=%zu E=%zu build=%.2fs reorder=%.3fs raw=%llu B packed=%llu B "
        "(%.2fx) p50=%.3fms rss=%.1fMB %s\n",
        report.vertices, report.edges, report.offline_build_s,
        report.reorder_s, static_cast<unsigned long long>(report.artifact_bytes),
        static_cast<unsigned long long>(report.compressed_bytes),
        report.compression_ratio, report.query_p50_ms, report.rss_mb,
        report.ok ? "ok" : "FAILED");
    std::fflush(stdout);
    reports.push_back(report);
    if (!report.ok) break;  // later sizes only get more expensive
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"benchmark\": \"scale\",\n");
  std::fprintf(json, "  \"r_max\": %u,\n", r_max);
  std::fprintf(json, "  \"sizes\": {\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SizeReport& r = reports[i];
    std::fprintf(json,
                 "    \"%zu\": {\"V\": %zu, \"E\": %zu, "
                 "\"offline_build_s\": %.3f, \"reorder_s\": %.3f, "
                 "\"artifact_bytes\": %llu, \"compressed_bytes\": %llu, "
                 "\"compression_ratio\": %.4f, \"query_p50_ms\": %.4f, "
                 "\"rss_mb\": %.1f}%s\n",
                 r.vertices, r.vertices, r.edges, r.offline_build_s,
                 r.reorder_s, static_cast<unsigned long long>(r.artifact_bytes),
                 static_cast<unsigned long long>(r.compressed_bytes),
                 r.compression_ratio, r.query_p50_ms, r.rss_mb,
                 i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"ok\": %s\n", all_ok ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());

  if (!flags.count("dir")) std::filesystem::remove_all(dir);
  return all_ok ? 0 : 1;
}
