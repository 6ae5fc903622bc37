#include "setup.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "graph/generators.h"
#include "index/precompute.h"
#include "index/tree_index.h"
#include "storage/artifact.h"

namespace perfbench {

using topl::Result;

std::uint64_t GraphSeed(std::uint64_t bench_seed) {
  return bench_seed * 0x9e3779b97f4a7c15ULL + 0x5eed;
}

Result<topl::Graph> MakeGraph(std::size_t vertices, std::uint64_t bench_seed) {
  topl::SmallWorldOptions gen;
  gen.num_vertices = vertices;
  gen.seed = GraphSeed(bench_seed);
  gen.keywords.domain_size = 50;
  gen.keywords.keywords_per_vertex = 3;
  return topl::MakeSmallWorld(gen);
}

Result<SetupResult> SetUp(const topl::Graph& graph, const std::string& artifact_path,
                          topl::EngineOptions options, Tracer* tracer) {
  SetupResult out;
  Span total(tracer, "setup");

  Span build(tracer, "index.build", total.id());
  topl::PrecomputeOptions pre_options;
  pre_options.r_max = kRMax;
  Result<topl::PrecomputedData> pre = topl::PrecomputedData::Build(graph, pre_options);
  if (!pre.ok()) return pre.status();
  Result<topl::TreeIndex> tree = topl::TreeIndex::Build(graph, *pre);
  if (!tree.ok()) return tree.status();
  out.build_s = build.Stop();

  Span write(tracer, "storage.artifact_write", total.id());
  TOPL_RETURN_IF_ERROR(topl::ArtifactWriter::Write(graph, *pre, *tree, artifact_path));
  out.write_s = write.Stop();
  std::error_code ec;
  out.artifact_bytes = std::filesystem::file_size(artifact_path, ec);

  Span open(tracer, "storage.artifact_open", total.id());
  options.index_path = artifact_path;
  Result<std::unique_ptr<topl::Engine>> engine = topl::Engine::Open(options);
  if (!engine.ok()) return engine.status();
  if ((*engine)->index_source() != topl::Engine::IndexSource::kMappedArtifact) {
    return topl::Status::Internal("setup did not take the mmap artifact path");
  }
  out.open_s = open.Stop();
  out.engine = std::move(engine).value();
  out.total_s = total.Stop();
  return out;
}

namespace {

/// The process's CPUs in ascending order, read once before any thread pins
/// itself (pinning narrows the calling thread's own mask).
const std::vector<int>& ProcessCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

std::size_t AvailableCpus() {
  if (!ProcessCpus().empty()) return ProcessCpus().size();
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void PinCurrentThread(std::size_t first, std::size_t count) {
  const std::vector<int>& cpus = ProcessCpus();
  if (cpus.empty() || count == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < count; ++i) CPU_SET(cpus[(first + i) % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: unpinned on failure
}

double ResidentMiB() {
  // Hand free heap pages back first, so the figure is what the process
  // holds rather than what the allocator kept from setup.
  malloc_trim(0);
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

const char* CompilerId() { return PERFBENCH_COMPILER; }
const char* BuildType() { return PERFBENCH_BUILD_TYPE; }
bool FaultInjectionCompiled() { return topl::fault::Enabled(); }

}  // namespace perfbench
