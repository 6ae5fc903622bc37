#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "engine/engine.h"
#include "trace.h"

namespace perfbench {

/// The production start-up path over a generated graph, timed piece by
/// piece: the offline phase (Algorithm 2 precompute with r_max = 2, then the
/// tree index), a TOPLIDX2 artifact write, and Engine::Open (mmap).
struct SetupResult {
  std::unique_ptr<topl::Engine> engine;
  double total_s = 0.0;
  double build_s = 0.0;  // precompute + tree index
  double write_s = 0.0;
  double open_s = 0.0;
  std::uint64_t artifact_bytes = 0;
};

inline constexpr std::uint32_t kRMax = 2;

/// Seed of the generated graph for a benchmark seed (shared by every setup
/// repetition of one run, so repetitions time identical work).
std::uint64_t GraphSeed(std::uint64_t bench_seed);

/// The benchmark's input: a Uni small-world graph (|Σ| = 50, 3 keywords per
/// vertex) drawn from the benchmark seed. Generating it is not part of the
/// production start-up, so SetUp does not time it.
topl::Result<topl::Graph> MakeGraph(std::size_t vertices, std::uint64_t bench_seed);

/// Runs one full setup over `graph`. `options.index_path` is overwritten with
/// the artifact path; every other engine option is the caller's.
topl::Result<SetupResult> SetUp(const topl::Graph& graph, const std::string& artifact_path,
                                topl::EngineOptions options, Tracer* tracer);

/// CPUs this process may run on (affinity mask), at least 1.
std::size_t AvailableCpus();

/// Restricts the calling thread (and threads it creates later) to the
/// CPUs at positions [first, first + count) of the process's affinity mask,
/// so every run places its readers and writer the same way.
void PinCurrentThread(std::size_t first, std::size_t count);

/// Resident set size of this process in MiB (0 when unavailable), after
/// returning free heap pages to the kernel.
double ResidentMiB();

/// Compiler and CMake build type the benchmark was compiled with, and
/// whether the library's fault-injection points are compiled in.
const char* CompilerId();
const char* BuildType();
bool FaultInjectionCompiled();

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
