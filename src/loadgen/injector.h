#ifndef TOPL_LOADGEN_INJECTOR_H_
#define TOPL_LOADGEN_INJECTOR_H_

#include <cstdint>

#include "common/result.h"
#include "engine/engine.h"
#include "loadgen/report.h"
#include "loadgen/workload.h"

namespace topl {
namespace loadgen {

/// Traffic-injection knobs, independent of the workload's *content*
/// (WorkloadSpec) — the same spec can be replayed closed-loop to find the
/// capacity ceiling and open-loop to measure tail latency at a fixed offered
/// load.
struct InjectorOptions {
  /// Injector threads. Closed loop: the concurrency (each worker fires its
  /// next operation the moment the previous one completes). Open loop: the
  /// executor pool draining the arrival schedule.
  std::size_t num_workers = 8;

  /// > 0 switches to open-loop mode: operation i's *intended* arrival time
  /// is start + i/target_qps on the monotonic clock, and its reported
  /// latency runs from that intended arrival to completion — so when the
  /// engine falls behind, queueing delay lands in the histogram instead of
  /// being silently absorbed by a slowed-down injector (coordinated
  /// omission). 0 = closed loop.
  double target_qps = 0.0;

  /// Run length. Closed loop stops issuing once the clock passes it; open
  /// loop executes exactly the arrivals scheduled before it (and runs past
  /// the nominal end if a backlog remains, which the achieved-vs-target gap
  /// then exposes).
  double duration_seconds = 5.0;

  /// Optional cap on total operations (0 = none); with a cap the run ends at
  /// whichever limit hits first. Lets smoke tests bound work exactly.
  std::uint64_t max_ops = 0;

  /// Deadline handed to progressive operations (0 = none): the anytime
  /// contract under load — expired queries return best-so-far, truncated.
  double progressive_deadline_ms = 0.0;

  /// Let progressive operations fan their scoring out over the engine's
  /// pool. Off by default: the injector already saturates the engine with
  /// inter-query concurrency, and nested fan-out mostly adds contention.
  bool progressive_parallel = false;
};

/// \brief Drives a live Engine with a WorkloadGenerator stream.
///
/// Workers claim operation indices from one shared atomic counter, so the
/// executed stream is a prefix of the generator's deterministic sequence
/// regardless of worker count. Query kinds run fully concurrently; update
/// operations serialize among themselves (one mutex around
/// snapshot -> MakeRandomDelta -> ApplyUpdate, so each delta is drawn
/// against the graph it is applied to) but never block queries — that is
/// the engine's MVCC contract, and this harness is its sustained test.
class LoadInjector {
 public:
  /// `engine` must outlive the injector; not owned.
  LoadInjector(Engine* engine, const WorkloadGenerator& generator,
               const InjectorOptions& options);

  /// Runs the load and returns the merged report. Individual operation
  /// failures do not abort the run; they are counted per kind and surfaced
  /// through LoadReport::failed (drivers exit non-zero on any).
  Result<LoadReport> Run();

 private:
  Engine* engine_;
  const WorkloadGenerator& generator_;
  InjectorOptions options_;
};

}  // namespace loadgen
}  // namespace topl

#endif  // TOPL_LOADGEN_INJECTOR_H_
