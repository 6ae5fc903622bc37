#include "loadgen/injector.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/graph_delta.h"

namespace topl {
namespace loadgen {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Retry policy for shed (Status::Unavailable) responses: the engine's
/// admission gate explicitly invites a retry with backoff, and a loadgen
/// that gives up on the first rejection under-reports the achievable
/// goodput. Bounded attempts keep a saturated engine from turning the
/// injector into an unbounded retry storm.
constexpr int kMaxAttempts = 3;
constexpr double kBackoffBaseSeconds = 200e-6;

/// Runs `call` with up to kMaxAttempts tries, sleeping an exponentially
/// growing, jittered backoff between shed responses. Counts every
/// Unavailable response in `*shed` and every re-issued attempt in
/// `*retried`; non-Unavailable failures are terminal.
template <typename Call, typename Outcome>
void RunWithRetry(Call&& call, Rng* rng, std::uint64_t* shed,
                  std::uint64_t* retried, Outcome&& outcome) {
  for (int attempt = 0;; ++attempt) {
    auto r = call();
    if (r.ok()) {
      outcome(/*ok=*/true, r->truncated, r->degraded);
      return;
    }
    if (r.status().IsUnavailable()) ++*shed;
    if (!r.status().IsUnavailable() || attempt + 1 >= kMaxAttempts) {
      outcome(/*ok=*/false, false, false);
      return;
    }
    ++*retried;
    // Full jitter in [0.5, 1.5)x so synchronized workers don't re-collide on
    // the admission gate at the same instant.
    const double backoff = kBackoffBaseSeconds * static_cast<double>(1 << attempt) *
                           (0.5 + rng->NextDouble());
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

}  // namespace

LoadInjector::LoadInjector(Engine* engine, const WorkloadGenerator& generator,
                           const InjectorOptions& options)
    : engine_(engine), generator_(generator), options_(options) {}

Result<LoadReport> LoadInjector::Run() {
  if (options_.num_workers == 0) {
    return Status::InvalidArgument("injector needs >= 1 worker");
  }
  if (options_.duration_seconds <= 0.0 && options_.max_ops == 0) {
    return Status::InvalidArgument(
        "injector needs a positive duration or an op cap");
  }
  const bool open_loop = options_.target_qps > 0.0;

  std::vector<LoadRecorder> recorders(options_.num_workers);
  std::atomic<std::uint64_t> next_index{0};
  // Serializes harness-side update generation+apply so every delta is drawn
  // against exactly the graph version it lands on (deltas state transitions,
  // not end states, so a delta raced by another update could become
  // invalid). Queries never touch this mutex.
  std::mutex update_mu;

  // Cache counters are cumulative over the engine's lifetime; diffing
  // before/after isolates this run's activity (warmup runs use a separate
  // injector, so their fills don't masquerade as measured hits).
  const EngineStats stats_before = engine_->Stats();

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      options_.duration_seconds > 0.0
          ? start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options_.duration_seconds))
          : Clock::time_point::max();

  ProgressiveOptions progressive;
  progressive.parallel = options_.progressive_parallel;
  progressive.deadline_seconds = options_.progressive_deadline_ms / 1e3;

  auto worker = [&](LoadRecorder* recorder, std::size_t worker_index) {
    // Per-worker deterministic jitter source for retry backoff.
    Rng backoff_rng(0x9E3779B97F4A7C15ull ^ worker_index);
    for (;;) {
      const std::uint64_t i =
          next_index.fetch_add(1, std::memory_order_relaxed);
      if (options_.max_ops != 0 && i >= options_.max_ops) break;

      Clock::time_point intended;
      if (open_loop) {
        // Arrival i is scheduled at start + i/qps; execute every arrival
        // scheduled before the deadline, even when running behind.
        intended = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) /
                                   options_.target_qps));
        if (intended >= deadline) break;
        std::this_thread::sleep_until(intended);  // no-op when behind
      } else {
        const Clock::time_point now = Clock::now();
        if (now >= deadline) break;
        intended = now;
      }

      const Operation op = generator_.At(i);
      const Clock::time_point begin = Clock::now();
      bool ok = true;
      bool truncated = false;
      bool degraded = false;
      std::uint64_t shed = 0;
      std::uint64_t retried = 0;
      auto outcome = [&](bool call_ok, bool call_truncated, bool call_degraded) {
        ok = call_ok;
        truncated = call_truncated;
        degraded = call_degraded;
      };
      switch (op.kind) {
        case OpKind::kTopL:
          RunWithRetry([&] { return engine_->Search(op.query); }, &backoff_rng,
                       &shed, &retried, outcome);
          break;
        case OpKind::kDTopL:
          RunWithRetry(
              [&] { return engine_->SearchDiversified(op.query, DTopLOptions()); },
              &backoff_rng, &shed, &retried, outcome);
          break;
        case OpKind::kProgressive:
          // A deadline-bearing progressive query is degraded (not shed) by an
          // overloaded engine, so retries only fire in the no-deadline case.
          RunWithRetry(
              [&] { return engine_->SearchProgressive(op.query, progressive); },
              &backoff_rng, &shed, &retried, outcome);
          break;
        case OpKind::kUpdate: {
          // Updates are not retried: they serialize on update_mu anyway, and
          // the admission gate covers queries, not maintenance.
          std::lock_guard<std::mutex> lock(update_mu);
          const std::shared_ptr<const EngineSnapshot> snap =
              engine_->snapshot();
          Rng rng(op.delta_seed);
          const GraphDelta delta =
              MakeRandomDelta(*snap->graph, rng, generator_.spec().delta);
          if (delta.empty()) break;  // no valid target found; count as ok
          Result<RebuildScope> r = engine_->ApplyUpdate(delta);
          ok = r.ok();
          break;
        }
      }
      const Clock::time_point done = Clock::now();
      recorder->Record(op.kind, Seconds(done - intended),
                       Seconds(done - begin), ok, truncated, degraded, shed,
                       retried);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    threads.emplace_back(worker, &recorders[w], w);
  }
  for (std::thread& thread : threads) thread.join();
  const double wall = Seconds(Clock::now() - start);

  LoadReport report =
      BuildReport(recorders, generator_.spec().name, open_loop,
                  options_.target_qps, wall);
  const EngineStats stats = engine_->Stats();
  report.updates_applied = stats.updates_applied;
  report.snapshot_epoch = stats.snapshot_epoch;
  report.cache_hits = stats.cache_hits - stats_before.cache_hits;
  report.cache_misses = stats.cache_misses - stats_before.cache_misses;
  report.cache_coalesced =
      stats.cache_coalesced - stats_before.cache_coalesced;
  const std::uint64_t lookups =
      report.cache_hits + report.cache_misses + report.cache_coalesced;
  if (lookups > 0) {
    report.hit_rate =
        static_cast<double>(report.cache_hits) / static_cast<double>(lookups);
  }

  return report;
}

}  // namespace loadgen
}  // namespace topl
