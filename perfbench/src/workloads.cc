#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "cache/query_cache.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dtopl_detector.h"
#include "core/seed_community.h"
#include "core/topl_detector.h"
#include "engine/engine.h"
#include "graph/graph_delta.h"
#include "graph/local_subgraph.h"
#include "histogram.h"
#include "index/index_update.h"
#include "influence/propagation.h"
#include "loadgen/workload.h"
#include "setup.h"
#include "storage/update_journal.h"
#include "trace.h"

namespace perfbench {
namespace {

using topl::DTopLResult;
using topl::Engine;
using topl::Query;
using topl::Result;
using topl::Status;
using topl::TopLResult;
using topl::loadgen::OpKind;
using topl::loadgen::Operation;
using topl::loadgen::WorkloadGenerator;
using topl::loadgen::WorkloadSpec;

/// What each workload serves and how it loads the engine.
struct Shape {
  const char* name;
  std::size_t vertices;
  std::size_t smoke_vertices;
  /// false: nproc open-loop readers, cache off, no updates (read_100k).
  /// true: closed-loop readers through the result cache beside one writer
  /// at a fixed rate (churn_8k).
  bool churn;
  /// Setups of an untraced run, each measured for an equal slice of the
  /// run; setup_s is their median. churn_8k's cache hits contend on shared
  /// lines whose layout each fresh engine draws anew, so it pools more.
  int setups;
};

constexpr Shape kShapes[] = {
    {"read_100k", 100000, 3000, false, 3},
    {"churn_8k", 8000, 1500, true, 6},
};

/// read_100k's open-loop arrival rate: about a quarter of the closed-loop
/// capacity of four clients at 100k vertices (~150 reads/s on a 4-core x86
/// box). At half capacity a host that runs slower for a while pushes the
/// clients into queueing, and the median read swung by 30% between runs.
constexpr double kReadArrivalsPerSecond = 40.0;
/// churn_8k's writer rate: one delta a second, which a two-thread
/// maintenance pool at 8k vertices (~0.4 s per delta) sustains without a
/// backlog.
constexpr double kChurnUpdatesPerSecond = 1.0;
/// Ops of the stream whose answers are checked against a fresh detector
/// (read_100k), and queries replayed by the traced decomposition.
constexpr std::uint64_t kWitnessOps = 24;
constexpr std::size_t kProbeQueries = 16;
/// Deltas of the traced update probe.
constexpr int kProbeUpdates = 4;
/// Op-id tags, so spans of the read and update streams never share an id.
constexpr std::uint64_t kReadTag = 1ull << 56;
constexpr std::uint64_t kUpdateTag = 2ull << 56;
constexpr std::uint64_t kProbeTag = 3ull << 56;
/// Ops drawn ahead of each phase. A closed loop cycles through them, so the
/// timed loop spends nothing on generating operations; an open loop at
/// kReadArrivalsPerSecond never reaches the end of the pool.
constexpr std::size_t kOpPool = 4096;
/// Warm-up ops draw from this index range, disjoint from the measured one.
constexpr std::uint64_t kWarmupBase = 1ull << 40;
/// The traced half of a traced run continues the streams from here.
constexpr std::uint64_t kTracedBase = 1ull << 32;

const Shape* FindShape(const std::string& name) {
  for (const Shape& shape : kShapes) {
    if (name == shape.name) return &shape;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Answer comparison (byte-identity of every field that defines an answer)
// ---------------------------------------------------------------------------

bool SameCommunity(const topl::CommunityResult& a, const topl::CommunityResult& b) {
  if (a.community.center != b.community.center ||
      a.community.vertices != b.community.vertices ||
      a.influence.vertices != b.influence.vertices ||
      a.influence.cpp != b.influence.cpp || a.influence.score != b.influence.score) {
    return false;
  }
  std::vector<topl::EdgeId> ea = a.community.edges;
  std::vector<topl::EdgeId> eb = b.community.edges;
  std::sort(ea.begin(), ea.end());
  std::sort(eb.begin(), eb.end());
  return ea == eb;
}

bool SameCommunities(const std::vector<topl::CommunityResult>& a,
                     const std::vector<topl::CommunityResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameCommunity(a[i], b[i])) return false;
  }
  return true;
}

bool SameAnswer(const TopLResult& a, const TopLResult& b) {
  return a.truncated == b.truncated && SameCommunities(a.communities, b.communities);
}

bool SameAnswer(const DTopLResult& a, const DTopLResult& b) {
  return a.truncated == b.truncated && a.diversity_score == b.diversity_score &&
         SameCommunities(a.communities, b.communities);
}

/// An answer recorded during the load for the correctness witness.
struct Answer {
  bool present = false;
  Operation op;
  TopLResult topl;
  DTopLResult dtopl;
};

// ---------------------------------------------------------------------------
// Load phases
// ---------------------------------------------------------------------------

/// One traced update, split into the steps Engine::ApplyUpdate takes.
struct UpdateSample {
  double total_s = 0.0;  // root span: delta draw + the three steps
  double apply_s = 0.0;
  double append_s = 0.0;
  double install_s = 0.0;
  topl::RebuildScope scope;
  std::uint64_t cache_invalidated = 0;
  std::uint64_t retired_contexts = 0;
  std::uint64_t live_snapshots = 0;
  std::uint64_t journal_bytes = 0;
};

struct PhaseStats {
  std::array<LogHistogram, topl::loadgen::kNumOpKinds> latency;
  LogHistogram lag;      // begin - intended send time
  LogHistogram service;  // reads: done - begin, without queueing
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<UpdateSample> updates;

  void Merge(const PhaseStats& other) {
    for (std::size_t k = 0; k < latency.size(); ++k) latency[k].Merge(other.latency[k]);
    lag.Merge(other.lag);
    service.Merge(other.service);
    attempted += other.attempted;
    failed += other.failed;
    updates.insert(updates.end(), other.updates.begin(), other.updates.end());
  }

  LogHistogram Reads() const {
    LogHistogram merged;
    merged.Merge(latency[static_cast<std::size_t>(OpKind::kTopL)]);
    merged.Merge(latency[static_cast<std::size_t>(OpKind::kDTopL)]);
    merged.Merge(latency[static_cast<std::size_t>(OpKind::kProgressive)]);
    return merged;
  }
  const LogHistogram& Of(OpKind kind) const {
    return latency[static_cast<std::size_t>(kind)];
  }
};

/// The load's spans exist only when tracing: an untraced read reads the
/// clock for its own timing and nothing else.
void OpenSpan(std::optional<Span>& span, Tracer* tracer, const char* name,
              std::uint32_t parent, std::uint64_t op_id) {
  if (tracer != nullptr) span.emplace(tracer, name, parent, op_id);
}

/// Executes one read through the engine's public entry point for its kind.
/// Progressive queries do not fan out inside the query (loadgen's default).
bool ExecuteRead(Engine& engine, const Operation& op, Tracer* tracer,
                 std::uint32_t parent, std::uint64_t op_id, Answer* keep) {
  std::optional<Span> span;
  switch (op.kind) {
    case OpKind::kTopL: {
      OpenSpan(span, tracer, "engine.search", parent, op_id);
      Result<TopLResult> r = engine.Search(op.query);
      span.reset();
      if (r.ok() && keep != nullptr) keep->topl = std::move(r).value();
      return r.ok();
    }
    case OpKind::kDTopL: {
      OpenSpan(span, tracer, "engine.search_diversified", parent, op_id);
      Result<DTopLResult> r = engine.SearchDiversified(op.query);
      span.reset();
      if (r.ok() && keep != nullptr) keep->dtopl = std::move(r).value();
      return r.ok();
    }
    case OpKind::kProgressive: {
      topl::ProgressiveOptions options;
      options.parallel = false;
      OpenSpan(span, tracer, "engine.search_progressive", parent, op_id);
      Result<TopLResult> r = engine.SearchProgressive(op.query, options);
      span.reset();
      const bool ok = r.ok() && !r->truncated;
      if (ok && keep != nullptr) keep->topl = std::move(r).value();
      return ok;
    }
    case OpKind::kUpdate:
      break;
  }
  return false;
}

/// Ops [first, first + count) of the stream.
std::vector<Operation> DrawOps(const WorkloadGenerator& gen, std::uint64_t first,
                               std::size_t count) {
  std::vector<Operation> ops;
  ops.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) ops.push_back(gen.At(first + i));
  return ops;
}

/// Reader clients; the i-th op sent is ops[i % ops.size()]. With `rate` > 0
/// an open loop: op i is due at start + i / rate whatever the engine's
/// progress, and its latency is timed from that due time. With `rate` == 0 a
/// closed loop: each client sends its next op when the previous one
/// returns, and client t takes ops t, t + clients, ... so that clients share
/// no counter. Either way the service time (send to return) is recorded too.
/// The first witness->size() ops keep their answers for the correctness
/// witness.
PhaseStats RunReaders(Engine& engine, const std::vector<Operation>& ops,
                      std::size_t clients, double seconds, double rate, Tracer* tracer,
                      std::vector<Answer>* witness) {
  std::vector<PhaseStats> per_thread(clients);
  std::atomic<std::uint64_t> next{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&](PhaseStats* result, std::size_t index) {
    PinCurrentThread(index, 1);
    // Filled locally, so that clients write no shared cache line per op.
    PhaseStats local;
    PhaseStats* stats = &local;
    for (std::uint64_t sent = 0;; ++sent) {
      const std::uint64_t i = rate > 0.0 ? next.fetch_add(1, std::memory_order_relaxed)
                                         : index + clients * sent;
      Clock::time_point intended;
      if (rate > 0.0) {
        intended = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / rate));
        if (intended >= deadline) break;
        std::this_thread::sleep_until(intended);
      } else {
        intended = Clock::now();
        if (intended >= deadline) break;
      }
      const Operation& op = ops[i % ops.size()];
      const std::uint64_t op_id = kReadTag | op.index;
      Answer* keep = nullptr;
      if (witness != nullptr && i < witness->size()) {
        keep = &(*witness)[i];
        keep->op = op;
      }
      std::optional<Span> root;
      OpenSpan(root, tracer, "loadgen.op", Tracer::kNoParent, op_id);
      const Clock::time_point begin = rate > 0.0 ? Clock::now() : intended;
      const bool ok = ExecuteRead(engine, op, tracer, root ? root->id() : Tracer::kNoParent,
                                  op_id, keep);
      const Clock::time_point done = Clock::now();
      root.reset();
      if (keep != nullptr) keep->present = ok;
      ++stats->attempted;
      if (!ok) ++stats->failed;
      stats->latency[static_cast<std::size_t>(op.kind)].RecordSeconds(
          SecondsBetween(intended, done));
      stats->service.RecordSeconds(SecondsBetween(begin, done));
      stats->lag.RecordSeconds(SecondsBetween(intended, begin));
    }
    *result = std::move(local);
  };
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t t = 0; t < clients; ++t) threads.emplace_back(client, &per_thread[t], t);
  for (std::thread& thread : threads) thread.join();
  PhaseStats total;
  for (const PhaseStats& stats : per_thread) total.Merge(stats);
  return total;
}

/// How the writer applies a delta. Untraced runs call Engine::ApplyUpdate.
/// Traced runs take exactly its steps as three public calls —
/// IndexUpdater::Apply → UpdateJournal::Append → Engine::InstallUpdate — so
/// each gets a span; `journal` is null when the workload does not journal.
struct UpdatePath {
  bool decomposed = false;  // also: record an UpdateSample per update
  topl::ThreadPool* pool = nullptr;
  topl::UpdateJournal* journal = nullptr;
};

/// Applies one delta; `root` is the op's root span. Returns success.
bool ApplyOne(Engine& engine, const topl::GraphDelta& delta,
              std::shared_ptr<const topl::EngineSnapshot> base, const UpdatePath& path,
              Tracer* tracer, Span& root, std::uint64_t op_id, UpdateSample* sample) {
  if (!path.decomposed) {
    base.reset();
    return engine.ApplyUpdate(delta).ok();
  }
  Span apply(tracer, "index.update_apply", root.id(), op_id);
  Result<topl::UpdatedIndex> updated = topl::IndexUpdater::Apply(
      *base->graph, *base->pre, *base->tree, delta, path.pool);
  sample->apply_s = apply.Stop();
  base.reset();
  if (!updated.ok()) return false;
  if (path.journal != nullptr) {
    Span append(tracer, "storage.journal_append", root.id(), op_id);
    const Status appended = path.journal->Append(delta);
    sample->append_s = append.Stop();
    if (!appended.ok()) return false;
  }
  Span install(tracer, "engine.install", root.id(), op_id);
  Result<topl::RebuildScope> scope = engine.InstallUpdate(std::move(updated).value());
  sample->install_s = install.Stop();
  if (!scope.ok()) return false;
  sample->scope = *scope;
  return true;
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// Applies `delta`, drawn against `base`, under the op's root span and
/// records its latency (the apply call(s) only), its lag behind `intended`
/// and — on the decomposed path — the per-update counters.
void ApplyAndRecord(Engine& engine, const topl::GraphDelta& delta,
                    std::shared_ptr<const topl::EngineSnapshot> base,
                    Clock::time_point intended, const UpdatePath& path,
                    const std::string& journal_path, Tracer* tracer, Span& root,
                    std::uint64_t op_id, PhaseStats* stats) {
  topl::EngineStats before;
  std::uint64_t journal_before = 0;
  if (path.decomposed) {
    before = engine.Stats();
    journal_before = FileBytes(journal_path);
  }
  UpdateSample sample;
  const Clock::time_point begin = Clock::now();
  const bool ok = ApplyOne(engine, delta, std::move(base), path, tracer, root, op_id, &sample);
  const Clock::time_point done = Clock::now();
  sample.total_s = root.Stop();
  ++stats->attempted;
  if (!ok) ++stats->failed;
  stats->latency[static_cast<std::size_t>(OpKind::kUpdate)].RecordSeconds(
      SecondsBetween(begin, done));
  stats->lag.RecordSeconds(SecondsBetween(intended, begin));
  if (path.decomposed && ok) {
    const topl::EngineStats after = engine.Stats();
    sample.cache_invalidated = after.cache_invalidated - before.cache_invalidated;
    sample.retired_contexts = after.retired_contexts - before.retired_contexts;
    sample.live_snapshots = after.live_snapshots;
    sample.journal_bytes = FileBytes(journal_path) - journal_before;
    stats->updates.push_back(sample);
  }
}

/// One writer at `rate` deltas a second: delta j is due at start + j / rate,
/// and a late start shows as lag.
PhaseStats RunWriter(Engine& engine, const WorkloadGenerator& gen, std::uint64_t first,
                     double seconds, double rate, const UpdatePath& path,
                     const std::string& journal_path, Tracer* tracer) {
  PhaseStats stats;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::uint64_t j = 0;; ++j) {
    const Clock::time_point intended =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(j) / rate));
    if (intended >= deadline || Clock::now() >= deadline) break;
    std::this_thread::sleep_until(intended);
    const Operation op = gen.At(first + j);
    const std::uint64_t op_id = kUpdateTag | op.index;
    Span root(tracer, "loadgen.update", Tracer::kNoParent, op_id);
    std::shared_ptr<const topl::EngineSnapshot> base = engine.snapshot();
    topl::Rng rng(op.delta_seed);
    const topl::GraphDelta delta = topl::MakeRandomDelta(*base->graph, rng, gen.spec().delta);
    if (!delta.empty()) {  // empty: no valid target, not an operation
      ApplyAndRecord(engine, delta, std::move(base), intended, path, journal_path, tracer,
                     root, op_id, &stats);
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Metric helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return SortedPercentile(values, 0.5);
}

Metric PercentileMetric(const std::string& name, const LogHistogram& h, double q) {
  Metric m;
  m.name = name;
  m.value = h.PercentileMillis(q);
  m.unit = "ms";
  m.samples = h.count();
  m.short_tail = q > 0.5 && h.SamplesBeyond(q) < 10;
  return m;
}

Metric Value(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples) {
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.samples = samples;
  return m;
}

/// Result-cache activity between pairs of Engine::Stats() snapshots.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;  // hits + misses + coalesced
  std::uint64_t coalesced = 0;
  std::uint64_t evicted = 0;

  void Add(const topl::EngineStats& before, const topl::EngineStats& after) {
    const std::uint64_t h = after.cache_hits - before.cache_hits;
    const std::uint64_t c = after.cache_coalesced - before.cache_coalesced;
    hits += h;
    coalesced += c;
    lookups += h + c + (after.cache_misses - before.cache_misses);
    evicted += after.cache_evicted - before.cache_evicted;
  }
  double HitRate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Raw per-layer samples of the traced run, reduced to medians.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) { samples_[name].push_back(value); }
  double MedianOf(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : Median(it->second);
  }
  std::uint64_t CountOf(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0 : it->second.size();
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// ---------------------------------------------------------------------------
// Traced decomposition probes (after the timed phase)
// ---------------------------------------------------------------------------

/// Replays `queries` one at a time on the engine's current snapshot and
/// times each layer's public call: the engine entry point against the bare
/// detector, the result cache's miss and hit paths, and — for every answer
/// center — r-hop ball extraction, truss verification and max-product
/// propagation. Also a witness: the engine must agree with the detector.
void QueryProbe(Engine& engine, const std::vector<Query>& queries, Tracer* tracer,
                LayerSamples* layers, topl::QueryStats* totals, RunOutput* out) {
  const std::shared_ptr<const topl::EngineSnapshot> snap = engine.snapshot();
  const topl::Graph& g = *snap->graph;
  topl::TopLDetector topl_detector(g, *snap->pre, *snap->tree);
  topl::DTopLDetector dtopl_detector(g, *snap->pre, *snap->tree);
  topl::HopExtractor hop(g);
  topl::SeedCommunityExtractor extractor(g);
  topl::PropagationEngine propagation(g);
  topl::QueryCache cache(topl::QueryCache::Config{});
  topl::LocalGraph ball;
  topl::SeedCommunity community;

  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Query& query = queries[q];
    const std::uint64_t op_id = kProbeTag | q;
    Span root(tracer, "probe.query", Tracer::kNoParent, op_id);

    Span engine_span(tracer, "engine.search", root.id(), op_id);
    Result<TopLResult> served = engine.Search(query);
    const double engine_s = engine_span.Stop();

    Span core_span(tracer, "core.topl_search", root.id(), op_id);
    Result<TopLResult> direct = topl_detector.Search(query);
    const double core_s = core_span.Stop();

    Span dtopl_span(tracer, "core.dtopl_search", root.id(), op_id);
    Result<DTopLResult> diversified = dtopl_detector.Search(query);
    const double dtopl_s = dtopl_span.Stop();

    ++out->attempted;
    if (!served.ok() || !direct.ok() || !diversified.ok() ||
        !SameAnswer(*served, *direct)) {
      ++out->failed;
      out->failures.push_back("probe query " + std::to_string(q) +
                              ": engine and sequential detector disagree");
      continue;
    }
    layers->Add("engine.overhead_us", (engine_s - core_s) * 1e6);
    layers->Add("core.topl_search_ms", core_s * 1e3);
    layers->Add("core.dtopl_search_ms", dtopl_s * 1e3);
    *totals += direct->stats;

    // Cache layer: the miss path (lookup, execute, fill) and the hit path.
    if (topl::QueryCache::Cacheable(query, *snap->pre)) {
      const topl::CacheKey key = topl::CacheKey::ForTopL(query, topl::QueryOptions{});
      Span miss(tracer, "cache.miss", root.id(), op_id);
      topl::QueryCache::LookupResult first = cache.Lookup(key);
      if (first.leader) {
        Result<TopLResult> executed = topl_detector.Search(query);
        if (executed.ok()) {
          cache.FillTopL(key, first.flight, cache.current_epoch(),
                         std::make_shared<const TopLResult>(std::move(executed).value()));
        } else {
          cache.Abandon(key, first.flight, executed.status());
        }
        layers->Add("cache.miss_ms", miss.Stop() * 1e3);
      }
      miss.Stop();
      Span hit(tracer, "cache.hit", root.id(), op_id);
      const topl::QueryCache::LookupResult second = cache.Lookup(key);
      const double hit_s = hit.Stop();
      if (second.hit) layers->Add("cache.hit_us", hit_s * 1e6);
    }

    for (const topl::CommunityResult& answer : direct->communities) {
      const topl::VertexId center = answer.community.center;
      Span extract(tracer, "graph.hop_extract", root.id(), op_id);
      const bool has_ball = hop.Extract(center, query.radius, query.keywords, &ball);
      layers->Add("graph.hop_extract_us", extract.Stop() * 1e6);
      if (!has_ball) continue;
      Span verify(tracer, "truss.verify", root.id(), op_id);
      extractor.Verify(ball, query, topl::SeedCommunityExtractor::Mode::kIncremental,
                       &community);
      layers->Add("truss.verify_us", verify.Stop() * 1e6);
      Span propagate(tracer, "influence.propagate", root.id(), op_id);
      const topl::InfluencedCommunity influenced =
          propagation.Compute(community.vertices, query.theta);
      layers->Add("influence.propagate_us", propagate.Stop() * 1e6);
      layers->Add("influence.influenced_vertices", static_cast<double>(influenced.size()));
    }
  }
}

/// Draws `count` deltas against the live snapshot and applies each through
/// the decomposed update path, timing graph materialization and the
/// dirty-region search on their own first.
void UpdateProbe(Engine& engine, std::uint64_t seed, int count, const UpdatePath& path,
                 const std::string& journal_path, Tracer* tracer, LayerSamples* layers,
                 PhaseStats* stats) {
  topl::Rng rng(seed ^ 0x0badc0ffee0ddf00ULL);
  topl::RandomDeltaOptions delta_options;
  delta_options.num_ops = 4;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t op_id = kProbeTag | (1ull << 40) | static_cast<std::uint64_t>(i);
    const std::shared_ptr<const topl::EngineSnapshot> snap = engine.snapshot();
    const topl::GraphDelta delta = topl::MakeRandomDelta(*snap->graph, rng, delta_options);
    if (delta.empty()) continue;
    {
      Span root(tracer, "probe.update", Tracer::kNoParent, op_id);
      Span materialize(tracer, "graph.apply_delta", root.id(), op_id);
      Result<topl::Graph> updated = topl::ApplyDelta(*snap->graph, delta);
      layers->Add("graph.apply_delta_ms", materialize.Stop() * 1e3);
      if (!updated.ok()) continue;
      Span dirty(tracer, "index.dirty_search", root.id(), op_id);
      const std::vector<topl::VertexId> centers = topl::IndexUpdater::DirtyCenters(
          *snap->graph, *updated, delta, snap->pre->r_max(), snap->pre->thetas().front());
      layers->Add("index.dirty_search_ms", dirty.Stop() * 1e3);
    }
    // The update itself, through the same path the traced load takes.
    Span root(tracer, "loadgen.update", Tracer::kNoParent, op_id);
    ApplyAndRecord(engine, delta, snap, Clock::now(), path, journal_path, tracer, root,
                   op_id, stats);
  }
}

std::vector<Query> ProbeQueries(const WorkloadGenerator& gen, std::size_t count) {
  std::vector<Query> queries;
  for (std::uint64_t i = 0; queries.size() < count && i < 100 * count; ++i) {
    const Operation op = gen.At(i);
    if (op.kind != OpKind::kUpdate) queries.push_back(op.query);
  }
  return queries;
}

/// Engine::Recover over the base artifact and `journal_path` replays
/// exactly `applied` deltas and then answers `queries` (topl and dtopl)
/// byte-identically to the live engine.
void RecoveryWitness(Engine& live, topl::EngineOptions options,
                     const std::string& artifact_path, const std::string& journal_path,
                     std::uint64_t applied, const std::vector<Query>& queries,
                     RunOutput* out) {
  options.index_path = artifact_path;
  options.journal_path = journal_path;
  topl::RecoveryInfo info;
  Result<std::unique_ptr<Engine>> recovered = Engine::Recover(options, &info);
  ++out->attempted;
  if (!recovered.ok()) {
    ++out->failed;
    out->failures.push_back("Engine::Recover failed: " + recovered.status().ToString());
    return;
  }
  if (info.records_replayed != applied) {
    ++out->failed;
    out->failures.push_back("recovery replayed " + std::to_string(info.records_replayed) +
                            " deltas, " + std::to_string(applied) + " were applied");
  }
  for (const Query& query : queries) {
    out->attempted += 2;
    Result<TopLResult> now = live.Search(query);
    Result<TopLResult> back = (*recovered)->Search(query);
    if (!now.ok() || !back.ok() || !SameAnswer(*now, *back)) {
      ++out->failed;
      out->failures.push_back("recovered engine's topl answer differs from the live engine");
    }
    Result<DTopLResult> now_d = live.SearchDiversified(query);
    Result<DTopLResult> back_d = (*recovered)->SearchDiversified(query);
    if (!now_d.ok() || !back_d.ok() || !SameAnswer(*now_d, *back_d)) {
      ++out->failed;
      out->failures.push_back("recovered engine's dtopl answer differs from the live engine");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

WorkloadSpec ReadSpec(std::uint64_t seed) {
  WorkloadSpec spec = WorkloadSpec::Named("mixed").value();
  spec.name = "read";
  spec.mix = {0.60, 0.20, 0.20, 0.00};
  spec.popularity = topl::loadgen::Popularity::kUniform;
  // Enough signatures that nearly every op draws its own keyword set, so a
  // run samples the keyword distribution rather than a few fixed queries.
  spec.num_signatures = 4096;
  spec.seed = seed;
  return spec;
}

WorkloadSpec ChurnSpec(std::uint64_t seed) {
  WorkloadSpec spec = WorkloadSpec::Named("repeat_heavy").value();
  spec.seed = seed;
  return spec;
}

WorkloadSpec UpdateSpec(std::uint64_t seed) {
  WorkloadSpec spec = WorkloadSpec::Named("mixed").value();
  spec.name = "update";
  spec.mix = {0.0, 0.0, 0.0, 1.0};
  spec.delta.num_ops = 4;
  spec.seed = seed ^ 0x75bd0c5e1a2f4d3bULL;
  return spec;
}

Result<ThreadPlan> PlanThreads(const std::string& workload, std::size_t cpus) {
  const Shape* shape = FindShape(workload);
  if (shape == nullptr) return Status::InvalidArgument("unknown workload: " + workload);
  cpus = std::max<std::size_t>(1, cpus);
  ThreadPlan plan;
  if (!shape->churn) {
    // read_100k's pool is idle (no op fans out), so it keeps the engine
    // default.
    plan.readers = cpus;
    return plan;
  }
  // churn_8k splits the CPUs between readers and a writer whose maintenance
  // pool counts the writer itself as one thread.
  plan.readers = cpus > 2 ? cpus - 2 : 1;
  plan.engine_threads = cpus > plan.readers ? cpus - plan.readers : 1;
  return plan;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Shape& shape : kShapes) out.push_back(shape.name);
    return out;
  }();
  return names;
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {"setup_s", "ops_per_s", "service_p50_ms",
                                                 "rss_mb"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "loadgen.send_lag_p99_ms",
      "loadgen.update_residual_ms",
      "trace.overhead_share",
      "engine.overhead_us",
      "engine.install_ms",
      "engine.live_snapshots_max",
      "engine.retired_contexts_per_update",
      "cache.hit_rate",
      "cache.hit_us",
      "cache.miss_ms",
      "cache.invalidated_per_update",
      "cache.coalesced",
      "cache.evicted",
      "core.topl_search_ms",
      "core.dtopl_search_ms",
      "core.waves_per_query",
      "core.refine_yield",
      "index.heap_pops_per_query",
      "index.nodes_visited_per_query",
      "index.candidates_refined_per_query",
      "index.pruned_keyword_share",
      "index.pruned_support_share",
      "index.pruned_score_share",
      "index.pruned_termination_share",
      "graph.hop_extract_us",
      "truss.verify_us",
      "truss.triangles_per_query",
      "influence.propagate_us",
      "influence.influenced_vertices",
      "graph.apply_delta_ms",
      "index.dirty_search_ms",
      "index.update_apply_ms",
      "index.dirty_centers_per_update",
      "index.dirty_share",
      "index.influence_frontier_per_update",
      "index.tree_nodes_patched_per_update",
      "storage.journal_append_ms",
      "storage.journal_bytes_per_update",
      "storage.replay_ms",
      "index.build_s",
      "storage.artifact_write_s",
      "storage.artifact_open_ms",
      "storage.artifact_bytes",
  };
  return names;
}

Result<RunOutput> RunWorkload(const RunConfig& config) {
  const Shape* shape = FindShape(config.workload);
  if (shape == nullptr) {
    return Status::InvalidArgument("unknown workload: " + config.workload);
  }
  RunOutput out;
  const std::size_t vertices = config.smoke ? shape->smoke_vertices : shape->vertices;
  const std::size_t cpus = AvailableCpus();
  const ThreadPlan plan = PlanThreads(config.workload, cpus).value();
  const std::size_t readers = plan.readers;
  topl::EngineOptions engine_options;
  engine_options.num_threads = plan.engine_threads;
  engine_options.enable_result_cache = shape->churn;

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Status::IOError("cannot create " + config.work_dir + ": " + ec.message());
  const std::string artifact_path = config.work_dir + "/index.toplidx2";
  const std::string journal_path = config.work_dir + "/probe.journal";

  std::unique_ptr<Tracer> tracer_owner;
  if (config.trace) tracer_owner = std::make_unique<Tracer>(std::size_t{1} << 20);
  Tracer* tracer = tracer_owner.get();

  std::unique_ptr<topl::ThreadPool> update_pool;
  UpdatePath path;  // churn_8k's writer does not journal
  if (config.trace) {
    // The engine's pool size (0 = hardware concurrency, as in the engine).
    update_pool = std::make_unique<topl::ThreadPool>(engine_options.num_threads);
    path.decomposed = true;
    path.pool = update_pool.get();
  }

  const double read_rate = shape->churn ? 0.0 : kReadArrivalsPerSecond;
  std::optional<WorkloadGenerator> read_gen;
  std::optional<WorkloadGenerator> update_gen;
  std::vector<Answer> witness(shape->churn ? 0 : kWitnessOps);
  std::uint64_t live_snapshots_max = 1;
  auto run_phase = [&](Engine& engine, double seconds, std::uint64_t first,
                       Tracer* phase_tracer, PhaseStats* reads, PhaseStats* writes) {
    const std::vector<Operation> ops = DrawOps(*read_gen, first, kOpPool);
    std::thread writer;
    if (shape->churn) {
      writer = std::thread([&] {
        // The writer and the pool threads it spawns share the CPUs the
        // readers leave free.
        PinCurrentThread(readers, plan.engine_threads);
        *writes = RunWriter(engine, *update_gen, first, seconds, kChurnUpdatesPerSecond,
                            path, journal_path, phase_tracer);
      });
    }
    *reads = RunReaders(engine, ops, readers, seconds, read_rate, phase_tracer,
                        first == 0 ? &witness : nullptr);
    if (writer.joinable()) writer.join();
    for (const UpdateSample& u : writes->updates) {
      live_snapshots_max = std::max(live_snapshots_max, u.live_snapshots);
    }
  };

  // --- Setups and measured phase ---------------------------------------------
  // An untraced run sets up shape->setups times and measures an equal
  // slice of the load on each fresh engine: setup_s is the median setup, and
  // the latency figures pool every slice. The same seed's read latency moved
  // by ~20% from one process to the next, so one engine's placement in
  // memory must not decide a run alone. A traced run sets up once and
  // measures the same load twice: an untraced half, then a traced half; the
  // difference of their median latencies is the tracing overhead.
  const int repetitions = (config.trace || config.smoke) ? 1 : shape->setups;
  std::vector<double> setup_totals;
  std::vector<double> generate_totals;
  std::vector<double> rss_samples;
  SetupResult setup;
  PhaseStats reads;
  PhaseStats writes;
  PhaseStats traced_reads;
  PhaseStats traced_writes;
  double measured_s = 0.0;
  CacheCounters cache_counters;
  for (int rep = 0; rep < repetitions; ++rep) {
    setup.engine.reset();
    {
      // The input graph is not part of start-up: generated untimed and freed
      // before the load, so neither setup_s nor rss_mb counts it.
      Span generate(tracer, "graph.generate");
      Result<topl::Graph> graph = MakeGraph(vertices, config.seed);
      if (!graph.ok()) return graph.status();
      generate_totals.push_back(generate.Stop());
      Result<SetupResult> attempt = SetUp(*graph, artifact_path, engine_options, tracer);
      if (!attempt.ok()) return attempt.status();
      setup = std::move(attempt).value();
    }
    setup_totals.push_back(setup.total_s);
    Engine& engine = *setup.engine;
    if (rep == 0) {
      // Every setup of a run builds the same graph, so one pair of streams
      // serves them all.
      Result<WorkloadGenerator> r = WorkloadGenerator::Create(
          shape->churn ? ChurnSpec(config.seed) : ReadSpec(config.seed), engine.graph());
      if (!r.ok()) return r.status();
      read_gen.emplace(std::move(r).value());
      Result<WorkloadGenerator> u =
          WorkloadGenerator::Create(UpdateSpec(config.seed), engine.graph());
      if (!u.ok()) return u.status();
      update_gen.emplace(std::move(u).value());
    }

    // Warm-up: detector contexts, and for churn_8k a filled cache.
    const double warmup = std::min(1.0, 0.1 * config.seconds);
    PhaseStats ignored = RunReaders(engine, DrawOps(*read_gen, kWarmupBase, kOpPool), readers,
                                    warmup, 0.0, nullptr, nullptr);
    if (ignored.failed > 0) return Status::Internal("warm-up operations failed");

    const topl::EngineStats before = engine.Stats();
    const std::uint64_t first = static_cast<std::uint64_t>(rep) << 28;
    PhaseStats slice_reads;
    PhaseStats slice_writes;
    const Clock::time_point start = Clock::now();
    if (!config.trace) {
      run_phase(engine, config.seconds / repetitions, first, nullptr, &slice_reads,
                &slice_writes);
      measured_s += SecondsBetween(start, Clock::now());
    } else {
      const double half = config.seconds / 2.0;
      run_phase(engine, half, first, nullptr, &slice_reads, &slice_writes);
      measured_s += SecondsBetween(start, Clock::now());
      run_phase(engine, half, kTracedBase, tracer, &traced_reads, &traced_writes);
    }
    reads.Merge(slice_reads);
    writes.Merge(slice_writes);
    cache_counters.Add(before, engine.Stats());
    rss_samples.push_back(ResidentMiB());
  }
  Engine& engine = *setup.engine;

  out.conditions = {
      {"workload", shape->name},
      {"seed", std::to_string(config.seed)},
      {"vertices", std::to_string(vertices)},
      {"edges", std::to_string(engine.graph().NumEdges())},
      {"nproc", std::to_string(cpus)},
      {"reader_threads", std::to_string(readers)},
      {"writer_threads", shape->churn ? "1" : "0"},
      {"engine_pool_threads", std::to_string(engine.num_threads())},
      {"result_cache", shape->churn ? "on" : "off"},
      {"compiler", CompilerId()},
      {"build", BuildType()},
      {"fault_injection", FaultInjectionCompiled() ? "ON" : "OFF"},
      {"setups", std::to_string(repetitions)},
      {"graph_generate_s", std::to_string(Median(generate_totals))},
      {"mode", config.trace ? "traced" : "untraced"},
  };
  out.attempted += reads.attempted + writes.attempted + traced_reads.attempted +
                   traced_writes.attempted;
  const std::uint64_t op_failures =
      reads.failed + writes.failed + traced_reads.failed + traced_writes.failed;
  out.failed += op_failures;
  if (op_failures > 0) {
    out.failures.push_back(std::to_string(op_failures) + " operations failed");
  }

  // --- Correctness witness ---------------------------------------------------
  {
    const std::shared_ptr<const topl::EngineSnapshot> snap = engine.snapshot();
    topl::TopLDetector topl_detector(*snap->graph, *snap->pre, *snap->tree);
    topl::DTopLDetector dtopl_detector(*snap->graph, *snap->pre, *snap->tree);
    // read_100k: sampled answers == a fresh sequential detector on the same
    // snapshot.
    for (const Answer& answer : witness) {
      if (!answer.present) continue;
      ++out.attempted;
      bool same = false;
      if (answer.op.kind == OpKind::kDTopL) {
        Result<DTopLResult> ref = dtopl_detector.Search(answer.op.query);
        same = ref.ok() && SameAnswer(answer.dtopl, *ref);
      } else {
        Result<TopLResult> ref = topl_detector.Search(answer.op.query);
        same = ref.ok() && SameAnswer(answer.topl, *ref);
      }
      if (!same) {
        ++out.failed;
        out.failures.push_back("op " + std::to_string(answer.op.index) + " (" +
                               topl::loadgen::OpKindName(answer.op.kind) +
                               "): answer differs from the sequential detector");
      }
    }
    // churn_8k: every key the readers can issue (16 signatures x topl/dtopl
    // with the pinned parameters), answered through the cache, == an
    // uncached detector on the final snapshot.
    const WorkloadSpec& spec = read_gen->spec();
    for (std::uint32_t s = 0; shape->churn && s < spec.num_signatures; ++s) {
      Query query;
      query.keywords = read_gen->signature(s);
      query.k = spec.params.k_values.front();
      query.radius = spec.params.radius_values.front();
      query.theta = spec.params.theta_values.front();
      query.top_l = spec.params.top_l_values.front();
      Result<TopLResult> cached = engine.Search(query);
      Result<TopLResult> ref = topl_detector.Search(query);
      Result<DTopLResult> cached_d = engine.SearchDiversified(query);
      Result<DTopLResult> ref_d = dtopl_detector.Search(query);
      out.attempted += 2;
      if (!cached.ok() || !ref.ok() || !SameAnswer(*cached, *ref)) {
        ++out.failed;
        out.failures.push_back("cached topl answer of signature " + std::to_string(s) +
                               " differs from an uncached detector");
      }
      if (!cached_d.ok() || !ref_d.ok() || !SameAnswer(*cached_d, *ref_d)) {
        ++out.failed;
        out.failures.push_back("cached dtopl answer of signature " + std::to_string(s) +
                               " differs from an uncached detector");
      }
    }
  }

  // --- Untraced run: end-to-end metrics ----------------------------------------
  if (!config.trace) {
    const LogHistogram fg = reads.Reads();
    const double ops_per_s =
        measured_s > 0.0 ? static_cast<double>(fg.count()) / measured_s : 0.0;
    // Gated. service_p50_ms is the engine's own speed on every workload:
    // read_100k's offered rate caps ops_per_s there. Tail latencies are
    // printed for reading, not gated.
    out.json = {
        Value("setup_s", Median(setup_totals), "s", setup_totals.size()),
        Value("ops_per_s", ops_per_s, "1/s", fg.count()),
        PercentileMetric("service_p50_ms", reads.service, 0.50),
        Value("rss_mb", Median(rss_samples), "MiB", rss_samples.size()),
    };
    out.report = out.json;
    out.report.push_back(PercentileMetric("p50_ms", fg, 0.50));
    out.report.push_back(PercentileMetric("p90_ms", fg, 0.90));
    out.report.push_back(PercentileMetric("topl_p50_ms", reads.Of(OpKind::kTopL), 0.50));
    out.report.push_back(PercentileMetric("topl_p99_ms", reads.Of(OpKind::kTopL), 0.99));
    out.report.push_back(PercentileMetric("dtopl_p50_ms", reads.Of(OpKind::kDTopL), 0.50));
    out.report.push_back(PercentileMetric("dtopl_p95_ms", reads.Of(OpKind::kDTopL), 0.95));
    if (!shape->churn) {
      out.report.push_back(
          PercentileMetric("progressive_p50_ms", reads.Of(OpKind::kProgressive), 0.50));
      out.report.push_back(
          PercentileMetric("progressive_p95_ms", reads.Of(OpKind::kProgressive), 0.95));
    } else {
      out.report.push_back(Value("reads_per_s", ops_per_s, "ops/s", fg.count()));
      const LogHistogram& u = writes.Of(OpKind::kUpdate);
      out.report.push_back(PercentileMetric("update_p50_ms", u, 0.50));
      out.report.push_back(PercentileMetric("update_p90_ms", u, 0.90));
      out.report.push_back(Value("cache_hit_rate", cache_counters.HitRate(), "ratio",
                                 cache_counters.lookups));
    }
    out.report.push_back(Value("failed_ratio",
                               out.attempted == 0
                                   ? 0.0
                                   : static_cast<double>(out.failed) / out.attempted,
                               "failed/attempted", out.attempted));
  }

  // --- Traced run: decomposition probes and per-layer metrics ------------------
  if (config.trace) {
    LayerSamples layers;
    topl::QueryStats query_totals;
    const std::vector<Query> probe_queries = ProbeQueries(*read_gen, kProbeQueries);
    QueryProbe(engine, probe_queries, tracer, &layers, &query_totals, &out);

    // The update probe journals like ApplyUpdate with a journal would.
    Result<std::unique_ptr<topl::UpdateJournal>> opened =
        topl::UpdateJournal::Open(journal_path);
    if (!opened.ok()) return opened.status();
    UpdatePath probe_path = path;
    probe_path.journal = opened->get();
    PhaseStats probe_updates;
    UpdateProbe(engine, config.seed, kProbeUpdates, probe_path, journal_path, tracer,
                &layers, &probe_updates);
    opened->reset();
    out.attempted += probe_updates.attempted;
    out.failed += probe_updates.failed;
    if (probe_updates.failed > 0) out.failures.push_back("probe updates failed");

    Span replay(tracer, "storage.replay");
    Result<std::vector<topl::GraphDelta>> replayed = topl::UpdateJournal::Replay(journal_path);
    const double replay_s = replay.Stop();
    ++out.attempted;
    if (!replayed.ok()) {
      ++out.failed;
      out.failures.push_back("journal replay failed: " + replayed.status().ToString());
    }
    if (!shape->churn) {
      // The journal then holds every delta since the artifact was written:
      // Engine::Recover must replay exactly those and answer like the live
      // engine.
      RecoveryWitness(engine, engine_options, artifact_path, journal_path,
                      probe_updates.attempted - probe_updates.failed, probe_queries, &out);
    }

    // Every traced update: the load's, then the probe's.
    std::vector<UpdateSample> updates = traced_writes.updates;
    updates.insert(updates.end(), probe_updates.updates.begin(), probe_updates.updates.end());
    for (const UpdateSample& u : updates) {
      layers.Add("index.update_apply_ms", u.apply_s * 1e3);
      if (u.append_s > 0.0) layers.Add("storage.journal_append_ms", u.append_s * 1e3);
      layers.Add("engine.install_ms", u.install_s * 1e3);
      layers.Add("loadgen.update_residual_ms",
                 (u.total_s - u.apply_s - u.append_s - u.install_s) * 1e3);
      layers.Add("index.dirty_centers_per_update", static_cast<double>(u.scope.dirty_centers));
      layers.Add("index.dirty_share",
                 u.scope.num_vertices == 0
                     ? 0.0
                     : static_cast<double>(u.scope.dirty_centers) / u.scope.num_vertices);
      layers.Add("index.influence_frontier_per_update",
                 static_cast<double>(u.scope.influence_frontier));
      layers.Add("index.tree_nodes_patched_per_update",
                 static_cast<double>(u.scope.tree_nodes_patched));
      layers.Add("cache.invalidated_per_update", static_cast<double>(u.cache_invalidated));
      layers.Add("engine.retired_contexts_per_update",
                 static_cast<double>(u.retired_contexts));
      if (u.journal_bytes > 0) {
        layers.Add("storage.journal_bytes_per_update", static_cast<double>(u.journal_bytes));
      }
    }

    // The load's own lag: the scheduled stream (open-loop reads, else the
    // writer), over both halves.
    LogHistogram lag;
    if (!shape->churn) {
      lag.Merge(reads.lag);
      lag.Merge(traced_reads.lag);
    } else {
      lag.Merge(writes.lag);
      lag.Merge(traced_writes.lag);
    }
    const LogHistogram untraced_fg = reads.Reads();
    const LogHistogram traced_fg = traced_reads.Reads();
    const double untraced_p50 = untraced_fg.PercentileMillis(0.5);
    const double overhead =
        untraced_p50 > 0.0 ? traced_fg.PercentileMillis(0.5) / untraced_p50 - 1.0 : 0.0;

    const double pruned = static_cast<double>(query_totals.TotalPruned());
    const double probes = static_cast<double>(std::max<std::size_t>(1, probe_queries.size()));
    auto share = [&](std::uint64_t part) { return pruned > 0.0 ? part / pruned : 0.0; };
    auto median = [&](const char* name, const char* unit) {
      return Value(name, layers.MedianOf(name), unit, layers.CountOf(name));
    };
    const std::uint64_t n_probes = probe_queries.size();

    out.json = {
        PercentileMetric("loadgen.send_lag_p99_ms", lag, 0.99),
        median("loadgen.update_residual_ms", "ms"),
        Value("trace.overhead_share", overhead, "ratio", traced_fg.count()),
        median("engine.overhead_us", "us"),
        median("engine.install_ms", "ms"),
        Value("engine.live_snapshots_max", static_cast<double>(live_snapshots_max), "count",
              traced_writes.updates.size()),
        median("engine.retired_contexts_per_update", "count"),
        Value("cache.hit_rate", cache_counters.HitRate(), "ratio", cache_counters.lookups),
        median("cache.hit_us", "us"),
        median("cache.miss_ms", "ms"),
        median("cache.invalidated_per_update", "count"),
        Value("cache.coalesced", static_cast<double>(cache_counters.coalesced), "count",
              cache_counters.lookups),
        Value("cache.evicted", static_cast<double>(cache_counters.evicted), "count",
              cache_counters.lookups),
        median("core.topl_search_ms", "ms"),
        median("core.dtopl_search_ms", "ms"),
        Value("core.waves_per_query", query_totals.waves / probes, "count", n_probes),
        Value("core.refine_yield",
              query_totals.candidates_refined == 0
                  ? 0.0
                  : static_cast<double>(query_totals.communities_found) /
                        query_totals.candidates_refined,
              "ratio", query_totals.candidates_refined),
        Value("index.heap_pops_per_query", query_totals.heap_pops / probes, "count", n_probes),
        Value("index.nodes_visited_per_query", query_totals.index_nodes_visited / probes,
              "count", n_probes),
        Value("index.candidates_refined_per_query", query_totals.candidates_refined / probes,
              "count", n_probes),
        Value("index.pruned_keyword_share", share(query_totals.pruned_keyword), "ratio",
              n_probes),
        Value("index.pruned_support_share", share(query_totals.pruned_support), "ratio",
              n_probes),
        Value("index.pruned_score_share", share(query_totals.pruned_score), "ratio", n_probes),
        Value("index.pruned_termination_share", share(query_totals.pruned_termination),
              "ratio", n_probes),
        median("graph.hop_extract_us", "us"),
        median("truss.verify_us", "us"),
        Value("truss.triangles_per_query", query_totals.triangles_inspected / probes, "count",
              n_probes),
        median("influence.propagate_us", "us"),
        median("influence.influenced_vertices", "count"),
        median("graph.apply_delta_ms", "ms"),
        median("index.dirty_search_ms", "ms"),
        median("index.update_apply_ms", "ms"),
        median("index.dirty_centers_per_update", "count"),
        median("index.dirty_share", "ratio"),
        median("index.influence_frontier_per_update", "count"),
        median("index.tree_nodes_patched_per_update", "count"),
        median("storage.journal_append_ms", "ms"),
        median("storage.journal_bytes_per_update", "bytes"),
        Value("storage.replay_ms", replay_s * 1e3, "ms",
              replayed.ok() ? replayed->size() : 0),
        Value("index.build_s", setup.build_s, "s", 1),
        Value("storage.artifact_write_s", setup.write_s, "s", 1),
        Value("storage.artifact_open_ms", setup.open_s * 1e3, "ms", 1),
        Value("storage.artifact_bytes", static_cast<double>(setup.artifact_bytes), "bytes", 1),
    };
    out.report = out.json;
    out.report.push_back(Value("trace.spans", static_cast<double>(tracer->recorded()),
                               "count", tracer->recorded()));
    out.report.push_back(Value("trace.spans_dropped", static_cast<double>(tracer->dropped()),
                               "count", tracer->dropped()));
    out.report.push_back(Value("trace.untraced_p50_ms", untraced_p50, "ms", untraced_fg.count()));
    out.report.push_back(
        Value("trace.traced_p50_ms", traced_fg.PercentileMillis(0.5), "ms", traced_fg.count()));
    if (!config.trace_path.empty() && !tracer->WriteJsonLines(config.trace_path)) {
      out.failures.push_back("cannot write spans to " + config.trace_path);
    } else if (!config.trace_path.empty()) {
      out.conditions.push_back({"spans", config.trace_path});
    }
  }
  out.conditions.push_back({"measured_seconds", std::to_string(measured_s)});

  setup.engine.reset();
  std::filesystem::remove_all(config.work_dir, ec);
  out.correct = out.failed == 0 && out.failures.empty();
  return out;
}

}  // namespace perfbench
