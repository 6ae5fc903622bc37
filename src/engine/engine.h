#ifndef TOPL_ENGINE_ENGINE_H_
#define TOPL_ENGINE_ENGINE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/query_cache.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/dtopl_detector.h"
#include "core/topl_detector.h"
#include "engine/engine_options.h"
#include "engine/engine_stats.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "index/index_update.h"
#include "index/precompute.h"
#include "index/tree_index.h"
#include "storage/update_journal.h"

namespace topl {

/// Report of the write-ahead journal replay performed when an engine opens
/// with EngineOptions::journal_path set (see Engine::Recover).
struct RecoveryInfo {
  /// Committed journal records replayed on top of the artifact at open.
  std::uint64_t records_replayed = 0;
  /// Bytes of torn (partially written, never acknowledged) trailing record
  /// discarded while opening the journal.
  std::uint64_t torn_bytes_discarded = 0;
  /// True when the journal file did not exist and was created empty.
  bool journal_created = false;
};

/// \brief One immutable serving epoch: a graph plus the offline phase built
/// over it. Engines swap whole snapshots atomically (MVCC), so a snapshot is
/// never mutated after construction — queries pin one via shared_ptr and
/// read it lock-free for their entire lifetime, even while newer snapshots
/// are installed. `tree` holds a raw pointer to `*pre`, so the two must be
/// installed together.
///
/// Each piece has its own shared_ptr, so a reader can pin one piece (say the
/// graph) by itself, and consecutive snapshots may alias a piece an update
/// left unchanged.
struct EngineSnapshot {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const PrecomputedData> pre;
  std::shared_ptr<const TreeIndex> tree;
  /// Refinement scratch sized to `graph`, shared by every detector serving
  /// this snapshot. The one member that changes after construction: it is
  /// internally synchronized working memory, not serving state.
  std::shared_ptr<RefineScratchPool> scratch;
  /// Monotone update counter: 0 for the open-time snapshot, +1 per applied
  /// delta.
  std::uint64_t epoch = 0;
};

/// \brief Thread-safe service facade over the TopL/DTopL online phase.
///
/// A detector serves one query at a time; an Engine owns the shared
/// read-only state — graph, precomputed data, tree index — plus a lazily
/// grown pool of per-worker detector contexts and, per snapshot, one pool of
/// O(n) refinement scratch that all of them lease from, and multiplexes any
/// number of concurrent callers over them:
///
///  - Search / SearchDiversified: synchronous, callable from any thread.
///    The query's refinement fans out over the engine's ThreadPool: the
///    calling thread plans each next wave and refines beside the pool.
///  - SearchBatch: fans a whole batch out across the engine's ThreadPool,
///    one thread per query.
///  - SearchProgressive / SearchDiversifiedProgressive: anytime queries —
///    intra-query parallel scoring over the same pool (unless
///    ProgressiveOptions::parallel is off), streamed intermediate answers
///    with an upper-bound gap, per-query deadlines, and cooperative
///    cancellation (core/search_control.h).
///
/// A one-thread pool makes every entry point sequential. Fan-out never
/// changes an answer, only which thread computes each part of it.
///
/// Every entry point, TopL or DTopL, takes one request path: admission
/// (shutdown, shed, or degrade to an anytime answer), then the result cache
/// (plain queries only), then a detector-context lease, then the detector,
/// then the stats record. SearchBatch takes one admission slot for the whole
/// batch and enters the path after it, on its worker's leased context.
///
/// Every query's QueryStats and latency are folded into cumulative
/// EngineStats through mutex-free per-context accumulators, with latency
/// histograms tagged by query kind (single/batch/dtopl/progressive);
/// Stats() takes a snapshot at any time without blocking the query path.
///
/// The serving state lives in an immutable EngineSnapshot swapped atomically
/// by ApplyUpdate (epoch-based MVCC): each query pins the snapshot its
/// worker context was built over, so updates never block or invalidate
/// in-flight queries, and superseded snapshots are reclaimed when their last
/// pinned context retires.
///
/// Construction:
///  - Engine::Open(options): load graph + index from files (building and
///    optionally persisting the index when missing).
///  - Engine::Create(graph, pre, tree): adopt an already-built offline phase.
///  - Engine::FromGraph(graph): run the offline phase in-process.
class Engine {
 public:
  /// How the engine came to hold its offline-phase state.
  enum class IndexSource {
    kInMemory,        ///< built in-process or adopted via Create/FromGraph
    kMappedArtifact,  ///< zero-copy views of a mmap-ed TOPLIDX2 artifact
  };

  /// Adopts in-memory offline-phase output. `tree` must have been built over
  /// `*pre` (validated), and `pre` over `graph`.
  static Result<std::unique_ptr<Engine>> Create(Graph graph,
                                                std::unique_ptr<PrecomputedData> pre,
                                                TreeIndex tree,
                                                const EngineOptions& options = {});

  /// Runs the offline phase (Algorithm 2 + index build) on `graph` with
  /// options.precompute / options.tree, then serves it.
  static Result<std::unique_ptr<Engine>> FromGraph(Graph graph,
                                                   const EngineOptions& options = {});

  /// Loads serving state from files. A TOPLIDX2 artifact at
  /// options.index_path is mmap-ed and served zero-copy (graph included;
  /// options.graph_path is then only cross-checked); any other existing file
  /// there is Corruption and is left untouched; a missing index file is built
  /// in-process (and persisted back as a TOPLIDX2 artifact when
  /// options.save_built_index).
  static Result<std::unique_ptr<Engine>> Open(const EngineOptions& options);

  /// Open with a mandatory write-ahead journal: identical to Open except that
  /// options.journal_path must be non-empty, and the replay report is copied
  /// into `*info` (when non-null). A recovered engine is byte-identical to
  /// one that applied the same acknowledged deltas live: the journal holds
  /// exactly the committed (checksummed, fsync-ed) records, and a torn tail —
  /// an update that was never acknowledged — is discarded.
  static Result<std::unique_ptr<Engine>> Recover(const EngineOptions& options,
                                                 RecoveryInfo* info = nullptr);

  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Stops serving: every entry point called after this returns
  /// Status::Unavailable("engine is shut down"), queries already running
  /// finish, and the pool workers are joined.
  /// Idempotent; must not be called from inside a query callback or pool
  /// task. The destructor implies Shutdown.
  void Shutdown();

  /// Answers one TopL-ICDE query, refining its candidates over the engine's
  /// pool. Thread-safe.
  Result<TopLResult> Search(const Query& query, const QueryOptions& options = {});

  /// Answers one DTopL-ICDE query; fans out like Search. Thread-safe.
  Result<DTopLResult> SearchDiversified(const Query& query,
                                        const DTopLOptions& options = {});

  /// Anytime TopL: scores candidate waves in parallel over the engine's
  /// pool (when options.parallel), streams intermediate answers to
  /// `on_update` after every wave that improves the current top-L, and
  /// honors options.deadline_seconds / options.cancel. A truncated run still
  /// succeeds: best-so-far communities, truncated=true, and
  /// score_upper_bound as the remaining-quality gap. Thread-safe; `on_update`
  /// is invoked from the calling thread only.
  Result<TopLResult> SearchProgressive(const Query& query,
                                       const ProgressiveOptions& options = {},
                                       ProgressiveCallback on_update = nullptr);

  /// Anytime DTopL: like SearchProgressive, but each update streams the
  /// *diversified* greedy selection over the candidate pool so far. Pruning
  /// toggles are taken from dtopl_options.topl_options (as in
  /// SearchDiversified); options.query is ignored here.
  Result<DTopLResult> SearchDiversifiedProgressive(
      const Query& query, const DTopLOptions& dtopl_options,
      const ProgressiveOptions& options = {},
      ProgressiveCallback on_update = nullptr);

  /// Answers queries[i] into slot i of the returned vector, fanning out
  /// across the engine's ThreadPool (the calling thread participates).
  /// Per-query failures land in the corresponding slot; the batch itself
  /// never fails.
  std::vector<Result<TopLResult>> SearchBatch(std::span<const Query> queries,
                                              const QueryOptions& options = {});

  /// Applies a graph delta and installs the resulting serving state as a new
  /// snapshot. Maintenance is incremental (IndexUpdater: only the update's
  /// dirty region is re-precomputed, over the engine's own thread pool) and
  /// runs entirely off to the side: in-flight queries keep serving their
  /// pinned snapshot lock-free, new queries see the new snapshot atomically
  /// once it is installed, and answers after the swap are byte-identical to
  /// a from-scratch rebuild of the mutated graph. Concurrent ApplyUpdate
  /// calls serialize (single-writer); queries never block. On failure
  /// (invalid delta) the engine keeps serving the old snapshot untouched.
  /// Returns the RebuildScope work report.
  Result<RebuildScope> ApplyUpdate(const GraphDelta& delta);

  /// Installs an externally computed maintenance result as the next snapshot:
  /// the swap / context-retirement / cache-invalidation tail of ApplyUpdate
  /// without the IndexUpdater pass. `updated` must have been derived from
  /// this engine's *current* snapshot (the caller is the single writer, as
  /// with ApplyUpdate — concurrent calls serialize on the same lock), with
  /// `dirty_center_ids` covering every center whose serving state changed.
  /// Callers that need to time or journal the maintenance pass separately
  /// use this with IndexUpdater::Apply.
  Result<RebuildScope> InstallUpdate(UpdatedIndex updated);

  /// Cumulative service counters (snapshot; never blocks queries).
  EngineStats Stats() const;

  /// Journal replay report from open time; all zeros when the engine was
  /// opened without a journal.
  const RecoveryInfo& recovery_info() const { return recovery_info_; }

  /// True once Shutdown() has begun (advisory).
  bool is_shutdown() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Pins the snapshot currently serving new queries. Hold the returned
  /// pointer to keep graph/precompute/tree alive across ApplyUpdate calls.
  std::shared_ptr<const EngineSnapshot> snapshot() const;

  /// Convenience views into the *current* snapshot. The references stay
  /// valid until the next ApplyUpdate retires that snapshot — callers that
  /// race updates must pin via snapshot() instead.
  const Graph& graph() const { return *snapshot()->graph; }
  const PrecomputedData& precomputed() const { return *snapshot()->pre; }
  const TreeIndex& tree() const { return *snapshot()->tree; }
  std::size_t num_threads() const { return pool_.num_threads(); }

  /// Which load path Open took (kInMemory for Create/FromGraph engines).
  IndexSource index_source() const { return index_source_; }

  /// Internal → external vertex-id mapping when the serving graph was
  /// locality-reordered (EngineOptions::reorder_vertices or an artifact with
  /// a g.extids section). Empty means identity. Query results carry internal
  /// ids; presentation layers unmap with ExternalId. The mapping is fixed for
  /// the engine's lifetime — updates permute nothing.
  const std::vector<VertexId>& ExternalIds() const { return external_ids_; }
  VertexId ExternalId(VertexId v) const {
    return external_ids_.empty() ? v : external_ids_[v];
  }

  /// True when the serving artifact stored encoded sections; rewrites should
  /// preserve the representation.
  bool artifact_compressed() const { return artifact_compressed_; }

  /// Detector contexts created so far (== peak number of concurrent
  /// queries); exposed for tests and capacity monitoring.
  std::size_t pooled_contexts() const;

  /// Refinement scratch created so far for the current snapshot (== peak
  /// number of threads refining at once, callers and pool workers together);
  /// exposed for tests and capacity monitoring.
  std::size_t pooled_scratch() const;

 private:
  /// One worker's detectors + stats shard. Leased to exactly one query at a
  /// time. Both detectors lease refinement scratch from the snapshot's
  /// shared RefineScratchPool, so a context itself holds only a query's
  /// keyword core (KeywordMatch: two bitmaps and one peel counter per keyword
  /// holder) per detector. The DTopLDetector is only materialized once the
  /// context serves its first diversified query.
  ///
  /// A context is bound to one snapshot for life: the detectors hold
  /// references into it, and the shared_ptr pin keeps that epoch alive while
  /// the context exists. Contexts bound to a superseded snapshot are retired
  /// (stats folded into the engine's retired accumulators, then destroyed)
  /// instead of returning to the free list.
  struct WorkerContext {
    explicit WorkerContext(std::shared_ptr<const EngineSnapshot> snap)
        : snapshot(std::move(snap)),
          topl(*snapshot->graph, *snapshot->pre, *snapshot->tree,
               snapshot->scratch) {}

    std::shared_ptr<const EngineSnapshot> snapshot;
    TopLDetector topl;
    std::optional<DTopLDetector> dtopl;
    EngineStatsShard stats;
  };

  /// RAII lease of a WorkerContext from the engine's free list.
  class ContextLease {
   public:
    explicit ContextLease(Engine* engine)
        : engine_(engine), context_(engine->AcquireContext()) {}
    ~ContextLease() { engine_->ReleaseContext(context_); }
    ContextLease(const ContextLease&) = delete;
    ContextLease& operator=(const ContextLease&) = delete;
    WorkerContext* get() const { return context_; }

   private:
    Engine* engine_;
    WorkerContext* context_;
  };

  Engine(std::shared_ptr<const Graph> graph,
         std::shared_ptr<const PrecomputedData> pre,
         std::shared_ptr<const TreeIndex> tree, const EngineOptions& options);

  WorkerContext* AcquireContext();
  void ReleaseContext(WorkerContext* context);

  /// Everything the request path tells a TopL query from a DTopL one by —
  /// answer type, detector, stats, cache key and fill — keyed by the query's
  /// detector options (QueryOptions or DTopLOptions). Defined in engine.cc.
  template <typename Options>
  struct KindTraits;

  /// The request path of every single-query entry point: admission, then
  /// Execute. A null `progressive` is a plain query, refined over pool_ and
  /// served through the cache. Otherwise the query runs under
  /// `*progressive`'s control and streams to `on_update`; when the gate is
  /// full and it brings a deadline, it is degraded instead of shed: it runs
  /// with an immediately-expiring deadline and no fan-out, so it returns a
  /// valid truncated anytime answer (correct communities prefix + score upper
  /// bound) at wave-boundary cost, without taking an admission slot.
  /// `options` holds the detector's toggles.
  template <typename Options>
  Result<typename KindTraits<Options>::Answer> Serve(
      const Query& query, const Options& options,
      const ProgressiveOptions* progressive, ProgressiveCallback on_update);

  /// The path past admission: the cache (every kind but kProgressive:
  /// validate → lookup → single-flight → execute → fill, see
  /// cache/query_cache.h), then a context lease, then the detector under
  /// `control`, then the stats record tagged `kind`. `context` is an
  /// already-leased context (batch workers execute on theirs) or nullptr to
  /// lease one only if execution is actually needed.
  template <typename Options>
  Result<typename KindTraits<Options>::Answer> Execute(
      QueryKind kind, const Query& query, const Options& options,
      const SearchControl& control, WorkerContext* context);

  /// Outcome of the overload admission gate (max_in_flight_queries).
  enum class Admission {
    kAdmitted,  ///< a slot was taken; the guard releases it
    kShed,      ///< gate full past the queue-wait budget — reject or degrade
    kShutdown,  ///< Shutdown() has begun
  };

  /// Takes one admission slot, waiting up to
  /// options_.admission_queue_wait_seconds when the gate is full. With
  /// max_in_flight_queries == 0 admission always succeeds (the slot count is
  /// still maintained so Shutdown stays uniform).
  Admission Admit();
  void ReleaseAdmission();
  Status ShedStatus() const;

  /// RAII admission slot: queries hold one for their whole execution.
  class AdmissionGuard {
   public:
    explicit AdmissionGuard(Engine* engine)
        : engine_(engine), result_(engine->Admit()) {}
    ~AdmissionGuard() {
      if (result_ == Admission::kAdmitted) engine_->ReleaseAdmission();
    }
    AdmissionGuard(const AdmissionGuard&) = delete;
    AdmissionGuard& operator=(const AdmissionGuard&) = delete;
    Admission result() const { return result_; }

   private:
    Engine* engine_;
    Admission result_;
  };

  /// Opens/creates the journal, replays its committed records through the
  /// normal update path (no re-append: journal_ is attached only afterwards)
  /// and records the replay report. Called from Open before the engine is
  /// shared, so the replay is single-threaded.
  Status AttachJournal(const std::string& path);

  /// The file-loading paths of Open, minus the journal attach.
  static Result<std::unique_ptr<Engine>> OpenFiles(const EngineOptions& options);

  /// Shared tail of ApplyUpdate / InstallUpdate: snapshot swap, idle-context
  /// retirement, cache invalidation, counters. Caller holds update_mu_;
  /// `base` is the snapshot `updated` was computed from.
  Result<RebuildScope> InstallUpdateLocked(
      std::shared_ptr<const EngineSnapshot> base, UpdatedIndex updated);

  /// Folds `context`'s stats into the retired accumulators and extracts it
  /// from contexts_, returning ownership. Caller holds contexts_mu_ and must
  /// destroy the returned context *after* releasing the lock — destruction
  /// frees O(n) detector scratch and possibly the last pin of an old
  /// snapshot, which must not stall concurrent Acquire/ReleaseContext.
  std::unique_ptr<WorkerContext> RetireContextLocked(WorkerContext* context);

  EngineOptions options_;
  IndexSource index_source_ = IndexSource::kInMemory;
  /// Internal → external id permutation (see ExternalIds()); immutable after
  /// construction, so reads are lock-free.
  std::vector<VertexId> external_ids_;
  bool artifact_compressed_ = false;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> updates_applied_{0};
  std::atomic<std::uint64_t> update_dirty_centers_{0};
  std::atomic<std::uint64_t> retired_contexts_{0};
  std::atomic<std::uint64_t> shed_queries_{0};
  std::atomic<std::uint64_t> degraded_queries_{0};

  /// Set by Shutdown(); checked by the admission gate and ApplyUpdate.
  std::atomic<bool> shutdown_{false};

  /// Admission gate state (see EngineOptions::max_in_flight_queries).
  std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  std::size_t in_flight_queries_ = 0;

  /// Serializes ApplyUpdate writers; never held while queries run.
  std::mutex update_mu_;

  /// Write-ahead delta journal; null when opened without one. Guarded by
  /// update_mu_ (appends happen only inside ApplyUpdate); attached before
  /// the engine is shared.
  std::unique_ptr<UpdateJournal> journal_;
  RecoveryInfo recovery_info_;

  mutable std::mutex contexts_mu_;
  /// Serving state for *new* queries; swapped wholesale by ApplyUpdate.
  /// Guarded by contexts_mu_ (reads copy the shared_ptr, so queries hold no
  /// lock while running).
  std::shared_ptr<const EngineSnapshot> snapshot_;
  std::vector<std::unique_ptr<WorkerContext>> contexts_;  // all live contexts
  std::vector<WorkerContext*> free_contexts_;
  /// Counters of retired contexts, so Stats() stays cumulative across
  /// snapshot swaps.
  EngineStats retired_stats_;
  std::array<EngineStatsShard::Histogram, kNumQueryKinds> retired_buckets_{};

  /// Snapshot-epoch result cache; null unless
  /// EngineOptions::enable_result_cache. Declared before pool_ so pool
  /// workers (batch slots may lead or follow flights) are joined before the
  /// cache is destroyed.
  std::unique_ptr<QueryCache> cache_;

  // Declared last so its destructor — which joins the queue workers — runs
  // before the contexts those workers may be using are destroyed.
  ThreadPool pool_;
};

}  // namespace topl

#endif  // TOPL_ENGINE_ENGINE_H_
