#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <utility>

#include "common/timer.h"
#include "graph/binary_io.h"
#include "graph/reorder.h"
#include "index/index_io.h"
#include "storage/artifact.h"

namespace topl {

Engine::Engine(std::shared_ptr<const Graph> graph,
               std::shared_ptr<const PrecomputedData> pre,
               std::shared_ptr<const TreeIndex> tree,
               const EngineOptions& options)
    : options_(options), pool_(options.num_threads) {
  auto snapshot = std::make_shared<EngineSnapshot>();
  snapshot->graph = std::move(graph);
  snapshot->pre = std::move(pre);
  snapshot->tree = std::move(tree);
  snapshot->scratch = std::make_shared<RefineScratchPool>(*snapshot->graph);
  snapshot_ = std::move(snapshot);
  if (options.enable_result_cache) {
    QueryCache::Config config;
    config.max_bytes = options.cache_max_bytes;
    cache_ = std::make_unique<QueryCache>(config);
  }
}

Engine::~Engine() { Shutdown(); }

void Engine::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  // Wake queries parked on the admission gate so they fail fast with the
  // shutdown status instead of timing out as shed.
  admission_cv_.notify_all();
  pool_.Shutdown();
}

Engine::Admission Engine::Admit() {
  if (shutdown_.load(std::memory_order_acquire)) return Admission::kShutdown;
  const std::size_t max = options_.max_in_flight_queries;
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (max == 0 || in_flight_queries_ < max) {
    ++in_flight_queries_;
    return Admission::kAdmitted;
  }
  if (options_.admission_queue_wait_seconds > 0.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.admission_queue_wait_seconds));
    while (in_flight_queries_ >= max &&
           !shutdown_.load(std::memory_order_acquire)) {
      if (admission_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    if (shutdown_.load(std::memory_order_acquire)) return Admission::kShutdown;
    if (in_flight_queries_ < max) {
      ++in_flight_queries_;
      return Admission::kAdmitted;
    }
  }
  return Admission::kShed;
}

void Engine::ReleaseAdmission() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --in_flight_queries_;
  }
  admission_cv_.notify_one();
}

std::shared_ptr<const EngineSnapshot> Engine::snapshot() const {
  std::lock_guard<std::mutex> lock(contexts_mu_);
  return snapshot_;
}

Result<std::unique_ptr<Engine>> Engine::Create(Graph graph,
                                               std::unique_ptr<PrecomputedData> pre,
                                               TreeIndex tree,
                                               const EngineOptions& options) {
  if (pre == nullptr) {
    return Status::InvalidArgument("Engine::Create needs non-null PrecomputedData");
  }
  if (pre->num_vertices() != graph.NumVertices()) {
    return Status::InvalidArgument(
        "PrecomputedData was built over a different graph (vertex count "
        "mismatch)");
  }
  if (tree.NumNodes() == 0) {
    return Status::InvalidArgument("Engine::Create needs a built TreeIndex");
  }
  if (&tree.precomputed() != pre.get()) {
    return Status::InvalidArgument(
        "TreeIndex references different PrecomputedData than the one handed "
        "to Engine::Create");
  }
  // No make_unique: the constructor is private.
  return std::unique_ptr<Engine>(
      new Engine(std::make_shared<const Graph>(std::move(graph)),
                 std::shared_ptr<const PrecomputedData>(std::move(pre)),
                 std::make_shared<const TreeIndex>(std::move(tree)), options));
}

Result<std::unique_ptr<Engine>> Engine::FromGraph(Graph graph,
                                                  const EngineOptions& options) {
  std::vector<VertexId> external_ids;
  if (options.reorder_vertices) {
    Result<ReorderedGraph> reordered = ReorderForLocality(graph);
    if (!reordered.ok()) return reordered.status();
    graph = std::move(reordered->graph);
    external_ids = std::move(reordered->external_ids);
  }
  Result<PrecomputedData> pre = PrecomputedData::Build(graph, options.precompute);
  if (!pre.ok()) return pre.status();
  auto owned = std::make_unique<PrecomputedData>(std::move(pre).value());
  Result<TreeIndex> tree = TreeIndex::Build(graph, *owned, options.tree);
  if (!tree.ok()) return tree.status();
  Result<std::unique_ptr<Engine>> engine = Create(
      std::move(graph), std::move(owned), std::move(tree).value(), options);
  if (engine.ok()) (*engine)->external_ids_ = std::move(external_ids);
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::Open(const EngineOptions& options) {
  Result<std::unique_ptr<Engine>> engine = OpenFiles(options);
  if (engine.ok() && !options.journal_path.empty()) {
    Status attached = (*engine)->AttachJournal(options.journal_path);
    if (!attached.ok()) return attached;
  }
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::Recover(const EngineOptions& options,
                                                RecoveryInfo* info) {
  if (options.journal_path.empty()) {
    return Status::InvalidArgument(
        "Engine::Recover needs EngineOptions::journal_path");
  }
  Result<std::unique_ptr<Engine>> engine = Open(options);
  if (engine.ok() && info != nullptr) *info = (*engine)->recovery_info();
  return engine;
}

Status Engine::AttachJournal(const std::string& path) {
  UpdateJournal::OpenInfo info;
  Result<std::unique_ptr<UpdateJournal>> journal = UpdateJournal::Open(path, &info);
  if (!journal.ok()) return journal.status();
  Result<std::vector<GraphDelta>> deltas = UpdateJournal::Replay(path);
  if (!deltas.ok()) return deltas.status();
  // Replay through the regular update path; journal_ is still null, so the
  // replayed deltas are not appended a second time. A committed record that
  // no longer applies means the journal belongs to a different base image —
  // refuse to serve rather than diverge silently.
  for (std::size_t i = 0; i < deltas->size(); ++i) {
    Result<RebuildScope> applied = ApplyUpdate((*deltas)[i]);
    if (!applied.ok()) {
      return Status::Corruption(
          "journal replay failed at record " + std::to_string(i + 1) + "/" +
          std::to_string(deltas->size()) + ": " +
          applied.status().ToString() +
          " (journal " + path + " does not match this index)");
    }
  }
  journal_ = std::move(*journal);
  recovery_info_.records_replayed = deltas->size();
  recovery_info_.torn_bytes_discarded = info.torn_bytes_discarded;
  recovery_info_.journal_created = info.created;
  return Status::OK();
}

Result<std::unique_ptr<Engine>> Engine::OpenFiles(const EngineOptions& options) {
  const bool have_index_file =
      !options.index_path.empty() && std::filesystem::exists(options.index_path);

  // Fast path: a TOPLIDX2 artifact embeds graph + precompute + tree, so the
  // whole serving state is one mmap — no parse, no copy, cold start in a few
  // page faults (plus one checksum scan unless disabled).
  if (have_index_file && ArtifactReader::IsArtifact(options.index_path)) {
    ArtifactReadOptions read_options;
    read_options.verify_checksums = options.verify_artifact_checksums;
    read_options.populate = options.mmap_populate;
    read_options.huge_pages = options.mmap_huge_pages;
    Result<MappedIndex> mapped =
        ArtifactReader::Open(options.index_path, read_options);
    if (!mapped.ok()) return mapped.status();
    if (!options.graph_path.empty()) {
      // Cheap header cross-check: serving an index against the wrong graph
      // must fail loudly, not return silently wrong communities.
      Result<GraphBinaryHeader> header =
          ReadGraphBinaryHeader(options.graph_path);
      if (!header.ok()) return header.status();
      if (header->num_vertices != mapped->graph.NumVertices() ||
          header->num_edges != mapped->graph.NumEdges()) {
        return Status::InvalidArgument(
            "graph/artifact mismatch: " + options.index_path +
            " embeds a graph with " +
            std::to_string(mapped->graph.NumVertices()) + " vertices / " +
            std::to_string(mapped->graph.NumEdges()) + " edges, but " +
            options.graph_path + " has " +
            std::to_string(header->num_vertices) + " / " +
            std::to_string(header->num_edges));
      }
    }
    std::vector<VertexId> external_ids = std::move(mapped->external_ids);
    const bool compressed = mapped->compressed;
    Result<std::unique_ptr<Engine>> engine =
        Create(std::move(mapped->graph), std::move(mapped->pre),
               std::move(mapped->tree), options);
    if (engine.ok()) {
      (*engine)->index_source_ = IndexSource::kMappedArtifact;
      (*engine)->external_ids_ = std::move(external_ids);
      (*engine)->artifact_compressed_ = compressed;
    }
    return engine;
  }

  if (options.graph_path.empty()) {
    return Status::InvalidArgument(
        "EngineOptions::graph_path is required (only a TOPLIDX2 index "
        "artifact can supply the graph)");
  }
  Result<Graph> graph = ReadGraphBinary(options.graph_path);
  if (!graph.ok()) return graph.status();

  if (have_index_file) {
    Result<IndexCodec::LoadedIndex> loaded =
        IndexCodec::Read(options.index_path, *graph);
    if (!loaded.ok()) return loaded.status();
    Result<std::unique_ptr<Engine>> engine =
        Create(std::move(graph).value(), std::move(loaded->data),
               std::move(loaded->tree), options);
    if (engine.ok()) (*engine)->index_source_ = IndexSource::kLegacyCopy;
    return engine;
  }

  if (!options.build_index_if_missing) {
    return Status::NotFound("index file not found: " + options.index_path +
                            " (set build_index_if_missing to build in-process)");
  }
  std::vector<VertexId> external_ids;
  if (options.reorder_vertices) {
    Result<ReorderedGraph> reordered = ReorderForLocality(*graph);
    if (!reordered.ok()) return reordered.status();
    *graph = std::move(reordered->graph);
    external_ids = std::move(reordered->external_ids);
  }
  Result<PrecomputedData> pre = PrecomputedData::Build(*graph, options.precompute);
  if (!pre.ok()) return pre.status();
  auto owned = std::make_unique<PrecomputedData>(std::move(pre).value());
  Result<TreeIndex> tree = TreeIndex::Build(*graph, *owned, options.tree);
  if (!tree.ok()) return tree.status();
  if (options.save_built_index && !options.index_path.empty()) {
    ArtifactWriteOptions write_options;
    write_options.compress = options.compress_artifact;
    write_options.external_ids = external_ids;
    TOPL_RETURN_IF_ERROR(ArtifactWriter::Write(*graph, *owned, *tree,
                                               options.index_path,
                                               write_options));
  }
  Result<std::unique_ptr<Engine>> engine = Create(
      std::move(graph).value(), std::move(owned), std::move(tree).value(),
      options);
  if (engine.ok()) {
    (*engine)->external_ids_ = std::move(external_ids);
    (*engine)->artifact_compressed_ = options.compress_artifact;
  }
  return engine;
}

Engine::WorkerContext* Engine::AcquireContext() {
  std::shared_ptr<const EngineSnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    // Free contexts are always bound to the current snapshot: ApplyUpdate
    // purges the free list at swap time and ReleaseContext retires stale
    // returns.
    if (!free_contexts_.empty()) {
      WorkerContext* context = free_contexts_.back();
      free_contexts_.pop_back();
      return context;
    }
    snapshot = snapshot_;
  }
  // Pool empty: grow by one context. Construction (O(n) scratch) happens
  // outside the lock so concurrent growth does not serialize. If an update
  // swaps snapshots mid-construction the context simply serves the epoch it
  // pinned and is retired on release.
  auto created = std::make_unique<WorkerContext>(std::move(snapshot));
  WorkerContext* context = created.get();
  std::lock_guard<std::mutex> lock(contexts_mu_);
  contexts_.push_back(std::move(created));
  return context;
}

std::unique_ptr<Engine::WorkerContext> Engine::RetireContextLocked(
    WorkerContext* context) {
  context->stats.MergeInto(&retired_stats_, &retired_buckets_);
  retired_contexts_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<WorkerContext> owned;
  for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
    if (it->get() == context) {
      owned = std::move(*it);
      contexts_.erase(it);
      break;
    }
  }
  return owned;
}

void Engine::ReleaseContext(WorkerContext* context) {
  // The context's epoch may have been superseded while it served this
  // query: fold its stats into the retained accumulators and drop it (and
  // with it, possibly the last pin of the old snapshot). Destruction happens
  // after the lock is released so freeing detector scratch / an old
  // snapshot never blocks other queries.
  std::unique_ptr<WorkerContext> retired;
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    if (context->snapshot == snapshot_) {
      free_contexts_.push_back(context);
      return;
    }
    retired = RetireContextLocked(context);
  }
}

std::size_t Engine::pooled_contexts() const {
  std::lock_guard<std::mutex> lock(contexts_mu_);
  return contexts_.size();
}

std::size_t Engine::pooled_scratch() const { return snapshot()->scratch->size(); }

Result<TopLResult> Engine::SearchOnContext(WorkerContext* context,
                                           QueryKind kind, const Query& query,
                                           const QueryOptions& options,
                                           const SearchControl& control) {
  Timer timer;
  Result<TopLResult> result = context->topl.Search(query, options, control);
  context->stats.Record(kind, /*diversified=*/false, result.ok(),
                        result.ok() && result->truncated,
                        timer.ElapsedSeconds(),
                        result.ok() ? result->stats : QueryStats{});
  return result;
}

Result<DTopLResult> Engine::SearchDiversifiedOnContext(
    WorkerContext* context, QueryKind kind, const Query& query,
    const DTopLOptions& options, const SearchControl& control) {
  if (!context->dtopl.has_value()) {
    const EngineSnapshot& snapshot = *context->snapshot;
    context->dtopl.emplace(*snapshot.graph, *snapshot.pre, *snapshot.tree,
                           snapshot.scratch);
  }
  Timer timer;
  Result<DTopLResult> result = context->dtopl->Search(query, options, control);
  context->stats.Record(kind, /*diversified=*/true, result.ok(),
                        result.ok() && result->truncated,
                        timer.ElapsedSeconds(),
                        result.ok() ? result->candidate_stats : QueryStats{});
  return result;
}

SearchControl Engine::MakeControl(const ProgressiveOptions& options,
                                  ProgressiveCallback on_update) {
  SearchControl control;
  // Intra-query parallelism rides the same pool as batch fan-out and async
  // serving; TaskGroup's help-first join keeps the combination deadlock-free.
  if (options.parallel && pool_.num_threads() > 1) control.pool = &pool_;
  control.chunk_size = options.chunk_size;
  control.deadline_seconds = options.deadline_seconds;
  control.cancel = options.cancel;
  control.on_progress = std::move(on_update);
  return control;
}

SearchControl Engine::FanOutControl() {
  SearchControl control;
  if (pool_.num_threads() > 1) control.pool = &pool_;
  control.chunk_size = ProgressiveOptions{}.chunk_size;
  return control;
}

Result<TopLResult> Engine::CachedSearch(QueryKind kind, const Query& query,
                                        const QueryOptions& options,
                                        WorkerContext* context,
                                        const SearchControl& control) {
  auto execute = [&](WorkerContext* ctx) {
    return SearchOnContext(ctx, kind, query, options, control);
  };
  auto run = [&](auto&& body) -> Result<TopLResult> {
    if (context != nullptr) return body(context);
    ContextLease lease(this);
    return body(lease.get());
  };
  // Invalid queries take the execution path so they fail with exactly the
  // detector's status (a canonicalized key would otherwise let a permuted
  // keyword list hit where a cache-disabled engine rejects it).
  if (cache_ == nullptr || !query.Validate().ok() ||
      !QueryCache::Cacheable(query, *snapshot()->pre)) {
    return run(execute);
  }
  const CacheKey key = CacheKey::ForTopL(query, options);
  const QueryCache::LookupResult lookup = cache_->Lookup(key);
  if (lookup.hit) return *lookup.answer.topl;
  if (!lookup.leader) {
    Result<QueryCache::CachedAnswer> shared = cache_->Await(lookup.flight);
    if (!shared.ok()) return shared.status();
    return *shared->topl;
  }
  std::uint64_t executed_epoch = 0;
  Result<TopLResult> result = run([&](WorkerContext* ctx) {
    executed_epoch = ctx->snapshot->epoch;
    return execute(ctx);
  });
  if (result.ok()) {
    cache_->FillTopL(key, lookup.flight, executed_epoch,
                     std::make_shared<const TopLResult>(*result));
  } else {
    cache_->Abandon(key, lookup.flight, result.status());
  }
  return result;
}

Result<DTopLResult> Engine::CachedSearchDiversified(QueryKind kind,
                                                    const Query& query,
                                                    const DTopLOptions& options,
                                                    WorkerContext* context,
                                                    const SearchControl& control) {
  auto execute = [&](WorkerContext* ctx) {
    return SearchDiversifiedOnContext(ctx, kind, query, options, control);
  };
  auto run = [&](auto&& body) -> Result<DTopLResult> {
    if (context != nullptr) return body(context);
    ContextLease lease(this);
    return body(lease.get());
  };
  if (cache_ == nullptr || !query.Validate().ok() ||
      !QueryCache::Cacheable(query, *snapshot()->pre)) {
    return run(execute);
  }
  const CacheKey key = CacheKey::ForDTopL(query, options);
  const QueryCache::LookupResult lookup = cache_->Lookup(key);
  if (lookup.hit) return *lookup.answer.dtopl;
  if (!lookup.leader) {
    Result<QueryCache::CachedAnswer> shared = cache_->Await(lookup.flight);
    if (!shared.ok()) return shared.status();
    return *shared->dtopl;
  }
  std::uint64_t executed_epoch = 0;
  Result<DTopLResult> result = run([&](WorkerContext* ctx) {
    executed_epoch = ctx->snapshot->epoch;
    return execute(ctx);
  });
  if (result.ok()) {
    cache_->FillDTopL(key, lookup.flight, executed_epoch,
                      std::make_shared<const DTopLResult>(*result));
  } else {
    cache_->Abandon(key, lookup.flight, result.status());
  }
  return result;
}

namespace {

Status ShutdownStatus() { return Status::Unavailable("engine is shut down"); }

}  // namespace

Status Engine::ShedStatus() const {
  return Status::Unavailable(
      "query shed: engine at max_in_flight_queries=" +
      std::to_string(options_.max_in_flight_queries) +
      " (retry with backoff)");
}

Result<TopLResult> Engine::Search(const Query& query, const QueryOptions& options) {
  return AdmitSearch(query, options, FanOutControl());
}

Result<DTopLResult> Engine::SearchDiversified(const Query& query,
                                              const DTopLOptions& options) {
  return AdmitSearchDiversified(query, options, FanOutControl());
}

Result<TopLResult> Engine::AdmitSearch(const Query& query,
                                       const QueryOptions& options,
                                       const SearchControl& control) {
  AdmissionGuard admit(this);
  if (admit.result() == Admission::kShutdown) return ShutdownStatus();
  if (admit.result() == Admission::kShed) {
    shed_queries_.fetch_add(1, std::memory_order_relaxed);
    return ShedStatus();
  }
  return CachedSearch(QueryKind::kSearch, query, options, /*context=*/nullptr,
                      control);
}

Result<DTopLResult> Engine::AdmitSearchDiversified(const Query& query,
                                                   const DTopLOptions& options,
                                                   const SearchControl& control) {
  AdmissionGuard admit(this);
  if (admit.result() == Admission::kShutdown) return ShutdownStatus();
  if (admit.result() == Admission::kShed) {
    shed_queries_.fetch_add(1, std::memory_order_relaxed);
    return ShedStatus();
  }
  return CachedSearchDiversified(QueryKind::kDiversified, query, options,
                                 /*context=*/nullptr, control);
}

Result<TopLResult> Engine::DegradedSearch(const Query& query,
                                          const ProgressiveOptions& options) {
  // The caller brought a deadline, so it already accepts anytime answers:
  // run the progressive search with an immediately-expiring deadline and no
  // pool fan-out. The detector stops at the first wave boundary, returning a
  // valid truncated prefix plus the score upper bound — wave-boundary cost
  // instead of full-query cost, without taking an admission slot.
  ProgressiveOptions degraded = options;
  degraded.deadline_seconds = 1e-9;
  degraded.parallel = false;
  ContextLease lease(this);
  Result<TopLResult> result =
      SearchOnContext(lease.get(), QueryKind::kProgressive, query,
                      degraded.query, MakeControl(degraded, nullptr));
  degraded_queries_.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) result->degraded = true;
  return result;
}

Result<DTopLResult> Engine::DegradedSearchDiversified(
    const Query& query, const DTopLOptions& dtopl_options,
    const ProgressiveOptions& options) {
  ProgressiveOptions degraded = options;
  degraded.deadline_seconds = 1e-9;
  degraded.parallel = false;
  ContextLease lease(this);
  Result<DTopLResult> result = SearchDiversifiedOnContext(
      lease.get(), QueryKind::kProgressive, query, dtopl_options,
      MakeControl(degraded, nullptr));
  degraded_queries_.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) result->degraded = true;
  return result;
}

Result<TopLResult> Engine::SearchProgressive(const Query& query,
                                             const ProgressiveOptions& options,
                                             ProgressiveCallback on_update) {
  AdmissionGuard admit(this);
  if (admit.result() == Admission::kShutdown) return ShutdownStatus();
  if (admit.result() == Admission::kShed) {
    if (options.deadline_seconds > 0.0) return DegradedSearch(query, options);
    shed_queries_.fetch_add(1, std::memory_order_relaxed);
    return ShedStatus();
  }
  ContextLease lease(this);
  return SearchOnContext(lease.get(), QueryKind::kProgressive, query,
                         options.query, MakeControl(options, std::move(on_update)));
}

Result<DTopLResult> Engine::SearchDiversifiedProgressive(
    const Query& query, const DTopLOptions& dtopl_options,
    const ProgressiveOptions& options, ProgressiveCallback on_update) {
  AdmissionGuard admit(this);
  if (admit.result() == Admission::kShutdown) return ShutdownStatus();
  if (admit.result() == Admission::kShed) {
    if (options.deadline_seconds > 0.0) {
      return DegradedSearchDiversified(query, dtopl_options, options);
    }
    shed_queries_.fetch_add(1, std::memory_order_relaxed);
    return ShedStatus();
  }
  ContextLease lease(this);
  // Pruning toggles come from dtopl_options.topl_options, exactly as in
  // SearchDiversified — ProgressiveOptions::query applies to the TopL entry
  // point only, so the two DTopL paths can never diverge algorithmically.
  return SearchDiversifiedOnContext(lease.get(), QueryKind::kProgressive, query,
                                    dtopl_options,
                                    MakeControl(options, std::move(on_update)));
}

std::vector<Result<TopLResult>> Engine::SearchBatch(std::span<const Query> queries,
                                                    const QueryOptions& options) {
  // One admission slot covers the whole batch: the fan-out below already
  // bounds its own parallelism by the pool width, so per-query slots would
  // only let one batch starve every interactive query.
  AdmissionGuard admit(this);
  if (admit.result() != Admission::kAdmitted) {
    if (admit.result() == Admission::kShed) {
      shed_queries_.fetch_add(1, std::memory_order_relaxed);
    }
    const Status status =
        admit.result() == Admission::kShutdown ? ShutdownStatus() : ShedStatus();
    std::vector<Result<TopLResult>> rejected;
    rejected.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) rejected.emplace_back(status);
    return rejected;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Result<TopLResult>> results;
  results.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    results.emplace_back(Status::Internal("query was not executed"));
  }
  if (queries.empty()) return results;

  // One context leased per participating pool worker for the whole batch, so
  // the per-query path is mutex-free. ParallelForWithWorker hands out ids in
  // [0, spawned + 1) with the calling thread as worker 0; with grain=1 it
  // spawns at most min(num_threads() - 1, |queries|) helpers. Each slot is
  // written by exactly one worker thread, and only workers that actually get
  // a chunk acquire a context (with more workers than chunks, some never run).
  const std::size_t max_workers =
      std::min(pool_.num_threads(), queries.size() + 1);
  std::vector<WorkerContext*> leased(max_workers, nullptr);
  // grain=1: each query is its own unit of work, so the batch load-balances
  // across workers even when per-query cost is highly skewed.
  pool_.ParallelForWithWorker(
      0, queries.size(),
      [&](std::size_t worker, std::size_t i) {
        WorkerContext*& context = leased[worker];
        if (context == nullptr) context = AcquireContext();
        results[i] = CachedSearch(QueryKind::kBatch, queries[i], options,
                                  context, SearchControl{});
      },
      /*grain=*/1);
  for (WorkerContext* context : leased) {
    if (context != nullptr) ReleaseContext(context);
  }
  return results;
}

std::future<Result<TopLResult>> Engine::Submit(Query query, QueryOptions options) {
  // Post-shutdown submission resolves to the typed status instead of the
  // pool's std::runtime_error (the task body would return it anyway; this
  // skips the detour through an exception for the common case).
  if (shutdown_.load(std::memory_order_acquire)) {
    std::promise<Result<TopLResult>> promise;
    promise.set_value(ShutdownStatus());
    return promise.get_future();
  }
  return pool_.Submit([this, query = std::move(query), options]() {
    return AdmitSearch(query, options, SearchControl{});
  });
}

std::future<Result<DTopLResult>> Engine::SubmitDiversified(Query query,
                                                           DTopLOptions options) {
  if (shutdown_.load(std::memory_order_acquire)) {
    std::promise<Result<DTopLResult>> promise;
    promise.set_value(ShutdownStatus());
    return promise.get_future();
  }
  return pool_.Submit([this, query = std::move(query), options]() {
    return AdmitSearchDiversified(query, options, SearchControl{});
  });
}

Result<RebuildScope> Engine::ApplyUpdate(const GraphDelta& delta) {
  if (shutdown_.load(std::memory_order_acquire)) return ShutdownStatus();
  // Single writer at a time; queries keep flowing against the current
  // snapshot for the whole (potentially long) maintenance pass.
  std::lock_guard<std::mutex> update_lock(update_mu_);
  std::shared_ptr<const EngineSnapshot> base = snapshot();
  Result<UpdatedIndex> updated =
      IndexUpdater::Apply(*base->graph, *base->pre, *base->tree, delta, &pool_);
  if (!updated.ok()) return updated.status();
  // Durability before visibility: commit the delta to the write-ahead
  // journal (checksummed + fsync-ed) before installing the snapshot. A crash
  // after the append replays the delta at recovery; a crash during it leaves
  // a torn record that recovery discards — matching the fact that no caller
  // was ever told the update succeeded. An append failure rejects the update
  // outright so memory never runs ahead of the durable state.
  if (journal_ != nullptr) {
    TOPL_RETURN_IF_ERROR(journal_->Append(delta));
  }
  return InstallUpdateLocked(std::move(base), std::move(updated).value());
}

Result<RebuildScope> Engine::InstallUpdate(UpdatedIndex updated) {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  return InstallUpdateLocked(snapshot(), std::move(updated));
}

Result<RebuildScope> Engine::InstallUpdateLocked(
    std::shared_ptr<const EngineSnapshot> base, UpdatedIndex updated) {
  if (updated.pre == nullptr) {
    return Status::InvalidArgument("InstallUpdate needs a precompute");
  }

  auto next = std::make_shared<EngineSnapshot>();
  // The tree's internal pointer into `*pre` survives the moves: the pointee
  // addresses are unchanged by the unique_ptr→shared_ptr conversion.
  next->graph = std::make_shared<const Graph>(std::move(updated.graph));
  next->pre = std::shared_ptr<const PrecomputedData>(std::move(updated.pre));
  next->tree = std::make_shared<const TreeIndex>(std::move(updated.tree));
  next->scratch = std::make_shared<RefineScratchPool>(*next->graph);
  next->epoch = base->epoch + 1;
  const std::shared_ptr<const EngineSnapshot> installed = next;

  {
    // Retired contexts (and the superseded snapshot pin held by `base`) are
    // destroyed after the lock drops, so the swap itself is O(#contexts)
    // under contexts_mu_ and queries never wait on bulk deallocation.
    std::vector<std::unique_ptr<WorkerContext>> retired;
    std::lock_guard<std::mutex> lock(contexts_mu_);
    snapshot_ = std::move(next);
    // Idle contexts are bound to the superseded snapshot; retire them now so
    // the old epoch's memory is reclaimed as soon as in-flight queries
    // finish. Leased contexts retire themselves on release.
    retired.reserve(free_contexts_.size());
    for (WorkerContext* context : free_contexts_) {
      retired.push_back(RetireContextLocked(context));
    }
    free_contexts_.clear();
  }

  if (cache_ != nullptr) {
    // After the swap (so the cache epoch never runs ahead of serving) and
    // still under update_mu_ (so epochs reach the cache in order): erase
    // exactly the entries this delta's dirty-center set could have changed
    // and rebase the provably clean ones to the new epoch.
    cache_->OnUpdate(updated.dirty_center_ids, *base->graph, *installed->graph,
                     *installed->pre, installed->epoch);
  }

  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  update_dirty_centers_.fetch_add(updated.scope.dirty_centers,
                                  std::memory_order_relaxed);
  return updated.scope;
}

EngineStats Engine::Stats() const {
  EngineStats total;
  std::array<EngineStatsShard::Histogram, kNumQueryKinds> buckets{};
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    // Start from the counters of retired contexts, then fold the live ones.
    total = retired_stats_;
    buckets = retired_buckets_;
    for (const auto& context : contexts_) {
      context->stats.MergeInto(&total, &buckets);
    }
    total.snapshot_epoch = snapshot_->epoch;
    // Distinct epochs still pinned by a context, plus the current snapshot.
    std::vector<const EngineSnapshot*> pinned;
    pinned.push_back(snapshot_.get());
    for (const auto& context : contexts_) {
      pinned.push_back(context->snapshot.get());
    }
    std::sort(pinned.begin(), pinned.end());
    total.live_snapshots = static_cast<std::uint64_t>(
        std::unique(pinned.begin(), pinned.end()) - pinned.begin());
  }
  total.batches = batches_.load(std::memory_order_relaxed);
  total.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  total.update_dirty_centers =
      update_dirty_centers_.load(std::memory_order_relaxed);
  total.retired_contexts = retired_contexts_.load(std::memory_order_relaxed);
  total.queries_shed = shed_queries_.load(std::memory_order_relaxed);
  total.queries_degraded = degraded_queries_.load(std::memory_order_relaxed);
  total.queries_total = total.topl_queries + total.dtopl_queries;
  if (cache_ != nullptr) {
    total.cache_enabled = true;
    const QueryCache::Counters cache = cache_->counters();
    total.cache_hits = cache.hits;
    total.cache_misses = cache.misses;
    total.cache_coalesced = cache.coalesced;
    total.cache_invalidated = cache.invalidated;
    total.cache_evicted = cache.evicted;
    total.cache_entries = cache.entries;
    total.cache_bytes = cache.bytes;
  }

  // Per-kind percentiles, then the legacy all-kinds view from the merged
  // histogram. Bucket-midpoint estimates can overshoot the true extremum;
  // the exact max is tracked separately and caps them.
  EngineStatsShard::Histogram merged{};
  std::uint64_t merged_count = 0;
  for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < buckets[k].size(); ++i) {
      count += buckets[k][i];
      merged[i] += buckets[k][i];
    }
    merged_count += count;
    total.latency[k].count = count;
    if (count > 0) {
      const double cap = total.latency[k].max_seconds;
      total.latency[k].p50_seconds =
          std::min(LatencyPercentileSeconds(buckets[k], count, 0.50), cap);
      total.latency[k].p99_seconds =
          std::min(LatencyPercentileSeconds(buckets[k], count, 0.99), cap);
      total.latency[k].p999_seconds =
          std::min(LatencyPercentileSeconds(buckets[k], count, 0.999), cap);
    }
    total.max_latency_seconds =
        std::max(total.max_latency_seconds, total.latency[k].max_seconds);
  }
  if (merged_count > 0) {
    const double cap = total.max_latency_seconds;
    total.p50_latency_seconds =
        std::min(LatencyPercentileSeconds(merged, merged_count, 0.50), cap);
    total.p99_latency_seconds =
        std::min(LatencyPercentileSeconds(merged, merged_count, 0.99), cap);
    total.p999_latency_seconds =
        std::min(LatencyPercentileSeconds(merged, merged_count, 0.999), cap);
  }
  return total;
}

}  // namespace topl
