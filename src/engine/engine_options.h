#ifndef TOPL_ENGINE_ENGINE_OPTIONS_H_
#define TOPL_ENGINE_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/query.h"
#include "core/search_control.h"
#include "index/precompute.h"
#include "index/tree_index.h"

namespace topl {

/// \brief Per-query controls of Engine::SearchProgressive /
/// Engine::SearchDiversifiedProgressive: the anytime entry points.
///
/// Progressive queries stream intermediate top-L answers (with an
/// upper-bound quality gap) to the caller's callback, honor a wall-clock
/// deadline, and can be cancelled cooperatively. When `parallel` is set the
/// candidate-scoring stage additionally fans out in chunks over the
/// engine's ThreadPool — final (non-truncated) answers stay byte-identical
/// to the sequential path.
struct ProgressiveOptions {
  /// Algorithmic toggles forwarded to the detector (pruning rules).
  QueryOptions query;

  /// Per-query wall-clock budget in seconds; 0 = unlimited. On expiry the
  /// query returns best-so-far with TopLResult::truncated set.
  double deadline_seconds = 0.0;

  /// Cooperative cancellation (CancelToken::Create() to make one that can
  /// actually fire). Checked at wave boundaries.
  CancelToken cancel;

  /// Score candidate waves in parallel chunks over the engine's pool.
  bool parallel = true;

  /// Candidates per scoring chunk when `parallel`.
  std::uint32_t chunk_size = 8;
};

/// \brief Configuration of a topl::Engine (see engine/engine.h).
///
/// The path fields drive Engine::Open; Engine::Create / Engine::FromGraph
/// ignore them and use only the serving knobs.
struct EngineOptions {
  /// Binary graph file (graph/binary_io.h). Required by Engine::Open unless
  /// `index_path` names a TOPLIDX2 artifact, which embeds the graph; when
  /// both are given, the artifact's vertex/edge counts are cross-checked
  /// against the graph file's header.
  std::string graph_path;

  /// Index file: a TOPLIDX2 artifact (storage/artifact.h), mmap-ed and
  /// served zero-copy. An existing file of any other kind fails Open with
  /// Corruption. When the file is missing (or the field is empty) the
  /// offline phase runs in-process, subject to `build_index_if_missing`.
  std::string index_path;

  /// Open: build PrecomputedData + TreeIndex when no index file is found.
  /// When false, a missing index file fails with NotFound instead.
  bool build_index_if_missing = true;

  /// Open: after building in-process, persist the index to `index_path` (if
  /// non-empty) as a TOPLIDX2 artifact so the next Open takes the mmap path.
  bool save_built_index = true;

  /// Open: verify the artifact's per-section XXH64 checksums before serving
  /// from it (one sequential scan of the file). Structural validation always
  /// happens; disabling this only skips the hash pass.
  bool verify_artifact_checksums = true;

  /// Offline-phase parameters used when the index is built in-process.
  PrecomputeOptions precompute;
  TreeIndexOptions tree;

  /// Build path (Open-with-missing-index / FromGraph): permute vertices into
  /// the locality order (graph/reorder.h) before the offline phase. Query
  /// results then carry *internal* ids; Engine::ExternalId maps them back,
  /// and the permutation is persisted in the artifact (g.extids) so mmap
  /// reopens keep the mapping. Ignored when serving an existing index.
  bool reorder_vertices = false;

  /// Build path: store the delta+varint-encoded artifact sections when
  /// persisting (ArtifactWriteOptions::compress).
  bool compress_artifact = false;

  /// Worker threads for query fan-out (a plain or progressive query's
  /// refinement, a SearchBatch's slots) and index updates; 0 =
  /// ProcessCpuCount(), the CPUs of the process's affinity mask. Independent
  /// of the number of pooled detector contexts, which grows with the peak
  /// number of concurrent queries.
  std::size_t num_threads = 0;

  /// Snapshot-epoch result cache (cache/query_cache.h): plain (non-progressive)
  /// Search/SearchDiversified answers are cached by canonicalized query key,
  /// identical in-flight queries coalesce onto one execution, and
  /// ApplyUpdate invalidates only entries the update's exact dirty-center
  /// set could have changed. Off by default — repeated-query workloads
  /// opt in.
  bool enable_result_cache = false;

  /// Byte budget of the result cache (LRU-evicted per lock stripe); ignored
  /// unless `enable_result_cache`.
  std::size_t cache_max_bytes = 64ull << 20;

  /// Write-ahead update journal (storage/update_journal.h). When non-empty,
  /// Engine::Open replays any committed deltas found in the journal on top
  /// of the artifact (crash recovery), then ApplyUpdate appends each delta —
  /// checksummed and fsync-ed — *before* installing the new snapshot, so a
  /// crash at any point loses no acknowledged update. Empty = no journal
  /// (updates are durable only once the artifact is rewritten).
  std::string journal_path;

  /// Overload admission: maximum number of queries executing concurrently
  /// inside the engine; 0 = unbounded (no admission control). When the gate
  /// is full, a query waits up to `admission_queue_wait_seconds` for a slot;
  /// on timeout it is shed with Status::Unavailable — unless the caller
  /// supplied a deadline (progressive entry points), in which case the
  /// engine degrades it to a truncated anytime answer instead of failing.
  std::size_t max_in_flight_queries = 0;

  /// How long a query may wait for an admission slot before being shed;
  /// 0 = shed immediately when the gate is full. Ignored when
  /// `max_in_flight_queries` is 0.
  double admission_queue_wait_seconds = 0.0;
};

}  // namespace topl

#endif  // TOPL_ENGINE_ENGINE_OPTIONS_H_
