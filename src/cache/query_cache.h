#ifndef TOPL_CACHE_QUERY_CACHE_H_
#define TOPL_CACHE_QUERY_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/community_result.h"
#include "core/dtopl_detector.h"
#include "core/query.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "index/precompute.h"

namespace topl {

/// \brief Canonicalized descriptor of one cacheable query.
///
/// Two queries that must produce byte-identical answers map to the same key:
/// keywords are sorted and deduplicated here (so permuted keyword lists hit
/// the same entry), theta is compared bit-exactly, and every switch that
/// selects a different execution (query kind, DTopL refinement algorithm and
/// pool factor, pruning toggles) is part of the key. Pruning toggles are
/// answer-preserving, but keying on them keeps the cache trivially correct
/// for ablation runs too.
struct CacheKey {
  enum class Kind : std::uint8_t { kTopL = 0, kDTopL = 1 };

  Kind kind = Kind::kTopL;
  /// Sorted ascending, deduplicated — canonical regardless of the order the
  /// caller listed them in.
  std::vector<KeywordId> keywords;
  std::uint32_t k = 0;
  std::uint32_t radius = 0;
  std::uint32_t top_l = 0;
  /// Bit pattern of Query::theta; bit equality keeps operator== consistent
  /// with Hash() (a plain double compare would merge +0.0/-0.0 but hash them
  /// apart).
  std::uint64_t theta_bits = 0;
  /// QueryOptions toggles, packed LSB-first in declaration order.
  std::uint8_t option_bits = 0;

  // DTopL-only dimensions; zero for TopL keys.
  std::uint32_t n_factor = 0;
  std::uint8_t algorithm = 0;
  std::uint64_t max_optimal_subsets = 0;

  static CacheKey ForTopL(const Query& query, const QueryOptions& options);
  static CacheKey ForDTopL(const Query& query, const DTopLOptions& options);

  double theta() const;

  bool operator==(const CacheKey& other) const = default;
  std::uint64_t Hash() const;  // FNV-1a over every field
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return static_cast<std::size_t>(key.Hash());
  }
};

/// \brief Lock-striped, epoch-aware answer cache for TopL/DTopL results with
/// exact dirty-region invalidation and in-flight query deduplication.
///
/// Values are immutable results behind shared_ptr (hits hand out the pointer;
/// the engine copies into its Result return, so entries are never mutated).
/// Each entry remembers the set of centers its answer *depends on* — the
/// answer communities' centers for TopL, the full top-(nL) candidate-pool
/// centers for DTopL — plus the score floor a newcomer community would have
/// to clear (σ_L, or the pool's weakest σ).
///
/// Invalidation contract (OnUpdate): an entry survives an ApplyUpdate iff
/// the update provably cannot change its answer, i.e.
///   1. no dirty center is in the entry's touched-center set (every touched
///      center keeps byte-identical precompute rows, seed community, and
///      influence by PR 4's dirty-region contract), AND
///   2. no dirty center could *newly* enter the answer: every dirty center
///      fails at least one of the detector's own admission tests against the
///      new snapshot — keyword (ball-signature intersection + center keyword
///      membership), support (ball support ≥ k−2 and center trussness ≥ k),
///      or score (ScoreBound < the entry's floor, mirroring the detector's
///      strict-< pruning; only usable when the answer/pool is full and the
///      query's theta is on the precompute grid).
/// Surviving entries are rebased to the new epoch in place — an epoch bump
/// alone never flushes clean entries. Everything else is erased and counted
/// in `invalidated`.
///
/// Single-flight: concurrent lookups of one key coalesce onto the first
/// caller (the leader). Followers block until the leader publishes; flights
/// are epoch-stamped, so a flight started before an update is never joined
/// afterwards (a fresh leader replaces it; the old leader still wakes its
/// followers, exactly like queries that had already started pre-update).
///
/// The table is split into `num_shards` lock stripes, each with its own
/// mutex, LRU list and byte budget (max_bytes / num_shards);
/// entry sizes are close approximations (vectors' payloads + struct shells).
///
/// Thread safety: every method is safe to call from any thread. Lock order
/// is one shard mutex at a time, then (optionally) a flight mutex — no
/// nested shard locks, so the cache can never deadlock with itself.
class QueryCache {
 public:
  struct Config {
    std::size_t max_bytes = 64ull << 20;
    std::size_t num_shards = 16;
  };

  /// Cumulative counters, all monotone except entries/bytes (residency).
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t invalidated = 0;
    std::uint64_t evicted = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
  };

  /// An immutable cached answer; exactly one pointer is set, matching the
  /// key's kind.
  struct CachedAnswer {
    std::shared_ptr<const TopLResult> topl;
    std::shared_ptr<const DTopLResult> dtopl;
  };

  /// One in-flight execution other callers of the same key can wait on.
  struct Flight {
    std::uint64_t epoch = 0;

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    CachedAnswer answer;
    Status status = Status::OK();
  };

  /// Exactly one of the three outcomes:
  ///  - hit: `answer` is set;
  ///  - leader: `flight` set, `leader` true — the caller must execute the
  ///    query and then call Fill* (success) or Abandon (failure);
  ///  - follower: `flight` set, `leader` false — the caller must Await it.
  struct LookupResult {
    bool hit = false;
    bool leader = false;
    CachedAnswer answer;
    std::shared_ptr<Flight> flight;
  };

  explicit QueryCache(const Config& config);

  LookupResult Lookup(const CacheKey& key);

  /// Publishes a successful execution to the flight's followers and, when
  /// `executed_epoch` still matches the cache epoch and the result is exact
  /// (not truncated), inserts it. The touched-center set and newcomer floor
  /// are derived from the result itself (see class comment).
  void FillTopL(const CacheKey& key, const std::shared_ptr<Flight>& flight,
                std::uint64_t executed_epoch,
                std::shared_ptr<const TopLResult> result);
  void FillDTopL(const CacheKey& key, const std::shared_ptr<Flight>& flight,
                 std::uint64_t executed_epoch,
                 std::shared_ptr<const DTopLResult> result);

  /// Publishes a failed execution: followers receive `status`, nothing is
  /// inserted.
  void Abandon(const CacheKey& key, const std::shared_ptr<Flight>& flight,
               Status status);

  /// Blocks until the flight's leader publishes; returns the shared answer
  /// or the leader's failure status.
  Result<CachedAnswer> Await(const std::shared_ptr<Flight>& flight);

  /// Installs `new_epoch` and runs exact invalidation against the new
  /// snapshot's graph/precompute (see class comment). Surviving entries are
  /// additionally rebased onto the new snapshot's edge numbering: edge
  /// mutations compact-renumber EdgeIds graph-wide, so a clean answer's
  /// *edge sets* are unchanged but their ids may shift — `old_graph` (the
  /// snapshot every resident entry was computed on) resolves each stored id
  /// to endpoints, which are then re-looked-up in `graph`. Must be called
  /// after the engine swaps in the new snapshot; concurrent calls must be
  /// externally serialized (the engine's single-writer update lock does).
  void OnUpdate(std::span<const VertexId> dirty_centers,
                const Graph& old_graph, const Graph& graph,
                const PrecomputedData& pre, std::uint64_t new_epoch);

  /// Whether this query's answer may be cached / served from cache at all.
  /// Excluded: theta below the precompute grid (the dirty-center set is
  /// computed at θ_min, so influence changes below it are invisible to
  /// invalidation) and radius beyond r_max (the detector rejects those).
  static bool Cacheable(const Query& query, const PrecomputedData& pre);

  Counters counters() const;
  std::uint64_t current_epoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }

 private:
  struct Entry {
    CacheKey key;
    CachedAnswer answer;
    /// Sorted centers the answer depends on (answer centers for TopL, the
    /// full candidate-pool centers for DTopL).
    std::vector<VertexId> touched;
    /// Score a newcomer community must reach to change the answer (σ_L /
    /// pool floor); only meaningful when `floor_valid`.
    double floor_score = 0.0;
    /// False when the answer/pool holds fewer than the requested L / nL
    /// communities — any new qualifying community then changes the answer.
    bool floor_valid = false;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> table;
    std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash> flights;
    std::size_t bytes = 0;
  };

  Shard& ShardFor(const CacheKey& key) {
    return shards_[key.Hash() % shards_.size()];
  }

  /// Publishes to the flight and unregisters it from `shard` if it is still
  /// the registered flight for `key`. Caller holds shard.mu.
  void CompleteFlightLocked(Shard& shard, const CacheKey& key,
                            const std::shared_ptr<Flight>& flight, bool ok,
                            CachedAnswer answer, Status status);

  /// Inserts an already-built entry, evicting from the LRU tail while the
  /// shard exceeds its byte budget. Caller holds shard.mu.
  void InsertLocked(Shard& shard, Entry entry);

  void EraseLocked(Shard& shard, std::list<Entry>::iterator it);

  std::vector<Shard> shards_;
  std::size_t per_shard_budget_ = 0;
  std::atomic<std::uint64_t> current_epoch_{0};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> invalidated_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace topl

#endif  // TOPL_CACHE_QUERY_CACHE_H_
