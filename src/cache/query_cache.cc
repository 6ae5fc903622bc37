#include "cache/query_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "graph/local_subgraph.h"
#include "keywords/bit_vector.h"

namespace topl {

namespace {

std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t ThetaBits(double theta) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(theta));
  std::memcpy(&bits, &theta, sizeof(bits));
  return bits;
}

std::uint8_t PackOptions(const QueryOptions& options) {
  std::uint8_t bits = 0;
  if (options.use_keyword_pruning) bits |= 1u << 0;
  if (options.use_support_pruning) bits |= 1u << 1;
  if (options.use_score_pruning) bits |= 1u << 2;
  if (options.use_center_truss_bound) bits |= 1u << 3;
  if (options.use_reference_extraction) bits |= 1u << 4;
  return bits;
}

std::vector<KeywordId> Canonicalize(std::vector<KeywordId> keywords) {
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()), keywords.end());
  return keywords;
}

std::size_t CommunityBytes(const CommunityResult& c) {
  return sizeof(CommunityResult) +
         c.community.vertices.size() * sizeof(VertexId) +
         c.community.edges.size() * sizeof(EdgeId) +
         c.influence.vertices.size() * sizeof(VertexId) +
         c.influence.cpp.size() * sizeof(double);
}

std::size_t ResultBytes(const TopLResult& r) {
  std::size_t bytes = sizeof(TopLResult);
  for (const CommunityResult& c : r.communities) bytes += CommunityBytes(c);
  return bytes;
}

std::size_t ResultBytes(const DTopLResult& r) {
  std::size_t bytes = sizeof(DTopLResult);
  for (const CommunityResult& c : r.communities) bytes += CommunityBytes(c);
  bytes += r.pool_centers.size() * sizeof(VertexId);
  return bytes;
}

/// True iff every EdgeId stored in `communities` still denotes the same
/// endpoints in `now` as it did in `old_g` — i.e. the update's edge
/// renumbering did not move this answer's edges.
bool EdgeIdsStable(const std::vector<CommunityResult>& communities,
                   const Graph& old_g, const Graph& now) {
  for (const CommunityResult& c : communities) {
    for (EdgeId e : c.community.edges) {
      if (e >= now.NumEdges() || now.EdgeSource(e) != old_g.EdgeSource(e) ||
          now.EdgeTarget(e) != old_g.EdgeTarget(e)) {
        return false;
      }
    }
  }
  return true;
}

/// Rewrites every stored EdgeId to its id in `now`, resolving through the
/// old endpoints. Returns false if an edge no longer exists (cannot happen
/// for a provably clean entry; callers invalidate defensively). Surviving
/// base edges keep their relative order under ApplyDelta's compact
/// renumbering, so remapping never reorders an edge list.
bool RemapEdgeIds(const Graph& old_g, const Graph& now,
                  std::vector<CommunityResult>* communities) {
  for (CommunityResult& c : *communities) {
    for (EdgeId& e : c.community.edges) {
      const EdgeId mapped = now.FindEdge(old_g.EdgeSource(e), old_g.EdgeTarget(e));
      if (mapped == kInvalidEdge) return false;
      e = mapped;
    }
  }
  return true;
}

bool SortedIntersect(std::span<const VertexId> a, std::span<const VertexId> b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

CacheKey CacheKey::ForTopL(const Query& query, const QueryOptions& options) {
  CacheKey key;
  key.kind = Kind::kTopL;
  key.keywords = Canonicalize(query.keywords);
  key.k = query.k;
  key.radius = query.radius;
  key.top_l = query.top_l;
  key.theta_bits = ThetaBits(query.theta);
  key.option_bits = PackOptions(options);
  return key;
}

CacheKey CacheKey::ForDTopL(const Query& query, const DTopLOptions& options) {
  CacheKey key;
  key.kind = Kind::kDTopL;
  key.keywords = Canonicalize(query.keywords);
  key.k = query.k;
  key.radius = query.radius;
  key.top_l = query.top_l;
  key.theta_bits = ThetaBits(query.theta);
  key.option_bits = PackOptions(options.topl_options);
  key.n_factor = options.n_factor;
  key.algorithm = static_cast<std::uint8_t>(options.algorithm);
  key.max_optimal_subsets = options.max_optimal_subsets;
  return key;
}

double CacheKey::theta() const {
  double theta;
  std::memcpy(&theta, &theta_bits, sizeof(theta));
  return theta;
}

std::uint64_t CacheKey::Hash() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis
  hash = Fnv1a(hash, static_cast<std::uint64_t>(kind));
  hash = Fnv1a(hash, keywords.size());
  for (KeywordId w : keywords) hash = Fnv1a(hash, w);
  hash = Fnv1a(hash, k);
  hash = Fnv1a(hash, radius);
  hash = Fnv1a(hash, top_l);
  hash = Fnv1a(hash, theta_bits);
  hash = Fnv1a(hash, option_bits);
  hash = Fnv1a(hash, n_factor);
  hash = Fnv1a(hash, algorithm);
  hash = Fnv1a(hash, max_optimal_subsets);
  return hash;
}

QueryCache::QueryCache(const Config& config)
    : shards_(std::max<std::size_t>(1, config.num_shards)) {
  per_shard_budget_ = std::max<std::size_t>(1, config.max_bytes / shards_.size());
}

bool QueryCache::Cacheable(const Query& query, const PrecomputedData& pre) {
  // Influence below the precompute grid's θ_min is outside the dirty-region
  // contract: a clean center's gInf can change through a path whose prefix
  // probability sits under θ_min, which the reverse-Dijkstra dirty expansion
  // never sees. Such queries run uncached.
  if (pre.num_thetas() == 0 || query.theta < pre.thetas().front()) return false;
  // Radius beyond r_max is rejected by the detector; never enters the cache.
  if (query.radius > pre.r_max()) return false;
  return true;
}

QueryCache::LookupResult QueryCache::Lookup(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  LookupResult out;
  std::lock_guard<std::mutex> lock(shard.mu);

  auto found = shard.table.find(key);
  if (found != shard.table.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
    out.hit = true;
    out.answer = found->second->answer;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  const std::uint64_t epoch = current_epoch_.load(std::memory_order_acquire);
  auto flight_it = shard.flights.find(key);
  if (flight_it != shard.flights.end() && flight_it->second->epoch == epoch) {
    out.flight = flight_it->second;
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  // No joinable flight (none, or one stranded from a pre-update epoch —
  // its leader still wakes its own followers, but new callers must not
  // share a possibly stale answer). Lead a fresh one.
  auto flight = std::make_shared<Flight>();
  flight->epoch = epoch;
  shard.flights[key] = flight;
  out.flight = std::move(flight);
  out.leader = true;
  misses_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void QueryCache::CompleteFlightLocked(Shard& shard, const CacheKey& key,
                                      const std::shared_ptr<Flight>& flight,
                                      bool ok, CachedAnswer answer,
                                      Status status) {
  auto it = shard.flights.find(key);
  if (it != shard.flights.end() && it->second == flight) {
    shard.flights.erase(it);
  }
  {
    std::lock_guard<std::mutex> flight_lock(flight->mu);
    flight->done = true;
    flight->ok = ok;
    flight->answer = std::move(answer);
    flight->status = std::move(status);
  }
  flight->cv.notify_all();
}

void QueryCache::EraseLocked(Shard& shard, std::list<Entry>::iterator it) {
  shard.bytes -= it->bytes;
  bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  shard.table.erase(it->key);
  shard.lru.erase(it);
}

void QueryCache::InsertLocked(Shard& shard, Entry entry) {
  const std::size_t bytes = entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.table[shard.lru.front().key] = shard.lru.begin();
  shard.bytes += bytes;
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  while (shard.bytes > per_shard_budget_ && shard.lru.size() > 1) {
    EraseLocked(shard, std::prev(shard.lru.end()));
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryCache::FillTopL(const CacheKey& key,
                          const std::shared_ptr<Flight>& flight,
                          std::uint64_t executed_epoch,
                          std::shared_ptr<const TopLResult> result) {
  Entry entry;
  entry.key = key;
  entry.answer.topl = result;
  entry.touched.reserve(result->communities.size());
  for (const CommunityResult& c : result->communities) {
    entry.touched.push_back(c.community.center);
  }
  std::sort(entry.touched.begin(), entry.touched.end());
  entry.floor_valid = result->communities.size() >= key.top_l;
  entry.floor_score =
      entry.floor_valid ? result->communities.back().score() : 0.0;
  entry.bytes = sizeof(Entry) + ResultBytes(*result) +
                key.keywords.size() * sizeof(KeywordId) +
                entry.touched.size() * sizeof(VertexId);

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  CachedAnswer answer;
  answer.topl = std::move(result);
  const bool exact = !answer.topl->truncated;
  CompleteFlightLocked(shard, key, flight, /*ok=*/true, answer, Status::OK());
  if (exact &&
      executed_epoch == current_epoch_.load(std::memory_order_acquire) &&
      shard.table.find(key) == shard.table.end()) {
    InsertLocked(shard, std::move(entry));
  }
}

void QueryCache::FillDTopL(const CacheKey& key,
                           const std::shared_ptr<Flight>& flight,
                           std::uint64_t executed_epoch,
                           std::shared_ptr<const DTopLResult> result) {
  Entry entry;
  entry.key = key;
  entry.answer.dtopl = result;
  // The diversified answer is a deterministic function of the candidate
  // pool, so the dependence set is the *pool's* centers and the newcomer
  // floor is the pool's weakest σ — not the selected L communities'.
  entry.touched = result->pool_centers;
  std::sort(entry.touched.begin(), entry.touched.end());
  entry.floor_valid = result->pool_full;
  entry.floor_score = result->pool_floor;
  entry.bytes = sizeof(Entry) + ResultBytes(*result) +
                key.keywords.size() * sizeof(KeywordId) +
                entry.touched.size() * sizeof(VertexId);

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  CachedAnswer answer;
  answer.dtopl = std::move(result);
  const bool exact = !answer.dtopl->truncated;
  CompleteFlightLocked(shard, key, flight, /*ok=*/true, answer, Status::OK());
  if (exact &&
      executed_epoch == current_epoch_.load(std::memory_order_acquire) &&
      shard.table.find(key) == shard.table.end()) {
    InsertLocked(shard, std::move(entry));
  }
}

void QueryCache::Abandon(const CacheKey& key,
                         const std::shared_ptr<Flight>& flight, Status status) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  CompleteFlightLocked(shard, key, flight, /*ok=*/false, CachedAnswer{},
                       std::move(status));
}

Result<QueryCache::CachedAnswer> QueryCache::Await(
    const std::shared_ptr<Flight>& flight) {
  std::unique_lock<std::mutex> lock(flight->mu);
  flight->cv.wait(lock, [&] { return flight->done; });
  if (!flight->ok) return flight->status;
  return flight->answer;
}

void QueryCache::OnUpdate(std::span<const VertexId> dirty_centers,
                          const Graph& old_graph, const Graph& graph,
                          const PrecomputedData& pre,
                          std::uint64_t new_epoch) {
  // Publish the epoch first: fills of results computed on the superseded
  // snapshot race this scan, and the epoch check in Fill* rejects exactly
  // the ones that would otherwise slip in behind it.
  current_epoch_.store(new_epoch, std::memory_order_release);

  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      auto next = std::next(it);
      bool exact = !SortedIntersect(it->touched, dirty_centers);
      if (exact && it->key.radius <= pre.r_max()) {
        // Newcomer check: a dirty center outside the answer can only change
        // it by *entering*, which requires surviving the detector's own
        // admission tests against the new snapshot. Mirror them exactly
        // (including the strict-< score comparison).
        const std::uint32_t r = it->key.radius;
        const std::uint32_t required_support =
            it->key.k >= 2 ? it->key.k - 2 : 0;
        const int z = pre.ThresholdIndex(it->key.theta());
        const BitVector query_bv =
            BitVector::FromKeywords(it->key.keywords, pre.signature_bits());
        for (VertexId d : dirty_centers) {
          if (!pre.SignatureIntersects(d, r, query_bv) ||
              !HopExtractor::HasAnyKeyword(graph, d, it->key.keywords)) {
            continue;  // Lemma 1/5: no qualifying community at d
          }
          if (pre.SupportBound(d, r) < required_support ||
              pre.CenterTrussBound(d) < it->key.k) {
            continue;  // Lemma 2/6: no k-truss seed community at d
          }
          if (it->floor_valid && z >= 0 &&
              pre.ScoreBound(d, r, static_cast<std::uint32_t>(z)) <
                  it->floor_score) {
            continue;  // Lemma 4/7: cannot reach the answer's score floor
          }
          exact = false;  // d may newly enter; the answer could change
          break;
        }
      } else {
        exact = false;
      }
      if (exact) {
        // Surviving entries are provably unchanged *as edge sets*, but edge
        // deltas compact-renumber EdgeIds graph-wide, so the stored ids may
        // now point at different edges. Rebase them onto the new numbering
        // (via the old endpoints); publish the remapped result as a fresh
        // immutable object so hits handed out before the swap stay
        // consistent with the snapshot they were served against.
        if (it->answer.topl != nullptr &&
            !EdgeIdsStable(it->answer.topl->communities, old_graph, graph)) {
          auto remapped = std::make_shared<TopLResult>(*it->answer.topl);
          if (RemapEdgeIds(old_graph, graph, &remapped->communities)) {
            it->answer.topl = std::move(remapped);
          } else {
            exact = false;  // defensive: a clean entry never loses an edge
          }
        } else if (it->answer.dtopl != nullptr &&
                   !EdgeIdsStable(it->answer.dtopl->communities, old_graph,
                                  graph)) {
          auto remapped = std::make_shared<DTopLResult>(*it->answer.dtopl);
          if (RemapEdgeIds(old_graph, graph, &remapped->communities)) {
            it->answer.dtopl = std::move(remapped);
          } else {
            exact = false;
          }
        }
      }
      if (!exact) {
        EraseLocked(shard, it);
        invalidated_.fetch_add(1, std::memory_order_relaxed);
      }
      // Surviving entries are provably unchanged and rebase to the new
      // epoch in place — the bump alone never flushes clean entries.
      it = next;
    }
  }
}

QueryCache::Counters QueryCache::counters() const {
  Counters out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.invalidated = invalidated_.load(std::memory_order_relaxed);
  out.evicted = evicted_.load(std::memory_order_relaxed);
  out.entries = entries_.load(std::memory_order_relaxed);
  out.bytes = bytes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace topl
