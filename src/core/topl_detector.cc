#include "core/topl_detector.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "graph/local_subgraph.h"

namespace topl {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Merge stage: keeps the best L communities seen so far under the canonical
// total order (σ desc, center asc) and the running threshold σ_L (−∞ until L
// communities are collected). L is small (paper sweeps 2–10), so linear
// eviction is cheaper than heap bookkeeping.
//
// The total order (rather than score alone) is what makes merging
// commutative: the top-L of any refined candidate set is one specific set of
// communities, so sequential refinement, chunked parallel refinement, and
// any interleaving of the two converge to identical contents.
class TopLCollector {
 public:
  explicit TopLCollector(std::uint32_t capacity) : capacity_(capacity) {}

  bool Full() const { return entries_.size() >= capacity_; }

  double threshold() const { return Full() ? entries_[worst_].score() : kNegInf; }

  /// Offers a community that carries σ only (influence.score); its gInf is
  /// built by BuildInfluence if it is still held at output. Returns true when
  /// the offer changed the collector's contents.
  bool Offer(CommunityResult&& result) {
    if (!Full()) {
      entries_.push_back(std::move(result));
      if (Full()) RecomputeWorst();
      return true;
    }
    const CommunityResult& worst = entries_[worst_];
    if (!RanksAbove(result.score(), result.community.center, worst.score(),
                    worst.community.center)) {
      return false;
    }
    entries_[worst_] = std::move(result);
    RecomputeWorst();
    return true;
  }

  /// Builds gInf for every entry that has none yet (a built gInf holds at
  /// least the seeds). Runs before each snapshot and before Take, so each
  /// community that reaches an answer is built once and an evicted one never.
  void BuildInfluence(PropagationEngine& engine, double theta) {
    for (CommunityResult& entry : entries_) {
      if (!entry.influence.vertices.empty()) continue;
      [[maybe_unused]] const double score = entry.score();
      entry.influence = engine.Compute(entry.community.vertices, theta);
      TOPL_DCHECK(entry.score() == score,
                  "score-only σ differs from the influenced community's");
    }
  }

  /// Current contents, unordered (snapshot callers sort a copy).
  const std::vector<CommunityResult>& entries() const { return entries_; }

  std::vector<CommunityResult> Take() { return std::move(entries_); }

 private:
  void RecomputeWorst() {
    worst_ = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (BetterCommunity(entries_[worst_], entries_[i])) worst_ = i;
    }
  }

  std::uint32_t capacity_;
  std::vector<CommunityResult> entries_;
  std::size_t worst_ = 0;
};

// Plan stage: best-first cursor over the tree index. Gather() pops heap
// entries, applies the index-level pruning rules to children and the
// candidate-level rules to leaf vertices, and appends surviving centers to
// the wave. With no usable score bound (θ < θ_1) every key is +∞ and the
// traversal degrades to an exhaustive filtered scan, which is still correct.
//
// Keyword pruning reads the query's keyword core C (KeywordMatch), which
// holds every community's members: a child whose subtree holds no vertex of
// C is skipped, and so is a leaf vertex outside C. The core is filled once
// per query, at the first child that passes the precomputed support, truss
// and score tests (or at the first leaf popped), so a query those tests
// prune near the root never pays for it.
//
// Every threshold comparison is *strict* (< rather than ≤): a candidate
// whose upper bound ties the current σ_L could still displace the collector's
// worst entry through the center-id tie-break, so it must be refined. This
// keeps the answer canonical — identical for sequential, parallel, and
// brute-force evaluation — at the cost of refining the (measure-zero) exact
// ties that the ≤ rule would have skipped.
class PlanCursor {
 public:
  PlanCursor(const Graph& g, const PrecomputedData& pre, const TreeIndex& tree,
             const Query& query, const QueryOptions& options, int z,
             KeywordMatch* match, std::vector<std::uint8_t>* core_subtrees)
      : graph_(&g),
        pre_(&pre),
        tree_(&tree),
        query_(&query),
        options_(&options),
        z_(z),
        score_pruning_(options.use_score_pruning && z >= 0),
        required_support_(query.k >= 2 ? query.k - 2 : 0),
        match_(match),
        core_subtrees_(core_subtrees) {
    heap_.emplace(NodeKey(tree.root()), tree.root());
  }

  bool Done() const { return heap_.empty(); }

  /// Upper bound on the influential score of every candidate not yet
  /// gathered. +∞ when score bounds are unusable, −∞ once exhausted.
  double FrontierBound() const {
    return heap_.empty() ? kNegInf : heap_.top().first;
  }

  /// Appends surviving candidate centers to *out until at least
  /// `min_candidates` have been gathered this call (the final leaf may
  /// overshoot) or the traversal finishes. `threshold` is the collector's
  /// current σ_L (only meaningful when `threshold_valid`); popping an entry
  /// strictly below it terminates the whole search (Algorithm 3, lines 7–8:
  /// every remaining entry's key is ≤ the popped key).
  void Gather(bool threshold_valid, double threshold, std::size_t min_candidates,
              std::vector<VertexId>* out, QueryStats* stats) {
    const std::uint32_t r = query_->radius;
    std::size_t gathered = 0;
    while (!heap_.empty() && gathered < min_candidates) {
      const auto [key, node_id] = heap_.top();
      heap_.pop();
      ++stats->heap_pops;

      if (score_pruning_ && threshold_valid && key < threshold) {
        stats->pruned_termination += tree_->node(node_id).num_vertices;
        while (!heap_.empty()) {
          stats->pruned_termination += tree_->node(heap_.top().second).num_vertices;
          heap_.pop();
        }
        return;
      }

      const TreeIndex::Node& node = tree_->node(node_id);
      ++stats->index_nodes_visited;

      if (node.is_leaf) {
        FillCore();
        for (VertexId v : tree_->LeafVertices(node)) {
          // Candidate-level pruning (Lemmas 1, 2, 4) on hop(v, r).
          if (options_->use_keyword_pruning && !match_->Contains(v)) {
            // The center is outside the keyword core, and the center is in
            // every g (Lemma 1, sharpened to C).
            ++stats->pruned_keyword;
            continue;
          }
          if (options_->use_support_pruning &&
              (pre_->SupportBound(v, r) < required_support_ ||
               (options_->use_center_truss_bound &&
                pre_->CenterTrussBound(v) < query_->k))) {
            // Lemma 2 on the ball's max edge support, plus the sharper
            // center-trussness form (no k-truss through v exists in the ball).
            ++stats->pruned_support;
            continue;
          }
          if (score_pruning_ && threshold_valid &&
              pre_->ScoreBound(v, r, static_cast<std::uint32_t>(z_)) < threshold) {
            ++stats->pruned_score;
            continue;
          }
          out->push_back(v);
          ++gathered;
        }
      } else {
        for (std::uint32_t c = 0; c < node.num_children; ++c) {
          const std::uint32_t child = node.first_child + c;
          // Index-level pruning (Lemmas 6–7, then Lemma 5 sharpened to C).
          if (options_->use_support_pruning &&
              (tree_->SupportBound(child, r) < required_support_ ||
               (options_->use_center_truss_bound &&
                tree_->CenterTrussBound(child) < query_->k))) {
            stats->pruned_support += tree_->node(child).num_vertices;
            continue;
          }
          const double child_key = NodeKey(child);
          if (score_pruning_ && threshold_valid && child_key < threshold) {
            stats->pruned_score += tree_->node(child).num_vertices;
            continue;
          }
          if (options_->use_keyword_pruning && !SubtreeHoldsCore(child)) {
            // No vertex underneath can center (or join) a community.
            stats->pruned_keyword += tree_->node(child).num_vertices;
            continue;
          }
          heap_.emplace(child_key, child);
        }
      }
    }
  }

 private:
  // Fills the query's keyword core; every refined candidate comes from a
  // leaf, so extraction always sees it filled.
  void FillCore() {
    if (core_filled_) return;
    match_->Fill(*graph_, query_->keywords, query_->k);
    core_filled_ = true;
  }

  bool SubtreeHoldsCore(std::uint32_t node_id) {
    if (!subtrees_marked_) {
      FillCore();
      tree_->MarkCoreSubtrees(*match_, core_subtrees_);
      subtrees_marked_ = true;
    }
    return (*core_subtrees_)[node_id] != 0;
  }

  double NodeKey(std::uint32_t id) const {
    return z_ >= 0
               ? tree_->ScoreBound(id, query_->radius, static_cast<std::uint32_t>(z_))
               : std::numeric_limits<double>::infinity();
  }

  const Graph* graph_;
  const PrecomputedData* pre_;
  const TreeIndex* tree_;
  const Query* query_;
  const QueryOptions* options_;
  const int z_;
  const bool score_pruning_;
  const std::uint32_t required_support_;
  // The query's keyword core C, which every later keyword test of the query
  // reads (subtree marks, leaf filter, ball BFS), and the per-node
  // marks of the subtrees that hold a vertex of C. Both are filled lazily,
  // at most once per query.
  KeywordMatch* match_;
  std::vector<std::uint8_t>* core_subtrees_;
  bool core_filled_ = false;
  bool subtrees_marked_ = false;

  // Max-heap over index entries, keyed by the aggregated score bound.
  using HeapEntry = std::pair<double, std::uint32_t>;  // (key, node id)
  std::priority_queue<HeapEntry> heap_;
};

// Score-stage memo: σ(g) of every seed set already scored within one
// query. Neighbouring centers often peel down to the same k-truss, and θ is
// fixed within a query, so the sorted member list alone determines σ(g). Keys
// are compared in full (the hash only buckets them). Only scores are kept,
// never influenced communities, so the memo stays a few KB.
class ScoreMemo {
 public:
  std::optional<double> Find(const std::vector<VertexId>& seeds) const {
    const auto it = scores_.find(seeds);
    if (it == scores_.end()) return std::nullopt;
    return it->second;
  }

  void Insert(const std::vector<VertexId>& seeds, double score) {
    scores_.try_emplace(seeds, score);
  }

 private:
  struct SeedSetHash {
    std::size_t operator()(const std::vector<VertexId>& seeds) const {
      std::uint64_t h = seeds.size();
      for (const VertexId v : seeds) h = (h ^ v) * 0x9E3779B97F4A7C15ull;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  std::unordered_map<std::vector<VertexId>, double, SeedSetHash> scores_;
};

// Score stage: refines one chunk of candidate centers with the given
// share-nothing scratch. Results and counters land in chunk-local state, so
// concurrent chunks never touch shared memory.
struct ChunkOutput {
  std::vector<CommunityResult> found;  // σ only; gInf is built at output
  std::uint64_t refined = 0;
  std::uint64_t propagations = 0;
  std::uint64_t skipped = 0;  // deadline/cancel hit before these candidates
  std::uint64_t triangles_inspected = 0;
  std::uint64_t support_recomputes_avoided = 0;
};

// Each new seed set gets one score-only propagation (bit-equal to
// Compute(seeds, θ).score), and a repeat takes its σ from a memo.
// `query_memo` holds the seed sets scored by earlier waves and is only read
// here (workers share it); `worker_memo` is the calling worker's own record of
// the seed sets it scored in this wave (the inline path passes the query memo
// as both). The chunk accumulates in a local and writes its slot once:
// neighbouring slots share cache lines, and a candidate whose ball holds no
// community costs less than a line bouncing between cores.
void RefineChunk(std::span<const VertexId> candidates, const Query& query,
                 const KeywordMatch& match, RefineScratch& scratch,
                 const ScoreMemo& query_memo, ScoreMemo* worker_memo,
                 const CancelToken& cancel, const DeadlineClock& deadline,
                 ChunkOutput* slot) {
  if (cancel.cancelled() || deadline.Expired()) {
    slot->skipped += candidates.size();
    return;
  }
  ChunkOutput out;
  for (VertexId v : candidates) {
    ++out.refined;
    CommunityResult candidate;
    const bool found = scratch.extractor.Extract(
        v, query, SeedCommunityExtractor::Mode::kIncremental,
        &candidate.community, &match);
    out.triangles_inspected += scratch.extractor.last_triangles_inspected();
    out.support_recomputes_avoided +=
        scratch.extractor.last_support_recomputes_avoided();
    if (!found) continue;
    const std::vector<VertexId>& seeds = candidate.community.vertices;
    TOPL_DCHECK(std::all_of(seeds.begin(), seeds.end(),
                            [&](VertexId u) { return match.Contains(u); }),
                "a community member lies outside the query's keyword core");
    std::optional<double> known = query_memo.Find(seeds);
    if (!known) known = worker_memo->Find(seeds);
    if (known) {
      candidate.influence.score = *known;
    } else {
      scratch.engine.ComputeScores(seeds, {&query.theta, 1},
                                   {&candidate.influence.score, 1});
      ++out.propagations;
      worker_memo->Insert(seeds, candidate.score());
    }
    out.found.push_back(std::move(candidate));
  }
  *slot = std::move(out);
}

}  // namespace

TopLDetector::TopLDetector(const Graph& g, const PrecomputedData& pre,
                           const TreeIndex& tree,
                           std::shared_ptr<RefineScratchPool> scratch)
    : graph_(&g),
      pre_(&pre),
      tree_(&tree),
      scratch_(scratch != nullptr ? std::move(scratch)
                                  : std::make_shared<RefineScratchPool>(g)) {}

Result<TopLResult> TopLDetector::Search(const Query& query,
                                        const QueryOptions& options) {
  return Search(query, options, SearchControl{});
}

Result<TopLResult> TopLDetector::Search(const Query& query,
                                        const QueryOptions& options,
                                        const SearchControl& control) {
  TOPL_RETURN_IF_ERROR(query.Validate());
  if (query.radius > pre_->r_max()) {
    return Status::InvalidArgument(
        "query radius exceeds the index's r_max; rebuild the index with a "
        "larger PrecomputeOptions::r_max");
  }

  Timer timer;
  TopLResult result;
  QueryStats& stats = result.stats;
  // The calling thread's scratch: every inline refinement, every gInf build,
  // and the chunks it claims on the parallel path.
  const RefineScratchPool::Lease own(scratch_.get());

  // Score bounds are valid only for the largest pre-selected θ_z ≤ θ.
  const int z = pre_->ThresholdIndex(query.theta);

  TopLCollector collector(query.top_l);
  PlanCursor plan(*graph_, *pre_, *tree_, query, options, z, &keyword_match_,
                  &core_subtrees_);
  const DeadlineClock deadline(control.deadline_seconds);
  const bool checkpoints = control.NeedsCheckpoints();

  const bool parallel =
      control.pool != nullptr && control.pool->num_threads() > 1;
  const std::size_t chunk_size = std::max<std::size_t>(1, control.chunk_size);
  // Wave sizing. Sequential waves are a single candidate, reproducing the
  // classic loop's refine-then-reprune cadence (maximal pruning). Parallel
  // waves start just large enough to seed the σ_L threshold from the
  // highest-upper-bound candidates, then grow geometrically so the
  // per-wave fan-out/join cost amortizes while the stale-threshold window
  // (candidates a sequential run would have pruned) stays a bounded
  // fraction of total work — best-first order makes the first waves the
  // likely winners, so the threshold is near-final almost immediately.
  std::size_t max_wave =
      parallel ? std::max<std::size_t>(chunk_size * control.pool->num_threads() * 8,
                                       512)
               : 1;
  // Streaming callers trade a little join overhead for update granularity.
  if (parallel && control.on_progress) {
    max_wave = std::min<std::size_t>(max_wave, 128);
  }
  std::size_t wave_target =
      parallel ? std::max<std::size_t>(query.top_l, chunk_size) : 1;

  // σ of every seed set this query has scored; the merge extends it.
  ScoreMemo memo;

  // The wave being scored, and on the parallel path the next one, which the
  // calling thread plans while the pool scores the current wave. Each wave's
  // bound is the frontier just before it was gathered: it bounds every
  // candidate in that wave and everything gathered after it (child keys never
  // exceed their parent's), so it is the anytime gap once the wave is
  // unscored.
  std::vector<VertexId> wave;
  double wave_bound = kNegInf;
  std::vector<VertexId> next_wave;
  double next_bound = kNegInf;
  bool next_planned = false;
  // Bound on every candidate not yet scored.
  auto unscored_bound = [&] {
    return next_planned ? next_bound : plan.FrontierBound();
  };
  std::vector<CommunityResult> progressive_snapshot;
  bool stopped = false;

  while (!stopped && (next_planned || !plan.Done())) {
    // Checkpoint: deadline / cancellation, before scoring the next wave.
    if (checkpoints && (control.cancel.cancelled() || deadline.Expired())) {
      result.truncated = true;
      result.score_upper_bound = unscored_bound();
      break;
    }

    if (next_planned) {
      wave.swap(next_wave);
      wave_bound = next_bound;
      next_planned = false;
    } else {
      wave_bound = plan.FrontierBound();
      wave.clear();
      plan.Gather(collector.Full(), collector.threshold(), wave_target, &wave,
                  &stats);
    }
    if (wave.empty()) continue;  // everything pruned; heap may be done now
    ++stats.waves;
    if (parallel) wave_target = std::min(max_wave, wave_target * 4);

    bool merged_any = false;
    std::uint64_t skipped = 0;
    // Merge: fold one refined chunk's counters, remember its scores for
    // later waves, and offer its communities (σ only) to the collector.
    auto merge = [&](ChunkOutput& out) {
      stats.candidates_refined += out.refined;
      stats.communities_found += out.found.size();
      stats.propagations += out.propagations;
      stats.triangles_inspected += out.triangles_inspected;
      stats.support_recomputes_avoided += out.support_recomputes_avoided;
      skipped += out.skipped;
      for (CommunityResult& found : out.found) {
        memo.Insert(found.community.vertices, found.score());
        merged_any |= collector.Offer(std::move(found));
      }
    };
    const std::span<const VertexId> wave_span(wave);
    if (!parallel || wave.size() <= chunk_size) {
      // Score + merge inline on the calling thread, one candidate at a time
      // with the *live* threshold: merging each refined community before
      // looking at the next candidate lets σ_L improvements earned inside
      // this very wave (e.g. within one gathered leaf) prune its remaining
      // candidates — the classic loop's refine-then-reprune cadence.
      const bool live_pruning = options.use_score_pruning && z >= 0;
      for (std::size_t i = 0; i < wave.size() && skipped == 0; ++i) {
        if (live_pruning && collector.Full() &&
            pre_->ScoreBound(wave[i], query.radius, static_cast<std::uint32_t>(z)) <
                collector.threshold()) {
          ++stats.pruned_score;
          continue;
        }
        ChunkOutput out;
        RefineChunk(wave_span.subspan(i, 1), query, keyword_match_, *own, memo,
                    &memo, control.cancel, deadline, &out);
        merge(out);
      }
    } else {
      // Score: fan the wave out over the pool. Chunks are claimed from a
      // shared atomic cursor (fine-grained load balancing at one fetch_add
      // per chunk) by at most one task per pool worker plus the calling
      // thread, so task-spawn cost and scratch leasing are per worker per
      // wave, not per chunk — the chunks themselves are only microseconds of
      // work. A task leases scratch only once it has claimed a chunk, so one
      // that starts after the wave is drained takes none. Results land in
      // per-chunk slots and merge afterwards in wave order. TaskGroup's
      // help-first join keeps this legal even when the calling thread is
      // itself a pool worker. Workers only read the query's memo; the merge
      // extends it after the join.
      const std::size_t num_chunks = (wave.size() + chunk_size - 1) / chunk_size;
      std::vector<ChunkOutput> outputs(num_chunks);
      std::atomic<std::size_t> next_chunk{0};
      auto refine_chunks = [&](RefineScratch* scratch) {
        std::optional<RefineScratchPool::Lease> leased;
        ScoreMemo worker_memo;
        for (;;) {
          const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (c >= num_chunks) break;
          if (scratch == nullptr) scratch = &*leased.emplace(scratch_.get());
          const std::size_t begin = c * chunk_size;
          const std::size_t end = std::min(wave_span.size(), begin + chunk_size);
          RefineChunk(wave_span.subspan(begin, end - begin), query,
                      keyword_match_, *scratch, memo, &worker_memo,
                      control.cancel, deadline, &outputs[c]);
        }
      };
      // No more tasks than the process has CPUs: on an oversubscribed pool a
      // worker preempted mid-chunk stalls the whole wave's join.
      static const std::size_t kProcessCpus = ProcessCpuCount();
      const std::size_t num_workers =
          std::min({control.pool->num_threads(), num_chunks, kProcessCpus});
      ThreadPool::TaskGroup group(control.pool);
      for (std::size_t w = 0; w < num_workers; ++w) {
        group.Spawn([&] { refine_chunks(nullptr); });
      }
      // Plan the next wave meanwhile. Its threshold predates this wave's
      // merge, so it may keep candidates the merged threshold would prune:
      // more refinement at worst, never a different answer.
      if (!plan.Done()) {
        next_bound = plan.FrontierBound();
        next_wave.clear();
        plan.Gather(collector.Full(), collector.threshold(), wave_target,
                    &next_wave, &stats);
        next_planned = true;
      }
      refine_chunks(&*own);
      group.Wait();
      stats.parallel_chunks += num_chunks;
      for (ChunkOutput& out : outputs) merge(out);
    }

    if (skipped > 0) {
      // A chunk observed the deadline/cancel mid-wave and left candidates
      // unscored; those candidates are no longer on the heap, so the gap is
      // bounded by the wave's planning-time frontier, not the current one.
      result.truncated = true;
      result.score_upper_bound = wave_bound;
      stopped = true;
    }

    if (checkpoints && control.on_progress && merged_any && !stopped) {
      collector.BuildInfluence(own->engine, query.theta);
      progressive_snapshot.assign(collector.entries().begin(),
                                  collector.entries().end());
      SortCommunityResults(&progressive_snapshot);
      ProgressiveUpdate update;
      update.communities = progressive_snapshot;
      update.upper_bound = unscored_bound();
      update.wave = stats.waves;
      update.candidates_refined = stats.candidates_refined;
      if (!control.on_progress(update)) {
        // The caller is satisfied; the wave itself merged completely, so the
        // remaining frontier is the exact anytime gap (−∞ when exhausted).
        result.truncated = true;
        result.score_upper_bound = unscored_bound();
        stopped = true;
      }
    }
  }

  collector.BuildInfluence(own->engine, query.theta);
  result.communities = collector.Take();
  SortCommunityResults(&result.communities);
  stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace topl
