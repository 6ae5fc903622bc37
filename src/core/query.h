#ifndef TOPL_CORE_QUERY_H_
#define TOPL_CORE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace topl {

/// \brief One TopL-ICDE query (Definition 4): keywords Q, truss support k,
/// radius r, influence threshold θ, and result size L.
struct Query {
  /// Query keyword ids, sorted ascending and deduplicated.
  std::vector<KeywordId> keywords;
  /// Truss support parameter k (seed communities are k-trusses). Paper
  /// default 4.
  std::uint32_t k = 4;
  /// Maximum radius r of seed communities. Paper default 2.
  std::uint32_t radius = 2;
  /// Influence threshold θ ∈ [0, 1). Paper default 0.2.
  double theta = 0.2;
  /// Result size L. Paper default 5.
  std::uint32_t top_l = 5;

  /// Validates ranges and keyword ordering.
  Status Validate() const {
    if (keywords.empty()) {
      return Status::InvalidArgument("query needs at least one keyword");
    }
    for (std::size_t i = 1; i < keywords.size(); ++i) {
      if (keywords[i] <= keywords[i - 1]) {
        return Status::InvalidArgument(
            "query keywords must be sorted and deduplicated");
      }
    }
    if (k < 2) return Status::InvalidArgument("truss support parameter k must be >= 2");
    if (radius < 1) return Status::InvalidArgument("radius must be >= 1");
    if (!(theta >= 0.0 && theta < 1.0)) {
      return Status::InvalidArgument("influence threshold must be in [0, 1)");
    }
    if (top_l < 1) return Status::InvalidArgument("L must be >= 1");
    return Status::OK();
  }
};

/// \brief Per-query execution switches. The defaults run the full paper
/// algorithm; the ablation study (Fig. 4) toggles the three pruning rules.
struct QueryOptions {
  bool use_keyword_pruning = true;  // Lemmas 1 / 5
  bool use_support_pruning = true;  // Lemmas 2 / 6
  bool use_score_pruning = true;    // Lemmas 4 / 7 + heap early termination
  /// Within support pruning, also apply the strengthened center-trussness
  /// bound (README, "Design notes"). Off = the paper's max-ball-support rule
  /// only; the ablation benchmark compares the two.
  bool use_center_truss_bound = true;
};

/// \brief Counters filled during query processing.
///
/// "Candidates" are counted in units of center vertices: pruning an index
/// node with c vertices underneath prunes c candidates, matching Fig. 4(a)'s
/// "# of pruned communities".
struct QueryStats {
  std::uint64_t heap_pops = 0;
  std::uint64_t index_nodes_visited = 0;

  /// Candidates removed by Lemma 1 / 5, sharpened to the query's keyword
  /// core: a leaf vertex outside the (k−1)-core of the keyword-holders'
  /// subgraph, or every vertex of a subtree holding no core vertex.
  std::uint64_t pruned_keyword = 0;
  std::uint64_t pruned_support = 0;   // candidates removed by Lemma 2 / 6
  std::uint64_t pruned_score = 0;     // candidates removed by Lemma 4 / 7
  std::uint64_t pruned_termination = 0;  // candidates skipped by early stop

  std::uint64_t candidates_refined = 0;   // extractions attempted
  /// Refined candidates whose center the extractor's prechecks (center
  /// degree, ego-network peel) rejected before building a ball.
  std::uint64_t precheck_rejected = 0;
  std::uint64_t communities_found = 0;    // non-empty seed communities
  /// Score-only influence propagations run (PropagationEngine::ComputeScores
  /// calls): exactly one per distinct seed set in a sequential query, so
  /// below communities_found when neighbouring centers share a seed
  /// community. (Parallel workers keep per-wave memos, so two workers may
  /// each score one seed set.) The ≤ L gInf builds for the output are not
  /// counted.
  std::uint64_t propagations = 0;

  /// Triangle-substrate counters (truss/local_truss.h): alive triangles
  /// enumerated while verifying candidates, and fixpoint kill rounds whose
  /// support updates were absorbed incrementally — each avoided round is one
  /// full from-scratch local support recompute the pre-substrate path paid.
  std::uint64_t triangles_inspected = 0;
  std::uint64_t support_recomputes_avoided = 0;

  /// Staged-pipeline counters: plan/score/merge waves executed, and scoring
  /// chunks that ran on a worker pool (0 for a fully sequential search).
  std::uint64_t waves = 0;
  std::uint64_t parallel_chunks = 0;

  double elapsed_seconds = 0.0;

  std::uint64_t TotalPruned() const {
    return pruned_keyword + pruned_support + pruned_score + pruned_termination;
  }

  /// Field-wise merge, so aggregation over many queries (Engine stats, the
  /// ablation benchmark) never falls out of sync with the counter set.
  QueryStats& operator+=(const QueryStats& other) {
    heap_pops += other.heap_pops;
    index_nodes_visited += other.index_nodes_visited;
    pruned_keyword += other.pruned_keyword;
    pruned_support += other.pruned_support;
    pruned_score += other.pruned_score;
    pruned_termination += other.pruned_termination;
    candidates_refined += other.candidates_refined;
    precheck_rejected += other.precheck_rejected;
    communities_found += other.communities_found;
    propagations += other.propagations;
    triangles_inspected += other.triangles_inspected;
    support_recomputes_avoided += other.support_recomputes_avoided;
    waves += other.waves;
    parallel_chunks += other.parallel_chunks;
    elapsed_seconds += other.elapsed_seconds;
    return *this;
  }

  std::string ToString() const {
    return "heap_pops=" + std::to_string(heap_pops) +
           " pruned_keyword=" + std::to_string(pruned_keyword) +
           " pruned_support=" + std::to_string(pruned_support) +
           " pruned_score=" + std::to_string(pruned_score) +
           " pruned_termination=" + std::to_string(pruned_termination) +
           " refined=" + std::to_string(candidates_refined) +
           " precheck_rejected=" + std::to_string(precheck_rejected) +
           " found=" + std::to_string(communities_found) +
           " propagations=" + std::to_string(propagations) +
           " triangles=" + std::to_string(triangles_inspected) +
           " recomputes_avoided=" + std::to_string(support_recomputes_avoided) +
           " waves=" + std::to_string(waves) +
           " parallel_chunks=" + std::to_string(parallel_chunks) +
           " elapsed=" + std::to_string(elapsed_seconds) + "s";
  }
};

}  // namespace topl

#endif  // TOPL_CORE_QUERY_H_
