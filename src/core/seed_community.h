#ifndef TOPL_CORE_SEED_COMMUNITY_H_
#define TOPL_CORE_SEED_COMMUNITY_H_

#include <cstdint>
#include <vector>

#include "core/query.h"
#include "graph/graph.h"
#include "graph/local_subgraph.h"
#include "graph/types.h"
#include "truss/local_truss.h"

namespace topl {

/// \brief A seed community g (Definition 2): the maximal connected k-truss
/// around `center` within radius r whose vertices all carry a query keyword.
struct SeedCommunity {
  VertexId center = kInvalidVertex;
  /// Member vertices, sorted ascending; includes `center`.
  std::vector<VertexId> vertices;
  /// Member edges as global EdgeIds (the k-truss structure), unordered.
  std::vector<EdgeId> edges;

  std::size_t size() const { return vertices.size(); }
  bool empty() const { return vertices.empty(); }
};

/// \brief Extracts the canonical seed community of a center vertex.
///
/// For a center v_q and query (Q, k, r) the satisfying subgraphs of
/// Definition 2 are closed under union (support grows and distances shrink
/// under union), so a unique *maximal* seed community exists. It is the
/// greatest fixpoint of alternating
///
///   1. keyword-filtered r-hop BFS from v_q (bullet 4 + a radius cap),
///   2. k-truss peeling (bullet 3),
///   3. re-check of BFS distance from v_q *inside the surviving subgraph*
///      and of connectivity to v_q (bullets 1–2),
///
/// where step 3 kills violating vertices and loops back to 2 until nothing
/// changes. Deleting a violator is safe because it violates Definition 2 in
/// every subgraph of the current candidate, so the fixpoint is exactly the
/// maximal community (README, "Design notes").
///
/// The default (kIncremental) execution runs on the triangle substrate
/// (truss/local_truss.h): edge supports are computed once by oriented
/// triangle enumeration, every radius/connectivity kill decrements only the
/// triangles it destroys, and the peel queue survives across fixpoint
/// rounds — O(triangles touched) instead of O(rounds × full enumeration),
/// with zero heap allocation after warm-up. kReference preserves the
/// from-scratch recompute-per-round path; both produce byte-identical
/// communities (enforced by tests/truss_substrate_test.cc and
/// bench_seed_extraction).
///
/// Holds per-instance scratch; create one per thread and reuse across
/// queries.
class SeedCommunityExtractor {
 public:
  /// Which verification pipeline Extract runs. Answers never differ; the
  /// reference path exists as the A/B anchor for the substrate.
  enum class Mode {
    kIncremental,  ///< triangle substrate, incremental support maintenance
    kReference,    ///< from-scratch support recompute after every kill round
  };

  explicit SeedCommunityExtractor(const Graph& g);

  /// Computes the seed community centered at `center` for `query`.
  /// Returns false (and clears *out) when no non-empty community exists —
  /// the center lacks query keywords, or peeling eliminates it. Communities
  /// contain at least one edge (an isolated center is not a community).
  bool Extract(VertexId center, const Query& query, SeedCommunity* out) {
    return Extract(center, query, Mode::kIncremental, out);
  }

  /// Extract with an explicit pipeline choice (benchmarks, equivalence
  /// sweeps, and brute force, which runs kReference).
  ///
  /// `match`, if given, must be filled from query.keywords (non-empty) at a
  /// k no larger than query.k. kIncremental then admits a vertex to the
  /// ball's BFS only when it lies in the match's keyword core C, one bit per
  /// vertex instead of a keyword-list merge. The BFS then walks only core
  /// vertices, and the answer is the same: every community lies in C, and
  /// the fixpoint over the smaller ball reaches the same maximal community
  /// (README, "Design notes"). The detector's hot path passes it. kReference
  /// ignores it and keeps the keyword-list test over the whole ball, so
  /// brute force checks the core too.
  bool Extract(VertexId center, const Query& query, Mode mode,
               SeedCommunity* out, const KeywordMatch* match = nullptr);

  /// Verification only: runs the k-truss + connectivity + radius fixpoint
  /// over a caller-materialized ball (hop(center, query.radius) extracted
  /// under the query's keyword filter, as HopExtractor produces). Extract is
  /// exactly materialize-then-Verify; the split lets callers that already
  /// hold the ball — bench_seed_extraction's A/B timing, future ball-sharing
  /// batch paths — pay for verification alone. `ball` is only read and must
  /// stay alive for the duration of the call.
  bool Verify(const LocalGraph& ball, const Query& query, Mode mode,
              SeedCommunity* out);

  /// Alive triangles the substrate enumerated during the last Extract call
  /// (0 on the reference path, which does not meter its intersections).
  std::uint64_t last_triangles_inspected() const {
    return last_triangles_inspected_;
  }

  /// Fixpoint rounds of the last Extract call whose bulk kills were absorbed
  /// by incremental support decrements — each one a full from-scratch
  /// ComputeLocalEdgeSupports pass the reference path would have run.
  std::uint64_t last_support_recomputes_avoided() const {
    return last_support_recomputes_avoided_;
  }

 private:
  /// Finds vertices unreachable within r in the peeled subgraph (BFS over
  /// alive edges from the center into local_dist_), kills them, and collects
  /// their still-alive incident edges into doomed_ — each dying edge exactly
  /// once. Returns true when any edge is doomed. The caller decides how the
  /// doomed edges leave `support_` (incremental decrements vs recompute).
  bool CollectOutOfRadius(const LocalGraph& ball, std::uint32_t radius);

  HopExtractor hop_;
  LocalGraph lg_;
  TriangleSubstrate substrate_;
  // Scratch reused across calls.
  std::vector<char> edge_alive_;
  std::vector<char> vertex_alive_;
  std::vector<std::uint32_t> support_;
  std::vector<std::uint32_t> local_dist_;
  std::vector<std::uint32_t> bfs_queue_;
  std::vector<std::uint32_t> doomed_;
  std::uint64_t last_triangles_inspected_ = 0;
  std::uint64_t last_support_recomputes_avoided_ = 0;
};

}  // namespace topl

#endif  // TOPL_CORE_SEED_COMMUNITY_H_
