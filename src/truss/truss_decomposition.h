#ifndef TOPL_TRUSS_TRUSS_DECOMPOSITION_H_
#define TOPL_TRUSS_TRUSS_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "graph/graph.h"
#include "graph/local_subgraph.h"
#include "truss/local_truss.h"

namespace topl {

/// \brief Trussness τ(e) of every edge: the largest k such that e belongs to
/// the maximal k-truss of g. Every edge has τ(e) ≥ 2.
///
/// Classic peeling algorithm (Wang & Cheng): process edges in non-decreasing
/// support order with bucket bookkeeping; when an edge is peeled at support
/// s, its trussness is s+2 and the supports of the other two edges of each
/// of its triangles drop by one. O(Σ_e min(deg(u), deg(v))) after support
/// computation.
///
/// This is the offline half of the ATindex baseline (§VIII-A): the state of
/// the art (k,d)-truss search indexes trussness on edges/vertices and uses
/// it to filter candidate centers online.
std::vector<std::uint32_t> TrussDecomposition(const Graph& g,
                                              ThreadPool* pool = nullptr);

/// \brief Vertex trussness: max τ(e) over edges incident to v (0 for
/// isolated vertices). A vertex can belong to a k-truss community only if
/// its trussness is ≥ k.
std::vector<std::uint32_t> VertexTrussness(
    const Graph& g, const std::vector<std::uint32_t>& edge_trussness);

/// \brief Trussness of every edge of a LocalGraph (same peeling algorithm as
/// TrussDecomposition, over the materialized hop subgraph).
///
/// The offline phase (Algorithm 2) runs this per r_max-ball: the initial
/// supports are the paper's ub_sup(e) "w.r.t. hop(v_i, r_max)" (§V-A), and
/// the trussness of the ball's center bounds the largest k any seed
/// community centered there can reach (README, "Design notes").
///
/// If `initial_supports` is non-null it receives sup(e) within the ball
/// before peeling.
///
/// Convenience wrapper over LocalTrussDecomposer (fresh scratch per call);
/// repeated callers — the offline phase runs this once per vertex — should
/// hold a decomposer instead.
std::vector<std::uint32_t> LocalTrussDecomposition(
    const LocalGraph& lg, std::vector<std::uint32_t>* initial_supports = nullptr);

/// \brief Per-ball truss decomposition with reusable scratch.
///
/// Same peeling algorithm and byte-identical output as the free function,
/// but initial supports come from the triangle substrate's oriented
/// enumeration (O(Σ min-deg) instead of per-edge intersections) and every
/// working array — substrate, support buckets, liveness flags — persists
/// across Decompose calls, so a precompute worker sweeping thousands of
/// balls allocates nothing after warm-up. One instance per thread.
class LocalTrussDecomposer {
 public:
  /// Fills `*trussness` with τ(e) for every edge of `lg` (≥ 2 always). If
  /// `initial_supports` is non-null it receives sup(e) before peeling.
  void Decompose(const LocalGraph& lg, std::vector<std::uint32_t>* trussness,
                 std::vector<std::uint32_t>* initial_supports = nullptr);

  /// Alive triangles enumerated across all Decompose calls so far.
  std::uint64_t triangles_inspected() const {
    return substrate_.triangles_inspected();
  }

 private:
  TriangleSubstrate substrate_;
  // Bucket-queue peel state, reused across calls.
  std::vector<std::uint32_t> sup_;
  std::vector<std::uint32_t> bin_start_;
  std::vector<std::uint32_t> sorted_;
  std::vector<std::uint32_t> pos_of_;
  std::vector<std::uint32_t> cursor_;
  std::vector<char> alive_;
};

/// \brief Trussness of the ball's center (local vertex 0): the max trussness
/// over its incident edges, or 2 if it has none.
std::uint32_t LocalCenterTrussness(const LocalGraph& lg,
                                   const std::vector<std::uint32_t>& edge_trussness);

}  // namespace topl

#endif  // TOPL_TRUSS_TRUSS_DECOMPOSITION_H_
