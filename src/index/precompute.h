#ifndef TOPL_INDEX_PRECOMPUTE_H_
#define TOPL_INDEX_PRECOMPUTE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/local_subgraph.h"
#include "influence/propagation.h"
#include "truss/truss_decomposition.h"

namespace topl {

/// Controls the offline pre-computation phase (Algorithm 2).
struct PrecomputeOptions {
  /// Largest radius r_max pre-computed; online queries must use r ≤ r_max.
  /// Paper sweeps r ∈ {1, 2, 3}.
  std::uint32_t r_max = 3;
  /// Pre-selected influence thresholds θ_1 < θ_2 < ... < θ_m (§IV-D). The
  /// online bound for θ is σ_z with the largest θ_z ≤ θ.
  std::vector<double> thetas = {0.1, 0.2, 0.3};
  /// Worker threads for the per-vertex loop (0 = hardware concurrency).
  std::size_t num_threads = 0;
};

/// \brief Per-vertex pre-computed pruning data (the paper's v_i.R lists).
///
/// For every vertex v and radius r ∈ [1, r_max] this stores, over the r-hop
/// subgraph hop(v, r):
///  - ub_sup_r: the largest edge support among hop(v, r)'s edges, measured
///    within the r_max-ball hop(v, r_max) (Algorithm 2 lines 4–5: supports
///    are computed "w.r.t. hop(v_i, r_max)" — valid because every seed
///    community centered at v is a subgraph of that ball),
///  - σ_z(hop(v, r)) for each θ_z: the influential score of the whole r-hop
///    subgraph treated as a seed set — an upper bound on σ(g) for every seed
///    community g ⊆ hop(v, r) and every online θ ≥ θ_z (§IV-D).
///
/// Additionally, per vertex (radius-independent):
///  - center_truss: the trussness of v within hop(v, r_max) — the largest k
///    for which *any* k-truss containing v exists inside the ball. Any seed
///    community centered at v is such a truss, so `center_truss < k` prunes
///    v exactly like Lemma 2 but far more sharply (README, "Design notes",
///    documents this strengthening; the paper's max-support form is kept
///    alongside).
///
/// Layout is flat (vertex-major) for cache-friendly index construction and
/// trivial serialization. Like Graph, every flat array is accessed through a
/// std::span view whose backing is either owned heap memory (Build,
/// incremental maintenance) or a read-only mmap of a TOPLIDX2 artifact.
/// Copying materializes the views into fresh owned memory, so a copy of a
/// mapped instance is an ordinary heap-backed one.
class PrecomputedData {
 public:
  /// Runs Algorithm 2 over the graph. Vertices are processed independently
  /// in parallel: each worker owns a HopExtractor and a PropagationEngine.
  static Result<PrecomputedData> Build(const Graph& g,
                                       const PrecomputeOptions& options);

  PrecomputedData(const PrecomputedData& other) { CopyFrom(other); }
  PrecomputedData& operator=(const PrecomputedData& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  // Owned vectors keep their heap buffers across moves, so the spans stay
  // valid under the default member-wise move.
  PrecomputedData(PrecomputedData&&) = default;
  PrecomputedData& operator=(PrecomputedData&&) = default;

  std::uint32_t r_max() const { return r_max_; }
  std::span<const double> thetas() const { return thetas_; }
  std::uint32_t num_thetas() const { return static_cast<std::uint32_t>(thetas_.size()); }
  std::size_t num_vertices() const { return n_; }

  /// ub_sup_r(v): 0 when hop(v, r) has no edges.
  std::uint32_t SupportBound(VertexId v, std::uint32_t r) const {
    return support_bounds_[Index2(v, r)];
  }

  /// Largest k such that a k-truss containing v exists within hop(v, r_max);
  /// ≥ 2 always (every edge is a 2-truss).
  std::uint32_t CenterTrussBound(VertexId v) const { return center_truss_[v]; }

  /// σ_z(hop(v, r)) for threshold index z ∈ [0, num_thetas()).
  double ScoreBound(VertexId v, std::uint32_t r, std::uint32_t z) const {
    return score_bounds_[Index3(v, r, z)];
  }

  /// Largest z with θ_z ≤ theta, or -1 when theta < θ_1 (score pruning must
  /// then be disabled — no precomputed bound is valid).
  int ThresholdIndex(double theta) const;

  /// The tree-index sort key: the average of all stored bounds of v
  /// (ub_sup_r and σ_z over every r, z), per the paper's index construction.
  double SortKey(VertexId v) const;

  /// True when the data is a zero-copy view of a mapped artifact.
  bool IsMapped() const { return backing_ != nullptr; }

 private:
  friend class ArtifactWriter;   // TOPLIDX2 (storage/artifact.h)
  friend class ArtifactReader;
  friend class VertexPrecomputer;  // per-vertex rebuild (Build + incremental)
  friend class IndexUpdater;       // incremental maintenance (index_update.h)

  PrecomputedData() = default;

  /// Points the view spans at the owned vectors (build / update path).
  void BindOwned() {
    thetas_ = owned_thetas_;
    support_bounds_ = owned_support_bounds_;
    center_truss_ = owned_center_truss_;
    score_bounds_ = owned_score_bounds_;
  }

  /// Deep copy: materializes `other`'s views into this object's owned
  /// vectors (used by the copy operations above).
  void CopyFrom(const PrecomputedData& other) {
    r_max_ = other.r_max_;
    n_ = other.n_;
    owned_thetas_.assign(other.thetas_.begin(), other.thetas_.end());
    owned_support_bounds_.assign(other.support_bounds_.begin(),
                                 other.support_bounds_.end());
    owned_center_truss_.assign(other.center_truss_.begin(),
                               other.center_truss_.end());
    owned_score_bounds_.assign(other.score_bounds_.begin(),
                               other.score_bounds_.end());
    backing_.reset();
    BindOwned();
  }

  std::size_t Index2(VertexId v, std::uint32_t r) const {
    return static_cast<std::size_t>(v) * r_max_ + (r - 1);
  }
  std::size_t Index3(VertexId v, std::uint32_t r, std::uint32_t z) const {
    return (static_cast<std::size_t>(v) * r_max_ + (r - 1)) * thetas_.size() + z;
  }

  std::uint32_t r_max_ = 0;
  std::size_t n_ = 0;

  // Views over the active backing.
  std::span<const double> thetas_;
  std::span<const std::uint32_t> support_bounds_;  // n * r_max
  std::span<const std::uint32_t> center_truss_;    // n
  std::span<const double> score_bounds_;           // n * r_max * m

  // Owned backing; empty when the data is a view over `backing_`.
  std::vector<double> owned_thetas_;
  std::vector<std::uint32_t> owned_support_bounds_;
  std::vector<std::uint32_t> owned_center_truss_;
  std::vector<double> owned_score_bounds_;

  // Keeps the mmap alive for artifact-backed instances.
  std::shared_ptr<const MappedFile> backing_;
};

/// \brief The Algorithm-2 inner loop for one vertex, with reusable scratch.
///
/// Vertices are independent in the offline phase: each vertex's rows
/// (support bounds, center trussness, score bounds) derive from
/// its own r_max-ball plus one global propagation per radius. Build runs one
/// VertexPrecomputer per pool worker over all vertices; incremental
/// maintenance (IndexUpdater) runs the same code over the dirty set only, so
/// the two paths cannot drift apart.
///
/// Thread-compatibility: one instance per thread; Recompute only reads `g`
/// and writes the target vertex's own rows, so concurrent Recompute calls on
/// distinct vertices against one PrecomputedData are race-free.
class VertexPrecomputer {
 public:
  /// Scratch sized to `g`; `g` must outlive the precomputer and be the graph
  /// the rows are recomputed over.
  explicit VertexPrecomputer(const Graph& g);

  /// Recomputes every row of vertex v in `out` over the constructor's graph.
  /// `out` must be heap-backed (not a mapped artifact view) with fully
  /// allocated arrays, and its r_max/thetas shape is taken as-is.
  void Recompute(VertexId v, PrecomputedData* out);

 private:
  const Graph* graph_;
  HopExtractor hop_;
  PropagationEngine engine_;
  LocalGraph lg_;
  // Per-ball truss decomposition on the triangle substrate; its scratch (and
  // the vectors below) persist across the thousands of Recompute calls one
  // worker performs, so the per-vertex loop allocates nothing after warm-up.
  LocalTrussDecomposer decomposer_;
  std::vector<std::uint32_t> ball_trussness_;
  std::vector<std::size_t> members_at_radius_;
  std::vector<std::uint32_t> max_sup_by_radius_;
  std::vector<std::uint32_t> ball_support_;
};

}  // namespace topl

#endif  // TOPL_INDEX_PRECOMPUTE_H_
