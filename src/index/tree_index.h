#ifndef TOPL_INDEX_TREE_INDEX_H_
#define TOPL_INDEX_TREE_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/local_subgraph.h"
#include "index/precompute.h"

namespace topl {

/// Shape parameters of the hierarchical index (§V-B).
struct TreeIndexOptions {
  /// Children per non-leaf node (γ in the paper's complexity analysis).
  std::uint32_t fanout = 8;
  /// Vertices per leaf node.
  std::uint32_t leaf_capacity = 16;
};

/// \brief The hierarchical tree index I over the pre-computed data (§V-B).
///
/// Vertices are sorted by the average of their pre-computed bounds (so
/// high-influence vertices cluster under the same subtrees) and packed into
/// leaves of `leaf_capacity`; non-leaf levels group `fanout` children until a
/// single root remains. Every node carries, per radius r:
///  - the max ub_sup_r underneath (index-level Lemma 6),
///  - the max σ_z underneath for every θ_z (index-level Lemma 7 and the
///    best-first traversal key of Algorithm 3).
///
/// Nodes live in one arena; children of a node are contiguous, so a node
/// stores only (first_child, num_children), and every child precedes its
/// parent. The leaves partition the vertex order, and a vertex→leaf map
/// (derived wherever the arena is bound, never stored) lets a query mark the
/// subtrees that hold its keyword core. The index references the
/// PrecomputedData it was built from but does not own it.
///
/// Like Graph and PrecomputedData, the node arena and every aggregate array
/// are std::span views whose backing is either owned heap memory (Build,
/// incremental maintenance) or a read-only mmap of a TOPLIDX2 artifact.
class TreeIndex {
 public:
  /// All-uint32 POD so the node arena is mapped verbatim off disk (a bool
  /// field would leave padding bytes and trap representations in the
  /// artifact).
  struct Node {
    std::uint32_t is_leaf = 0;       // 0 or 1
    std::uint32_t first_child = 0;   // arena index (non-leaf)
    std::uint32_t num_children = 0;  // non-leaf
    std::uint32_t begin = 0;         // range in sorted_vertices() (leaf)
    std::uint32_t end = 0;           // leaf
    std::uint32_t num_vertices = 0;  // total vertices underneath
  };

  /// Creates an empty index; assign from Build before use.
  TreeIndex() = default;

  TreeIndex(const TreeIndex&) = delete;
  TreeIndex& operator=(const TreeIndex&) = delete;
  // Owned vectors keep their heap buffers across moves, so the spans stay
  // valid under the default member-wise move.
  TreeIndex(TreeIndex&&) = default;
  TreeIndex& operator=(TreeIndex&&) = default;

  /// Builds the index. `pre` must outlive the returned TreeIndex.
  static Result<TreeIndex> Build(const Graph& g, const PrecomputedData& pre,
                                 const TreeIndexOptions& options = {});

  std::uint32_t root() const { return root_; }
  std::size_t NumNodes() const { return nodes_.size(); }
  const Node& node(std::uint32_t id) const { return nodes_[id]; }
  std::uint32_t height() const { return height_; }

  /// Vertices of a leaf node, in index order.
  std::span<const VertexId> LeafVertices(const Node& n) const {
    return sorted_vertices_.subspan(n.begin, n.end - n.begin);
  }

  std::span<const VertexId> sorted_vertices() const { return sorted_vertices_; }

  /// Sets (*marks)[id] to 1 iff node id's subtree holds a vertex of the
  /// filled match's core C, and to 0 otherwise, for every node: each vertex
  /// of C marks its leaf, then one ascending pass over the arena ORs every
  /// node's children into it, which works because children precede their
  /// parents. O(|C| + nodes).
  void MarkCoreSubtrees(const KeywordMatch& match,
                        std::vector<std::uint8_t>* marks) const;

  /// Aggregated max ub_sup_r of node.
  std::uint32_t SupportBound(std::uint32_t node_id, std::uint32_t r) const {
    return support_bounds_[Index2(node_id, r)];
  }

  /// Aggregated max center-trussness bound of node (radius-independent).
  std::uint32_t CenterTrussBound(std::uint32_t node_id) const {
    return center_truss_bounds_[node_id];
  }

  /// Aggregated max σ_z of node.
  double ScoreBound(std::uint32_t node_id, std::uint32_t r, std::uint32_t z) const {
    return score_bounds_[Index3(node_id, r, z)];
  }

  const PrecomputedData& precomputed() const { return *pre_; }

  /// True when the index is a zero-copy view of a mapped artifact.
  bool IsMapped() const { return backing_ != nullptr; }

 private:
  friend class ArtifactWriter;  // TOPLIDX2 (storage/artifact.h)
  friend class ArtifactReader;
  friend class IndexUpdater;    // incremental maintenance (index_update.h)

  /// Points the view spans at the owned vectors (build / update path).
  void BindOwned() {
    nodes_ = owned_nodes_;
    sorted_vertices_ = owned_sorted_vertices_;
    support_bounds_ = owned_support_bounds_;
    center_truss_bounds_ = owned_center_truss_bounds_;
    score_bounds_ = owned_score_bounds_;
  }

  /// Derives leaf_of_ from the bound arena and vertex order. Every path that
  /// binds them (Build, ArtifactReader::Open) calls it; IndexUpdater copies
  /// the map, since updates keep leaf membership.
  void BuildLeafMap();

  std::size_t Index2(std::uint32_t node_id, std::uint32_t r) const {
    return static_cast<std::size_t>(node_id) * r_max_ + (r - 1);
  }
  std::size_t Index3(std::uint32_t node_id, std::uint32_t r, std::uint32_t z) const {
    return (static_cast<std::size_t>(node_id) * r_max_ + (r - 1)) * num_thetas_ + z;
  }

  const PrecomputedData* pre_ = nullptr;
  std::uint32_t r_max_ = 0;
  std::uint32_t num_thetas_ = 0;
  std::uint32_t root_ = 0;
  std::uint32_t height_ = 0;

  // Views over the active backing.
  std::span<const Node> nodes_;
  std::span<const VertexId> sorted_vertices_;
  std::span<const std::uint32_t> support_bounds_;       // per node × r
  std::span<const std::uint32_t> center_truss_bounds_;  // per node
  std::span<const double> score_bounds_;                // per node × r × z

  // Owned backing; empty when the index is a view over `backing_`.
  std::vector<Node> owned_nodes_;
  std::vector<VertexId> owned_sorted_vertices_;
  std::vector<std::uint32_t> owned_support_bounds_;
  std::vector<std::uint32_t> owned_center_truss_bounds_;
  std::vector<double> owned_score_bounds_;

  // Vertex → leaf node id. Owned in both backings, so a moved index keeps it.
  std::vector<std::uint32_t> leaf_of_;

  // Keeps the mmap alive for artifact-backed instances.
  std::shared_ptr<const MappedFile> backing_;
};

// The node arena is stored verbatim in the TOPLIDX2 artifact.
static_assert(std::is_trivially_copyable_v<TreeIndex::Node> &&
                  sizeof(TreeIndex::Node) == 24,
              "TreeIndex::Node is part of the on-disk artifact format");

}  // namespace topl

#endif  // TOPL_INDEX_TREE_INDEX_H_
