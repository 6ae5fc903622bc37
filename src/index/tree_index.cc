#include "index/tree_index.h"

#include <algorithm>
#include <numeric>

namespace topl {

void TreeIndex::BuildLeafMap() {
  leaf_of_.assign(sorted_vertices_.size(), 0);
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.is_leaf == 0) continue;
    for (const VertexId v : LeafVertices(node)) leaf_of_[v] = id;
  }
}

void TreeIndex::MarkCoreSubtrees(const KeywordMatch& match,
                                 std::vector<std::uint8_t>* marks) const {
  marks->assign(nodes_.size(), 0);
  std::uint8_t* mark = marks->data();
  match.ForEachInCore([&](VertexId v) { mark[leaf_of_[v]] = 1; });
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.is_leaf != 0) continue;
    std::uint8_t any = 0;
    for (std::uint32_t c = 0; c < node.num_children; ++c) {
      any |= mark[node.first_child + c];
    }
    mark[id] = any;
  }
}

Result<TreeIndex> TreeIndex::Build(const Graph& g, const PrecomputedData& pre,
                                   const TreeIndexOptions& options) {
  if (options.fanout < 2) return Status::InvalidArgument("fanout must be >= 2");
  if (options.leaf_capacity < 1) {
    return Status::InvalidArgument("leaf_capacity must be >= 1");
  }
  if (pre.num_vertices() != g.NumVertices()) {
    return Status::InvalidArgument("precomputed data does not match graph size");
  }
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot index an empty graph");
  }

  TreeIndex index;
  index.pre_ = &pre;
  index.r_max_ = pre.r_max();
  index.num_thetas_ = pre.num_thetas();

  // Construction writes through the owned vectors; the view spans are bound
  // once the arena and aggregate arrays have reached their final size.
  auto& nodes = index.owned_nodes_;
  auto& sorted = index.owned_sorted_vertices_;
  auto& support_bounds = index.owned_support_bounds_;
  auto& center_truss_bounds = index.owned_center_truss_bounds_;
  auto& score_bounds = index.owned_score_bounds_;

  // Sort vertices by the average of their pre-computed bounds, descending,
  // so that the best-first traversal reaches strong candidates early and the
  // per-node score bounds are tight.
  const std::size_t n = g.NumVertices();
  sorted.resize(n);
  std::iota(sorted.begin(), sorted.end(), 0);
  std::vector<double> key(n);
  for (VertexId v = 0; v < n; ++v) key[v] = pre.SortKey(v);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&key](VertexId a, VertexId b) { return key[a] > key[b]; });

  // Leaf level.
  std::vector<std::uint32_t> level;  // node ids of the level under construction
  auto alloc_aggregates = [&](std::uint32_t node_id) {
    // Aggregate arrays grow in lock-step with the arena.
    const std::size_t want_nodes = node_id + 1;
    support_bounds.resize(want_nodes * index.r_max_, 0);
    center_truss_bounds.resize(want_nodes, 0);
    score_bounds.resize(want_nodes * index.r_max_ * index.num_thetas_, 0.0);
  };

  for (std::uint32_t begin = 0; begin < n; begin += options.leaf_capacity) {
    const std::uint32_t end =
        std::min<std::uint32_t>(static_cast<std::uint32_t>(n),
                                begin + options.leaf_capacity);
    const std::uint32_t id = static_cast<std::uint32_t>(nodes.size());
    Node leaf;
    leaf.is_leaf = 1;
    leaf.begin = begin;
    leaf.end = end;
    leaf.num_vertices = end - begin;
    nodes.push_back(leaf);
    alloc_aggregates(id);
    for (std::uint32_t i = begin; i < end; ++i) {
      center_truss_bounds[id] =
          std::max(center_truss_bounds[id],
                   pre.CenterTrussBound(sorted[i]));
    }
    for (std::uint32_t r = 1; r <= index.r_max_; ++r) {
      std::uint32_t& sup = support_bounds[index.Index2(id, r)];
      for (std::uint32_t i = begin; i < end; ++i) {
        const VertexId v = sorted[i];
        sup = std::max(sup, pre.SupportBound(v, r));
        for (std::uint32_t z = 0; z < index.num_thetas_; ++z) {
          double& score = score_bounds[index.Index3(id, r, z)];
          score = std::max(score, pre.ScoreBound(v, r, z));
        }
      }
    }
    level.push_back(id);
  }

  // Internal levels: group `fanout` children until one node remains.
  index.height_ = 1;
  while (level.size() > 1) {
    std::vector<std::uint32_t> parents;
    for (std::size_t i = 0; i < level.size(); i += options.fanout) {
      const std::size_t child_end = std::min(level.size(), i + options.fanout);
      const std::uint32_t id = static_cast<std::uint32_t>(nodes.size());
      Node parent;
      parent.is_leaf = 0;
      parent.first_child = level[i];
      parent.num_children = static_cast<std::uint32_t>(child_end - i);
      parent.num_vertices = 0;
      nodes.push_back(parent);
      alloc_aggregates(id);
      for (std::size_t c = i; c < child_end; ++c) {
        const std::uint32_t child = level[c];
        nodes[id].num_vertices += nodes[child].num_vertices;
        center_truss_bounds[id] = std::max(
            center_truss_bounds[id], center_truss_bounds[child]);
        for (std::uint32_t r = 1; r <= index.r_max_; ++r) {
          support_bounds[index.Index2(id, r)] =
              std::max(support_bounds[index.Index2(id, r)],
                       support_bounds[index.Index2(child, r)]);
          for (std::uint32_t z = 0; z < index.num_thetas_; ++z) {
            double& score = score_bounds[index.Index3(id, r, z)];
            score = std::max(score, score_bounds[index.Index3(child, r, z)]);
          }
        }
      }
      parents.push_back(id);
    }
    level.swap(parents);
    ++index.height_;
  }
  index.root_ = level.front();
  index.BindOwned();
  index.BuildLeafMap();
  return index;
}

}  // namespace topl
