#include "index/index_update.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/check.h"

namespace topl {

namespace {

/// A reverse-influence source: endpoint `vertex` of a modified arc, seeded
/// with that arc's own probability `arc_prob` = p(vertex → other endpoint).
struct InfluenceSource {
  VertexId vertex;
  double arc_prob;
};

/// Marks every vertex s whose propagation can cross a modified arc with
/// total probability ≥ theta_min: upp(s, a) · p(a→b) ≥ theta_min for some
/// modified arc a→b (a = source.vertex). OR-s into `reached` (size n).
///
/// One multi-source max-product Dijkstra over reverse arcs: relaxing x → y
/// uses p(y→x), so the settled product at y is
/// max_src max-path-product(y → src) · p(src→other) — the largest total
/// probability any changed path starting at y can carry up to and across the
/// modified arc (the suffix beyond it only shrinks the product). Seeding
/// with the arc probability instead of 1.0 buys roughly one hop of
/// tightness. Mirrors PropagationEngine::Compute (including its θ cut) so
/// the two sides of the dirtiness argument use the same arithmetic.
void MarkReverseInfluence(const Graph& g,
                          const std::vector<InfluenceSource>& sources,
                          double theta_min, const std::vector<float>& prob_uv,
                          const std::vector<float>& prob_vu,
                          std::vector<char>* reached) {
  struct HeapEntry {
    double prob;
    VertexId vertex;
    bool operator<(const HeapEntry& other) const { return prob < other.prob; }
  };
  std::vector<double> best(g.NumVertices(), 0.0);
  std::vector<HeapEntry> heap;
  for (const InfluenceSource& s : sources) {
    if (s.arc_prob < theta_min || s.arc_prob == 0.0) continue;
    if (s.arc_prob <= best[s.vertex]) continue;  // weaker duplicate source
    best[s.vertex] = s.arc_prob;
    heap.push_back({s.arc_prob, s.vertex});
  }
  std::make_heap(heap.begin(), heap.end());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const HeapEntry top = heap.back();
    heap.pop_back();
    if (top.prob < best[top.vertex]) continue;  // stale
    (*reached)[top.vertex] = 1;
    best[top.vertex] = 2.0;  // settled
    for (const Graph::Arc& arc : g.Neighbors(top.vertex)) {
      // Traversing x → y backwards: the forward arc is y → x, whose
      // probability sits in the directional slot picked by the canonical
      // (u < v) endpoint order of the shared undirected edge.
      const double p_reverse = arc.to < top.vertex
                                   ? static_cast<double>(prob_uv[arc.edge])
                                   : static_cast<double>(prob_vu[arc.edge]);
      const double candidate = top.prob * p_reverse;
      if (candidate < theta_min || candidate == 0.0) continue;
      if (candidate > best[arc.to]) {
        best[arc.to] = candidate;
        heap.push_back({candidate, arc.to});
        std::push_heap(heap.begin(), heap.end());
      }
    }
  }
}

/// Marks every vertex within `depth` structural hops of a seed (seeds come
/// pre-marked in `seed_mask`), OR-ing into `dirty`.
void MarkWithinHops(const Graph& g, const std::vector<char>& seed_mask,
                    std::uint32_t depth, std::vector<char>* dirty) {
  std::vector<std::uint32_t> dist(g.NumVertices(), kUnreachedDistance);
  std::deque<VertexId> queue;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (seed_mask[v]) {
      dist[v] = 0;
      (*dirty)[v] = 1;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    if (dist[u] == depth) continue;
    for (const Graph::Arc& arc : g.Neighbors(u)) {
      if (dist[arc.to] != kUnreachedDistance) continue;
      dist[arc.to] = dist[u] + 1;
      (*dirty)[arc.to] = 1;
      queue.push_back(arc.to);
    }
  }
}

}  // namespace

void IndexUpdater::RecomputeNodeAggregates(TreeIndex* t, std::uint32_t id) {
  const TreeIndex::Node& node = t->owned_nodes_[id];
  const std::uint32_t r_max = t->r_max_;
  const std::uint32_t num_thetas = t->num_thetas_;
  const PrecomputedData& pre = *t->pre_;

  t->owned_center_truss_bounds_[id] = 0;
  for (std::uint32_t r = 1; r <= r_max; ++r) {
    t->owned_support_bounds_[t->Index2(id, r)] = 0;
    for (std::uint32_t z = 0; z < num_thetas; ++z) {
      t->owned_score_bounds_[t->Index3(id, r, z)] = 0.0;
    }
  }

  if (node.is_leaf != 0) {
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      const VertexId v = t->owned_sorted_vertices_[i];
      t->owned_center_truss_bounds_[id] =
          std::max(t->owned_center_truss_bounds_[id], pre.CenterTrussBound(v));
      for (std::uint32_t r = 1; r <= r_max; ++r) {
        std::uint32_t& sup = t->owned_support_bounds_[t->Index2(id, r)];
        sup = std::max(sup, pre.SupportBound(v, r));
        for (std::uint32_t z = 0; z < num_thetas; ++z) {
          double& score = t->owned_score_bounds_[t->Index3(id, r, z)];
          score = std::max(score, pre.ScoreBound(v, r, z));
        }
      }
    }
    return;
  }

  for (std::uint32_t c = 0; c < node.num_children; ++c) {
    const std::uint32_t child = node.first_child + c;
    TOPL_DCHECK(child < id, "tree arena is not bottom-up");
    t->owned_center_truss_bounds_[id] =
        std::max(t->owned_center_truss_bounds_[id],
                 t->owned_center_truss_bounds_[child]);
    for (std::uint32_t r = 1; r <= r_max; ++r) {
      std::uint32_t& sup = t->owned_support_bounds_[t->Index2(id, r)];
      sup = std::max(sup, t->owned_support_bounds_[t->Index2(child, r)]);
      for (std::uint32_t z = 0; z < num_thetas; ++z) {
        double& score = t->owned_score_bounds_[t->Index3(id, r, z)];
        score = std::max(score, t->owned_score_bounds_[t->Index3(child, r, z)]);
      }
    }
  }
}

std::string RebuildScope::ToString() const {
  return "touched=" + std::to_string(touched_vertices) +
         " influence_frontier=" + std::to_string(influence_frontier) +
         " dirty_centers=" + std::to_string(dirty_centers) + "/" +
         std::to_string(num_vertices) +
         " (avoided " + std::to_string(precompute_avoided() * 100.0) + "%)" +
         " tree_patched=" + std::to_string(tree_nodes_patched) + "/" +
         std::to_string(tree_nodes_total);
}

std::vector<VertexId> IndexUpdater::DirtyCenters(
    const Graph& base, const Graph& updated, const GraphDelta& delta,
    std::uint32_t r_max, double theta_min, std::size_t* influence_frontier) {
  const std::size_t n = base.NumVertices();
  TOPL_CHECK(updated.NumVertices() == n,
             "IndexUpdater: delta must preserve the vertex set");

  // Reverse-influence frontier: a destroyed optimal path lived in the old
  // graph and crossed a deleted arc; a created one lives in the new graph
  // and crosses an inserted arc. Each pass is seeded with the modified arcs
  // of its own graph, carrying their own probabilities.
  std::vector<char> seed_mask(n, 0);
  if (!delta.edge_deletes.empty()) {
    std::vector<float> prob_uv;
    std::vector<float> prob_vu;
    CollectEdgeProbabilities(base, &prob_uv, &prob_vu);
    std::vector<InfluenceSource> sources;
    for (const GraphDelta::EdgeRef& e : delta.edge_deletes) {
      const EdgeId id = base.FindEdge(e.u, e.v);
      TOPL_CHECK(id != kInvalidEdge, "validated delete vanished from base");
      // Canonical endpoints: prob_uv is p(min→max), prob_vu is p(max→min).
      const VertexId lo = std::min(e.u, e.v);
      const VertexId hi = std::max(e.u, e.v);
      sources.push_back({lo, static_cast<double>(prob_uv[id])});
      sources.push_back({hi, static_cast<double>(prob_vu[id])});
    }
    MarkReverseInfluence(base, sources, theta_min, prob_uv, prob_vu, &seed_mask);
  }
  if (!delta.edge_inserts.empty()) {
    std::vector<float> prob_uv;
    std::vector<float> prob_vu;
    CollectEdgeProbabilities(updated, &prob_uv, &prob_vu);
    std::vector<InfluenceSource> sources;
    for (const GraphDelta::EdgeInsert& e : delta.edge_inserts) {
      sources.push_back({e.u, static_cast<double>(e.prob_uv)});
      sources.push_back({e.v, static_cast<double>(e.prob_vu)});
    }
    MarkReverseInfluence(updated, sources, theta_min, prob_uv, prob_vu,
                         &seed_mask);
  }
  if (influence_frontier != nullptr) {
    *influence_frontier = static_cast<std::size_t>(
        std::count(seed_mask.begin(), seed_mask.end(), char{1}));
  }

  // Structural epicenters: supports, trussness, and ball membership change
  // only within r_max hops of a modified edge's endpoints (in either graph),
  // independent of propagation probabilities.
  for (const GraphDelta::EdgeRef& e : delta.edge_deletes) {
    seed_mask[e.u] = 1;
    seed_mask[e.v] = 1;
  }
  for (const GraphDelta::EdgeInsert& e : delta.edge_inserts) {
    seed_mask[e.u] = 1;
    seed_mask[e.v] = 1;
  }

  // Keyword epicenters join the structural expansion. No precomputed row
  // reads keywords, but a keyword change can move a center within r_max hops
  // into or out of a query's seed community, and QueryCache::OnUpdate
  // invalidates against exactly this set.
  for (const GraphDelta::KeywordChange& c : delta.keyword_adds) seed_mask[c.v] = 1;
  for (const GraphDelta::KeywordChange& c : delta.keyword_removes) {
    seed_mask[c.v] = 1;
  }

  // Every center whose r_max-ball can contain a seed — in the old or the new
  // structure — gets its rows recomputed.
  std::vector<char> dirty(n, 0);
  MarkWithinHops(base, seed_mask, r_max, &dirty);
  MarkWithinHops(updated, seed_mask, r_max, &dirty);

  std::vector<VertexId> out;
  for (VertexId v = 0; v < n; ++v) {
    if (dirty[v]) out.push_back(v);
  }
  return out;
}

Result<UpdatedIndex> IndexUpdater::Apply(const Graph& base,
                                         const PrecomputedData& pre,
                                         const TreeIndex& tree,
                                         const GraphDelta& delta,
                                         ThreadPool* pool) {
  if (pre.num_vertices() != base.NumVertices()) {
    return Status::InvalidArgument(
        "IndexUpdater::Apply: precomputed data was built over a different "
        "graph (vertex count mismatch)");
  }
  if (&tree.precomputed() != &pre) {
    return Status::InvalidArgument(
        "IndexUpdater::Apply: tree index references different precomputed "
        "data");
  }
  if (tree.NumNodes() == 0) {
    return Status::InvalidArgument("IndexUpdater::Apply: tree index is empty");
  }

  UpdatedIndex out;
  Result<Graph> updated = ApplyDelta(base, delta);
  if (!updated.ok()) return updated.status();
  out.graph = std::move(updated).value();

  out.scope.num_vertices = base.NumVertices();
  out.scope.touched_vertices = delta.TouchedVertices().size();
  out.scope.tree_nodes_total = tree.NumNodes();

  out.dirty_center_ids =
      DirtyCenters(base, out.graph, delta, pre.r_max(), pre.thetas().front(),
                   &out.scope.influence_frontier);
  const std::vector<VertexId>& dirty = out.dirty_center_ids;
  out.scope.dirty_centers = dirty.size();

  // Deep copy (materializes a mapped base into owned memory), then redo
  // exactly the dirty rows over the new graph.
  out.pre = std::make_unique<PrecomputedData>(pre);
  if (pool != nullptr && pool->num_threads() > 1 && dirty.size() > 1) {
    // Per-worker scratch is created lazily on first chunk: with small dirty
    // sets most workers never run, and eagerly paying O(n) scratch per pool
    // thread would dwarf the work avoided. Each slot is only touched by its
    // own worker id, so the lazy construction is race-free. Each worker's
    // precomputer carries its own triangle substrate (truss/local_truss.h),
    // so the per-ball truss work inside Recompute is allocation-free and
    // oriented-enumeration fast here exactly as in the full Build.
    std::vector<std::unique_ptr<VertexPrecomputer>> workers(pool->num_threads());
    pool->ParallelForWithWorker(
        0, dirty.size(),
        [&](std::size_t worker_id, std::size_t i) {
          std::unique_ptr<VertexPrecomputer>& worker = workers[worker_id];
          if (worker == nullptr) {
            worker = std::make_unique<VertexPrecomputer>(out.graph);
          }
          worker->Recompute(dirty[i], out.pre.get());
        },
        /*grain=*/8);
  } else {
    VertexPrecomputer precomputer(out.graph);
    for (VertexId v : dirty) precomputer.Recompute(v, out.pre.get());
  }

  // Materialize the tree into owned memory (vertex order and node structure
  // are kept, and with them the vertex→leaf map), re-point it at the new
  // precompute, and patch aggregates along every root-to-dirty-leaf path. The
  // arena is built bottom-up (children always precede parents), so one
  // ascending pass settles all dirty nodes.
  TreeIndex& t = out.tree;
  t.pre_ = out.pre.get();
  t.r_max_ = tree.r_max_;
  t.num_thetas_ = tree.num_thetas_;
  t.root_ = tree.root_;
  t.height_ = tree.height_;
  t.owned_nodes_.assign(tree.nodes_.begin(), tree.nodes_.end());
  t.owned_sorted_vertices_.assign(tree.sorted_vertices_.begin(),
                                  tree.sorted_vertices_.end());
  t.owned_support_bounds_.assign(tree.support_bounds_.begin(),
                                 tree.support_bounds_.end());
  t.owned_center_truss_bounds_.assign(tree.center_truss_bounds_.begin(),
                                      tree.center_truss_bounds_.end());
  t.owned_score_bounds_.assign(tree.score_bounds_.begin(),
                               tree.score_bounds_.end());
  t.leaf_of_ = tree.leaf_of_;

  std::vector<char> dirty_vertex(base.NumVertices(), 0);
  for (VertexId v : dirty) dirty_vertex[v] = 1;
  std::vector<char> dirty_node(t.owned_nodes_.size(), 0);
  for (std::uint32_t id = 0; id < t.owned_nodes_.size(); ++id) {
    const TreeIndex::Node& node = t.owned_nodes_[id];
    if (node.is_leaf != 0) {
      for (std::uint32_t i = node.begin; i < node.end && !dirty_node[id]; ++i) {
        if (dirty_vertex[t.owned_sorted_vertices_[i]]) dirty_node[id] = 1;
      }
    } else {
      for (std::uint32_t c = 0; c < node.num_children && !dirty_node[id]; ++c) {
        if (dirty_node[node.first_child + c]) dirty_node[id] = 1;
      }
    }
    if (dirty_node[id]) {
      RecomputeNodeAggregates(&t, id);
      ++out.scope.tree_nodes_patched;
    }
  }
  t.BindOwned();

  return out;
}

}  // namespace topl
