#include "core/seed_community.h"

#include <algorithm>

#include "common/check.h"
#include "truss/support.h"

namespace topl {

namespace {

// A radius/connectivity round whose doomed-edge count reaches this fraction
// of the surviving edges is cheaper to absorb with one oriented from-scratch
// recompute than with per-edge triangle decrements: killing an edge costs
// O(deg a + deg b) while a full recompute costs O(Σ alive min-deg), so the
// crossover sits near a quarter of the alive set. Radius enforcement often
// severs whole fringes of a ball at once, which is exactly the regime where
// naive incremental deletion would be slower than the reference path.
constexpr std::size_t kBulkRecomputeDivisor = 4;

// Center-degree precheck: an edge (center, u) of a k-truss closes ≥ k−2
// triangles, each through another neighbour of the center, so a community
// needs ≥ k−1 keyword-carrying neighbours of the center (one for k = 2).
// Most candidates fail this, and failing it costs no ball. Only kIncremental
// runs it; the reference path keeps the full pipeline so brute force checks
// the shortcut.
template <typename Keep>
bool CenterDegreeAdmits(const Graph& g, VertexId center, std::uint32_t k,
                        Keep keep) {
  const std::uint32_t needed = std::max<std::uint32_t>(k, 2) - 1;
  std::uint32_t eligible = 0;
  for (const Graph::Arc& arc : g.Neighbors(center)) {
    if (keep(arc.to) && ++eligible >= needed) return true;
  }
  return false;
}

}  // namespace

SeedCommunityExtractor::SeedCommunityExtractor(const Graph& g)
    : graph_(&g), hop_(g) {}

bool SeedCommunityExtractor::CollectOutOfRadius(const LocalGraph& ball,
                                                std::uint32_t radius) {
  const std::size_t nv = ball.NumVertices();

  // BFS from the center over alive edges, recording in-subgraph distances.
  local_dist_.assign(nv, kUnreachedDistance);
  bfs_queue_.clear();
  local_dist_[0] = 0;  // local id 0 is the center
  bfs_queue_.push_back(0);
  std::size_t head = 0;
  while (head < bfs_queue_.size()) {
    const std::uint32_t u = bfs_queue_[head++];
    const std::uint32_t du = local_dist_[u];
    if (du == radius) continue;
    for (const LocalGraph::LocalArc& arc : ball.Neighbors(u)) {
      if (!edge_alive_[arc.local_edge]) continue;
      if (local_dist_[arc.to] != kUnreachedDistance) continue;
      local_dist_[arc.to] = du + 1;
      bfs_queue_.push_back(arc.to);
    }
  }

  // Kill vertices that are unreachable within r (this covers both
  // disconnection and radius violations); collect their incident alive
  // edges. Each doomed edge is collected exactly once: when both endpoints
  // die this round, the second one sees the other already marked dead.
  doomed_.clear();
  for (std::uint32_t l = 0; l < nv; ++l) {
    if (!vertex_alive_[l]) continue;
    if (local_dist_[l] != kUnreachedDistance) continue;
    vertex_alive_[l] = 0;
    for (const LocalGraph::LocalArc& arc : ball.Neighbors(l)) {
      if (edge_alive_[arc.local_edge] && vertex_alive_[arc.to]) {
        doomed_.push_back(arc.local_edge);
      }
    }
  }
  return !doomed_.empty();
}

bool SeedCommunityExtractor::Extract(VertexId center, const Query& query,
                                     Mode mode, SeedCommunity* out,
                                     const KeywordMatch* match) {
  out->center = center;
  out->vertices.clear();
  out->edges.clear();
  last_subgraph_edges_ = 0;
  last_triangles_inspected_ = 0;
  last_support_recomputes_avoided_ = 0;

  if (mode == Mode::kReference) match = nullptr;
  TOPL_DCHECK(match == nullptr || !query.keywords.empty(),
              "KeywordMatch needs query keywords");
  const bool filtered = !query.keywords.empty();  // as in HopExtractor
  if (mode == Mode::kIncremental &&
      !(match != nullptr
            ? CenterDegreeAdmits(*graph_, center, query.k,
                                 [&](VertexId v) { return match->Contains(v); })
            : CenterDegreeAdmits(*graph_, center, query.k, [&](VertexId v) {
                return !filtered ||
                       HopExtractor::HasAnyKeyword(*graph_, v, query.keywords);
              }))) {
    return false;
  }
  // Step 1: keyword-filtered r-hop BFS. Vertices beyond r hops in the
  // keyword-satisfying subgraph can only be further away in any community
  // (a subgraph), so dropping them is exact, not heuristic.
  const bool has_ball =
      match != nullptr
          ? hop_.ExtractMatching(center, query.radius, *match, &lg_)
          : hop_.Extract(center, query.radius, query.keywords, &lg_);
  if (!has_ball) return false;
  return Verify(lg_, query, mode, out);
}

bool SeedCommunityExtractor::Verify(const LocalGraph& ball, const Query& query,
                                    Mode mode, SeedCommunity* out) {
  out->center = ball.center;
  out->vertices.clear();
  out->edges.clear();
  last_triangles_inspected_ = 0;
  last_support_recomputes_avoided_ = 0;

  const std::size_t nv = ball.NumVertices();
  const std::size_t ne = ball.NumEdges();
  last_subgraph_edges_ = ne;
  if (ne == 0) return false;

  edge_alive_.assign(ne, 1);
  vertex_alive_.assign(nv, 1);

  // Step 2/3 loop: peel to k-truss, then enforce connectivity + in-subgraph
  // radius from the center; repeat until stable.
  if (mode == Mode::kIncremental) {
    substrate_.Bind(ball);
    substrate_.ResetTriangleCounter();
    // Everything is alive on entry, so the unfiltered enumeration applies;
    // the filtered one only runs after bulk kills below.
    substrate_.ComputeAllSupports(&support_);
    substrate_.SeedPeelQueue(query.k, edge_alive_, support_);
    std::size_t alive_edges = ne;
    alive_edges -= substrate_.Peel(query.k, &edge_alive_, &support_);
    if (alive_edges == ne) {
      // The whole ball is already a k-truss. Its BFS construction puts every
      // vertex within r of the center over surviving (= all) edges, so the
      // radius/connectivity fixpoint holds by construction — no BFS needed.
      local_dist_.assign(nv, 0);
    } else {
      for (;;) {
        if (!CollectOutOfRadius(ball, query.radius)) break;
        if (doomed_.size() * kBulkRecomputeDivisor >= alive_edges) {
          // Most of the subgraph died; one oriented recompute over the
          // survivors beats per-edge triangle decrements.
          for (const std::uint32_t e : doomed_) edge_alive_[e] = 0;
          substrate_.ComputeSupports(edge_alive_, &support_);
          substrate_.SeedPeelQueue(query.k, edge_alive_, support_);
        } else {
          // The common trickle: decrement exactly the triangles the doomed
          // edges close; new deficits re-enter the persistent peel queue, and
          // the reference path's from-scratch recompute is skipped entirely.
          substrate_.KillEdges(doomed_, query.k, &edge_alive_, &support_);
          ++last_support_recomputes_avoided_;
        }
        alive_edges -= doomed_.size();
        alive_edges -= substrate_.Peel(query.k, &edge_alive_, &support_);
      }
    }
    last_triangles_inspected_ = substrate_.triangles_inspected();
  } else {
    ComputeLocalEdgeSupports(ball, edge_alive_, &support_);
    for (;;) {
      PeelToKTruss(ball, query.k, &edge_alive_, &support_);
      if (!CollectOutOfRadius(ball, query.radius)) break;
      for (const std::uint32_t e : doomed_) edge_alive_[e] = 0;
      // Supports must be recomputed against the reduced edge set before the
      // next peel: decrements for bulk-killed edges were not propagated.
      ComputeLocalEdgeSupports(ball, edge_alive_, &support_);
    }
  }

  // Collect the surviving community. The center must have an alive edge:
  // a k-truss community is a set of edges, so an isolated center means "no
  // community for this center".
  bool center_has_edge = false;
  for (const LocalGraph::LocalArc& arc : ball.Neighbors(0)) {
    if (edge_alive_[arc.local_edge]) {
      center_has_edge = true;
      break;
    }
  }
  if (!center_has_edge) return false;

  for (std::uint32_t l = 0; l < nv; ++l) {
    if (!vertex_alive_[l] || local_dist_[l] == kUnreachedDistance) continue;
    // Drop vertices that lost all their edges to peeling: they are no longer
    // part of the k-truss edge structure.
    bool has_edge = false;
    for (const LocalGraph::LocalArc& arc : ball.Neighbors(l)) {
      if (edge_alive_[arc.local_edge]) {
        has_edge = true;
        break;
      }
    }
    if (has_edge) out->vertices.push_back(ball.global_ids[l]);
  }
  for (std::uint32_t e = 0; e < ne; ++e) {
    if (edge_alive_[e]) out->edges.push_back(ball.global_edge_ids[e]);
  }
  std::sort(out->vertices.begin(), out->vertices.end());
  TOPL_DCHECK(
      std::binary_search(out->vertices.begin(), out->vertices.end(), out->center),
      "extractor lost the center vertex");
  return true;
}

}  // namespace topl
