#include "graph/graph_delta.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "graph/graph_builder.h"

namespace topl {

namespace {

/// Canonical 64-bit key of an undirected vertex pair (order-insensitive).
std::uint64_t EdgeKey(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Key of a (vertex, keyword) pair. Order-preserving — unlike edges, (3, 9)
/// and (9, 3) are different facts, and folding them together would make
/// keyword ops on one vertex corrupt another's set.
std::uint64_t VertexKeywordKey(VertexId v, KeywordId w) {
  return (static_cast<std::uint64_t>(v) << 32) | w;
}

std::string PairString(VertexId u, VertexId v) {
  return "{" + std::to_string(u) + ", " + std::to_string(v) + "}";
}

}  // namespace

std::vector<VertexId> GraphDelta::TouchedVertices() const {
  std::vector<VertexId> out;
  out.reserve(2 * (edge_deletes.size() + edge_inserts.size()) +
              keyword_adds.size() + keyword_removes.size());
  for (const EdgeRef& e : edge_deletes) {
    out.push_back(e.u);
    out.push_back(e.v);
  }
  for (const EdgeInsert& e : edge_inserts) {
    out.push_back(e.u);
    out.push_back(e.v);
  }
  for (const KeywordChange& c : keyword_adds) out.push_back(c.v);
  for (const KeywordChange& c : keyword_removes) out.push_back(c.v);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void CollectEdgeProbabilities(const Graph& g, std::vector<float>* prob_uv,
                              std::vector<float>* prob_vu) {
  prob_uv->assign(g.NumEdges(), 0.0f);
  prob_vu->assign(g.NumEdges(), 0.0f);
  for (VertexId x = 0; x < g.NumVertices(); ++x) {
    for (const Graph::Arc& arc : g.Neighbors(x)) {
      // Arc x→arc.to carries p(x→arc.to); the canonical endpoints of the
      // shared undirected edge decide which directional slot that is.
      if (x < arc.to) {
        (*prob_uv)[arc.edge] = arc.prob;
      } else {
        (*prob_vu)[arc.edge] = arc.prob;
      }
    }
  }
}

GraphDelta MakeRandomDelta(const Graph& g, Rng& rng,
                           const RandomDeltaOptions& options) {
  GraphDelta delta;
  std::unordered_set<std::uint64_t> used_edges;
  std::unordered_set<std::uint64_t> used_keywords;
  const std::size_t n = g.NumVertices();
  if (n == 0) return delta;
  for (int op = 0; op < options.num_ops; ++op) {
    const std::uint64_t kind = rng.NextBounded(4);
    for (int attempt = 0; attempt < 64; ++attempt) {
      if (kind == 0 && g.NumEdges() > 0) {  // delete a random edge
        const EdgeId e = static_cast<EdgeId>(rng.NextBounded(g.NumEdges()));
        const VertexId u = g.EdgeSource(e);
        const VertexId v = g.EdgeTarget(e);
        if (!used_edges.insert(EdgeKey(u, v)).second) continue;
        delta.DeleteEdge(u, v);
      } else if (kind == 1) {  // insert a random non-edge
        const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (u == v || g.HasEdge(u, v)) continue;
        if (!used_edges.insert(EdgeKey(u, v)).second) continue;
        delta.InsertEdge(u, v, rng.NextDouble(options.min_prob, options.max_prob),
                         rng.NextDouble(options.min_prob, options.max_prob));
      } else if (kind == 2 && options.keyword_domain > 0) {  // add a keyword
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        const KeywordId w =
            static_cast<KeywordId>(rng.NextBounded(options.keyword_domain));
        if (g.HasKeyword(v, w)) continue;
        if (!used_keywords.insert(VertexKeywordKey(v, w)).second) continue;
        delta.AddKeyword(v, w);
      } else if (kind == 3) {  // remove a keyword the vertex has
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        const auto kws = g.Keywords(v);
        if (kws.empty()) continue;
        const KeywordId w = kws[rng.NextBounded(kws.size())];
        if (!used_keywords.insert(VertexKeywordKey(v, w)).second) continue;
        delta.RemoveKeyword(v, w);
      } else {
        continue;
      }
      break;
    }
  }
  return delta;
}

Result<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta) {
  const std::size_t n = base.NumVertices();

  // --- Validate edge operations against the base edge set. ---
  std::unordered_set<std::uint64_t> deleted;
  deleted.reserve(delta.edge_deletes.size() * 2);
  for (const GraphDelta::EdgeRef& e : delta.edge_deletes) {
    if (e.u >= n || e.v >= n) {
      return Status::InvalidArgument("delta deletes edge with endpoint out of range: " +
                                     PairString(e.u, e.v));
    }
    if (!base.HasEdge(e.u, e.v)) {
      return Status::InvalidArgument("delta deletes non-existent edge " +
                                     PairString(e.u, e.v));
    }
    if (!deleted.insert(EdgeKey(e.u, e.v)).second) {
      return Status::InvalidArgument("delta deletes edge " + PairString(e.u, e.v) +
                                     " twice");
    }
  }
  std::unordered_set<std::uint64_t> inserted;
  inserted.reserve(delta.edge_inserts.size() * 2);
  for (const GraphDelta::EdgeInsert& e : delta.edge_inserts) {
    if (e.u >= n || e.v >= n) {
      return Status::InvalidArgument("delta inserts edge with endpoint out of range: " +
                                     PairString(e.u, e.v));
    }
    if (e.u == e.v) {
      return Status::InvalidArgument("delta inserts self-loop at vertex " +
                                     std::to_string(e.u));
    }
    const std::uint64_t key = EdgeKey(e.u, e.v);
    if (base.HasEdge(e.u, e.v) && deleted.count(key) == 0) {
      return Status::InvalidArgument("delta inserts edge " + PairString(e.u, e.v) +
                                     " that already exists (delete it first to "
                                     "change its probabilities)");
    }
    if (!inserted.insert(key).second) {
      return Status::InvalidArgument("delta inserts edge " + PairString(e.u, e.v) +
                                     " twice");
    }
    if (!(e.prob_uv > 0.0f && e.prob_uv <= 1.0f) ||
        !(e.prob_vu > 0.0f && e.prob_vu <= 1.0f)) {
      return Status::InvalidArgument(
          "delta inserts edge " + PairString(e.u, e.v) +
          " with activation probability outside (0, 1]");
    }
  }

  // --- Validate keyword operations against the base keyword sets. ---
  std::unordered_set<std::uint64_t> kw_removed;
  kw_removed.reserve(delta.keyword_removes.size() * 2);
  for (const GraphDelta::KeywordChange& c : delta.keyword_removes) {
    if (c.v >= n) {
      return Status::InvalidArgument("delta removes keyword from out-of-range vertex " +
                                     std::to_string(c.v));
    }
    if (!base.HasKeyword(c.v, c.w)) {
      return Status::InvalidArgument(
          "delta removes keyword " + std::to_string(c.w) + " absent from vertex " +
          std::to_string(c.v));
    }
    if (!kw_removed.insert(VertexKeywordKey(c.v, c.w)).second) {
      return Status::InvalidArgument(
          "delta removes keyword " + std::to_string(c.w) + " from vertex " +
          std::to_string(c.v) + " twice");
    }
  }
  std::unordered_set<std::uint64_t> kw_added;
  kw_added.reserve(delta.keyword_adds.size() * 2);
  for (const GraphDelta::KeywordChange& c : delta.keyword_adds) {
    if (c.v >= n) {
      return Status::InvalidArgument("delta adds keyword to out-of-range vertex " +
                                     std::to_string(c.v));
    }
    if (c.w > kMaxKeywordId) {
      return Status::InvalidArgument("delta adds out-of-range keyword id " +
                                     std::to_string(c.w));
    }
    const std::uint64_t key = VertexKeywordKey(c.v, c.w);
    if (base.HasKeyword(c.v, c.w) && kw_removed.count(key) == 0) {
      return Status::InvalidArgument(
          "delta adds keyword " + std::to_string(c.w) + " already present on vertex " +
          std::to_string(c.v));
    }
    if (!kw_added.insert(key).second) {
      return Status::InvalidArgument(
          "delta adds keyword " + std::to_string(c.w) + " to vertex " +
          std::to_string(c.v) + " twice");
    }
  }

  // --- Materialize: surviving base edges, then inserts, then keywords. ---
  std::vector<float> prob_uv;
  std::vector<float> prob_vu;
  CollectEdgeProbabilities(base, &prob_uv, &prob_vu);

  GraphBuilder builder(n);
  for (EdgeId e = 0; e < base.NumEdges(); ++e) {
    const VertexId u = base.EdgeSource(e);
    const VertexId v = base.EdgeTarget(e);
    if (deleted.count(EdgeKey(u, v)) != 0) continue;
    builder.AddEdge(u, v, prob_uv[e], prob_vu[e]);
  }
  for (const GraphDelta::EdgeInsert& e : delta.edge_inserts) {
    builder.AddEdge(e.u, e.v, e.prob_uv, e.prob_vu);
  }
  for (VertexId v = 0; v < n; ++v) {
    for (KeywordId w : base.Keywords(v)) {
      if (kw_removed.count(VertexKeywordKey(v, w)) != 0) continue;
      builder.AddKeyword(v, w);
    }
  }
  for (const GraphDelta::KeywordChange& c : delta.keyword_adds) {
    builder.AddKeyword(c.v, c.w);
  }
  return std::move(builder).Build();
}

}  // namespace topl
