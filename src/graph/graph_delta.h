#ifndef TOPL_GRAPH_GRAPH_DELTA_H_
#define TOPL_GRAPH_GRAPH_DELTA_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace topl {

/// \brief A batch of mutations against an immutable Graph.
///
/// Graph instances stay immutable (they may be zero-copy views of a mmap'd
/// TOPLIDX2 artifact shared across processes); mutation is expressed as a
/// delta overlay that ApplyDelta materializes into a fresh owned-heap Graph.
/// The vertex set is fixed — a delta edits edges and keyword sets of the
/// existing [0, n) id space, which is what the serving tier needs for
/// follow/unfollow and profile edits. Growing n is a re-ingest, not a delta.
///
/// Semantics (validated by ApplyDelta, first violation wins):
///  - edge_deletes are applied before edge_inserts, so replacing an edge's
///    activation probabilities is expressed as delete + insert of {u, v}.
///  - deleting an edge absent from the base graph is InvalidArgument.
///  - inserting an edge present in the base graph (and not deleted by this
///    delta) or inserted twice by this delta is InvalidArgument.
///  - keyword_adds of an already-present (v, w) pair and keyword_removes of
///    an absent pair are InvalidArgument — a delta states facts about the
///    transition, not the end state, so a no-op entry signals a stale client.
///  - endpoint/probability/keyword-id validation matches GraphBuilder (no
///    self-loops, probabilities in (0, 1], keyword ids up to kMaxKeywordId).
struct GraphDelta {
  /// Undirected edge insertion with the two directional activation
  /// probabilities (prob_uv = p(u→v), prob_vu = p(v→u)).
  struct EdgeInsert {
    VertexId u;
    VertexId v;
    float prob_uv;
    float prob_vu;
  };

  /// Undirected edge reference (deletion target).
  struct EdgeRef {
    VertexId u;
    VertexId v;
  };

  /// One keyword added to / removed from v.W.
  struct KeywordChange {
    VertexId v;
    KeywordId w;
  };

  std::vector<EdgeRef> edge_deletes;
  std::vector<EdgeInsert> edge_inserts;
  std::vector<KeywordChange> keyword_adds;
  std::vector<KeywordChange> keyword_removes;

  bool empty() const {
    return edge_deletes.empty() && edge_inserts.empty() &&
           keyword_adds.empty() && keyword_removes.empty();
  }

  std::size_t NumOps() const {
    return edge_deletes.size() + edge_inserts.size() + keyword_adds.size() +
           keyword_removes.size();
  }

  /// Convenience mutators (probabilities validated at ApplyDelta time).
  void DeleteEdge(VertexId u, VertexId v) { edge_deletes.push_back({u, v}); }
  void InsertEdge(VertexId u, VertexId v, double prob_uv, double prob_vu) {
    edge_inserts.push_back({u, v, static_cast<float>(prob_uv),
                            static_cast<float>(prob_vu)});
  }
  void InsertEdge(VertexId u, VertexId v, double prob) {
    InsertEdge(u, v, prob, prob);
  }
  void AddKeyword(VertexId v, KeywordId w) { keyword_adds.push_back({v, w}); }
  void RemoveKeyword(VertexId v, KeywordId w) {
    keyword_removes.push_back({v, w});
  }

  /// Every vertex named by any operation (deduplicated, sorted). These are
  /// the epicenters from which incremental index maintenance grows its dirty
  /// region.
  std::vector<VertexId> TouchedVertices() const;
};

/// Materializes base + delta as a new owned-heap Graph. The base is only
/// read (never written, even when heap-backed), so a mmap'd base stays
/// byte-identical on disk and snapshots serving it stay valid. The result is
/// bit-for-bit identical to building the mutated edge/keyword lists from
/// scratch with GraphBuilder, which is what keeps incremental index
/// maintenance comparable against full rebuilds. O(n + m + |delta| log m).
Result<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta);

/// The directional activation probabilities of every undirected edge of g,
/// indexed by EdgeId: first = p(u→v), second = p(v→u) with u < v the
/// canonical endpoints. One O(n + m) arc scan; shared by ApplyDelta and the
/// reverse-influence pass of incremental maintenance.
void CollectEdgeProbabilities(const Graph& g, std::vector<float>* prob_uv,
                              std::vector<float>* prob_vu);

/// Shape of the synthetic update streams drawn by MakeRandomDelta.
struct RandomDeltaOptions {
  /// Operations per delta; each is a uniform pick among edge delete, edge
  /// insert, keyword add, keyword remove (skipped when no valid target is
  /// found, e.g. keyword removal on an attribute-less graph).
  int num_ops = 4;
  /// Keyword ids for adds are drawn from [0, keyword_domain).
  KeywordId keyword_domain = 50;
  /// Inserted-edge probabilities are drawn from [min_prob, max_prob) per
  /// direction (paper §VIII-A weight range).
  double min_prob = 0.5;
  double max_prob = 0.6;
};

/// Generates a random mixed delta, valid against `g` and internally
/// conflict-free (no operation targets the same edge or (vertex, keyword)
/// pair twice). Deterministic given the Rng state. This is the one update
/// distribution shared by the equivalence-sweep tests and bench_updates, so
/// the contract both enforce is measured over the same workload.
GraphDelta MakeRandomDelta(const Graph& g, Rng& rng,
                           const RandomDeltaOptions& options = {});

}  // namespace topl

#endif  // TOPL_GRAPH_GRAPH_DELTA_H_
