#ifndef TOPL_GRAPH_GENERATORS_H_
#define TOPL_GRAPH_GENERATORS_H_

#include <cstdint>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace topl {

/// Distribution used to draw keyword ids from the domain Σ (paper §VIII-A:
/// Uniform, Gaussian, or Zipf — giving the Uni / Gau / Zipf datasets).
enum class KeywordDistribution {
  kUniform,
  kGaussian,  // mean |Σ|/2, stddev |Σ|/6, clamped to [0, |Σ|)
  kZipf,      // rank-frequency exponent `zipf_exponent`
};

/// How vertex keyword sets are populated.
struct KeywordModel {
  std::uint32_t keywords_per_vertex = 3;  // |v.W| (paper default 3)
  std::uint32_t domain_size = 50;         // |Σ| (paper default 50)
  KeywordDistribution distribution = KeywordDistribution::kUniform;
  double zipf_exponent = 1.5;
};

/// How directional activation probabilities are drawn. The paper draws each
/// edge weight uniformly from [0.5, 0.6).
struct WeightModel {
  double min_weight = 0.5;
  double max_weight = 0.6;
  // When false (default) the two directions of an edge are drawn
  // independently; when true p(u→v) = p(v→u).
  bool symmetric = false;
};

/// Newman–Watts–Strogatz small-world graph (paper §VIII-A): an n-ring where
/// each vertex links to its `ring_neighbors` nearest ring neighbors, plus a
/// random shortcut per existing edge with probability `shortcut_prob`.
struct SmallWorldOptions {
  std::size_t num_vertices = 10000;
  std::uint32_t ring_neighbors = 6;  // paper: m = 6 (3 on each side)
  double shortcut_prob = 0.167;      // paper: μ = 0.167
  KeywordModel keywords;
  WeightModel weights;
  std::uint64_t seed = 42;
};

/// Holme–Kim powerlaw-cluster graph: Barabási–Albert preferential attachment
/// where each attachment is followed, with probability `triangle_prob`, by a
/// triad-closure step. Used as the stand-in for the SNAP datasets (README,
/// "Design notes"): power-law degrees plus tunable clustering.
struct PowerlawClusterOptions {
  std::size_t num_vertices = 10000;
  std::uint32_t edges_per_vertex = 3;  // attachments per arriving vertex
  double triangle_prob = 0.5;
  KeywordModel keywords;
  WeightModel weights;
  std::uint64_t seed = 42;
};

/// Erdős–Rényi G(n, p) graph restricted to small n (test workloads). Not
/// guaranteed connected; add_spanning_ring stitches vertex i to i+1 so that
/// property tests get a connected graph without changing density much.
struct ErdosRenyiOptions {
  std::size_t num_vertices = 100;
  double edge_prob = 0.1;
  bool add_spanning_ring = true;
  KeywordModel keywords;
  WeightModel weights;
  std::uint64_t seed = 42;
};

/// Draws one keyword id from the model's distribution. Shared by the
/// generators and the SNAP loader (graph/edge_list_io.h).
KeywordId DrawKeywordFromModel(const KeywordModel& model, Rng& rng);

/// Generates the Uni / Gau / Zipf synthetic social networks of the paper.
Result<Graph> MakeSmallWorld(const SmallWorldOptions& options);

/// Generates a powerlaw-cluster graph (SNAP stand-in).
Result<Graph> MakePowerlawCluster(const PowerlawClusterOptions& options);

/// Generates an Erdős–Rényi graph (test workloads).
Result<Graph> MakeErdosRenyi(const ErdosRenyiOptions& options);

/// DBLP-like stand-in: powerlaw-cluster with the co-authorship network's
/// average degree (~6.6) and high triad closure (README, "Design notes").
Result<Graph> MakeDblpLike(std::size_t num_vertices, std::uint64_t seed);

/// Amazon-like stand-in: powerlaw-cluster with the co-purchase network's
/// average degree (~5.5) and moderate triad closure.
Result<Graph> MakeAmazonLike(std::size_t num_vertices, std::uint64_t seed);

}  // namespace topl

#endif  // TOPL_GRAPH_GENERATORS_H_
