#ifndef TOPL_GRAPH_TYPES_H_
#define TOPL_GRAPH_TYPES_H_

#include <cstdint>
#include <limits>

namespace topl {

/// Vertex identifier; vertices of a Graph are densely numbered [0, n).
using VertexId = std::uint32_t;

/// Undirected-edge identifier; edges are densely numbered [0, m).
using EdgeId = std::uint32_t;

/// Keyword identifier assigned by KeywordDictionary; dense in [0, |Σ|).
using KeywordId = std::uint32_t;

/// Largest valid keyword id: Graph::KeywordDomainBound() is one past the
/// largest stored id and must itself fit in a KeywordId.
inline constexpr KeywordId kMaxKeywordId =
    std::numeric_limits<KeywordId>::max() - 1;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();

/// Sentinel for "no edge".
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// Sentinel for "unreached" BFS distance.
inline constexpr std::uint32_t kUnreachedDistance =
    std::numeric_limits<std::uint32_t>::max();

}  // namespace topl

#endif  // TOPL_GRAPH_TYPES_H_
