#ifndef TOPL_STORAGE_ARTIFACT_H_
#define TOPL_STORAGE_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"
#include "index/precompute.h"
#include "index/tree_index.h"

namespace topl {

/// \brief The TOPLIDX2 index artifact: one self-contained, mmap-able file
/// holding the graph, the Algorithm-2 precomputed data and the §V-B tree
/// index together.
///
/// Layout (all integers little-endian, fixed width):
///
///   ArtifactHeader   (64 bytes)  magic "TOPLIDX2", version, section count,
///                                file size, XXH64 of the section table
///   SectionEntry[k]  (48 B each) name, byte offset, byte size, element
///                                size, encoding, XXH64 of the payload
///   payload sections              each starting on a 64-byte boundary,
///                                 zero-padded in between
///
/// One artifact version (3) is written and read. Its table always holds the
/// same 16 sections: every flat array of the three structures, plus
/// "g.extids", the locality permutation (graph/reorder.h; empty = identity).
/// Each section carries an encoding tag: 0 = raw, stored exactly as it lives
/// in memory, or 1 = the section's delta+varint codec (storage/varint.h).
/// Raw sections stay zero-copy views of the mapping, so opening an
/// all-raw artifact is a single mmap plus O(1) header/table validation,
/// linear-scan structural checks, and (by default) one checksum pass.
/// Encoded sections (CSR offsets, arcs, edge endpoints, keyword arrays,
/// support/truss bounds, tree nodes) are decoded into owned heap memory at
/// open; doubles and the permutation are always raw. A graph whose neighbor
/// ids cluster (after reordering) compresses its arc array to a fraction of
/// the raw 12 B/arc. Versions 1 and 2 also stored hashed keyword signatures,
/// which the query's keyword core replaced; opening one fails with a
/// Corruption status that names its version, and the index must be rebuilt.
/// `topl_cli index migrate` re-encodes an artifact (raw <-> compressed) into
/// a new file; TOPLIDX2 is the only index format.

/// Per-section payload encodings (the DiskSection `encoding` field).
enum class SectionEncoding : std::uint32_t {
  kRaw = 0,          // memory layout verbatim
  kDeltaVarint = 1,  // section-specific delta+varint codec (varint.h)
};

/// One row of the section table, decoded (see ArtifactReader::Inspect).
struct ArtifactSectionInfo {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;       // payload bytes as stored (post-encoding)
  std::uint32_t elem_size = 0;  // bytes per element (1 for encoded sections)
  std::uint32_t encoding = 0;   // SectionEncoding
  std::uint64_t checksum = 0;   // XXH64 of the stored payload
};

/// Decoded header + meta block of an artifact (see ArtifactReader::Inspect).
struct ArtifactInfo {
  std::uint32_t version = 0;
  std::uint64_t file_size = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t total_keywords = 0;
  std::uint32_t r_max = 0;
  std::uint32_t num_thetas = 0;
  std::uint32_t tree_height = 0;
  std::uint64_t tree_num_nodes = 0;
  bool has_external_ids = false;
  bool checksums_ok = false;
  std::vector<ArtifactSectionInfo> sections;
};

struct ArtifactWriteOptions {
  /// Store the delta+varint-friendly sections encoded. Decoding happens
  /// once at open; the structural validation and all query answers are
  /// identical to a raw artifact.
  bool compress = false;
  /// The locality permutation (new internal id → original external id) from
  /// graph/reorder.h. Must be empty (identity) or a permutation of [0, n).
  std::span<const VertexId> external_ids = {};
};

/// Writes a TOPLIDX2 artifact from an in-memory graph + offline phase.
class ArtifactWriter {
 public:
  /// `tree` must have been built over `pre`, and `pre` over `g`.
  static Status Write(const Graph& g, const PrecomputedData& pre,
                      const TreeIndex& tree, const std::string& path,
                      const ArtifactWriteOptions& options = {});
};

struct ArtifactReadOptions {
  /// Verify the XXH64 of every section payload on open. Costs one sequential
  /// scan of the file (memory-bandwidth speed); disable only for trusted
  /// local artifacts where open latency matters more than corruption
  /// detection. Header, section table and structural invariants are always
  /// validated regardless.
  bool verify_checksums = true;
};

/// The three structures served straight out of one mapping. Each keeps the
/// mapping alive independently, so the pieces may outlive the MappedIndex
/// itself — but `tree` holds a raw pointer to `*pre` (see
/// TreeIndex::precomputed()), so `pre` must outlive `tree`, exactly as with
/// an in-process-built index.
struct MappedIndex {
  Graph graph;
  std::unique_ptr<PrecomputedData> pre;
  TreeIndex tree;
  /// Internal → external vertex-id permutation from the "g.extids" section;
  /// empty when the artifact was built without reordering (identity map).
  std::vector<VertexId> external_ids;
  /// True when the artifact stored encoded sections;
  /// preserved so rewrites (`topl_cli update`) keep the representation.
  bool compressed = false;
  /// The mapping all raw-section views point into. Every section was
  /// bounds-checked against this mapping's size at open time;
  /// `backing->Revalidate()` detects out-of-band truncation after open (the
  /// SIGBUS hazard) as a clean Corruption status.
  std::shared_ptr<const class MappedFile> backing;
};

class ArtifactReader {
 public:
  /// True when the file starts with the TOPLIDX2 magic (cheap 8-byte sniff;
  /// false for unreadable files).
  static bool IsArtifact(const std::string& path);

  /// Maps and validates an artifact. All section geometry, the meta block's
  /// cross-structure size equations, and the structural invariants the
  /// detectors rely on (CSR monotonicity, arc targets / edge ids /
  /// probabilities in range, per-vertex neighbor and keyword sortedness,
  /// tree child/leaf ranges) are checked before any structure is returned, so
  /// a corrupt file yields Status::Corruption — never out-of-bounds serving
  /// or silently wrong binary-search answers, even with checksums disabled.
  static Result<MappedIndex> Open(const std::string& path,
                                  const ArtifactReadOptions& options = {});

  /// Decodes the header, section table and meta block without constructing
  /// the structures (used by `topl_cli index inspect`). Verifies checksums
  /// and reports the outcome in ArtifactInfo::checksums_ok.
  static Result<ArtifactInfo> Inspect(const std::string& path);
};

}  // namespace topl

#endif  // TOPL_STORAGE_ARTIFACT_H_
