#include "storage/artifact.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/fault_injection.h"
#include "storage/atomic_file.h"
#include "storage/checksum.h"
#include "storage/mapped_file.h"
#include "storage/varint.h"

namespace topl {

namespace {

constexpr char kMagic[8] = {'T', 'O', 'P', 'L', 'I', 'D', 'X', '2'};
constexpr std::uint32_t kVersionRaw = 1;         // 17 sections, all raw
constexpr std::uint32_t kVersionEncoded = 2;     // + g.extids, per-section codec
constexpr std::uint64_t kSectionAlignment = 64;

// ---------------------------------------------------------------------------
// On-disk structures. All little-endian, fixed width, no implicit padding.
// ---------------------------------------------------------------------------

struct DiskHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint64_t file_size;
  std::uint64_t table_checksum;  // XXH64 over the section table
  char reserved[32];
};
static_assert(sizeof(DiskHeader) == 64, "TOPLIDX2 header is 64 bytes");

struct DiskSection {
  char name[16];  // NUL-padded
  std::uint64_t offset;
  std::uint64_t size;       // stored payload bytes (post-encoding)
  std::uint32_t elem_size;  // bytes per element (1 for encoded sections)
  std::uint32_t encoding;   // SectionEncoding; always 0 in version-1 files
  std::uint64_t checksum;   // XXH64 over the stored payload
};
static_assert(sizeof(DiskSection) == 48, "TOPLIDX2 section entry is 48 bytes");

// Scalar state of all three structures, packed into the "meta" section.
struct MetaBlock {
  std::uint64_t num_vertices;
  std::uint64_t num_edges;
  std::uint64_t total_keywords;
  std::uint32_t keyword_domain_bound;
  std::uint32_t r_max;
  std::uint32_t signature_bits;
  std::uint32_t num_thetas;
  std::uint64_t words_per_signature;
  std::uint32_t tree_root;
  std::uint32_t tree_height;
  std::uint64_t tree_num_nodes;
};
static_assert(sizeof(MetaBlock) == 64, "TOPLIDX2 meta block is 64 bytes");

// Canonical section order; the reader requires exactly this table. Version-1
// files carry the first kNumSectionsV1 sections; version-2 files additionally
// carry g.extids.
enum SectionId : std::size_t {
  kMeta = 0,
  kGraphOffsets,
  kGraphArcs,
  kGraphEndpoints,
  kGraphKwOffsets,
  kGraphKeywords,
  kPreThetas,
  kPreSignatures,
  kPreSupports,
  kPreTruss,
  kPreScores,
  kTreeNodes,
  kTreeSorted,
  kTreeSignatures,
  kTreeSupports,
  kTreeTruss,
  kTreeScores,
  kNumSectionsV1,
  kGraphExtIds = kNumSectionsV1,
  kNumSectionsV2,
};

constexpr const char* kSectionNames[kNumSectionsV2] = {
    "meta",         "g.offsets",    "g.arcs",     "g.endpoints",
    "g.kw_offsets", "g.keywords",   "p.thetas",   "p.signatures",
    "p.supports",   "p.truss",      "p.scores",   "t.nodes",
    "t.sorted",     "t.signatures", "t.supports", "t.truss",
    "t.scores",     "g.extids"};

constexpr std::uint32_t kSectionElemSizes[kNumSectionsV2] = {
    sizeof(MetaBlock),
    sizeof(std::uint64_t),           // g.offsets
    sizeof(Graph::Arc),              // g.arcs
    sizeof(Graph::EdgeEndpoints),    // g.endpoints
    sizeof(std::uint64_t),           // g.kw_offsets
    sizeof(KeywordId),               // g.keywords
    sizeof(double),                  // p.thetas
    sizeof(std::uint64_t),           // p.signatures
    sizeof(std::uint32_t),           // p.supports
    sizeof(std::uint32_t),           // p.truss
    sizeof(double),                  // p.scores
    sizeof(TreeIndex::Node),         // t.nodes
    sizeof(VertexId),                // t.sorted
    sizeof(std::uint64_t),           // t.signatures
    sizeof(std::uint32_t),           // t.supports
    sizeof(std::uint32_t),           // t.truss
    sizeof(double),                  // t.scores
    sizeof(VertexId),                // g.extids
};

// Sections that have a delta+varint codec. Doubles, signatures and the
// permutation stay raw: score/theta payloads are incompressible entropy and
// the signature words are dense bitsets.
constexpr bool kSectionEncodable[kNumSectionsV2] = {
    false,  // meta
    true,   // g.offsets     (monotone u64 deltas)
    true,   // g.arcs        (SoA: to/edge zigzag deltas + raw probs)
    true,   // g.endpoints   (SoA: u zigzag deltas + uvarint v - u - 1)
    true,   // g.kw_offsets
    true,   // g.keywords    (sorted-per-vertex zigzag deltas)
    false,  // p.thetas
    false,  // p.signatures
    true,   // p.supports    (small values, plain varint)
    true,   // p.truss
    false,  // p.scores
    true,   // t.nodes       (SoA columns, see EncodeTreeNodes)
    true,   // t.sorted      (zigzag deltas)
    false,  // t.signatures
    true,   // t.supports
    true,   // t.truss
    false,  // t.scores
    false,  // g.extids
};

// ---------------------------------------------------------------------------
// Composite section codecs (the simple ones live in storage/varint.h).
// ---------------------------------------------------------------------------

// g.arcs: structure-of-arrays framing — uvarint count, zigzag deltas of the
// target ids, zigzag deltas of the edge ids, then the float probabilities
// verbatim. After locality reordering the target deltas hug zero, so the
// 12 B/arc raw layout shrinks to ~6 B/arc.
std::vector<std::uint8_t> EncodeArcs(std::span<const Graph::Arc> arcs) {
  std::vector<std::uint8_t> out;
  out.reserve(arcs.size() * 7 + 8);
  PutUvarint(out, arcs.size());
  std::int64_t prev = 0;
  for (const Graph::Arc& a : arcs) {
    PutUvarint(out, ZigZagEncode64(static_cast<std::int64_t>(a.to) - prev));
    prev = static_cast<std::int64_t>(a.to);
  }
  prev = 0;
  for (const Graph::Arc& a : arcs) {
    PutUvarint(out, ZigZagEncode64(static_cast<std::int64_t>(a.edge) - prev));
    prev = static_cast<std::int64_t>(a.edge);
  }
  for (const Graph::Arc& a : arcs) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&a.prob);
    out.insert(out.end(), p, p + sizeof(float));
  }
  return out;
}

bool DecodeArcs(std::span<const std::uint8_t> in,
                std::vector<Graph::Arc>* out) {
  std::size_t pos = 0;
  std::uint64_t count = 0;
  if (!GetUvarint(in, &pos, &count)) return false;
  if (count > in.size()) return false;  // ≥ 1 byte per element per stream
  out->assign(count, Graph::Arc{});
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    if (!GetUvarint(in, &pos, &delta)) return false;
    prev += ZigZagDecode64(delta);
    if (prev < 0 || prev > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    (*out)[i].to = static_cast<VertexId>(prev);
  }
  prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    if (!GetUvarint(in, &pos, &delta)) return false;
    prev += ZigZagDecode64(delta);
    if (prev < 0 || prev > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    (*out)[i].edge = static_cast<EdgeId>(prev);
  }
  if (in.size() - pos != count * sizeof(float)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::memcpy(&(*out)[i].prob, in.data() + pos + i * sizeof(float),
                sizeof(float));
  }
  return true;
}

// g.endpoints: u is near-sorted (edge ids are assigned in endpoint order), v
// is always > u — encode u as zigzag deltas and v as uvarint(v - u - 1).
std::vector<std::uint8_t> EncodeEndpoints(
    std::span<const Graph::EdgeEndpoints> endpoints) {
  std::vector<std::uint8_t> out;
  out.reserve(endpoints.size() * 4 + 8);
  PutUvarint(out, endpoints.size());
  std::int64_t prev = 0;
  for (const Graph::EdgeEndpoints& e : endpoints) {
    PutUvarint(out, ZigZagEncode64(static_cast<std::int64_t>(e.u) - prev));
    prev = static_cast<std::int64_t>(e.u);
  }
  for (const Graph::EdgeEndpoints& e : endpoints) {
    PutUvarint(out, static_cast<std::uint64_t>(e.v) - e.u - 1);
  }
  return out;
}

bool DecodeEndpoints(std::span<const std::uint8_t> in,
                     std::vector<Graph::EdgeEndpoints>* out) {
  std::size_t pos = 0;
  std::uint64_t count = 0;
  if (!GetUvarint(in, &pos, &count)) return false;
  if (count > in.size()) return false;
  out->assign(count, Graph::EdgeEndpoints{});
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    if (!GetUvarint(in, &pos, &delta)) return false;
    prev += ZigZagDecode64(delta);
    if (prev < 0 || prev > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    (*out)[i].u = static_cast<VertexId>(prev);
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t gap = 0;
    if (!GetUvarint(in, &pos, &gap)) return false;
    const std::uint64_t v = static_cast<std::uint64_t>((*out)[i].u) + 1 + gap;
    if (v > std::numeric_limits<std::uint32_t>::max()) return false;
    (*out)[i].v = static_cast<VertexId>(v);
  }
  return pos == in.size();
}

// t.nodes: one varint column per field. first_child / begin / end grow
// near-monotonically across the arena, so zigzag deltas stay short.
std::vector<std::uint8_t> EncodeTreeNodes(
    std::span<const TreeIndex::Node> nodes) {
  std::vector<std::uint8_t> out;
  out.reserve(nodes.size() * 8 + 8);
  PutUvarint(out, nodes.size());
  for (const TreeIndex::Node& n : nodes) PutUvarint(out, n.is_leaf);
  std::int64_t prev = 0;
  for (const TreeIndex::Node& n : nodes) {
    PutUvarint(out, ZigZagEncode64(static_cast<std::int64_t>(n.first_child) - prev));
    prev = static_cast<std::int64_t>(n.first_child);
  }
  for (const TreeIndex::Node& n : nodes) PutUvarint(out, n.num_children);
  prev = 0;
  for (const TreeIndex::Node& n : nodes) {
    PutUvarint(out, ZigZagEncode64(static_cast<std::int64_t>(n.begin) - prev));
    prev = static_cast<std::int64_t>(n.begin);
  }
  prev = 0;
  for (const TreeIndex::Node& n : nodes) {
    PutUvarint(out, ZigZagEncode64(static_cast<std::int64_t>(n.end) - prev));
    prev = static_cast<std::int64_t>(n.end);
  }
  for (const TreeIndex::Node& n : nodes) PutUvarint(out, n.num_vertices);
  return out;
}

bool DecodeTreeNodes(std::span<const std::uint8_t> in,
                     std::vector<TreeIndex::Node>* out) {
  std::size_t pos = 0;
  std::uint64_t count = 0;
  if (!GetUvarint(in, &pos, &count)) return false;
  if (count > in.size()) return false;
  out->assign(count, TreeIndex::Node{});
  const auto u32_column = [&](auto assign) -> bool {
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t v = 0;
      if (!GetUvarint(in, &pos, &v)) return false;
      if (v > std::numeric_limits<std::uint32_t>::max()) return false;
      assign((*out)[i], static_cast<std::uint32_t>(v));
    }
    return true;
  };
  const auto delta_column = [&](auto assign) -> bool {
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t delta = 0;
      if (!GetUvarint(in, &pos, &delta)) return false;
      prev += ZigZagDecode64(delta);
      if (prev < 0 || prev > std::numeric_limits<std::uint32_t>::max()) {
        return false;
      }
      assign((*out)[i], static_cast<std::uint32_t>(prev));
    }
    return true;
  };
  if (!u32_column([](TreeIndex::Node& n, std::uint32_t v) { n.is_leaf = v; }) ||
      !delta_column([](TreeIndex::Node& n, std::uint32_t v) { n.first_child = v; }) ||
      !u32_column([](TreeIndex::Node& n, std::uint32_t v) { n.num_children = v; }) ||
      !delta_column([](TreeIndex::Node& n, std::uint32_t v) { n.begin = v; }) ||
      !delta_column([](TreeIndex::Node& n, std::uint32_t v) { n.end = v; }) ||
      !u32_column([](TreeIndex::Node& n, std::uint32_t v) { n.num_vertices = v; })) {
    return false;
  }
  return pos == in.size();
}

std::uint64_t AlignUp(std::uint64_t value, std::uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

std::uint64_t ChecksumBytes(const void* data, std::uint64_t size) {
  // Guard the data pointer: empty spans may carry nullptr.
  static const char kEmpty = 0;
  return XXH64(size == 0 ? &kEmpty : data, size);
}

// ---------------------------------------------------------------------------
// Shared read-side parsing/validation.
// ---------------------------------------------------------------------------

struct ParsedArtifact {
  DiskHeader header;
  DiskSection table[kNumSectionsV2];  // trailing entries zeroed for version 1
  MetaBlock meta;
  bool checksums_ok = true;

  std::size_t num_sections() const { return header.section_count; }
  bool has(SectionId id) const { return id < num_sections(); }
  SectionEncoding encoding(SectionId id) const {
    return static_cast<SectionEncoding>(table[id].encoding);
  }
};

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::Corruption(path + ": " + what);
}

/// Validates header, table geometry and the meta block. When
/// `verify_checksums` is set, also hashes every section payload; a mismatch
/// is recorded in `checksums_ok` (Open turns it into a Status, Inspect
/// reports it).
Result<ParsedArtifact> ParseTable(const MappedFile& f, bool verify_checksums) {
  const std::string& path = f.path();
  if (f.size() < sizeof(DiskHeader)) {
    return Corrupt(path, "file too small for a TOPLIDX2 header");
  }
  ParsedArtifact parsed;
  std::memcpy(&parsed.header, f.data(), sizeof(DiskHeader));
  const DiskHeader& header = parsed.header;
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic (not a TOPLIDX2 artifact)");
  }
  if (header.version != kVersionRaw && header.version != kVersionEncoded) {
    return Corrupt(path, "unsupported artifact version " +
                             std::to_string(header.version));
  }
  const std::size_t num_sections =
      header.version == kVersionRaw ? kNumSectionsV1 : kNumSectionsV2;
  if (header.section_count != num_sections) {
    return Corrupt(path, "unexpected section count " +
                             std::to_string(header.section_count));
  }
  if (header.file_size != f.size()) {
    return Corrupt(path, "file size mismatch (header advertises " +
                             std::to_string(header.file_size) +
                             " bytes, file has " + std::to_string(f.size()) +
                             ")");
  }
  const std::uint64_t table_bytes = num_sections * sizeof(DiskSection);
  const std::uint64_t payload_start = sizeof(DiskHeader) + table_bytes;
  if (f.size() < payload_start) {
    return Corrupt(path, "file too small for the section table");
  }
  std::memcpy(parsed.table, f.data() + sizeof(DiskHeader), table_bytes);
  if (XXH64(parsed.table, table_bytes) != header.table_checksum) {
    return Corrupt(path, "section table checksum mismatch");
  }

  std::uint64_t prev_end = payload_start;
  for (std::size_t i = 0; i < num_sections; ++i) {
    const DiskSection& s = parsed.table[i];
    char expected[16] = {};
    std::strncpy(expected, kSectionNames[i], sizeof(expected) - 1);
    if (std::memcmp(s.name, expected, sizeof(expected)) != 0) {
      return Corrupt(path, "section " + std::to_string(i) + " is not \"" +
                               kSectionNames[i] + "\"");
    }
    const bool encoded =
        s.encoding == static_cast<std::uint32_t>(SectionEncoding::kDeltaVarint);
    if (s.encoding != 0 &&
        (header.version == kVersionRaw || !encoded || !kSectionEncodable[i])) {
      return Corrupt(path, std::string("section ") + kSectionNames[i] +
                               " has an unsupported encoding");
    }
    // Encoded payloads are byte streams (elem_size 1); raw payloads keep the
    // canonical element size so the whole-element check below stays exact.
    if (s.elem_size != (encoded ? 1 : kSectionElemSizes[i])) {
      return Corrupt(path, std::string("section ") + kSectionNames[i] +
                               " has wrong element size");
    }
    if (s.offset % kSectionAlignment != 0) {
      return Corrupt(path, std::string("section ") + kSectionNames[i] +
                               " is misaligned");
    }
    if (s.offset < prev_end || s.size > f.size() ||
        s.offset > f.size() - s.size) {
      return Corrupt(path, std::string("section ") + kSectionNames[i] +
                               " lies outside the file or overlaps");
    }
    if (s.size % s.elem_size != 0) {
      return Corrupt(path, std::string("section ") + kSectionNames[i] +
                               " has a partial trailing element");
    }
    prev_end = s.offset + s.size;
    if (verify_checksums &&
        ChecksumBytes(f.data() + s.offset, s.size) != s.checksum) {
      parsed.checksums_ok = false;
    }
  }

  const DiskSection& meta_section = parsed.table[kMeta];
  if (meta_section.size != sizeof(MetaBlock)) {
    return Corrupt(path, "meta section has wrong size");
  }
  std::memcpy(&parsed.meta, f.data() + meta_section.offset, sizeof(MetaBlock));
  return parsed;
}

template <typename T>
std::span<const T> SectionView(const MappedFile& f, const ParsedArtifact& parsed,
                               SectionId id) {
  return f.ViewAt<T>(parsed.table[id].offset,
                     parsed.table[id].size / parsed.table[id].elem_size);
}

/// All sections as typed views, plus owned storage for the ones that were
/// stored encoded. Raw sections stay zero-copy views of the mapping; encoded
/// sections are decoded here exactly once. The vectors are later moved into
/// the owned backing of Graph / PrecomputedData / TreeIndex, so the decoded
/// data is never copied twice.
struct LoadedSections {
  // Owned storage (empty for raw sections).
  std::vector<std::uint64_t> g_offsets_v, g_kw_offsets_v;
  std::vector<Graph::Arc> g_arcs_v;
  std::vector<Graph::EdgeEndpoints> g_endpoints_v;
  std::vector<KeywordId> g_keywords_v;
  std::vector<std::uint32_t> p_supports_v, p_truss_v, t_supports_v, t_truss_v;
  std::vector<TreeIndex::Node> t_nodes_v;
  std::vector<VertexId> t_sorted_v;

  // Views over the mapping or the vectors above.
  std::span<const std::uint64_t> offsets, kw_offsets;
  std::span<const Graph::Arc> arcs;
  std::span<const Graph::EdgeEndpoints> endpoints;
  std::span<const KeywordId> keywords;
  std::span<const double> thetas, p_scores, t_scores;
  std::span<const std::uint64_t> p_signatures, t_signatures;
  std::span<const std::uint32_t> p_supports, p_truss, t_supports, t_truss;
  std::span<const TreeIndex::Node> nodes;
  std::span<const VertexId> sorted, extids;
};

Result<LoadedSections> LoadSections(const MappedFile& f,
                                    const ParsedArtifact& parsed) {
  LoadedSections s;
  const auto encoded = [&](SectionId id) {
    return parsed.encoding(id) == SectionEncoding::kDeltaVarint;
  };
  const auto stored = [&](SectionId id) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(f.data()) +
            parsed.table[id].offset,
        parsed.table[id].size);
  };
  const auto bad = [&](SectionId id) {
    return Corrupt(f.path(), std::string("section ") + kSectionNames[id] +
                                 " failed to decode");
  };

  // Graph.
  if (encoded(kGraphOffsets)) {
    if (!DecodeDeltaU64(stored(kGraphOffsets), &s.g_offsets_v)) {
      return bad(kGraphOffsets);
    }
    s.offsets = s.g_offsets_v;
  } else {
    s.offsets = SectionView<std::uint64_t>(f, parsed, kGraphOffsets);
  }
  if (encoded(kGraphArcs)) {
    if (!DecodeArcs(stored(kGraphArcs), &s.g_arcs_v)) return bad(kGraphArcs);
    s.arcs = s.g_arcs_v;
  } else {
    s.arcs = SectionView<Graph::Arc>(f, parsed, kGraphArcs);
  }
  if (encoded(kGraphEndpoints)) {
    if (!DecodeEndpoints(stored(kGraphEndpoints), &s.g_endpoints_v)) {
      return bad(kGraphEndpoints);
    }
    s.endpoints = s.g_endpoints_v;
  } else {
    s.endpoints = SectionView<Graph::EdgeEndpoints>(f, parsed, kGraphEndpoints);
  }
  if (encoded(kGraphKwOffsets)) {
    if (!DecodeDeltaU64(stored(kGraphKwOffsets), &s.g_kw_offsets_v)) {
      return bad(kGraphKwOffsets);
    }
    s.kw_offsets = s.g_kw_offsets_v;
  } else {
    s.kw_offsets = SectionView<std::uint64_t>(f, parsed, kGraphKwOffsets);
  }
  if (encoded(kGraphKeywords)) {
    if (!DecodeDeltaU32(stored(kGraphKeywords), &s.g_keywords_v)) {
      return bad(kGraphKeywords);
    }
    s.keywords = s.g_keywords_v;
  } else {
    s.keywords = SectionView<KeywordId>(f, parsed, kGraphKeywords);
  }

  // Precompute. Doubles and signatures are always raw.
  s.thetas = SectionView<double>(f, parsed, kPreThetas);
  s.p_signatures = SectionView<std::uint64_t>(f, parsed, kPreSignatures);
  s.p_scores = SectionView<double>(f, parsed, kPreScores);
  if (encoded(kPreSupports)) {
    if (!DecodeVarintU32(stored(kPreSupports), &s.p_supports_v)) {
      return bad(kPreSupports);
    }
    s.p_supports = s.p_supports_v;
  } else {
    s.p_supports = SectionView<std::uint32_t>(f, parsed, kPreSupports);
  }
  if (encoded(kPreTruss)) {
    if (!DecodeVarintU32(stored(kPreTruss), &s.p_truss_v)) {
      return bad(kPreTruss);
    }
    s.p_truss = s.p_truss_v;
  } else {
    s.p_truss = SectionView<std::uint32_t>(f, parsed, kPreTruss);
  }

  // Tree.
  if (encoded(kTreeNodes)) {
    if (!DecodeTreeNodes(stored(kTreeNodes), &s.t_nodes_v)) {
      return bad(kTreeNodes);
    }
    s.nodes = s.t_nodes_v;
  } else {
    s.nodes = SectionView<TreeIndex::Node>(f, parsed, kTreeNodes);
  }
  if (encoded(kTreeSorted)) {
    if (!DecodeDeltaU32(stored(kTreeSorted), &s.t_sorted_v)) {
      return bad(kTreeSorted);
    }
    s.sorted = s.t_sorted_v;
  } else {
    s.sorted = SectionView<VertexId>(f, parsed, kTreeSorted);
  }
  s.t_signatures = SectionView<std::uint64_t>(f, parsed, kTreeSignatures);
  s.t_scores = SectionView<double>(f, parsed, kTreeScores);
  if (encoded(kTreeSupports)) {
    if (!DecodeVarintU32(stored(kTreeSupports), &s.t_supports_v)) {
      return bad(kTreeSupports);
    }
    s.t_supports = s.t_supports_v;
  } else {
    s.t_supports = SectionView<std::uint32_t>(f, parsed, kTreeSupports);
  }
  if (encoded(kTreeTruss)) {
    if (!DecodeVarintU32(stored(kTreeTruss), &s.t_truss_v)) {
      return bad(kTreeTruss);
    }
    s.t_truss = s.t_truss_v;
  } else {
    s.t_truss = SectionView<std::uint32_t>(f, parsed, kTreeTruss);
  }

  // External ids (version 2, always raw).
  if (parsed.has(kGraphExtIds)) {
    s.extids = SectionView<VertexId>(f, parsed, kGraphExtIds);
  }
  return s;
}

/// Everything beyond table geometry: the meta block's cross-structure size
/// equations and the structural invariants the detectors index by. Operates
/// on the loaded views, so encoded and raw sections pass through identical
/// checks. Linear in the data but allocation- and copy-free.
Status ValidateStructure(const std::string& path, const ParsedArtifact& parsed,
                         const LoadedSections& s) {
  const MetaBlock& meta = parsed.meta;
  const std::uint64_t n = meta.num_vertices;
  const std::uint64_t m = meta.num_edges;
  const std::uint64_t r_max = meta.r_max;
  const std::uint64_t words = meta.words_per_signature;
  const std::uint64_t z = meta.num_thetas;
  const std::uint64_t nodes = meta.tree_num_nodes;

  if (n == 0 || n > (1ULL << 32) || m > (1ULL << 32)) {
    return Corrupt(path, "implausible graph size in meta block");
  }
  if (r_max == 0 || z == 0 || words == 0 ||
      words != (meta.signature_bits + 63) / 64) {
    return Corrupt(path, "inconsistent precompute parameters in meta block");
  }
  if (nodes == 0 || meta.tree_root >= nodes) {
    return Corrupt(path, "inconsistent tree shape in meta block");
  }

  const bool sizes_ok =
      s.offsets.size() == n + 1 &&
      s.arcs.size() == 2 * m &&
      s.endpoints.size() == m &&
      s.kw_offsets.size() == n + 1 &&
      s.keywords.size() == meta.total_keywords &&
      s.thetas.size() == z &&
      s.p_signatures.size() == n * r_max * words &&
      s.p_supports.size() == n * r_max &&
      s.p_truss.size() == n &&
      s.p_scores.size() == n * r_max * z &&
      s.nodes.size() == nodes &&
      s.sorted.size() == n &&
      s.t_signatures.size() == nodes * r_max * words &&
      s.t_supports.size() == nodes * r_max &&
      s.t_truss.size() == nodes &&
      s.t_scores.size() == nodes * r_max * z;
  if (!sizes_ok) {
    return Corrupt(path, "section sizes disagree with the meta block");
  }
  // The external-id section is either absent/empty (identity) or a full
  // permutation of [0, n): anything else would silently mislabel every
  // query answer, so it is rejected as corruption like any other section.
  if (!s.extids.empty()) {
    if (s.extids.size() != n) {
      return Corrupt(path, "external-id permutation has wrong length");
    }
    std::vector<bool> seen(n, false);
    for (VertexId ext : s.extids) {
      if (ext >= n || seen[ext]) {
        return Corrupt(path, "external-id section is not a permutation");
      }
      seen[ext] = true;
    }
  }

  // Graph CSR invariants, including the per-vertex orderings the binary
  // searches in Graph::HasEdge/FindEdge/HasKeyword depend on — a corrupt
  // file must fail the open even when the checksum pass is disabled.
  // Validate each offsets array completely before dereferencing through it:
  // monotone with the final entry equal to the array length bounds every
  // intermediate offset, so the element loops below cannot leave their
  // sections.
  const auto& offsets = s.offsets;
  if (offsets[0] != 0 || offsets[n] != 2 * m) {
    return Corrupt(path, "arc offsets do not cover the arc array");
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Corrupt(path, "non-monotonic arc offsets");
    }
  }
  const auto& arcs = s.arcs;
  for (std::uint64_t v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const Graph::Arc& arc = arcs[i];
      if (arc.to >= n || arc.edge >= m) {
        return Corrupt(path, "arc target or edge id out of range");
      }
      if (arc.to == v) return Corrupt(path, "self-loop arc");
      // NaN probabilities fail this comparison too.
      if (!(arc.prob > 0.0f && arc.prob <= 1.0f)) {
        return Corrupt(path, "arc probability outside (0, 1]");
      }
      if (i > offsets[v] && arcs[i - 1].to >= arc.to) {
        return Corrupt(path, "neighbor list not sorted");
      }
    }
  }
  for (const Graph::EdgeEndpoints& e : s.endpoints) {
    if (e.v >= n || e.u >= e.v) {
      return Corrupt(path, "edge endpoints out of range or unordered");
    }
  }
  const auto& kw_offsets = s.kw_offsets;
  if (kw_offsets[0] != 0 || kw_offsets[n] != meta.total_keywords) {
    return Corrupt(path, "keyword offsets do not cover the keyword array");
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    if (kw_offsets[v] > kw_offsets[v + 1]) {
      return Corrupt(path, "non-monotonic keyword offsets");
    }
  }
  const auto& keywords = s.keywords;
  for (std::uint64_t v = 0; v < n; ++v) {
    for (std::uint64_t i = kw_offsets[v] + 1; i < kw_offsets[v + 1]; ++i) {
      if (keywords[i - 1] >= keywords[i]) {
        return Corrupt(path, "keyword set not sorted");
      }
    }
  }

  // Precompute invariants.
  const auto& thetas = s.thetas;
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    if (!(thetas[i] >= 0.0 && thetas[i] < 1.0) ||
        (i > 0 && thetas[i] <= thetas[i - 1])) {
      return Corrupt(path, "thresholds not strictly ascending in [0, 1)");
    }
  }

  // Tree invariants, including the two that the query's subtree marking
  // relies on: children precede their parent (one ascending pass settles
  // every node), and each vertex sits in exactly one leaf (the vertex→leaf
  // map), i.e. the leaves partition the slots of a permuted vertex order.
  std::vector<char> slot_taken(n, 0);
  std::uint64_t slots_covered = 0;
  for (std::uint64_t id = 0; id < nodes; ++id) {
    const TreeIndex::Node& node = s.nodes[id];
    if (node.is_leaf > 1) return Corrupt(path, "node leaf flag out of range");
    if (node.is_leaf == 0 && (node.first_child >= nodes ||
                              node.num_children > nodes - node.first_child)) {
      return Corrupt(path, "node child range out of bounds");
    }
    if (node.is_leaf == 0 &&
        std::uint64_t{node.first_child} + node.num_children > id) {
      return Corrupt(path, "node does not follow its children");
    }
    if (node.is_leaf == 1) {
      if (node.begin > node.end || node.end > n) {
        return Corrupt(path, "leaf vertex range out of bounds");
      }
      for (std::uint32_t i = node.begin; i < node.end; ++i) {
        if (slot_taken[i]) return Corrupt(path, "leaves overlap");
        slot_taken[i] = 1;
      }
      slots_covered += node.end - node.begin;
    }
  }
  if (slots_covered != n) {
    return Corrupt(path, "leaves do not cover every vertex");
  }
  std::vector<char> seen(n, 0);
  for (VertexId v : s.sorted) {
    if (v >= n) return Corrupt(path, "sorted vertex out of range");
    if (seen[v]) return Corrupt(path, "sorted vertices are not a permutation");
    seen[v] = 1;
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

Status ArtifactWriter::Write(const Graph& g, const PrecomputedData& pre,
                             const TreeIndex& tree, const std::string& path,
                             const ArtifactWriteOptions& options) {
  if (pre.n_ != g.NumVertices()) {
    return Status::InvalidArgument(
        "precomputed data was built over a different graph (vertex count "
        "mismatch)");
  }
  if (tree.pre_ != &pre || tree.nodes_.empty()) {
    return Status::InvalidArgument(
        "tree index is empty or references different precomputed data");
  }
  const std::size_t n = g.NumVertices();
  if (!options.external_ids.empty()) {
    if (options.external_ids.size() != n) {
      return Status::InvalidArgument(
          "external-id permutation length does not match the graph");
    }
    std::vector<bool> seen(n, false);
    for (VertexId ext : options.external_ids) {
      if (ext >= n || seen[ext]) {
        return Status::InvalidArgument(
            "external ids are not a permutation of [0, n)");
      }
      seen[ext] = true;
    }
  }
  // Version 1 unless a version-2 feature is in play, so default-written
  // artifacts remain byte-compatible with older readers.
  const bool v2 = options.compress || !options.external_ids.empty();
  const std::size_t num_sections = v2 ? kNumSectionsV2 : kNumSectionsV1;

  MetaBlock meta{};
  meta.num_vertices = g.NumVertices();
  meta.num_edges = g.NumEdges();
  meta.total_keywords = g.keywords_.size();
  meta.keyword_domain_bound = g.keyword_domain_bound_;
  meta.r_max = pre.r_max_;
  meta.signature_bits = pre.signature_bits_;
  meta.num_thetas = static_cast<std::uint32_t>(pre.thetas_.size());
  meta.words_per_signature = pre.words_;
  meta.tree_root = tree.root_;
  meta.tree_height = tree.height_;
  meta.tree_num_nodes = tree.nodes_.size();

  struct Payload {
    const void* data;
    std::uint64_t size;
    std::uint32_t elem_size;
    std::uint32_t encoding;
  };
  auto bytes_of = [](const auto& span, SectionId id) {
    return Payload{span.data(), span.size_bytes(), kSectionElemSizes[id],
                   static_cast<std::uint32_t>(SectionEncoding::kRaw)};
  };
  Payload payloads[kNumSectionsV2] = {
      {&meta, sizeof(meta), sizeof(meta),
       static_cast<std::uint32_t>(SectionEncoding::kRaw)},
      bytes_of(g.offsets_, kGraphOffsets),
      bytes_of(g.arcs_, kGraphArcs),
      bytes_of(g.edge_endpoints_, kGraphEndpoints),
      bytes_of(g.keyword_offsets_, kGraphKwOffsets),
      bytes_of(g.keywords_, kGraphKeywords),
      bytes_of(pre.thetas_, kPreThetas),
      bytes_of(pre.signatures_, kPreSignatures),
      bytes_of(pre.support_bounds_, kPreSupports),
      bytes_of(pre.center_truss_, kPreTruss),
      bytes_of(pre.score_bounds_, kPreScores),
      bytes_of(tree.nodes_, kTreeNodes),
      bytes_of(tree.sorted_vertices_, kTreeSorted),
      bytes_of(tree.signatures_, kTreeSignatures),
      bytes_of(tree.support_bounds_, kTreeSupports),
      bytes_of(tree.center_truss_bounds_, kTreeTruss),
      bytes_of(tree.score_bounds_, kTreeScores),
      bytes_of(options.external_ids, kGraphExtIds),
  };

  // Encoded payloads live in these buffers until the file is flushed.
  std::vector<std::uint8_t> encoded[kNumSectionsV2];
  if (options.compress) {
    encoded[kGraphOffsets] = EncodeDeltaU64(g.offsets_);
    encoded[kGraphArcs] = EncodeArcs(g.arcs_);
    encoded[kGraphEndpoints] = EncodeEndpoints(g.edge_endpoints_);
    encoded[kGraphKwOffsets] = EncodeDeltaU64(g.keyword_offsets_);
    encoded[kGraphKeywords] = EncodeDeltaU32(g.keywords_);
    encoded[kPreSupports] = EncodeVarintU32(pre.support_bounds_);
    encoded[kPreTruss] = EncodeVarintU32(pre.center_truss_);
    encoded[kTreeNodes] = EncodeTreeNodes(tree.nodes_);
    encoded[kTreeSorted] = EncodeDeltaU32(tree.sorted_vertices_);
    encoded[kTreeSupports] = EncodeVarintU32(tree.support_bounds_);
    encoded[kTreeTruss] = EncodeVarintU32(tree.center_truss_bounds_);
    for (std::size_t i = 0; i < num_sections; ++i) {
      if (!kSectionEncodable[i]) continue;
      payloads[i] = {encoded[i].data(), encoded[i].size(), 1,
                     static_cast<std::uint32_t>(SectionEncoding::kDeltaVarint)};
    }
  }

  DiskSection table[kNumSectionsV2] = {};
  const std::uint64_t table_bytes = num_sections * sizeof(DiskSection);
  std::uint64_t cursor = sizeof(DiskHeader) + table_bytes;
  for (std::size_t i = 0; i < num_sections; ++i) {
    DiskSection& s = table[i];
    std::strncpy(s.name, kSectionNames[i], sizeof(s.name) - 1);
    s.offset = AlignUp(cursor, kSectionAlignment);
    s.size = payloads[i].size;
    s.elem_size = payloads[i].elem_size;
    s.encoding = payloads[i].encoding;
    s.checksum = ChecksumBytes(payloads[i].data, payloads[i].size);
    cursor = s.offset + s.size;
  }

  DiskHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = v2 ? kVersionEncoded : kVersionRaw;
  header.section_count = static_cast<std::uint32_t>(num_sections);
  header.file_size = cursor;
  header.table_checksum = XXH64(table, table_bytes);

  // Crash-atomic replacement (storage/atomic_file.h): `path` may be the very
  // artifact the payload spans are mapped from (in-place migrate), and a
  // mid-write failure or crash (ENOSPC, SIGKILL, power loss) must never
  // leave anything but the complete old or the complete new artifact behind.
  TOPL_FAULT_POINT("artifact.write");
  Result<AtomicFile> out = AtomicFile::Create(path);
  if (!out.ok()) return out.status();
  TOPL_RETURN_IF_ERROR(out->Append(&header, sizeof(header)));
  TOPL_RETURN_IF_ERROR(out->Append(table, table_bytes));
  std::uint64_t written = sizeof(header) + table_bytes;
  static constexpr char kZeros[kSectionAlignment] = {};
  for (std::size_t i = 0; i < num_sections; ++i) {
    TOPL_RETURN_IF_ERROR(out->Append(kZeros, table[i].offset - written));
    if (payloads[i].size > 0) {
      TOPL_RETURN_IF_ERROR(out->Append(payloads[i].data, payloads[i].size));
    }
    written = table[i].offset + table[i].size;
  }
  return out->Commit();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

bool ArtifactReader::IsArtifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  return in && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

Result<MappedIndex> ArtifactReader::Open(const std::string& path,
                                         const ArtifactReadOptions& options) {
  Result<std::shared_ptr<MappedFile>> mapped_r = MappedFile::Open(path);
  if (!mapped_r.ok()) return mapped_r.status();
  std::shared_ptr<MappedFile> mapped = std::move(mapped_r).value();
  const MappedFile& f = *mapped;

  Result<ParsedArtifact> parsed_r = ParseTable(f, options.verify_checksums);
  if (!parsed_r.ok()) return parsed_r.status();
  const ParsedArtifact& parsed = *parsed_r;
  if (!parsed.checksums_ok) {
    return Corrupt(path, "section checksum mismatch");
  }
  Result<LoadedSections> loaded_r = LoadSections(f, parsed);
  if (!loaded_r.ok()) return loaded_r.status();
  LoadedSections& s = *loaded_r;
  TOPL_RETURN_IF_ERROR(ValidateStructure(path, parsed, s));
  const MetaBlock& meta = parsed.meta;
  const auto encoded = [&parsed](SectionId id) {
    return parsed.encoding(id) == SectionEncoding::kDeltaVarint;
  };

  // Hybrid backing: raw sections stay zero-copy views of the mapping;
  // decoded vectors move into the structures' owned storage (spans into a
  // vector stay valid across the move of the enclosing object). Each
  // structure keeps the mapping alive for whichever sections stayed raw.
  MappedIndex out;

  Graph& g = out.graph;
  if (encoded(kGraphOffsets)) {
    g.owned_offsets_ = std::move(s.g_offsets_v);
    g.offsets_ = g.owned_offsets_;
  } else {
    g.offsets_ = SectionView<std::uint64_t>(f, parsed, kGraphOffsets);
  }
  if (encoded(kGraphArcs)) {
    g.owned_arcs_ = std::move(s.g_arcs_v);
    g.arcs_ = g.owned_arcs_;
  } else {
    g.arcs_ = SectionView<Graph::Arc>(f, parsed, kGraphArcs);
  }
  if (encoded(kGraphEndpoints)) {
    g.owned_edge_endpoints_ = std::move(s.g_endpoints_v);
    g.edge_endpoints_ = g.owned_edge_endpoints_;
  } else {
    g.edge_endpoints_ =
        SectionView<Graph::EdgeEndpoints>(f, parsed, kGraphEndpoints);
  }
  if (encoded(kGraphKwOffsets)) {
    g.owned_keyword_offsets_ = std::move(s.g_kw_offsets_v);
    g.keyword_offsets_ = g.owned_keyword_offsets_;
  } else {
    g.keyword_offsets_ = SectionView<std::uint64_t>(f, parsed, kGraphKwOffsets);
  }
  if (encoded(kGraphKeywords)) {
    g.owned_keywords_ = std::move(s.g_keywords_v);
    g.keywords_ = g.owned_keywords_;
  } else {
    g.keywords_ = SectionView<KeywordId>(f, parsed, kGraphKeywords);
  }
  g.keyword_domain_bound_ = meta.keyword_domain_bound;
  g.backing_ = mapped;
  g.BuildPostings();

  out.pre = std::unique_ptr<PrecomputedData>(new PrecomputedData());
  PrecomputedData& pre = *out.pre;
  pre.r_max_ = meta.r_max;
  pre.signature_bits_ = meta.signature_bits;
  pre.words_ = meta.words_per_signature;
  pre.n_ = meta.num_vertices;
  pre.thetas_ = SectionView<double>(f, parsed, kPreThetas);
  pre.signatures_ = SectionView<std::uint64_t>(f, parsed, kPreSignatures);
  if (encoded(kPreSupports)) {
    pre.owned_support_bounds_ = std::move(s.p_supports_v);
    pre.support_bounds_ = pre.owned_support_bounds_;
  } else {
    pre.support_bounds_ = SectionView<std::uint32_t>(f, parsed, kPreSupports);
  }
  if (encoded(kPreTruss)) {
    pre.owned_center_truss_ = std::move(s.p_truss_v);
    pre.center_truss_ = pre.owned_center_truss_;
  } else {
    pre.center_truss_ = SectionView<std::uint32_t>(f, parsed, kPreTruss);
  }
  pre.score_bounds_ = SectionView<double>(f, parsed, kPreScores);
  pre.backing_ = mapped;

  TreeIndex& tree = out.tree;
  tree.pre_ = out.pre.get();
  tree.r_max_ = meta.r_max;
  tree.num_thetas_ = meta.num_thetas;
  tree.words_ = meta.words_per_signature;
  tree.root_ = meta.tree_root;
  tree.height_ = meta.tree_height;
  if (encoded(kTreeNodes)) {
    tree.owned_nodes_ = std::move(s.t_nodes_v);
    tree.nodes_ = tree.owned_nodes_;
  } else {
    tree.nodes_ = SectionView<TreeIndex::Node>(f, parsed, kTreeNodes);
  }
  if (encoded(kTreeSorted)) {
    tree.owned_sorted_vertices_ = std::move(s.t_sorted_v);
    tree.sorted_vertices_ = tree.owned_sorted_vertices_;
  } else {
    tree.sorted_vertices_ = SectionView<VertexId>(f, parsed, kTreeSorted);
  }
  tree.signatures_ = SectionView<std::uint64_t>(f, parsed, kTreeSignatures);
  if (encoded(kTreeSupports)) {
    tree.owned_support_bounds_ = std::move(s.t_supports_v);
    tree.support_bounds_ = tree.owned_support_bounds_;
  } else {
    tree.support_bounds_ = SectionView<std::uint32_t>(f, parsed, kTreeSupports);
  }
  if (encoded(kTreeTruss)) {
    tree.owned_center_truss_bounds_ = std::move(s.t_truss_v);
    tree.center_truss_bounds_ = tree.owned_center_truss_bounds_;
  } else {
    tree.center_truss_bounds_ =
        SectionView<std::uint32_t>(f, parsed, kTreeTruss);
  }
  tree.score_bounds_ = SectionView<double>(f, parsed, kTreeScores);
  tree.backing_ = mapped;
  tree.BuildLeafMap();

  out.external_ids.assign(s.extids.begin(), s.extids.end());
  for (std::size_t i = 0; i < parsed.num_sections(); ++i) {
    if (parsed.table[i].encoding != 0) out.compressed = true;
  }
  out.backing = std::move(mapped);
  return out;
}

Result<ArtifactInfo> ArtifactReader::Inspect(const std::string& path) {
  Result<std::shared_ptr<MappedFile>> mapped_r = MappedFile::Open(path);
  if (!mapped_r.ok()) return mapped_r.status();
  const MappedFile& f = **mapped_r;

  Result<ParsedArtifact> parsed_r = ParseTable(f, /*verify_checksums=*/true);
  if (!parsed_r.ok()) return parsed_r.status();
  const ParsedArtifact& parsed = *parsed_r;

  ArtifactInfo info;
  info.version = parsed.header.version;
  info.file_size = parsed.header.file_size;
  info.num_vertices = parsed.meta.num_vertices;
  info.num_edges = parsed.meta.num_edges;
  info.total_keywords = parsed.meta.total_keywords;
  info.r_max = parsed.meta.r_max;
  info.signature_bits = parsed.meta.signature_bits;
  info.num_thetas = parsed.meta.num_thetas;
  info.tree_height = parsed.meta.tree_height;
  info.tree_num_nodes = parsed.meta.tree_num_nodes;
  info.has_external_ids =
      parsed.has(kGraphExtIds) && parsed.table[kGraphExtIds].size > 0;
  info.checksums_ok = parsed.checksums_ok;
  info.sections.reserve(parsed.num_sections());
  for (std::size_t i = 0; i < parsed.num_sections(); ++i) {
    const DiskSection& s = parsed.table[i];
    info.sections.push_back({kSectionNames[i], s.offset, s.size, s.elem_size,
                             s.encoding, s.checksum});
  }
  return info;
}

}  // namespace topl
