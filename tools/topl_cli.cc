// topl_cli — command-line front end for the library's full pipeline.
//
// Offline phase (artifact construction):
//   topl_cli generate --kind=uni --vertices=10000 --out=graph.bin
//   topl_cli convert  --in=com-dblp.ungraph.txt --out=graph.bin
//   topl_cli index build   --graph=graph.bin --out=index.idx
//                          [--rmax=3 --threads=0 --reorder=0 --compress=0]
//   topl_cli index inspect --artifact=index.idx
//   topl_cli index migrate --in=old.idx --out=index.idx [--compress=0]
//   topl_cli update   --index=index.idx --delta=delta.txt --out=patched.idx
//                     [--journal=wal.jrn]
//   topl_cli recover  --index=index.idx --journal=wal.jrn
//                     [--out=patched.idx --truncate-journal]
//   topl_cli stats    --graph=graph.bin
//
// `index build` writes the mmap-able TOPLIDX2 artifact (graph + precompute +
// tree in one file), the only index format. --reorder=1 permutes vertices
// into a locality-preserving order (graph/reorder.h) before CSR packing and
// records the internal→external permutation in the artifact's g.extids
// section, so every id the online commands print is still the original
// graph's id; --compress=1 stores the large array sections
// delta+varint-encoded. `index inspect`
// dumps an artifact's section table, per-section encoding and checksums;
// `index migrate` re-encodes an artifact raw <-> compressed per --compress,
// keeping its embedded graph and vertex permutation. Bare
// `topl_cli index --graph=... --out=...` remains an alias for `index build`.
//
// `convert` streams the edge list (bounded memory for the line buffer; the
// edge set itself is what's retained) and reports progress every million
// edges read.
//
// `update` applies a GraphDelta (text format of graph/delta_io.h: one
// "e+ u v p [p]", "e- u v", "w+ v kw" or "w- v kw" per line) to a TOPLIDX2
// artifact with incremental maintenance — only the update's dirty region is
// re-precomputed — and writes the patched artifact (--out may equal --index;
// the input is read before the output is written). Serving answers from the
// patched artifact is byte-identical to rebuilding the index from scratch on
// the mutated graph. The rewrite is atomic (temp file + fsync + rename), so
// a crash mid-update leaves the previous artifact intact. With
// --journal=PATH the delta is additionally fsync'd into a write-ahead
// journal *before* any rewrite work and the journal is truncated only after
// the rewritten artifact is durable — a crash anywhere in between leaves the
// old artifact plus a replayable journal record for `recover`. (The one
// window left open: a crash after the rename but before the truncate leaves
// a record whose delta the artifact already contains; replaying it then
// fails with a typed error instead of silently double-applying.)
//
// `recover` replays a write-ahead journal (EngineOptions::journal_path /
// `update --journal`) on top of an artifact, healing any torn trailing
// record, and prints the recovery report (records replayed, torn bytes
// discarded). The recovered engine is byte-identical to one that applied the
// same acknowledged deltas live. --out additionally writes the recovered
// state as a fresh artifact, and --truncate-journal (requires --out) empties
// the journal once that artifact is durable.
//
// Online phase (all served through topl::Engine::Open; a missing index file
// is built in-process, and persisted back when --save-index=1):
//   topl_cli query    --graph=graph.bin --index=index.bin
//                     --keywords=1,8,21 --k=4 --r=2 --theta=0.2 --L=5
//                     [--deadline-ms=0 --progressive --chunk=8]
//                     [--reorder=0 --compress=0]
//   topl_cli dtopl    ... same flags ... [--n=5 --algorithm=wp|wop|optimal]
//   topl_cli batch    --graph=graph.bin --index=index.bin --queries=queries.txt
//                     [--threads=0 --repeat=1 --quiet=0]
//   topl_cli serve-bench --graph=graph.bin --index=index.bin
//                     [--mix=mixed --workers=8 --qps=0 --seconds=5
//                      --warmup-seconds=0.5 --seed=42 --popularity=zipf
//                      --zipf=0 --signatures=0 --deadline-ms=0
//                      --slo-qps=0 --slo-p99-ms=0 --slo-p999-ms=0 --json=]
//
// All online subcommands accept --cache=1 [--cache-max-mb=64] to serve
// repeated queries from the snapshot-epoch result cache (exact dirty-region
// invalidation on update; answers stay byte-identical to uncached serving),
// and --reorder=1 / --compress=1 to apply locality reordering /
// section compression when the index is built in-process. When the served
// artifact carries a vertex permutation, printed community centers are
// always the original (external) ids.
//
// `serve-bench` replays a deterministic mixed workload (TopL / DTopL /
// progressive / live graph updates; named mixes read_heavy, update_heavy,
// progressive_scan, repeat_heavy, mixed; --zipf=0/--signatures=0 keep the
// mix's own values) against the opened engine — closed-loop when
// --qps=0 (capacity ceiling) or open-loop at the target rate, with latency
// measured from each operation's *intended* arrival so a stalled engine
// cannot hide its backlog (no coordinated omission). Prints the per-kind
// latency table, optionally writes the JSON report, and exits non-zero on
// any failed operation or breached --slo-* threshold. It is the serving
// harness CI gates against bench/baselines/BENCH_serve.json; the report's
// stream_digest witnesses that two runs replayed the same op stream.
//
// --deadline-ms gives the query a wall-clock budget: on expiry it returns
// its best-so-far communities marked "truncated" plus the remaining score
// upper bound (the anytime gap). --progressive streams every intermediate
// top-L improvement as the search converges; both flags route the query
// through the engine's progressive path, which also scores candidate waves
// in parallel chunks over the engine's worker pool (--threads).
//
// The batch query file holds one query per line:
//   <keywords-csv> [k] [r] [theta] [L] [dtopl]
// e.g. "1,8,21 4 2 0.2 5" or "3,14 4 2 0.2 5 dtopl"; omitted fields fall
// back to the command-line flag defaults, '#' starts a comment. The batch is
// fanned out across the engine's worker pool, and cumulative EngineStats
// (throughput, p50/p99 latency, prune counters) are printed at the end.
//
// Every flag must be one the CLI knows, and numeric flags must parse in
// full (tools/flags.h): an unknown flag or a value such as --k=abc or
// --theta=0.2x is an InvalidArgument error, never a silent default. All
// subcommands exit non-zero with a Status message on failure.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flags.h"
#include "topl.h"

namespace {

using namespace topl;  // NOLINT(build/namespaces)

// Every flag the CLI understands, with the shape its value must have.
const FlagTable& KnownFlags() {
  using K = FlagKind;
  static const FlagTable kFlags = {
      {"L", K::kUint},           {"algorithm", K::kString},
      {"artifact", K::kString},  {"cache", K::kBool},
      {"cache-max-mb", K::kUint}, {"chunk", K::kUint},
      {"compress", K::kBool},    {"deadline-ms", K::kDouble},
      {"delta", K::kString},     {"domain", K::kUint},
      {"graph", K::kString},
      {"in", K::kString},        {"index", K::kString},
      {"journal", K::kString},   {"json", K::kString},
      {"k", K::kUint},           {"keywords", K::kUintList},
      {"keywords-per-vertex", K::kUint}, {"kind", K::kString},
      {"largest-cc", K::kBool},  {"mix", K::kString},
      {"n", K::kUint},           {"ops", K::kUint},
      {"out", K::kString},       {"popularity", K::kString},
      {"progressive", K::kBool}, {"qps", K::kDouble},
      {"queries", K::kString},   {"quiet", K::kBool},
      {"r", K::kUint},           {"reorder", K::kBool},
      {"repeat", K::kUint},      {"rmax", K::kUint},
      {"save-index", K::kBool},  {"seconds", K::kDouble},
      {"seed", K::kUint},        {"signatures", K::kUint},
      {"slo-p99-ms", K::kDouble}, {"slo-p999-ms", K::kDouble},
      {"slo-qps", K::kDouble},   {"theta", K::kDouble},
      {"threads", K::kUint},     {"truncate-journal", K::kBool},
      {"vertices", K::kUint},    {"warmup-seconds", K::kDouble},
      {"workers", K::kUint},     {"zipf", K::kDouble},
  };
  return kFlags;
}

std::vector<KeywordId> ParseKeywordList(const std::string& csv) {
  std::vector<KeywordId> out;
  for (const std::string& item : SplitList(csv)) {
    out.push_back(
        static_cast<KeywordId>(std::strtoul(item.c_str(), nullptr, 10)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: topl_cli <generate|convert|index|update|recover|stats|"
               "query|dtopl|batch|serve-bench> [--flag=value ...]\n"
               "       topl_cli index <build|inspect|migrate> [--flag=value ...]\n"
               "see the header comment of tools/topl_cli.cc for flags\n");
  return 2;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string kind = FlagOr(flags, "kind", "uni");
  const std::string out = FlagOr(flags, "out", "graph.bin");
  KeywordModel keywords;
  keywords.keywords_per_vertex =
      static_cast<std::uint32_t>(IntFlag(flags, "keywords-per-vertex", 3));
  keywords.domain_size = static_cast<std::uint32_t>(IntFlag(flags, "domain", 50));
  const std::size_t n = IntFlag(flags, "vertices", 10000);
  const std::uint64_t seed = IntFlag(flags, "seed", 42);

  Result<Graph> graph = Status::InvalidArgument("unknown kind: " + kind);
  if (kind == "uni" || kind == "gau" || kind == "zipf") {
    SmallWorldOptions options;
    options.num_vertices = n;
    options.seed = seed;
    options.keywords = keywords;
    options.keywords.distribution = kind == "uni" ? KeywordDistribution::kUniform
                                    : kind == "gau"
                                        ? KeywordDistribution::kGaussian
                                        : KeywordDistribution::kZipf;
    graph = MakeSmallWorld(options);
  } else if (kind == "dblp") {
    graph = MakeDblpLike(n, seed);
  } else if (kind == "amazon") {
    graph = MakeAmazonLike(n, seed);
  }
  if (!graph.ok()) return Fail(graph.status());
  const Status status = WriteGraphBinary(*graph, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s: %zu vertices, %zu edges\n", out.c_str(),
              graph->NumVertices(), graph->NumEdges());
  return 0;
}

int CmdConvert(const std::map<std::string, std::string>& flags) {
  const std::string in = FlagOr(flags, "in", "");
  const std::string out = FlagOr(flags, "out", "graph.bin");
  if (in.empty()) return Usage();
  EdgeListLoadOptions load;
  load.assign_attributes = true;
  load.keywords.domain_size = static_cast<std::uint32_t>(IntFlag(flags, "domain", 50));
  load.keywords.keywords_per_vertex =
      static_cast<std::uint32_t>(IntFlag(flags, "keywords-per-vertex", 3));
  load.attribute_seed = IntFlag(flags, "seed", 42);
  load.restrict_to_largest_component = FlagOr(flags, "largest-cc", "1") == "1";
  load.progress = [](std::size_t edges) {
    std::fprintf(stderr, "  ... %zuM edges read\n", edges / 1000000);
  };
  Result<Graph> graph = LoadSnapEdgeList(in, load);
  if (!graph.ok()) return Fail(graph.status());
  const Status status = WriteGraphBinary(*graph, out);
  if (!status.ok()) return Fail(status);
  std::printf("converted %s -> %s (%zu vertices, %zu edges)\n", in.c_str(),
              out.c_str(), graph->NumVertices(), graph->NumEdges());
  return 0;
}

int CmdIndexBuild(const std::map<std::string, std::string>& flags) {
  const std::string graph_path = FlagOr(flags, "graph", "graph.bin");
  const std::string out = FlagOr(flags, "out", "index.bin");
  const bool reorder = FlagOr(flags, "reorder", "0") == "1";
  const bool compress = FlagOr(flags, "compress", "0") == "1";
  Result<Graph> graph = ReadGraphBinary(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  Timer timer;
  std::vector<VertexId> external_ids;
  if (reorder) {
    Result<ReorderedGraph> reordered = ReorderForLocality(*graph);
    if (!reordered.ok()) return Fail(reordered.status());
    *graph = std::move(reordered->graph);
    external_ids = std::move(reordered->external_ids);
  }
  PrecomputeOptions options;
  options.r_max = static_cast<std::uint32_t>(IntFlag(flags, "rmax", 3));
  options.num_threads = IntFlag(flags, "threads", 0);
  Result<PrecomputedData> pre = PrecomputedData::Build(*graph, options);
  if (!pre.ok()) return Fail(pre.status());
  Result<TreeIndex> tree = TreeIndex::Build(*graph, *pre);
  if (!tree.ok()) return Fail(tree.status());
  ArtifactWriteOptions write_options;
  write_options.compress = compress;
  write_options.external_ids = external_ids;
  const Status status =
      ArtifactWriter::Write(*graph, *pre, *tree, out, write_options);
  if (!status.ok()) return Fail(status);
  std::printf("indexed %s in %.2fs -> %s (TOPLIDX2%s%s, %zu tree nodes, "
              "height %u)\n",
              graph_path.c_str(), timer.ElapsedSeconds(), out.c_str(),
              reorder ? ", reordered" : "", compress ? ", compressed" : "",
              tree->NumNodes(), tree->height());
  return 0;
}

int CmdIndexInspect(const std::map<std::string, std::string>& flags) {
  const std::string path =
      FlagOr(flags, "artifact", FlagOr(flags, "in", "index.bin"));
  Result<ArtifactInfo> info = ArtifactReader::Inspect(path);
  if (!info.ok()) {
    // A bad magic means the file is not an index at all; an unreadable file
    // keeps its IO error.
    if (info.status().IsCorruption()) {
      std::fprintf(stderr,
                   "hint: rebuild the index with `topl_cli index build`\n");
    }
    return Fail(info.status());
  }
  std::printf("%s: TOPLIDX2 v%u, %llu bytes, checksums %s\n", path.c_str(),
              info->version, static_cast<unsigned long long>(info->file_size),
              info->checksums_ok ? "OK" : "MISMATCH");
  std::printf("graph: %llu vertices, %llu edges, %llu keyword entries\n",
              static_cast<unsigned long long>(info->num_vertices),
              static_cast<unsigned long long>(info->num_edges),
              static_cast<unsigned long long>(info->total_keywords));
  std::printf("index: r_max=%u, %u thetas, %llu tree nodes, height %u\n",
              info->r_max, info->num_thetas,
              static_cast<unsigned long long>(info->tree_num_nodes),
              info->tree_height);
  std::printf("external-id permutation: %s\n",
              info->has_external_ids ? "yes (reordered build)" : "identity");
  std::printf("%-14s %12s %14s %6s %6s  %s\n", "section", "offset", "bytes",
              "elem", "enc", "xxh64");
  for (const ArtifactSectionInfo& s : info->sections) {
    std::printf("%-14s %12llu %14llu %6u %6s  %016llx\n", s.name.c_str(),
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size), s.elem_size,
                s.encoding == 0 ? "raw" : "dv",
                static_cast<unsigned long long>(s.checksum));
  }
  return info->checksums_ok ? 0 : 1;
}

int CmdIndexMigrate(const std::map<std::string, std::string>& flags) {
  const std::string in = FlagOr(flags, "in", "");
  const std::string out = FlagOr(flags, "out", "");
  if (in.empty() || out.empty()) {
    return Fail(Status::InvalidArgument(
        "index migrate needs --in=ARTIFACT and --out=NEW_ARTIFACT"));
  }
  // Re-encode (raw <-> compressed), keeping the embedded graph and
  // external-id permutation. --out may equal --in: Write never truncates
  // the mapping it reads from.
  Result<MappedIndex> mapped = ArtifactReader::Open(in);
  if (!mapped.ok()) return Fail(mapped.status());
  ArtifactWriteOptions write_options;
  write_options.compress = FlagOr(flags, "compress", "0") == "1";
  write_options.external_ids = mapped->external_ids;
  const Status status = ArtifactWriter::Write(mapped->graph, *mapped->pre,
                                              mapped->tree, out, write_options);
  if (!status.ok()) return Fail(status);
  std::printf("migrated %s -> %s (TOPLIDX2%s, %zu tree nodes)\n", in.c_str(),
              out.c_str(), write_options.compress ? ", compressed" : "",
              mapped->tree.NumNodes());
  return 0;
}

int CmdUpdate(const std::map<std::string, std::string>& flags) {
  const std::string index_path = FlagOr(flags, "index", "");
  const std::string delta_path = FlagOr(flags, "delta", "");
  const std::string out = FlagOr(flags, "out", index_path);
  if (index_path.empty() || delta_path.empty()) {
    return Fail(Status::InvalidArgument(
        "update needs --index=ARTIFACT and --delta=FILE (and optionally "
        "--out=ARTIFACT, default --index)"));
  }
  if (!ArtifactReader::IsArtifact(index_path)) {
    return Fail(Status::InvalidArgument(
        index_path + " is not a TOPLIDX2 artifact (build one with `topl_cli "
        "index build`)"));
  }
  Result<GraphDelta> delta = ReadGraphDeltaText(delta_path);
  if (!delta.ok()) return Fail(delta.status());
  Result<MappedIndex> mapped = ArtifactReader::Open(index_path);
  if (!mapped.ok()) return Fail(mapped.status());

  // A reordered artifact stores vertices in internal (locality) order; the
  // delta file speaks the original id space, so translate its vertex ids
  // through the inverse of the stored permutation before applying.
  if (!mapped->external_ids.empty()) {
    std::vector<VertexId> to_internal(mapped->external_ids.size());
    for (VertexId v = 0; v < mapped->external_ids.size(); ++v) {
      to_internal[mapped->external_ids[v]] = v;
    }
    const auto remap = [&](VertexId* v) -> Status {
      if (*v >= to_internal.size()) {
        return Status::InvalidArgument(
            "delta names vertex " + std::to_string(*v) +
            " outside the graph's id space");
      }
      *v = to_internal[*v];
      return Status::OK();
    };
    Status remapped = Status::OK();
    for (auto& op : delta->edge_deletes) {
      if (remapped.ok()) remapped = remap(&op.u);
      if (remapped.ok()) remapped = remap(&op.v);
    }
    for (auto& op : delta->edge_inserts) {
      if (remapped.ok()) remapped = remap(&op.u);
      if (remapped.ok()) remapped = remap(&op.v);
    }
    for (auto& op : delta->keyword_adds) {
      if (remapped.ok()) remapped = remap(&op.v);
    }
    for (auto& op : delta->keyword_removes) {
      if (remapped.ok()) remapped = remap(&op.v);
    }
    if (!remapped.ok()) return Fail(remapped);
  }

  // Open (or create) the write-ahead journal up front so an unreadable
  // journal fails before any maintenance work; the delta is appended only
  // after it has validated + applied in memory, mirroring the engine's own
  // ordering (never journal a delta that can't apply).
  const std::string journal_path = FlagOr(flags, "journal", "");
  std::unique_ptr<UpdateJournal> journal;
  if (!journal_path.empty()) {
    UpdateJournal::OpenInfo open_info;
    Result<std::unique_ptr<UpdateJournal>> opened =
        UpdateJournal::Open(journal_path, &open_info);
    if (!opened.ok()) return Fail(opened.status());
    journal = std::move(*opened);
    if (open_info.torn_bytes_discarded > 0) {
      std::printf("journal %s: healed %llu torn trailing bytes\n",
                  journal_path.c_str(),
                  static_cast<unsigned long long>(open_info.torn_bytes_discarded));
    }
  }

  ThreadPool pool(IntFlag(flags, "threads", 0));
  Timer timer;
  Result<UpdatedIndex> updated = IndexUpdater::Apply(
      mapped->graph, *mapped->pre, mapped->tree, *delta, &pool);
  if (!updated.ok()) return Fail(updated.status());

  if (journal != nullptr) {
    // Durability first: the (internal-id-space) delta hits a fsync'd journal
    // record before the artifact rewrite starts, so a crash below leaves the
    // old artifact plus a replayable record for `recover`.
    const Status appended = journal->Append(*delta);
    if (!appended.ok()) return Fail(appended);
    std::printf("journaled %zu delta ops -> %s (record %llu)\n",
                delta->NumOps(), journal_path.c_str(),
                static_cast<unsigned long long>(journal->num_records()));
  }
  const double maintain_seconds = timer.ElapsedSeconds();
  // The patched artifact keeps the input's permutation and encoding, so a
  // reordered/compressed index stays reordered/compressed across updates.
  ArtifactWriteOptions write_options;
  write_options.compress = mapped->compressed;
  write_options.external_ids = mapped->external_ids;
  const Status status = ArtifactWriter::Write(updated->graph, *updated->pre,
                                              updated->tree, out, write_options);
  if (!status.ok()) return Fail(status);
  if (journal != nullptr) {
    // The rewritten artifact is durable (atomic rename + fsync), so its
    // journal record is now redundant; drop it so a later `recover` does not
    // re-apply a delta the artifact already contains.
    const Status truncated = journal->Truncate();
    if (!truncated.ok()) return Fail(truncated);
    std::printf("journal %s truncated (delta folded into %s)\n",
                journal_path.c_str(), out.c_str());
  }
  std::printf("applied %zu delta ops in %.3fs -> %s (%zu vertices, %zu edges)\n",
              delta->NumOps(), maintain_seconds, out.c_str(),
              updated->graph.NumVertices(), updated->graph.NumEdges());
  std::printf("rebuild scope: %s\n", updated->scope.ToString().c_str());
  return 0;
}

int CmdRecover(const std::map<std::string, std::string>& flags) {
  const std::string index_path = FlagOr(flags, "index", "");
  const std::string journal_path = FlagOr(flags, "journal", "");
  if (index_path.empty() || journal_path.empty()) {
    return Fail(Status::InvalidArgument(
        "recover needs --index=ARTIFACT and --journal=FILE"));
  }
  const std::string out = FlagOr(flags, "out", "");
  const bool truncate_journal = FlagOr(flags, "truncate-journal", "0") == "1";
  if (truncate_journal && out.empty()) {
    return Fail(Status::InvalidArgument(
        "--truncate-journal without --out would discard the journaled deltas "
        "without persisting them anywhere; add --out=ARTIFACT"));
  }
  Timer timer;
  RecoveryInfo info;
  EngineOptions options;
  options.index_path = index_path;
  options.journal_path = journal_path;
  options.num_threads = IntFlag(flags, "threads", 0);
  Result<std::unique_ptr<Engine>> recovered = Engine::Recover(options, &info);
  if (!recovered.ok()) return Fail(recovered.status());
  const std::unique_ptr<Engine> engine = std::move(*recovered);
  std::printf("recovered %s + %s in %.3fs\n", index_path.c_str(),
              journal_path.c_str(), timer.ElapsedSeconds());
  std::printf("recovery report: %llu records replayed, %llu torn bytes "
              "discarded, journal %s\n",
              static_cast<unsigned long long>(info.records_replayed),
              static_cast<unsigned long long>(info.torn_bytes_discarded),
              info.journal_created ? "created empty" : "existing");
  std::printf("serving epoch %llu (%zu vertices, %zu edges)\n",
              static_cast<unsigned long long>(engine->Stats().snapshot_epoch),
              engine->graph().NumVertices(), engine->graph().NumEdges());

  if (!out.empty()) {
    // Persist the recovered state, preserving the source artifact's
    // permutation and encoding; the write is atomic, so --out may equal
    // --index.
    ArtifactWriteOptions write_options;
    write_options.compress = engine->artifact_compressed();
    write_options.external_ids = engine->ExternalIds();
    const std::shared_ptr<const EngineSnapshot> snap = engine->snapshot();
    const Status written = ArtifactWriter::Write(
        *snap->graph, *snap->pre, *snap->tree, out, write_options);
    if (!written.ok()) return Fail(written);
    std::printf("wrote recovered artifact -> %s\n", out.c_str());
    if (truncate_journal) {
      Result<std::unique_ptr<UpdateJournal>> journal =
          UpdateJournal::Open(journal_path);
      if (!journal.ok()) return Fail(journal.status());
      const Status truncated = (*journal)->Truncate();
      if (!truncated.ok()) return Fail(truncated);
      std::printf("journal %s truncated (records folded into %s)\n",
                  journal_path.c_str(), out.c_str());
    }
  }
  return 0;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  const std::string graph_path = FlagOr(flags, "graph", "graph.bin");
  Result<Graph> graph = ReadGraphBinary(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  std::printf("vertices: %zu\nedges: %zu\n", graph->NumVertices(),
              graph->NumEdges());
  std::printf("connected: %s\n", IsConnected(*graph) ? "yes" : "no");
  std::size_t max_degree = 0;
  for (VertexId v = 0; v < graph->NumVertices(); ++v) {
    max_degree = std::max(max_degree, graph->Degree(v));
  }
  std::printf("avg degree: %.2f\nmax degree: %zu\n",
              graph->NumVertices() == 0
                  ? 0.0
                  : 2.0 * graph->NumEdges() / graph->NumVertices(),
              max_degree);
  const auto trussness = TrussDecomposition(*graph);
  std::uint32_t max_truss = 2;
  for (std::uint32_t t : trussness) max_truss = std::max(max_truss, t);
  const auto cores = CoreDecomposition(*graph);
  std::uint32_t max_core = 0;
  for (std::uint32_t c : cores) max_core = std::max(max_core, c);
  std::printf("max trussness: %u\nmax core: %u\n", max_truss, max_core);
  std::printf("keyword domain bound: %u\n", graph->KeywordDomainBound());
  return 0;
}

Result<Query> BuildQuery(const std::map<std::string, std::string>& flags) {
  Query query;
  query.keywords = ParseKeywordList(FlagOr(flags, "keywords", ""));
  query.k = static_cast<std::uint32_t>(IntFlag(flags, "k", 4));
  query.radius = static_cast<std::uint32_t>(IntFlag(flags, "r", 2));
  query.theta = DoubleFlag(flags, "theta", 0.2);
  query.top_l = static_cast<std::uint32_t>(IntFlag(flags, "L", 5));
  TOPL_RETURN_IF_ERROR(query.Validate());
  return query;
}

// Centers are printed in the original graph's id space: a reordered build
// relabels vertices internally, and Engine::ExternalId undoes that.
void PrintCommunities(const Engine& engine,
                      const std::vector<CommunityResult>& communities) {
  for (std::size_t i = 0; i < communities.size(); ++i) {
    const CommunityResult& c = communities[i];
    std::printf("#%zu center=%u members=%zu sigma=%.3f influenced=%zu\n", i + 1,
                engine.ExternalId(c.community.center), c.community.size(),
                c.score(), c.influence.size());
  }
}

// Shared Engine::Open wiring for the online subcommands.
Result<std::unique_ptr<Engine>> OpenEngine(
    const std::map<std::string, std::string>& flags) {
  EngineOptions options;
  options.graph_path = FlagOr(flags, "graph", "");
  if (options.graph_path.empty() && std::filesystem::exists("graph.bin")) {
    // Keep the historical graph.bin default, but only when the file exists:
    // TOPLIDX2 artifacts embed the graph, so an artifact-only invocation
    // must not demand a graph file it never needs.
    options.graph_path = "graph.bin";
  }
  options.index_path = FlagOr(flags, "index", "index.bin");
  options.save_built_index = FlagOr(flags, "save-index", "0") == "1";
  options.precompute.r_max = static_cast<std::uint32_t>(IntFlag(flags, "rmax", 3));
  options.num_threads = IntFlag(flags, "threads", 0);
  options.enable_result_cache = FlagOr(flags, "cache", "0") == "1";
  options.cache_max_bytes = IntFlag(flags, "cache-max-mb", 64) << 20;
  options.reorder_vertices = FlagOr(flags, "reorder", "0") == "1";
  options.compress_artifact = FlagOr(flags, "compress", "0") == "1";
  return Engine::Open(options);
}

Result<DTopLOptions> BuildDTopLOptions(
    const std::map<std::string, std::string>& flags) {
  DTopLOptions options;
  options.n_factor = static_cast<std::uint32_t>(IntFlag(flags, "n", 5));
  const std::string algorithm = FlagOr(flags, "algorithm", "wp");
  if (algorithm == "wp") {
    options.algorithm = DTopLAlgorithm::kGreedyWithPruning;
  } else if (algorithm == "wop") {
    options.algorithm = DTopLAlgorithm::kGreedyWithoutPruning;
  } else if (algorithm == "optimal") {
    options.algorithm = DTopLAlgorithm::kOptimal;
  } else {
    return Status::InvalidArgument("unknown algorithm: " + algorithm);
  }
  return options;
}

void PrintTruncation(bool truncated, double upper_bound) {
  if (!truncated) return;
  std::printf("truncated: best-so-far answer (deadline/cancel); "
              "remaining score upper bound %.3f\n", upper_bound);
}

int CmdQuery(const std::map<std::string, std::string>& flags, bool diversified) {
  Result<std::unique_ptr<Engine>> engine = OpenEngine(flags);
  if (!engine.ok()) return Fail(engine.status());
  Result<Query> query = BuildQuery(flags);
  if (!query.ok()) return Fail(query.status());

  const double deadline_ms = DoubleFlag(flags, "deadline-ms", 0.0);
  const bool progressive = FlagOr(flags, "progressive", "0") == "1";
  const bool controlled = progressive || deadline_ms > 0.0;
  ProgressiveOptions prog;
  prog.deadline_seconds = deadline_ms / 1000.0;
  prog.chunk_size = static_cast<std::uint32_t>(IntFlag(flags, "chunk", 8));
  // Streams each improving wave: rank-1 score, the threshold σ_L, and the
  // frontier upper bound — the gap σ_L vs bound is the anytime progress bar.
  ProgressiveCallback on_update;
  if (progressive) {
    on_update = [](const ProgressiveUpdate& update) {
      const double best =
          update.communities.empty() ? 0.0 : update.communities.front().score();
      const double worst =
          update.communities.empty() ? 0.0 : update.communities.back().score();
      std::printf("wave %llu: %zu communities, best sigma=%.3f, sigma_L=%.3f, "
                  "upper bound=%.3f (%llu refined)\n",
                  static_cast<unsigned long long>(update.wave),
                  update.communities.size(), best, worst, update.upper_bound,
                  static_cast<unsigned long long>(update.candidates_refined));
      return true;
    };
  }

  if (!diversified) {
    Result<TopLResult> answer =
        controlled ? (*engine)->SearchProgressive(*query, prog, on_update)
                   : (*engine)->Search(*query);
    if (!answer.ok()) return Fail(answer.status());
    PrintCommunities(**engine, answer->communities);
    PrintTruncation(answer->truncated, answer->score_upper_bound);
    std::printf("stats: %s\n", answer->stats.ToString().c_str());
    return 0;
  }

  Result<DTopLOptions> options = BuildDTopLOptions(flags);
  if (!options.ok()) return Fail(options.status());
  Result<DTopLResult> answer =
      controlled
          ? (*engine)->SearchDiversifiedProgressive(*query, *options, prog,
                                                    on_update)
          : (*engine)->SearchDiversified(*query, *options);
  if (!answer.ok()) return Fail(answer.status());
  PrintCommunities(**engine, answer->communities);
  PrintTruncation(answer->truncated, answer->score_upper_bound);
  std::printf("diversity score D(S) = %.3f (candidates %.3fs, refine %.3fs, "
              "%llu gain evaluations)\n",
              answer->diversity_score, answer->candidate_seconds,
              answer->refine_seconds,
              static_cast<unsigned long long>(answer->gain_evaluations));
  return 0;
}

// One parsed line of a batch query file.
struct BatchEntry {
  Query query;
  bool diversified = false;
};

Result<std::vector<BatchEntry>> ParseQueryFile(
    const std::string& path, const Query& defaults) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open query file: " + path);
  std::vector<BatchEntry> entries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string keywords;
    if (!(tokens >> keywords)) continue;  // blank / comment-only line

    BatchEntry entry;
    entry.query = defaults;
    entry.query.keywords = ParseKeywordList(keywords);
    std::string token;
    int field = 0;
    std::string bad;
    const auto parse_u32 = [&](std::uint32_t* out) {
      char* end = nullptr;
      const unsigned long value = std::strtoul(token.c_str(), &end, 10);
      if (end == token.c_str() || *end != '\0') bad = "malformed integer: " + token;
      *out = static_cast<std::uint32_t>(value);
    };
    while (bad.empty() && tokens >> token) {
      if (token == "dtopl") {
        entry.diversified = true;
        continue;
      }
      switch (field++) {
        case 0: parse_u32(&entry.query.k); break;
        case 1: parse_u32(&entry.query.radius); break;
        case 2: {
          char* end = nullptr;
          entry.query.theta = std::strtod(token.c_str(), &end);
          if (end == token.c_str() || *end != '\0') bad = "malformed number: " + token;
          break;
        }
        case 3: parse_u32(&entry.query.top_l); break;
        default: bad = "too many fields"; break;
      }
    }
    if (!bad.empty()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + bad);
    }
    const Status status = entry.query.Validate();
    if (!status.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) + ": " +
                                     status.message());
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

int CmdBatch(const std::map<std::string, std::string>& flags) {
  const std::string queries_path = FlagOr(flags, "queries", "");
  if (queries_path.empty()) {
    return Fail(Status::InvalidArgument("batch needs --queries=FILE"));
  }
  // Per-line defaults reuse the query flags; keywords are always per line,
  // so each parsed line (not the defaults) is what gets validated.
  Query defaults;
  defaults.k = static_cast<std::uint32_t>(IntFlag(flags, "k", 4));
  defaults.radius = static_cast<std::uint32_t>(IntFlag(flags, "r", 2));
  defaults.theta = DoubleFlag(flags, "theta", 0.2);
  defaults.top_l = static_cast<std::uint32_t>(IntFlag(flags, "L", 5));
  Result<std::vector<BatchEntry>> entries =
      ParseQueryFile(queries_path, defaults);
  if (!entries.ok()) return Fail(entries.status());
  if (entries->empty()) {
    return Fail(Status::InvalidArgument("query file has no queries: " + queries_path));
  }

  Result<std::unique_ptr<Engine>> engine = OpenEngine(flags);
  if (!engine.ok()) return Fail(engine.status());
  Result<DTopLOptions> dtopl_options = BuildDTopLOptions(flags);
  if (!dtopl_options.ok()) return Fail(dtopl_options.status());
  const std::uint64_t repeat = IntFlag(flags, "repeat", 1);
  const bool quiet = FlagOr(flags, "quiet", "0") == "1";

  // TopL lines go through SearchBatch (one engine fan-out per repeat);
  // DTopL lines are answered afterwards, one SearchDiversified each.
  std::vector<Query> topl_queries;
  std::vector<std::size_t> topl_lines;
  std::vector<std::pair<std::size_t, const Query*>> dtopl_queries;
  for (std::size_t i = 0; i < entries->size(); ++i) {
    if ((*entries)[i].diversified) {
      dtopl_queries.emplace_back(i, &(*entries)[i].query);
    } else {
      topl_queries.push_back((*entries)[i].query);
      topl_lines.push_back(i);
    }
  }

  Timer wall;
  for (std::uint64_t round = 0; round < repeat; ++round) {
    const bool report = !quiet && round == 0;
    std::vector<Result<TopLResult>> answers =
        (*engine)->SearchBatch(topl_queries);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (!answers[i].ok()) {
        std::fprintf(stderr, "query %zu failed: %s\n", topl_lines[i] + 1,
                     answers[i].status().ToString().c_str());
        continue;
      }
      if (report) {
        std::printf("query %zu: %zu communities, best sigma=%.3f\n",
                    topl_lines[i] + 1, answers[i]->communities.size(),
                    answers[i]->communities.empty()
                        ? 0.0
                        : answers[i]->communities.front().score());
      }
    }
    for (const auto& [line, query] : dtopl_queries) {
      Result<DTopLResult> answer =
          (*engine)->SearchDiversified(*query, *dtopl_options);
      if (!answer.ok()) {
        std::fprintf(stderr, "query %zu failed: %s\n", line + 1,
                     answer.status().ToString().c_str());
        continue;
      }
      if (report) {
        std::printf("query %zu (dtopl): %zu communities, D(S)=%.3f\n",
                    line + 1, answer->communities.size(),
                    answer->diversity_score);
      }
    }
  }
  const double elapsed = wall.ElapsedSeconds();

  const EngineStats stats = (*engine)->Stats();
  std::printf("served %llu queries in %.3fs (%.1f queries/s, %zu workers, "
              "%zu detector contexts)\n",
              static_cast<unsigned long long>(stats.queries_total), elapsed,
              elapsed > 0 ? static_cast<double>(stats.queries_total) / elapsed : 0.0,
              (*engine)->num_threads(), (*engine)->pooled_contexts());
  std::printf("engine stats: %s\n", stats.ToString().c_str());
  return 0;
}

int CmdServeBench(const std::map<std::string, std::string>& flags) {
  Result<std::unique_ptr<Engine>> engine = OpenEngine(flags);
  if (!engine.ok()) return Fail(engine.status());

  Result<loadgen::WorkloadSpec> spec =
      loadgen::WorkloadSpec::Named(FlagOr(flags, "mix", "mixed"));
  if (!spec.ok()) return Fail(spec.status());
  spec->seed = IntFlag(flags, "seed", 42);
  // 0 keeps the named mix's own pool size / skew (repeat_heavy narrows both).
  const std::uint64_t signatures = IntFlag(flags, "signatures", 0);
  if (signatures != 0) {
    spec->num_signatures = static_cast<std::uint32_t>(signatures);
  }
  const double zipf = DoubleFlag(flags, "zipf", 0.0);
  if (zipf > 0.0) spec->zipf_skew = zipf;
  const std::string popularity = FlagOr(flags, "popularity", "zipf");
  if (popularity == "uniform") {
    spec->popularity = loadgen::Popularity::kUniform;
  } else if (popularity == "zipf") {
    spec->popularity = loadgen::Popularity::kZipfian;
  } else {
    return Fail(Status::InvalidArgument("unknown popularity: " + popularity));
  }
  spec->FitToIndex((*engine)->precomputed());
  Result<loadgen::WorkloadGenerator> generator =
      loadgen::WorkloadGenerator::Create(*spec, (*engine)->graph());
  if (!generator.ok()) return Fail(generator.status());

  loadgen::InjectorOptions inject;
  inject.num_workers = IntFlag(flags, "workers", 8);
  inject.target_qps = DoubleFlag(flags, "qps", 0.0);
  inject.duration_seconds = DoubleFlag(flags, "seconds", 5.0);
  inject.max_ops = IntFlag(flags, "ops", 0);
  inject.progressive_deadline_ms = DoubleFlag(flags, "deadline-ms", 0.0);

  const double warmup_seconds = DoubleFlag(flags, "warmup-seconds", 0.5);
  if (warmup_seconds > 0.0) {
    loadgen::InjectorOptions warmup = inject;
    warmup.target_qps = 0.0;
    warmup.duration_seconds = warmup_seconds;
    warmup.max_ops = 0;
    Result<loadgen::LoadReport> ignored =
        loadgen::LoadInjector(engine->get(), *generator, warmup).Run();
    if (!ignored.ok()) return Fail(ignored.status());
  }

  Result<loadgen::LoadReport> report =
      loadgen::LoadInjector(engine->get(), *generator, inject).Run();
  if (!report.ok()) return Fail(report.status());
  report->stream_digest = generator->StreamDigest(4096);
  std::printf("%s", report->ToString().c_str());

  loadgen::SloThresholds slo;
  slo.min_ops_per_s = DoubleFlag(flags, "slo-qps", 0.0);
  slo.max_p99_ms = DoubleFlag(flags, "slo-p99-ms", 0.0);
  slo.max_p999_ms = DoubleFlag(flags, "slo-p999-ms", 0.0);
  const std::vector<std::string> violations = report->CheckSlo(slo);
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "SLO BREACH: %s\n", violation.c_str());
  }

  const std::string json_path = FlagOr(flags, "json", "");
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      return Fail(Status::IOError("cannot write " + json_path));
    }
    const std::string payload = report->ToJson();
    std::fwrite(payload.data(), 1, payload.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // `index` takes an optional subcommand; a bare flag list keeps the
  // historical behavior (build).
  if (command == "index") {
    std::string sub = "build";
    int first_flag = 2;
    if (argc >= 3 && std::string(argv[2]).rfind("--", 0) != 0) {
      sub = argv[2];
      first_flag = 3;
    }
    std::map<std::string, std::string> flags;
    const Status parsed =
        ParseFlags(argc, argv, first_flag, KnownFlags(), &flags);
    if (!parsed.ok()) return Fail(parsed);
    if (sub == "build") return CmdIndexBuild(flags);
    if (sub == "inspect") return CmdIndexInspect(flags);
    if (sub == "migrate") return CmdIndexMigrate(flags);
    return Usage();
  }
  std::map<std::string, std::string> flags;
  const Status parsed = ParseFlags(argc, argv, 2, KnownFlags(), &flags);
  if (!parsed.ok()) return Fail(parsed);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "update") return CmdUpdate(flags);
  if (command == "recover") return CmdRecover(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "query") return CmdQuery(flags, /*diversified=*/false);
  if (command == "dtopl") return CmdQuery(flags, /*diversified=*/true);
  if (command == "batch") return CmdBatch(flags);
  if (command == "serve-bench") return CmdServeBench(flags);
  return Usage();
}
