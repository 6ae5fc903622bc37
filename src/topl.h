#ifndef TOPL_TOPL_H_
#define TOPL_TOPL_H_

/// \file
/// Umbrella header for the topl library: Top-L Most Influential Community
/// Detection over social networks (TopL-ICDE, ICDE 2024) and its diversified
/// variant (DTopL-ICDE).
///
/// Typical pipeline — an Engine owns the offline phase (loading or building
/// the index as needed) and serves TopL/DTopL queries from any thread:
/// \code
///   auto engine = topl::Engine::Open({.graph_path = "graph.bin",
///                                     .index_path = "index.bin"});
///   auto answer = (*engine)->Search({.keywords = {1, 8, 21}});
/// \endcode
///
/// See engine/engine.h for batched (SearchBatch) and progressive serving,
/// and the individual headers below for the pipeline's building blocks
/// (GraphBuilder / generators -> PrecomputedData -> TreeIndex -> detectors).

#include "baselines/atindex.h"
#include "baselines/im_greedy.h"
#include "common/fault_injection.h"
#include "common/latency_histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/brute_force.h"
#include "core/community_result.h"
#include "core/dtopl_detector.h"
#include "core/query.h"
#include "core/search_control.h"
#include "core/seed_community.h"
#include "core/topl_detector.h"
#include "engine/engine.h"
#include "engine/engine_options.h"
#include "engine/engine_stats.h"
#include "graph/bfs.h"
#include "graph/binary_io.h"
#include "graph/connectivity.h"
#include "graph/delta_io.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "graph/local_subgraph.h"
#include "graph/reorder.h"
#include "graph/types.h"
#include "index/index_update.h"
#include "index/precompute.h"
#include "index/tree_index.h"
#include "influence/diversity.h"
#include "influence/influence_calculator.h"
#include "influence/propagation.h"
#include "keywords/keyword_dictionary.h"
#include "loadgen/injector.h"
#include "loadgen/recorder.h"
#include "loadgen/report.h"
#include "loadgen/workload.h"
#include "storage/artifact.h"
#include "storage/atomic_file.h"
#include "storage/checksum.h"
#include "storage/mapped_file.h"
#include "storage/update_journal.h"
#include "storage/varint.h"
#include "truss/kcore.h"
#include "truss/local_truss.h"
#include "truss/support.h"
#include "truss/truss_decomposition.h"

#endif  // TOPL_TOPL_H_
