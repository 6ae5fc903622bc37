#include "index/precompute.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/thread_pool.h"
#include "truss/truss_decomposition.h"

namespace topl {

bool PrecomputedData::SignatureIntersects(VertexId v, std::uint32_t r,
                                          const BitVector& query_bv) const {
  const auto words = SignatureWords(v, r);
  const auto qwords = query_bv.words();
  TOPL_DCHECK(words.size() == qwords.size(), "signature width mismatch");
  for (std::size_t i = 0; i < words.size(); ++i) {
    if ((words[i] & qwords[i]) != 0) return true;
  }
  return false;
}

int PrecomputedData::ThresholdIndex(double theta) const {
  int z = -1;
  for (std::size_t i = 0; i < thetas_.size(); ++i) {
    if (thetas_[i] <= theta) z = static_cast<int>(i);
  }
  return z;
}

double PrecomputedData::SortKey(VertexId v) const {
  double sum = 0.0;
  for (std::uint32_t r = 1; r <= r_max_; ++r) {
    sum += SupportBound(v, r);
    for (std::uint32_t z = 0; z < num_thetas(); ++z) sum += ScoreBound(v, r, z);
  }
  return sum / (r_max_ * (1.0 + thetas_.size()));
}

VertexPrecomputer::VertexPrecomputer(const Graph& g)
    : graph_(&g), hop_(g), engine_(g) {}

void VertexPrecomputer::Recompute(VertexId v, PrecomputedData* out) {
  TOPL_CHECK(!out->IsMapped(),
             "VertexPrecomputer::Recompute needs a heap-backed "
             "PrecomputedData (copy a mapped instance first)");
  TOPL_CHECK(v < out->n_ && out->n_ == graph_->NumVertices(),
             "VertexPrecomputer::Recompute: vertex/graph shape mismatch");
  const Graph& g = *graph_;
  const std::uint32_t r_max = out->r_max_;
  const std::size_t m_thetas = out->owned_thetas_.size();

  // One unfiltered r_max-hop extraction; every smaller radius is a BFS-order
  // prefix of it.
  hop_.Extract(v, r_max, /*keyword_filter=*/{}, &lg_);
  const LocalGraph& lg = lg_;

  // Members per radius (prefix lengths of the BFS order).
  members_at_radius_.assign(r_max + 1, 0);
  {
    std::size_t idx = 0;
    for (std::uint32_t r = 0; r <= r_max; ++r) {
      while (idx < lg.NumVertices() && lg.dist[idx] <= r) ++idx;
      members_at_radius_[r] = idx;
    }
  }

  // Signatures: incremental OR over BFS layers.
  if (acc_.bits() != out->signature_bits_) {
    acc_ = BitVector(out->signature_bits_);
  } else {
    acc_.Clear();
  }
  {
    std::size_t idx = 0;
    for (std::uint32_t r = 1; r <= r_max; ++r) {
      // Layer r-1's prefix is already folded in; fold the new layer.
      // (For r = 1 this folds layers 0 and 1.)
      const std::size_t upto = members_at_radius_[r];
      while (idx < upto) {
        for (KeywordId w : g.Keywords(lg.global_ids[idx])) acc_.AddKeyword(w);
        ++idx;
      }
      std::copy(acc_.words().begin(), acc_.words().end(),
                out->owned_signatures_.begin() +
                    static_cast<std::ptrdiff_t>(out->SigOffset(v, r)));
    }
  }

  // Support bounds "w.r.t. hop(v_i, r_max)" (Algorithm 2 lines 4-5):
  // edge supports within the ball, plus — from the same peeling — the
  // trussness of the center, the sharp structural bound.
  decomposer_.Decompose(lg, &ball_trussness_, &ball_support_);
  out->owned_center_truss_[v] = LocalCenterTrussness(lg, ball_trussness_);
  // Max ball-support among edges appearing at each radius, then prefix-max
  // across radii.
  max_sup_by_radius_.assign(r_max + 1, 0);
  for (std::size_t e = 0; e < lg.NumEdges(); ++e) {
    const std::uint32_t er = lg.edge_radius[e];
    max_sup_by_radius_[er] = std::max(max_sup_by_radius_[er], ball_support_[e]);
  }
  // edge_radius is max(dist of endpoints) ≥ 1, so bucket 0 stays empty.
  std::uint32_t running = 0;
  for (std::uint32_t r = 1; r <= r_max; ++r) {
    running = std::max(running, max_sup_by_radius_[r]);
    out->owned_support_bounds_[out->Index2(v, r)] = running;
  }

  // Influential-score bounds: one score-only propagation per radius at
  // θ_min yields every σ_z, written straight into the row's m slots.
  for (std::uint32_t r = 1; r <= r_max; ++r) {
    const std::size_t count = members_at_radius_[r];
    const std::span<const VertexId> seeds(lg.global_ids.data(), count);
    engine_.ComputeScores(
        seeds, out->owned_thetas_,
        std::span<double>(out->owned_score_bounds_.data() + out->Index3(v, r, 0),
                          m_thetas));
  }
}

Result<PrecomputedData> PrecomputedData::Build(const Graph& g,
                                               const PrecomputeOptions& options) {
  if (options.r_max < 1) {
    return Status::InvalidArgument("r_max must be >= 1");
  }
  if (options.thetas.empty()) {
    return Status::InvalidArgument("at least one pre-selected theta is required");
  }
  for (std::size_t i = 0; i < options.thetas.size(); ++i) {
    const double t = options.thetas[i];
    if (!(t >= 0.0 && t < 1.0)) {
      return Status::InvalidArgument("pre-selected thetas must be in [0, 1)");
    }
    if (i > 0 && t <= options.thetas[i - 1]) {
      return Status::InvalidArgument("pre-selected thetas must be strictly ascending");
    }
  }
  if (options.signature_bits < 8) {
    return Status::InvalidArgument("signature_bits must be >= 8");
  }

  PrecomputedData data;
  data.r_max_ = options.r_max;
  data.owned_thetas_ = options.thetas;
  data.signature_bits_ = options.signature_bits;
  data.words_ = (options.signature_bits + 63) / 64;
  data.n_ = g.NumVertices();
  const std::uint32_t r_max = data.r_max_;
  const std::size_t m_thetas = data.owned_thetas_.size();
  data.owned_signatures_.assign(data.n_ * r_max * data.words_, 0);
  data.owned_support_bounds_.assign(data.n_ * r_max, 0);
  data.owned_center_truss_.assign(data.n_, 2);
  data.owned_score_bounds_.assign(data.n_ * r_max * m_thetas, 0.0);
  // All arrays are fully sized: bind the views now, and let the parallel
  // build below write through the owned vectors.
  data.BindOwned();

  ThreadPool pool(options.num_threads);

  // One extraction + propagation scratch set per worker.
  std::vector<std::unique_ptr<VertexPrecomputer>> workers;
  workers.reserve(pool.num_threads());
  for (std::size_t t = 0; t < pool.num_threads(); ++t) {
    workers.push_back(std::make_unique<VertexPrecomputer>(g));
  }

  pool.ParallelForWithWorker(
      0, data.n_,
      [&](std::size_t worker_id, std::size_t vi) {
        workers[worker_id]->Recompute(static_cast<VertexId>(vi), &data);
      },
      /*grain=*/32);

  return data;
}

}  // namespace topl
