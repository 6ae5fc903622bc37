#include "loadgen/workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "index/precompute.h"

namespace topl {
namespace loadgen {

namespace {

/// Decorrelates the per-operation seed from the master seed. The Rng
/// constructor splitmixes its input, but neighboring indices must still not
/// share state, so spread them over the 64-bit space first.
std::uint64_t OpSeed(std::uint64_t master, std::uint64_t index) {
  std::uint64_t x = master ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

Result<WorkloadSpec> WorkloadSpec::Named(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "read_heavy") {
    spec.mix = {0.80, 0.10, 0.08, 0.02};
  } else if (name == "update_heavy") {
    spec.mix = {0.45, 0.05, 0.00, 0.50};
  } else if (name == "progressive_scan") {
    spec.mix = {0.05, 0.00, 0.90, 0.05};
  } else if (name == "mixed") {
    spec.mix = {0.50, 0.15, 0.25, 0.10};
  } else if (name == "repeat_heavy") {
    // Interactive-exploration traffic: the same few queries re-issued over
    // and over. High zipf skew over a narrow signature pool, parameters
    // pinned to single values so keys actually repeat, and no updates —
    // the mix that makes a result cache's win measurable on its own.
    spec.mix = {0.90, 0.10, 0.00, 0.00};
    spec.zipf_skew = 1.2;
    spec.num_signatures = 16;
    spec.params.k_values = {4};
    spec.params.radius_values = {2};
    spec.params.theta_values = {0.2};
    spec.params.top_l_values = {5};
  } else {
    return Status::InvalidArgument(
        "unknown workload mix: " + name +
        " (expected read_heavy, update_heavy, progressive_scan, "
        "repeat_heavy, or mixed)");
  }
  return spec;
}

void WorkloadSpec::FitToIndex(const PrecomputedData& pre) {
  std::vector<std::uint32_t> radii;
  for (std::uint32_t r : params.radius_values) {
    if (r >= 1 && r <= pre.r_max()) radii.push_back(r);
  }
  if (radii.empty()) {
    for (std::uint32_t r = 1; r <= pre.r_max() && r <= 2; ++r) {
      radii.push_back(r);
    }
  }
  params.radius_values = std::move(radii);
  std::vector<double> thetas;
  for (double want : params.theta_values) {
    double best = pre.thetas().front();
    for (double have : pre.thetas()) {
      if (std::abs(have - want) < std::abs(best - want)) best = have;
    }
    if (std::find(thetas.begin(), thetas.end(), best) == thetas.end()) {
      thetas.push_back(best);
    }
  }
  params.theta_values = std::move(thetas);
}

Status WorkloadSpec::Validate() const {
  double sum = 0.0;
  for (double fraction : mix) {
    if (fraction < 0.0) {
      return Status::InvalidArgument("mix fractions must be non-negative");
    }
    sum += fraction;
  }
  if (std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("mix fractions must sum to 1");
  }
  if (num_signatures == 0) {
    return Status::InvalidArgument("need at least one query signature");
  }
  if (keywords_per_query == 0) {
    return Status::InvalidArgument("need at least one keyword per query");
  }
  if (zipf_skew <= 0.0) {
    return Status::InvalidArgument("zipf skew must be > 0");
  }
  if (params.k_values.empty() || params.radius_values.empty() ||
      params.theta_values.empty() || params.top_l_values.empty()) {
    return Status::InvalidArgument("every parameter band needs >= 1 value");
  }
  return Status::OK();
}

WorkloadGenerator::WorkloadGenerator(
    WorkloadSpec spec, std::vector<std::vector<KeywordId>> signatures)
    : spec_(std::move(spec)), signatures_(std::move(signatures)) {
  double sum = 0.0;
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    sum += spec_.mix[k];
    cumulative_[k] = sum;
  }
  cumulative_[kNumOpKinds - 1] = 1.0;  // absorb rounding in the last kind
}

Result<WorkloadGenerator> WorkloadGenerator::Create(WorkloadSpec spec,
                                                    const Graph& graph) {
  TOPL_RETURN_IF_ERROR(spec.Validate());
  if (graph.NumVertices() == 0) {
    return Status::InvalidArgument("workload needs a non-empty graph");
  }

  // Population-weighted signature pool: pick a vertex, then one of its
  // keywords — uniform draws over the domain mostly select keywords nobody
  // holds under skewed assignment models (mirrors bench_common.h).
  std::vector<std::vector<KeywordId>> signatures;
  signatures.reserve(spec.num_signatures);
  for (std::uint32_t s = 0; s < spec.num_signatures; ++s) {
    Rng rng(OpSeed(spec.seed * 0x9e3779b9ULL + 1, s));
    std::vector<KeywordId> keywords;
    for (int guard = 0;
         keywords.size() < spec.keywords_per_query && guard < 100000; ++guard) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(graph.NumVertices()));
      const auto kws = graph.Keywords(v);
      if (kws.empty()) continue;
      const KeywordId w = kws[rng.NextBounded(kws.size())];
      if (std::find(keywords.begin(), keywords.end(), w) == keywords.end()) {
        keywords.push_back(w);
      }
    }
    if (keywords.empty()) {
      return Status::InvalidArgument(
          "cannot build query signatures: graph has no keywords");
    }
    std::sort(keywords.begin(), keywords.end());
    signatures.push_back(std::move(keywords));
  }
  return WorkloadGenerator(std::move(spec), std::move(signatures));
}

Operation WorkloadGenerator::At(std::uint64_t index) const {
  Rng rng(OpSeed(spec_.seed, index));
  Operation op;
  op.index = index;

  const double u = rng.NextDouble();
  std::size_t kind = kNumOpKinds - 1;
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    if (u < cumulative_[k]) {
      kind = k;
      break;
    }
  }
  op.kind = static_cast<OpKind>(kind);

  if (op.kind == OpKind::kUpdate) {
    op.delta_seed = rng.NextUint64();
    return op;
  }

  op.signature = static_cast<std::uint32_t>(
      spec_.popularity == Popularity::kZipfian
          ? rng.NextZipf(signatures_.size(), spec_.zipf_skew)
          : rng.NextBounded(signatures_.size()));
  op.query.keywords = signatures_[op.signature];
  const ParamBands& bands = spec_.params;
  op.query.k = bands.k_values[rng.NextBounded(bands.k_values.size())];
  op.query.radius =
      bands.radius_values[rng.NextBounded(bands.radius_values.size())];
  op.query.theta = bands.theta_values[rng.NextBounded(bands.theta_values.size())];
  op.query.top_l = bands.top_l_values[rng.NextBounded(bands.top_l_values.size())];
  return op;
}

std::uint64_t WorkloadGenerator::StreamDigest(std::uint64_t num_ops) const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (std::uint64_t i = 0; i < num_ops; ++i) {
    const Operation op = At(i);
    hash = Fnv1a(hash, static_cast<std::uint64_t>(op.kind));
    if (op.kind == OpKind::kUpdate) {
      hash = Fnv1a(hash, op.delta_seed);
      continue;
    }
    hash = Fnv1a(hash, op.signature);
    hash = Fnv1a(hash, op.query.k);
    hash = Fnv1a(hash, op.query.radius);
    std::uint64_t theta_bits;
    static_assert(sizeof(theta_bits) == sizeof(op.query.theta));
    std::memcpy(&theta_bits, &op.query.theta, sizeof(theta_bits));
    hash = Fnv1a(hash, theta_bits);
    hash = Fnv1a(hash, op.query.top_l);
    for (KeywordId w : op.query.keywords) hash = Fnv1a(hash, w);
  }
  return hash;
}

}  // namespace loadgen
}  // namespace topl
