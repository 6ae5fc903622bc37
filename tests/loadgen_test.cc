#include "loadgen/workload.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "index/precompute.h"

namespace topl {
namespace loadgen {
namespace {

Graph MakeTestGraph(std::size_t vertices = 500, std::uint64_t seed = 17) {
  SmallWorldOptions gen;
  gen.num_vertices = vertices;
  gen.seed = seed;
  gen.keywords.domain_size = 30;
  gen.keywords.keywords_per_vertex = 3;
  Result<Graph> g = MakeSmallWorld(gen);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

WorkloadGenerator MakeGenerator(const Graph& graph, WorkloadSpec spec) {
  Result<WorkloadGenerator> generator = WorkloadGenerator::Create(spec, graph);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  return std::move(generator).value();
}

bool SameOperation(const Operation& a, const Operation& b) {
  return a.index == b.index && a.kind == b.kind && a.signature == b.signature &&
         a.delta_seed == b.delta_seed && a.query.keywords == b.query.keywords &&
         a.query.k == b.query.k && a.query.radius == b.query.radius &&
         a.query.theta == b.query.theta && a.query.top_l == b.query.top_l;
}

TEST(WorkloadSpecTest, NamedMixesValidate) {
  for (const char* name :
       {"read_heavy", "update_heavy", "progressive_scan", "mixed"}) {
    Result<WorkloadSpec> spec = WorkloadSpec::Named(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_TRUE(spec->Validate().ok()) << name;
    double sum = 0.0;
    for (double f : spec->mix) sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9) << name;
  }
  EXPECT_FALSE(WorkloadSpec::Named("no_such_mix").ok());
}

TEST(WorkloadSpecTest, ValidateRejectsBadSpecs) {
  WorkloadSpec spec;
  spec.mix = {0.5, 0.5, 0.5, 0.5};
  EXPECT_FALSE(spec.Validate().ok());

  spec = WorkloadSpec();
  spec.num_signatures = 0;
  EXPECT_FALSE(spec.Validate().ok());

  spec = WorkloadSpec();
  spec.params.k_values.clear();
  EXPECT_FALSE(spec.Validate().ok());
}

// The reproducibility contract: the operation stream is a pure function of
// (spec, graph) — two generators built the same way agree operation by
// operation, regardless of the order or the thread the indices are drawn on.
TEST(WorkloadGeneratorTest, SameSeedSameStream) {
  const Graph graph = MakeTestGraph();
  WorkloadSpec spec;
  spec.seed = 99;
  const WorkloadGenerator a = MakeGenerator(graph, spec);
  const WorkloadGenerator b = MakeGenerator(graph, spec);

  constexpr std::uint64_t kOps = 2000;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(SameOperation(a.At(i), b.At(i))) << "op " << i;
  }
  EXPECT_EQ(a.StreamDigest(kOps), b.StreamDigest(kOps));

  // Different seed => different stream (digest collision is astronomically
  // unlikely over 2000 ops).
  spec.seed = 100;
  const WorkloadGenerator c = MakeGenerator(graph, spec);
  EXPECT_NE(a.StreamDigest(kOps), c.StreamDigest(kOps));
}

// Threaded, out-of-order, striped At() calls reproduce the exact sequential
// stream — the property that lets injector workers claim indices from one
// shared counter without harming determinism.
TEST(WorkloadGeneratorTest, StreamIsThreadCountInvariant) {
  const Graph graph = MakeTestGraph();
  WorkloadSpec spec;
  spec.seed = 7;
  const WorkloadGenerator generator = MakeGenerator(graph, spec);

  constexpr std::uint64_t kOps = 1024;
  std::vector<Operation> sequential(kOps);
  for (std::uint64_t i = 0; i < kOps; ++i) sequential[i] = generator.At(i);

  for (std::size_t num_threads : {2, 5, 8}) {
    std::vector<Operation> striped(kOps);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        // Stripe in reverse so each thread also hits indices out of order.
        for (std::uint64_t i = t; i < kOps; i += num_threads) {
          striped[kOps - 1 - i] = generator.At(kOps - 1 - i);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(SameOperation(sequential[i], striped[i]))
          << num_threads << " threads, op " << i;
    }
  }
}

TEST(WorkloadGeneratorTest, OperationsRespectParamBandsAndValidate) {
  const Graph graph = MakeTestGraph();
  WorkloadSpec spec;
  const WorkloadGenerator generator = MakeGenerator(graph, spec);

  const auto in_band = [](auto value, const auto& band) {
    for (const auto& allowed : band) {
      if (value == allowed) return true;
    }
    return false;
  };

  for (std::uint64_t i = 0; i < 500; ++i) {
    const Operation op = generator.At(i);
    EXPECT_EQ(op.index, i);
    if (op.kind == OpKind::kUpdate) {
      EXPECT_NE(op.delta_seed, 0u);
      continue;
    }
    EXPECT_TRUE(op.query.Validate().ok()) << "op " << i;
    EXPECT_EQ(op.query.keywords.size(), spec.keywords_per_query);
    EXPECT_LT(op.signature, spec.num_signatures);
    EXPECT_EQ(op.query.keywords, generator.signature(op.signature));
    EXPECT_TRUE(in_band(op.query.k, spec.params.k_values));
    EXPECT_TRUE(in_band(op.query.radius, spec.params.radius_values));
    EXPECT_TRUE(in_band(op.query.theta, spec.params.theta_values));
    EXPECT_TRUE(in_band(op.query.top_l, spec.params.top_l_values));
  }
}

TEST(WorkloadGeneratorTest, MixFractionsAreHonored) {
  const Graph graph = MakeTestGraph();
  Result<WorkloadSpec> spec = WorkloadSpec::Named("mixed");
  ASSERT_TRUE(spec.ok());
  const WorkloadGenerator generator = MakeGenerator(graph, *spec);

  constexpr std::uint64_t kOps = 20000;
  std::array<std::uint64_t, kNumOpKinds> counts{};
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ++counts[static_cast<std::size_t>(generator.At(i).kind)];
  }
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    const double observed = static_cast<double>(counts[k]) / kOps;
    EXPECT_NEAR(observed, spec->mix[k], 0.02)
        << OpKindName(static_cast<OpKind>(k));
  }
}

// Zipfian popularity: rank-frequency of the signature pool must follow
// pmf(rank) ∝ (rank+1)^-s. Chi-squared against the exact pmf over a pool of
// 16 signatures and ~40k query draws; the test is deterministic (fixed
// seed), so the threshold only needs to clear the critical value with margin
// (df=15, crit@0.001 ≈ 37.7).
TEST(WorkloadGeneratorTest, ZipfianPopularityMatchesRankFrequency) {
  const Graph graph = MakeTestGraph();
  WorkloadSpec spec;
  spec.mix = {1.0, 0.0, 0.0, 0.0};  // queries only: every op draws a rank
  spec.num_signatures = 16;
  spec.popularity = Popularity::kZipfian;
  spec.zipf_skew = 0.99;
  const WorkloadGenerator generator = MakeGenerator(graph, spec);

  constexpr std::uint64_t kOps = 40000;
  std::vector<std::uint64_t> counts(spec.num_signatures, 0);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ++counts[generator.At(i).signature];
  }

  double norm = 0.0;
  for (std::uint32_t r = 0; r < spec.num_signatures; ++r) {
    norm += std::pow(static_cast<double>(r + 1), -spec.zipf_skew);
  }
  double chi2 = 0.0;
  for (std::uint32_t r = 0; r < spec.num_signatures; ++r) {
    const double expected =
        kOps * std::pow(static_cast<double>(r + 1), -spec.zipf_skew) / norm;
    const double diff = static_cast<double>(counts[r]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 60.0) << "zipf rank-frequency off: chi2=" << chi2;
  // Skew sanity: rank 0 must dominate the tail rank.
  EXPECT_GT(counts[0], 4 * counts[spec.num_signatures - 1]);
}

TEST(WorkloadGeneratorTest, UniformPopularitySpreadsEvenly) {
  const Graph graph = MakeTestGraph();
  WorkloadSpec spec;
  spec.mix = {1.0, 0.0, 0.0, 0.0};
  spec.num_signatures = 16;
  spec.popularity = Popularity::kUniform;
  const WorkloadGenerator generator = MakeGenerator(graph, spec);

  constexpr std::uint64_t kOps = 40000;
  std::vector<std::uint64_t> counts(spec.num_signatures, 0);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ++counts[generator.At(i).signature];
  }
  const double expected = static_cast<double>(kOps) / spec.num_signatures;
  double chi2 = 0.0;
  for (std::uint64_t count : counts) {
    const double diff = static_cast<double>(count) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 60.0) << "uniform popularity off: chi2=" << chi2;
}

TEST(WorkloadGeneratorTest, SignaturesComeFromGraphKeywords) {
  const Graph graph = MakeTestGraph();
  WorkloadSpec spec;
  const WorkloadGenerator generator = MakeGenerator(graph, spec);
  for (std::uint32_t s = 0; s < spec.num_signatures; ++s) {
    const std::vector<KeywordId>& signature = generator.signature(s);
    EXPECT_EQ(signature.size(), spec.keywords_per_query);
    for (KeywordId kw : signature) {
      EXPECT_LT(kw, graph.KeywordDomainBound());
    }
    EXPECT_TRUE(std::is_sorted(signature.begin(), signature.end()));
  }
}

TEST(WorkloadGeneratorTest, KeywordFreeGraphIsRejected) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 0.5, 0.5);
  Result<Graph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  WorkloadSpec spec;
  EXPECT_FALSE(WorkloadGenerator::Create(spec, *graph).ok());
}

PrecomputedData MakePrecompute(const Graph& graph, std::uint32_t r_max) {
  PrecomputeOptions options;  // thetas {0.1, 0.2, 0.3}
  options.r_max = r_max;
  options.num_threads = 1;
  Result<PrecomputedData> pre = PrecomputedData::Build(graph, options);
  EXPECT_TRUE(pre.ok()) << pre.status().ToString();
  return std::move(pre).value();
}

TEST(WorkloadSpecTest, FitToIndexDropsRadiiAboveRMax) {
  const Graph graph = MakeTestGraph(200);
  WorkloadSpec spec;
  spec.params.radius_values = {3, 1, 4, 2};
  spec.FitToIndex(MakePrecompute(graph, 2));
  EXPECT_EQ(spec.params.radius_values, (std::vector<std::uint32_t>{1, 2}));
}

TEST(WorkloadSpecTest, FitToIndexRefillsAnEmptiedRadiusBand) {
  const Graph graph = MakeTestGraph(200);
  const PrecomputedData r1 = MakePrecompute(graph, 1);
  const PrecomputedData r3 = MakePrecompute(graph, 3);
  WorkloadSpec spec;
  spec.params.radius_values = {2, 3};
  spec.FitToIndex(r1);
  EXPECT_EQ(spec.params.radius_values, (std::vector<std::uint32_t>{1}));
  // The fallback stops at radius 2 even when r_max allows more.
  spec.params.radius_values = {4, 5};
  spec.FitToIndex(r3);
  EXPECT_EQ(spec.params.radius_values, (std::vector<std::uint32_t>{1, 2}));
}

TEST(WorkloadSpecTest, FitToIndexSnapsThetasToTheGridWithoutDuplicates) {
  const Graph graph = MakeTestGraph(200);
  const PrecomputedData pre = MakePrecompute(graph, 2);
  ASSERT_EQ(pre.num_thetas(), 3u);
  WorkloadSpec spec;
  spec.params.theta_values = {0.21, 0.05, 0.12, 0.18, 0.9, 0.29};
  spec.FitToIndex(pre);
  // First-occurrence order: 0.21 -> 0.2, 0.05/0.12 -> 0.1, 0.9/0.29 -> 0.3.
  EXPECT_EQ(spec.params.theta_values,
            (std::vector<double>{pre.thetas()[1], pre.thetas()[0],
                                 pre.thetas()[2]}));
}

TEST(WorkloadSpecTest, FitToIndexKeepsRepeatHeavySingleValueBands) {
  const Graph graph = MakeTestGraph(200);
  Result<WorkloadSpec> spec = WorkloadSpec::Named("repeat_heavy");
  ASSERT_TRUE(spec.ok());
  const ParamBands before = spec->params;
  spec->FitToIndex(MakePrecompute(graph, 2));
  EXPECT_EQ(spec->params.k_values, before.k_values);
  EXPECT_EQ(spec->params.radius_values, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(spec->params.theta_values, (std::vector<double>{0.2}));
  EXPECT_EQ(spec->params.top_l_values, before.top_l_values);
}

}  // namespace
}  // namespace loadgen
}  // namespace topl
