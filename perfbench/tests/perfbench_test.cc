// The benchmark's own tests: the percentile helper against a sorted-sample
// reference, seed determinism of the operation and delta streams, and a
// smoke run of every workload in both modes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "histogram.h"
#include "loadgen/workload.h"
#include "setup.h"
#include "storage/update_journal.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Definition-level reference: the smallest sample value v such that at
/// least q·n samples are <= v.
double ReferencePercentile(const std::vector<double>& samples, double q) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double v : sorted) {
    const auto at_or_below = std::count_if(sorted.begin(), sorted.end(),
                                           [v](double x) { return x <= v; });
    if (static_cast<double>(at_or_below) >= q * static_cast<double>(sorted.size())) {
      return v;
    }
  }
  return sorted.back();
}

TEST(PercentileTest, SortedPercentileMatchesDefinition) {
  topl::Rng rng(7);
  for (int n : {1, 2, 3, 10, 99, 1000}) {
    std::vector<double> samples;
    for (int i = 0; i < n; ++i) samples.push_back(std::floor(rng.NextDouble() * 50));
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(SortedPercentile(sorted, q), ReferencePercentile(samples, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(PercentileTest, HistogramWithinOnePercentOfSortedSamples) {
  topl::Rng rng(11);
  LogHistogram histogram;
  std::vector<double> nanos;
  // Log-uniform over 1 us .. 10 s: every octave the benchmark sees.
  for (int i = 0; i < 200000; ++i) {
    const double ns = std::floor(std::exp(std::log(1e3) + rng.NextDouble() * std::log(1e7)));
    nanos.push_back(ns);
    histogram.RecordNanos(static_cast<std::uint64_t>(ns));
  }
  std::sort(nanos.begin(), nanos.end());
  ASSERT_EQ(histogram.count(), nanos.size());
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = SortedPercentile(nanos, q);
    EXPECT_NEAR(histogram.PercentileNanos(q), exact, 0.01 * exact) << "q=" << q;
  }
  EXPECT_EQ(histogram.SamplesBeyond(0.99), 2000u);
}

TEST(PercentileTest, HistogramIsExactBelowOneHundredTwentyEightNanos) {
  LogHistogram histogram;
  std::vector<double> values;
  for (std::uint64_t v = 0; v < 128; ++v) {
    histogram.RecordNanos(v);
    values.push_back(static_cast<double>(v));
  }
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(histogram.PercentileNanos(q), SortedPercentile(values, q), 1.0);
  }
}

TEST(PercentileTest, MergeEqualsRecordingEverythingInOne) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram all;
  for (std::uint64_t v = 1; v < 100000; v += 7) {
    (v % 2 == 0 ? a : b).RecordNanos(v);
    all.RecordNanos(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.PercentileNanos(0.9), all.PercentileNanos(0.9));
}

topl::Graph SmallGraph(std::uint64_t seed) {
  topl::SmallWorldOptions options;
  options.num_vertices = 600;
  options.seed = GraphSeed(seed);
  return topl::MakeSmallWorld(options).value();
}

std::uint64_t Digest(const topl::loadgen::WorkloadSpec& spec, const topl::Graph& g) {
  return topl::loadgen::WorkloadGenerator::Create(spec, g).value().StreamDigest(512);
}

TEST(DeterminismTest, SameSeedSameStreamDigest) {
  const topl::Graph g = SmallGraph(3);
  const topl::Graph same = SmallGraph(3);
  for (auto make : {&ReadSpec, &ChurnSpec, &UpdateSpec}) {
    EXPECT_EQ(Digest(make(3), g), Digest(make(3), same));
    EXPECT_NE(Digest(make(3), g), Digest(make(4), g));
  }
}

/// The writer's first `count` deltas, each drawn against the graph the
/// previous ones produced, serialized with the journal codec.
std::vector<std::vector<std::uint8_t>> DeltaSequence(std::uint64_t seed, int count) {
  topl::Graph g = SmallGraph(seed);
  const topl::loadgen::WorkloadGenerator gen =
      topl::loadgen::WorkloadGenerator::Create(UpdateSpec(seed), g).value();
  std::vector<std::vector<std::uint8_t>> out;
  for (int i = 0; i < count; ++i) {
    topl::Rng rng(gen.At(i).delta_seed);
    const topl::GraphDelta delta = topl::MakeRandomDelta(g, rng, gen.spec().delta);
    out.push_back(topl::UpdateJournal::EncodeDelta(delta));
    g = topl::ApplyDelta(g, delta).value();
  }
  return out;
}

TEST(DeterminismTest, SameSeedSameDeltaSequence) {
  const auto first = DeltaSequence(5, 6);
  EXPECT_EQ(first, DeltaSequence(5, 6));
  EXPECT_NE(first, DeltaSequence(6, 6));
}

TEST(ThreadPlanTest, EveryCountIsPositiveAndBoundedOnAnyCpuCount) {
  for (const std::string& workload : WorkloadNames()) {
    for (std::size_t cpus : {0, 1, 2, 3, 4, 8, 64}) {
      const topl::Result<ThreadPlan> plan = PlanThreads(workload, cpus);
      ASSERT_TRUE(plan.ok());
      const std::size_t usable = std::max<std::size_t>(1, cpus);
      EXPECT_GE(plan->readers, 1u) << workload << " cpus=" << cpus;
      EXPECT_LE(plan->readers, usable) << workload << " cpus=" << cpus;
      if (plan->engine_threads > 0) {
        // A writer's pool counts the writer itself, and shares the CPUs the
        // readers leave (one CPU each on a one- or two-CPU box).
        EXPECT_LE(plan->readers + plan->engine_threads, std::max<std::size_t>(2, usable))
            << workload << " cpus=" << cpus;
      }
    }
  }
  EXPECT_FALSE(PlanThreads("no_such_workload", 4).ok());
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, BothModesRunCorrectAndReportEveryMetric) {
  for (bool trace : {false, true}) {
    RunConfig config;
    config.workload = GetParam();
    config.seed = 2;
    config.seconds = 1.0;
    config.trace = trace;
    config.smoke = true;
    config.work_dir = "perfbench-smoke-" + GetParam();
    const topl::Result<RunOutput> out = RunWorkload(config);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(out->correct);
    EXPECT_EQ(out->failed, 0u);
    EXPECT_GT(out->attempted, 0u);
    const std::vector<std::string>& names =
        trace ? PerLayerMetricNames() : EndToEndMetricNames();
    ASSERT_EQ(out->json.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(out->json[i].name, names[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest, ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
