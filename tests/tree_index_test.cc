#include "index/tree_index.h"

#include <set>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::BuildIndexFor;
using testing::BuiltIndex;

Graph SmallWorld(std::size_t n, std::uint64_t seed) {
  SmallWorldOptions gen;
  gen.num_vertices = n;
  gen.seed = seed;
  Result<Graph> g = MakeSmallWorld(gen);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(TreeIndexTest, RejectsBadOptions) {
  const Graph g = SmallWorld(50, 1);
  Result<PrecomputedData> pre = PrecomputedData::Build(g, PrecomputeOptions());
  ASSERT_TRUE(pre.ok());
  TreeIndexOptions opts;
  opts.fanout = 1;
  EXPECT_FALSE(TreeIndex::Build(g, *pre, opts).ok());
  opts = TreeIndexOptions();
  opts.leaf_capacity = 0;
  EXPECT_FALSE(TreeIndex::Build(g, *pre, opts).ok());
}

TEST(TreeIndexTest, CoversEveryVertexExactlyOnce) {
  const Graph g = SmallWorld(137, 2);  // deliberately not a power of fanout
  const BuiltIndex built = BuildIndexFor(g);
  std::multiset<VertexId> seen;
  for (std::uint32_t id = 0; id < built.tree.NumNodes(); ++id) {
    const TreeIndex::Node& node = built.tree.node(id);
    if (!node.is_leaf) continue;
    for (VertexId v : built.tree.LeafVertices(node)) seen.insert(v);
  }
  EXPECT_EQ(seen.size(), g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) EXPECT_EQ(seen.count(v), 1u);
}

TEST(TreeIndexTest, NodeVertexCountsConsistent) {
  const Graph g = SmallWorld(200, 3);
  const BuiltIndex built = BuildIndexFor(g);
  for (std::uint32_t id = 0; id < built.tree.NumNodes(); ++id) {
    const TreeIndex::Node& node = built.tree.node(id);
    if (node.is_leaf) {
      EXPECT_EQ(node.num_vertices, node.end - node.begin);
    } else {
      std::uint32_t sum = 0;
      for (std::uint32_t c = 0; c < node.num_children; ++c) {
        sum += built.tree.node(node.first_child + c).num_vertices;
      }
      EXPECT_EQ(node.num_vertices, sum);
    }
  }
  EXPECT_EQ(built.tree.node(built.tree.root()).num_vertices, g.NumVertices());
}

TEST(TreeIndexTest, AggregatesDominateChildren) {
  const Graph g = SmallWorld(160, 4);
  const BuiltIndex built = BuildIndexFor(g);
  const PrecomputedData& pre = built.pre();
  for (std::uint32_t id = 0; id < built.tree.NumNodes(); ++id) {
    const TreeIndex::Node& node = built.tree.node(id);
    for (std::uint32_t r = 1; r <= pre.r_max(); ++r) {
      if (node.is_leaf) {
        for (VertexId v : built.tree.LeafVertices(node)) {
          EXPECT_GE(built.tree.SupportBound(id, r), pre.SupportBound(v, r));
          for (std::uint32_t z = 0; z < pre.num_thetas(); ++z) {
            EXPECT_GE(built.tree.ScoreBound(id, r, z), pre.ScoreBound(v, r, z));
          }
        }
      } else {
        for (std::uint32_t c = 0; c < node.num_children; ++c) {
          const std::uint32_t child = node.first_child + c;
          EXPECT_GE(built.tree.SupportBound(id, r),
                    built.tree.SupportBound(child, r));
          for (std::uint32_t z = 0; z < pre.num_thetas(); ++z) {
            EXPECT_GE(built.tree.ScoreBound(id, r, z),
                      built.tree.ScoreBound(child, r, z));
          }
        }
      }
    }
  }
}

TEST(TreeIndexTest, CenterTrussAggregatesDominate) {
  const Graph g = SmallWorld(180, 9);
  const BuiltIndex built = BuildIndexFor(g);
  const PrecomputedData& pre = built.pre();
  for (std::uint32_t id = 0; id < built.tree.NumNodes(); ++id) {
    const TreeIndex::Node& node = built.tree.node(id);
    if (node.is_leaf) {
      for (VertexId v : built.tree.LeafVertices(node)) {
        EXPECT_GE(built.tree.CenterTrussBound(id), pre.CenterTrussBound(v));
      }
    } else {
      for (std::uint32_t c = 0; c < node.num_children; ++c) {
        EXPECT_GE(built.tree.CenterTrussBound(id),
                  built.tree.CenterTrussBound(node.first_child + c));
      }
    }
  }
}

TEST(TreeIndexTest, FanoutRespected) {
  const Graph g = SmallWorld(300, 6);
  TreeIndexOptions opts;
  opts.fanout = 4;
  opts.leaf_capacity = 8;
  const BuiltIndex built = BuildIndexFor(g, PrecomputeOptions(), opts);
  for (std::uint32_t id = 0; id < built.tree.NumNodes(); ++id) {
    const TreeIndex::Node& node = built.tree.node(id);
    if (node.is_leaf) {
      EXPECT_LE(node.end - node.begin, 8u);
    } else {
      EXPECT_GE(node.num_children, 1u);
      EXPECT_LE(node.num_children, 4u);
    }
  }
}

TEST(TreeIndexTest, SingleLeafGraph) {
  const Graph g = SmallWorld(10, 7);
  TreeIndexOptions opts;
  opts.leaf_capacity = 64;  // everything fits in the root leaf
  const BuiltIndex built = BuildIndexFor(g, PrecomputeOptions(), opts);
  EXPECT_EQ(built.tree.NumNodes(), 1u);
  EXPECT_TRUE(built.tree.node(built.tree.root()).is_leaf);
  EXPECT_EQ(built.tree.height(), 1u);
}

TEST(TreeIndexTest, SortKeyOrdersLeaves) {
  const Graph g = SmallWorld(150, 8);
  const BuiltIndex built = BuildIndexFor(g);
  const auto sorted = built.tree.sorted_vertices();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_GE(built.pre().SortKey(sorted[i - 1]),
              built.pre().SortKey(sorted[i]) - 1e-9);
  }
}

}  // namespace
}  // namespace topl
