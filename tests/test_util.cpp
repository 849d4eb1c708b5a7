#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "util/rng.hpp"
#include "util/serialization.hpp"
#include "util/table.hpp"
#include "util/workloads.hpp"

namespace embsp::util {
namespace {

TEST(Serialization, RoundTripPrimitives) {
  Writer w;
  w.write<std::uint32_t>(42);
  w.write<double>(3.25);
  w.write<std::int8_t>(-7);
  Reader r(w.bytes());
  EXPECT_EQ(r.read<std::uint32_t>(), 42u);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::int8_t>(), -7);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, RoundTripVectorAndString) {
  Writer w;
  w.write_vector(std::vector<std::uint64_t>{1, 2, 3});
  w.write_string("hello");
  w.write_vector(std::vector<std::uint16_t>{});
  Reader r(w.bytes());
  EXPECT_EQ(r.read_vector<std::uint64_t>(),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_TRUE(r.read_vector<std::uint16_t>().empty());
}

TEST(Serialization, TruncatedBufferThrows) {
  Writer w;
  w.write<std::uint16_t>(5);
  Reader r(w.bytes());
  EXPECT_THROW(r.read<std::uint64_t>(), std::out_of_range);
}

TEST(Serialization, ReadBytesAdvances) {
  Writer w;
  w.write<std::uint32_t>(0xdeadbeef);
  w.write<std::uint32_t>(0x12345678);
  Reader r(w.bytes());
  auto first = r.read_bytes(4);
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(r.read<std::uint32_t>(), 0x12345678u);
}

TEST(Serialization, SizeOnlyWriterCountsEveryCall) {
  // Every Writer call, applied in step to an owning, an external and a
  // size-only Writer: the three sizes agree after each call, and only the
  // size-only Writer stores nothing.
  std::vector<std::byte> external(3, std::byte{9});
  Writer owned;
  Writer ext(external);
  Writer counted(Writer::size_only);
  const std::vector<std::byte> raw{std::byte{1}, std::byte{2}, std::byte{3}};
  const std::vector<std::function<void(Writer&)>> calls = {
      [](Writer& w) { w.reserve(64); },
      [](Writer& w) { w.write<std::uint8_t>(7); },
      [](Writer& w) { w.write<std::uint64_t>(1ULL << 40); },
      [](Writer& w) { w.write<double>(2.5); },
      [&](Writer& w) { w.write_bytes(raw); },
      [](Writer& w) { w.write_bytes({}); },
      [](Writer& w) { w.write_vector(std::vector<std::uint32_t>{4, 5, 6}); },
      [](Writer& w) { w.write_vector(std::vector<std::uint16_t>{}); },
      [](Writer& w) { w.write_string("size only"); },
      [](Writer& w) { w.write_string(""); },
  };
  for (std::size_t i = 0; i < calls.size(); ++i) {
    calls[i](owned);
    calls[i](ext);
    calls[i](counted);
    EXPECT_EQ(counted.size(), owned.size()) << "call " << i;
    EXPECT_EQ(ext.size(), owned.size()) << "call " << i;
  }
  EXPECT_EQ(external.size(), 3 + owned.size());
  EXPECT_TRUE(counted.bytes().empty());
  Writer moved(std::move(counted));
  EXPECT_EQ(moved.size(), owned.size());
  moved.write<std::uint32_t>(1);
  EXPECT_EQ(moved.size(), owned.size() + sizeof(std::uint32_t));
  EXPECT_TRUE(moved.bytes().empty());
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(5);
  std::vector<std::uint32_t> perm;
  rng.permutation(20, perm);
  std::set<std::uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 19u);
}

TEST(Rng, ForkIndependent) {
  Rng parent(3);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_NE(c1.next(), c2.next());
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Table, RendersAligned) {
  Table t({"name", "count"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  const auto s = t.render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Format, Count) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
}

TEST(Format, Bytes) {
  EXPECT_EQ(fmt_bytes(512), "512 B");
  EXPECT_EQ(fmt_bytes(4096), "4.0 KiB");
  EXPECT_EQ(fmt_bytes(5ull << 20), "5.0 MiB");
}

TEST(Workloads, RandomPermutationValid) {
  auto perm = random_permutation(100, 42);
  std::set<std::uint64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Workloads, RandomListReachesAllNodes) {
  auto [succ, head] = random_list(50, 7);
  std::set<std::uint64_t> visited;
  std::uint64_t cur = head;
  while (visited.insert(cur).second) cur = succ[cur];
  EXPECT_EQ(visited.size(), 50u);
  EXPECT_EQ(succ[cur], cur);  // tail self-loop
}

TEST(Workloads, RandomTreeHasSingleRoot) {
  auto parent = random_tree(64, 9);
  int roots = 0;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (parent[i] == i) ++roots;
  }
  EXPECT_EQ(roots, 1);
  // Every node reaches the root.
  for (std::size_t i = 0; i < parent.size(); ++i) {
    std::uint64_t cur = i;
    for (int hops = 0; hops < 70; ++hops) {
      if (parent[cur] == cur) break;
      cur = parent[cur];
    }
    EXPECT_EQ(parent[cur], cur);
  }
}

TEST(Workloads, DisjointSegmentsDoNotIntersect) {
  auto segs = random_disjoint_segments(40, 13);
  auto cross = [](const Segment2D& a, const Segment2D& b) {
    auto orient = [](double ax, double ay, double bx, double by, double cx,
                     double cy) {
      return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
    };
    const double d1 = orient(a.x1, a.y1, a.x2, a.y2, b.x1, b.y1);
    const double d2 = orient(a.x1, a.y1, a.x2, a.y2, b.x2, b.y2);
    const double d3 = orient(b.x1, b.y1, b.x2, b.y2, a.x1, a.y1);
    const double d4 = orient(b.x1, b.y1, b.x2, b.y2, a.x2, a.y2);
    return d1 * d2 < 0 && d3 * d4 < 0;
  };
  for (std::size_t i = 0; i < segs.size(); ++i) {
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      EXPECT_FALSE(cross(segs[i], segs[j])) << "segments " << i << "," << j;
    }
  }
}

TEST(Workloads, ComponentsGraphStructure) {
  auto [edges, comp] = random_components_graph(200, 7, 50, 21);
  // Every edge connects vertices of the same component.
  for (const auto& e : edges) {
    EXPECT_EQ(comp[e.u], comp[e.v]);
  }
  std::set<std::uint64_t> ids(comp.begin(), comp.end());
  EXPECT_EQ(ids.size(), 7u);
}

TEST(Workloads, RandomGraphNoDuplicatesNoSelfLoops) {
  auto edges = random_graph(30, 100, 3);
  EXPECT_EQ(edges.size(), 100u);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const auto& e : edges) {
    EXPECT_NE(e.u, e.v);
    auto key = std::minmax(e.u, e.v);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second);
  }
}

}  // namespace
}  // namespace embsp::util
