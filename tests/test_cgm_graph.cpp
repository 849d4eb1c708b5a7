// Group C graph algorithms across executors, validated against sequential
// references.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "cgm/graph_components.hpp"
#include "cgm/graph_euler_tour.hpp"
#include "cgm/graph_lca.hpp"
#include "cgm/graph_list_ranking.hpp"
#include "util/workloads.hpp"

namespace embsp::cgm {
namespace {

sim::SimConfig em_config(std::uint32_t p, std::size_t D, std::size_t B) {
  sim::SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.em.D = D;
  cfg.machine.em.B = B;
  cfg.machine.em.M = 1 << 22;
  return cfg;
}

std::vector<std::uint64_t> reference_ranks(
    std::span<const std::uint64_t> succ, std::uint64_t head) {
  std::vector<std::uint64_t> want(succ.size());
  std::uint64_t cur = head;
  for (std::size_t d = 0; d < succ.size(); ++d) {
    want[cur] = succ.size() - 1 - d;
    cur = succ[cur];
  }
  return want;
}

// --- list ranking ------------------------------------------------------------

class ListRankingSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::uint32_t>> {
};

TEST_P(ListRankingSweep, HopsToTailCorrect) {
  const auto [n, v] = GetParam();
  auto [succ, head] = util::random_list(n, 19 * n + v);
  DirectExec exec;
  auto out = cgm_list_ranking(exec, succ, v);
  EXPECT_EQ(out.rank1, reference_ranks(succ, head));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ListRankingSweep,
    ::testing::Values(std::pair<std::size_t, std::uint32_t>{1, 1},
                      std::pair<std::size_t, std::uint32_t>{2, 2},
                      std::pair<std::size_t, std::uint32_t>{50, 4},
                      std::pair<std::size_t, std::uint32_t>{500, 8},
                      std::pair<std::size_t, std::uint32_t>{2000, 16}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.first) + "v" +
             std::to_string(info.param.second);
    });

TEST(ListRanking, WeightedSuffixSums) {
  // succ: 0 -> 1 -> 2 (tail); w1 = 10, 20, 30.
  std::vector<std::uint64_t> succ{1, 2, 2};
  std::vector<std::uint64_t> w1{10, 20, 30};
  std::vector<std::uint64_t> w2{1, ~0ull /* -1 */, 5};
  DirectExec exec;
  auto out = cgm_list_ranking_weighted(exec, succ, w1, w2, 2);
  EXPECT_EQ(out.rank1, (std::vector<std::uint64_t>{60, 50, 30}));
  EXPECT_EQ(static_cast<std::int64_t>(out.rank2[0]), 5);   // 1 - 1 + 5
  EXPECT_EQ(static_cast<std::int64_t>(out.rank2[1]), 4);   // -1 + 5
  EXPECT_EQ(static_cast<std::int64_t>(out.rank2[2]), 5);
}

TEST(ListRanking, MultipleListsInOneInput) {
  // Two independent lists: 0->1->2 and 3->4.
  std::vector<std::uint64_t> succ{1, 2, 2, 4, 4};
  DirectExec exec;
  auto out = cgm_list_ranking(exec, succ, 2);
  EXPECT_EQ(out.rank1, (std::vector<std::uint64_t>{2, 1, 0, 1, 0}));
}

TEST(ListRanking, OnEmMachines) {
  auto [succ, head] = util::random_list(600, 20);
  auto want = reference_ranks(succ, head);
  SeqEmExec seq(em_config(1, 4, 256));
  EXPECT_EQ(cgm_list_ranking(seq, succ, 8).rank1, want);
  ParEmExec par(em_config(4, 2, 256));
  EXPECT_EQ(cgm_list_ranking(par, succ, 8).rank1, want);
}

TEST(ListRanking, LambdaScalesWithLogV) {
  auto [succ, head] = util::random_list(4096, 21);
  DirectExec exec;
  auto out4 = cgm_list_ranking(exec, succ, 4);
  auto out32 = cgm_list_ranking(exec, succ, 32);
  // More processors -> smaller gather threshold -> more contraction and
  // expansion rounds; still far below n.
  EXPECT_GT(out32.exec.lambda, out4.exec.lambda);
  EXPECT_LT(out32.exec.lambda, 400u);
}

// The µ and γ the dry run (bsp::measure_requirements) configures for the
// ledger's list-ranking input (n = 2^18, v = 64, seed 42).  µ sizes every
// context slot, so a size-only measurement that miscounted would move the
// on-disk layout.
struct ConfigureOnlyExec {
  sim::SimConfig cfg;
  template <bsp::Program P>
  ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>&) {
    cfg = autoconfigure(sim::SimConfig{}, prog, v, make_state);
    return {};
  }
};

TEST(ListRanking, MeasuredRequirementsOfLedgerInput) {
  const auto succ = util::random_list(1u << 18, 42).first;
  ConfigureOnlyExec exec;
  (void)cgm_list_ranking(exec, succ, 64);
  EXPECT_EQ(exec.cfg.mu, 207502u);     // measured 184390 + 1/8 + 64
  EXPECT_EQ(exec.cfg.gamma, 203552u);  // measured 203488 + 64
}

// --- Euler tour ----------------------------------------------------------------

void check_tree_stats(std::span<const std::uint64_t> parent,
                      const EulerTourOutcome& out) {
  const std::uint64_t n = parent.size();
  // Reference depths.
  std::vector<std::uint64_t> depth(n, 0);
  std::vector<std::uint64_t> want_sub(n, 1);
  for (std::uint64_t x = 0; x < n; ++x) {
    std::uint64_t cur = x, d = 0;
    while (parent[cur] != cur) {
      cur = parent[cur];
      ++d;
    }
    depth[x] = d;
  }
  // Reference subtree sizes: accumulate from deepest to shallowest.
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return depth[a] > depth[b];
  });
  for (auto x : order) {
    if (parent[x] != x) want_sub[parent[x]] += want_sub[x];
  }
  EXPECT_EQ(out.depth, depth);
  EXPECT_EQ(out.subtree_size, want_sub);
}

class EulerTourSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::uint32_t>> {
};

TEST_P(EulerTourSweep, DepthsAndSubtreesCorrect) {
  const auto [n, v] = GetParam();
  auto parent = util::random_tree(n, 23 * n + v);
  DirectExec exec;
  auto out = cgm_euler_tour(exec, parent, v);
  check_tree_stats(parent, out);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EulerTourSweep,
    ::testing::Values(std::pair<std::size_t, std::uint32_t>{1, 1},
                      std::pair<std::size_t, std::uint32_t>{2, 2},
                      std::pair<std::size_t, std::uint32_t>{30, 4},
                      std::pair<std::size_t, std::uint32_t>{300, 8},
                      std::pair<std::size_t, std::uint32_t>{1000, 16}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.first) + "v" +
             std::to_string(info.param.second);
    });

TEST(EulerTour, PathAndStarTrees) {
  DirectExec exec;
  // Path 0 <- 1 <- 2 <- 3.
  std::vector<std::uint64_t> path{0, 0, 1, 2};
  auto out = cgm_euler_tour(exec, path, 2);
  EXPECT_EQ(out.depth, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(out.subtree_size, (std::vector<std::uint64_t>{4, 3, 2, 1}));
  // Star: all children of 0.
  std::vector<std::uint64_t> star{0, 0, 0, 0, 0, 0};
  out = cgm_euler_tour(exec, star, 3);
  EXPECT_EQ(out.depth, (std::vector<std::uint64_t>{0, 1, 1, 1, 1, 1}));
  EXPECT_EQ(out.subtree_size[0], 6u);
}

TEST(EulerTour, TourPositionsAreConsistent) {
  auto parent = util::random_tree(200, 25);
  DirectExec exec;
  auto out = cgm_euler_tour(exec, parent, 8);
  // Entry strictly before exit; nesting property for parent/child.
  for (std::uint64_t x = 0; x < parent.size(); ++x) {
    if (parent[x] == x) continue;
    EXPECT_LT(out.first_pos[x], out.last_pos[x] + 1);
    const auto p = parent[x];
    if (parent[p] != p) {
      EXPECT_LT(out.first_pos[p], out.first_pos[x]);
      EXPECT_GE(out.last_pos[p], out.last_pos[x]);
    }
  }
}

TEST(EulerTour, ForestOfSeveralTrees) {
  // Three trees: a path rooted at 0, a star rooted at 4, an isolated root 9.
  std::vector<std::uint64_t> parent{0, 0, 1, 2, 4, 4, 4, 4, 4, 9};
  DirectExec exec;
  auto out = cgm_euler_tour(exec, parent, 4);
  EXPECT_EQ(out.depth, (std::vector<std::uint64_t>{0, 1, 2, 3, 0, 1, 1, 1, 1,
                                                   0}));
  EXPECT_EQ(out.subtree_size,
            (std::vector<std::uint64_t>{4, 3, 2, 1, 5, 1, 1, 1, 1, 1}));
}

TEST(EulerTour, RandomForest) {
  // Several random trees merged into one parent array.
  std::vector<std::uint64_t> parent;
  for (std::uint64_t t = 0; t < 4; ++t) {
    auto tree = util::random_tree(50 + t * 17, 100 + t);
    const std::uint64_t base = parent.size();
    for (auto p : tree) parent.push_back(base + p);
  }
  DirectExec exec;
  auto out = cgm_euler_tour(exec, parent, 8);
  check_tree_stats(parent, out);
}

TEST(BatchedLcaForest, RejectsForests) {
  std::vector<std::uint64_t> forest{0, 0, 2, 2};  // two roots
  std::vector<std::pair<std::uint64_t, std::uint64_t>> queries{{1, 3}};
  DirectExec exec;
  EXPECT_THROW(cgm_batched_lca(exec, forest, queries, 2),
               std::invalid_argument);
}

TEST(ListRankingCycle, DiagnosesCycles) {
  // 0 -> 1 -> 0 is a cycle, not a list.
  std::vector<std::uint64_t> succ{1, 0};
  DirectExec exec;
  EXPECT_THROW(cgm_list_ranking(exec, succ, 1), std::runtime_error);
}

TEST(EulerTour, OnEmMachines) {
  auto parent = util::random_tree(300, 26);
  SeqEmExec seq(em_config(1, 2, 256));
  auto out = cgm_euler_tour(seq, parent, 8);
  check_tree_stats(parent, out);
  ParEmExec par(em_config(4, 2, 256));
  auto out2 = cgm_euler_tour(par, parent, 8);
  check_tree_stats(parent, out2);
}

// --- connected components -------------------------------------------------------

void check_components(std::uint64_t n, std::span<const util::Edge> edges,
                      std::span<const std::uint64_t> truth,
                      const ComponentsOutcome& out) {
  // Same-partition iff same truth label.
  std::map<std::uint64_t, std::uint64_t> seen;  // out label -> truth label
  for (std::uint64_t x = 0; x < n; ++x) {
    auto [it, inserted] = seen.emplace(out.component[x], truth[x]);
    EXPECT_EQ(it->second, truth[x]) << "vertex " << x;
  }
  std::set<std::uint64_t> truth_labels(truth.begin(), truth.end());
  EXPECT_EQ(seen.size(), truth_labels.size());

  // The spanning forest has exactly n - #components edges, all distinct,
  // acyclic.
  EXPECT_EQ(out.tree_edges.size(), n - truth_labels.size());
  std::set<std::uint64_t> distinct(out.tree_edges.begin(),
                                   out.tree_edges.end());
  EXPECT_EQ(distinct.size(), out.tree_edges.size());
  // Acyclicity via union-find over the chosen edges.
  std::vector<std::uint64_t> dsu(n);
  std::iota(dsu.begin(), dsu.end(), 0u);
  std::function<std::uint64_t(std::uint64_t)> find =
      [&](std::uint64_t x) -> std::uint64_t {
    while (dsu[x] != x) x = dsu[x] = dsu[dsu[x]];
    return x;
  };
  for (auto id : out.tree_edges) {
    const auto a = find(edges[id].u);
    const auto b = find(edges[id].v);
    EXPECT_NE(a, b) << "cycle via edge " << id;
    dsu[a] = b;
  }
}

class ComponentsSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::uint32_t>> {};

TEST_P(ComponentsSweep, LabelsAndForestCorrect) {
  const auto [n, k, v] = GetParam();
  auto [edges, truth] =
      util::random_components_graph(n, k, n / 2, 29 * n + v);
  DirectExec exec;
  auto out = cgm_connected_components(exec, n, edges, v);
  check_components(n, edges, truth, out);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ComponentsSweep,
    ::testing::Values(std::tuple<std::size_t, std::size_t, std::uint32_t>{
                          10, 2, 2},
                      std::tuple<std::size_t, std::size_t, std::uint32_t>{
                          100, 5, 4},
                      std::tuple<std::size_t, std::size_t, std::uint32_t>{
                          500, 3, 8},
                      std::tuple<std::size_t, std::size_t, std::uint32_t>{
                          1000, 20, 16}),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "k" +
             std::to_string(std::get<1>(info.param)) + "v" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Components, EdgelessGraph) {
  DirectExec exec;
  auto out = cgm_connected_components(exec, 8, {}, 4);
  for (std::uint64_t x = 0; x < 8; ++x) EXPECT_EQ(out.component[x], x);
  EXPECT_TRUE(out.tree_edges.empty());
}

TEST(Components, SingleComponent) {
  auto edges = util::random_graph(64, 200, 30);
  DirectExec exec;
  auto out = cgm_connected_components(exec, 64, edges, 8);
  // A random graph with 200 edges on 64 vertices is connected w.h.p. —
  // verify against union-find truth instead of assuming.
  std::vector<std::uint64_t> truth(64);
  std::iota(truth.begin(), truth.end(), 0u);
  std::function<std::uint64_t(std::uint64_t)> find =
      [&](std::uint64_t x) -> std::uint64_t {
    while (truth[x] != x) x = truth[x] = truth[truth[x]];
    return x;
  };
  for (const auto& e : edges) truth[find(e.u)] = find(e.v);
  for (auto& t : truth) t = find(&t - truth.data());
  check_components(64, edges, truth, out);
}

TEST(Components, OnEmMachines) {
  auto [edges, truth] = util::random_components_graph(300, 4, 150, 31);
  SeqEmExec seq(em_config(1, 4, 256));
  auto out = cgm_connected_components(seq, 300, edges, 8);
  check_components(300, edges, truth, out);
  ParEmExec par(em_config(2, 2, 256));
  auto out2 = cgm_connected_components(par, 300, edges, 8);
  check_components(300, edges, truth, out2);
}

// --- batched LCA -----------------------------------------------------------------

std::uint64_t reference_lca(std::span<const std::uint64_t> parent,
                            std::uint64_t u, std::uint64_t v) {
  std::set<std::uint64_t> anc;
  for (std::uint64_t x = u;; x = parent[x]) {
    anc.insert(x);
    if (parent[x] == x) break;
  }
  for (std::uint64_t x = v;; x = parent[x]) {
    if (anc.count(x)) return x;
    if (parent[x] == x) return x;
  }
}

TEST(BatchedLca, RandomTreeRandomQueries) {
  const std::uint64_t n = 300;
  auto parent = util::random_tree(n, 33);
  util::Rng rng(34);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> queries;
  for (int i = 0; i < 200; ++i) {
    queries.emplace_back(rng.below(n), rng.below(n));
  }
  DirectExec exec;
  auto out = cgm_batched_lca(exec, parent, queries, 8);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(out.lca[i],
              reference_lca(parent, queries[i].first, queries[i].second))
        << "query " << i;
  }
}

TEST(BatchedLca, DegenerateQueries) {
  std::vector<std::uint64_t> path{0, 0, 1, 2, 3};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> queries{
      {4, 4}, {0, 4}, {4, 0}, {2, 3}, {1, 1}};
  DirectExec exec;
  auto out = cgm_batched_lca(exec, path, queries, 2);
  EXPECT_EQ(out.lca, (std::vector<std::uint64_t>{4, 0, 0, 2, 1}));
}

TEST(BatchedLca, OnEmMachine) {
  auto parent = util::random_tree(200, 35);
  util::Rng rng(36);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> queries;
  for (int i = 0; i < 100; ++i) {
    queries.emplace_back(rng.below(200), rng.below(200));
  }
  SeqEmExec seq(em_config(1, 2, 256));
  auto out = cgm_batched_lca(seq, parent, queries, 8);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(out.lca[i],
              reference_lca(parent, queries[i].first, queries[i].second));
  }
}

}  // namespace
}  // namespace embsp::cgm
