// [C-K] §1 claim — "our technique can take full advantage of the physical
// memory available by concurrently simulating a superstep of more than one
// virtual processor" (k = floor(M/mu) grouping, §5.1).
//
// Three legs, all on cgm_sort:
//   1. Static sweep of the group size k at a fixed machine: larger groups
//      amortize partial message blocks (fewer underfull tail blocks per
//      source/destination group pair), so I/O falls as k grows to M/mu.
//   2. The self-tuning planner (--auto-tune) against the same sweep: the
//      plan it picks must land within 10% of the best static point while
//      the worst static point stays well behind.
//   3. Flat vs two-level grouping on a memory-starved machine: a k that
//      flat scheduling rejects runs under the hierarchical schedule, at
//      the cost of the scratch distribution pass (reported, not hidden).
#include <iostream>

#include "bench_util.hpp"
#include "cgm/sort.hpp"
#include "sim/layout_planner.hpp"
#include "util/workloads.hpp"

int main() {
  using namespace embsp;
  using namespace embsp::bench;
  banner("C-K", "group size k: memory utilization vs I/O");

  const std::uint64_t n = 1 << 15;
  auto keys = util::random_keys(n, 11);
  constexpr std::uint32_t kV = 64;
  JsonArtifact artifact("k_grouping");

  auto run_sort = [&](sim::SimConfig cfg) {
    cgm::SeqEmExec exec(cfg);
    auto out = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
        exec, keys, kV);
    return *out.exec.sim;
  };

  // --- leg 1: static k sweep -------------------------------------------------
  util::Table table({"k", "groups", "parallel IOs", "vs k=1"});
  std::uint64_t base = 0, best = ~0ull, worst = 0;
  for (std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
    auto cfg = machine(1, 4, 512, 1 << 22);
    cfg.k = k;
    const auto res = run_sort(cfg);
    const auto ios = res.total_io.parallel_ios;
    if (k == 1) base = ios;
    best = std::min(best, ios);
    worst = std::max(worst, ios);
    table.add_row({std::to_string(k), std::to_string((kV + k - 1) / k),
                   util::fmt_count(ios),
                   util::fmt_ratio(static_cast<double>(base) / ios)});
    artifact.begin_case("static_k_" + std::to_string(k));
    artifact.metric("k", static_cast<double>(k));
    artifact.metric("parallel_ios", static_cast<double>(ios));
  }

  // --- leg 2: the self-tuning planner on the same machine --------------------
  auto auto_cfg = machine(1, 4, 512, 1 << 22);
  auto_cfg.auto_tune = true;
  const auto auto_res = run_sort(auto_cfg);
  const auto auto_ios = auto_res.total_io.parallel_ios;
  table.add_row({"auto", std::to_string((kV + auto_res.group_size - 1) /
                                        std::max<std::size_t>(
                                            auto_res.group_size, 1)),
                 util::fmt_count(auto_ios),
                 util::fmt_ratio(static_cast<double>(base) / auto_ios)});
  std::cout << table.render();

  const double auto_vs_best = static_cast<double>(auto_ios) / best;
  const double worst_vs_best = static_cast<double>(worst) / best;
  artifact.begin_case("auto_tuned");
  artifact.metric("k", static_cast<double>(auto_res.group_size));
  artifact.metric("parallel_ios", static_cast<double>(auto_ios));
  artifact.metric("auto_vs_best_ratio", auto_vs_best);
  artifact.metric("worst_vs_best_ratio", worst_vs_best);

  // --- leg 3: flat vs two-level on a memory-starved machine ------------------
  // Probe the machine with auto-k to learn the largest flat-feasible group,
  // then request 4x that: the flat schedule rejects it, the hierarchical
  // schedule stages super-groups through scratch and completes.
  const auto small = machine(1, 4, 512, 1 << 16);
  const auto probe = run_sort(small);
  const std::size_t k_fit = std::max<std::size_t>(probe.group_size, 1);
  auto flat_cfg = small;
  flat_cfg.k = k_fit;
  const auto flat_res = run_sort(flat_cfg);
  auto multi_cfg = small;
  multi_cfg.k = std::min<std::size_t>(k_fit * 4, kV);
  const auto multi_res = run_sort(multi_cfg);

  util::Table mtable({"schedule", "k", "parallel IOs", "distribute cycles"});
  mtable.add_row({"flat", std::to_string(k_fit),
                  util::fmt_count(flat_res.total_io.parallel_ios),
                  std::to_string(flat_res.routing_stats.distribute_cycles)});
  mtable.add_row({"two-level", std::to_string(multi_cfg.k),
                  util::fmt_count(multi_res.total_io.parallel_ios),
                  std::to_string(multi_res.routing_stats.distribute_cycles)});
  std::cout << mtable.render();

  artifact.begin_case("flat_small_M");
  artifact.metric("k", static_cast<double>(k_fit));
  artifact.metric("parallel_ios",
                  static_cast<double>(flat_res.total_io.parallel_ios));
  artifact.metric("distribute_cycles",
                  static_cast<double>(flat_res.routing_stats.distribute_cycles));
  artifact.begin_case("two_level_small_M");
  artifact.metric("k", static_cast<double>(multi_cfg.k));
  artifact.metric("parallel_ios",
                  static_cast<double>(multi_res.total_io.parallel_ios));
  artifact.metric(
      "distribute_cycles",
      static_cast<double>(multi_res.routing_stats.distribute_cycles));

  const std::string path = artifact.write();
  if (!path.empty()) std::cout << "  wrote " << path << "\n";

  verdict(best < base,
          "grouping k virtual processors per round reduces I/O (memory is "
          "put to work)");
  verdict(auto_vs_best <= 1.10,
          "the self-tuned plan lands within 10% of the best static k");
  verdict(worst_vs_best >= 1.5,
          "the worst static k pays >= 1.5x the best (tuning is worth it)");
  verdict(multi_cfg.k > k_fit &&
              multi_res.routing_stats.distribute_cycles > 0,
          "a group size the flat schedule cannot fit runs under the "
          "two-level schedule");
  return 0;
}
