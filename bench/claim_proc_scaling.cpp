// [C-P] Theorem 1 — multiprocessor scaling.
//
// Runs the same EM-CGM workloads on p = 1, 2, 4, 8 real processors (v
// fixed) and reports the max-per-processor I/O (the model's t_IO) and the
// per-superstep real communication volume.  Theorem 1 promises
// ~O~(G (v/p) mu lambda / (BD)): per-processor I/O should drop ~1/p.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "cgm/graph_list_ranking.hpp"
#include "cgm/sort.hpp"
#include "util/workloads.hpp"

namespace {

/// The busiest processor's parallel I/Os.  A p = 1 run reports only
/// total_io (its per_proc_io is empty), which is that processor's count.
std::uint64_t max_proc_ios(const embsp::sim::SimResult& r) {
  std::uint64_t ios = r.per_proc_io.empty() ? r.total_io.parallel_ios : 0;
  for (const auto& io : r.per_proc_io) ios = std::max(ios, io.parallel_ios);
  return ios;
}

}  // namespace

int main() {
  using namespace embsp;
  using namespace embsp::bench;
  banner("C-P", "processor scaling: per-processor I/O vs p");

  const std::uint64_t n = 1 << 16;
  auto keys = util::random_keys(n, 8);
  auto [succ, head] = util::random_list(1 << 14, 9);
  (void)head;

  util::Table table({"workload", "p", "max IOs/proc", "speedup", "ideal",
                     "real comm bytes/superstep"});
  bool ok = true;
  for (const char* workload : {"sort", "list-ranking"}) {
    std::uint64_t base = 0;
    for (std::uint32_t p : {1u, 2u, 4u, 8u}) {
      cgm::ParEmExec exec(machine(p, 2, 512, 1 << 20));
      std::uint64_t ios = 0;
      std::uint64_t comm = 0;
      if (std::string(workload) == "sort") {
        auto out = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
            exec, keys, 64);
        ios = max_proc_ios(*out.exec.sim);
        comm = out.exec.sim->real_comm_bytes;
      } else {
        auto out = cgm::cgm_list_ranking(exec, succ, 64);
        ios = max_proc_ios(*out.exec.sim);
        comm = out.exec.sim->real_comm_bytes;
      }
      if (p == 1) base = ios;
      const double speedup = static_cast<double>(base) / ios;
      table.add_row({workload, std::to_string(p), util::fmt_count(ios),
                     util::fmt_ratio(speedup),
                     util::fmt_ratio(static_cast<double>(p)),
                     util::fmt_bytes(comm)});
      ok = ok && speedup > 0.5 * static_cast<double>(p);
    }
  }
  std::cout << table.render();
  verdict(ok,
          "per-processor I/O drops close to 1/p — the simulation yields "
          "genuinely parallel EM algorithms");
  return 0;
}
