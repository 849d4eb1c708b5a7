// [O2] Observation 2 — c-optimality is preserved.
//
// A c-optimal BSP* algorithm stays c-optimal after simulation when the
// communication and I/O overheads are o(1) relative to computation.  This
// bench grows the per-processor load of the CGM sort and reports the
// ratios (communication volume)/(charged computation) and
// (I/O blocks)/(charged computation): both must *decrease* as n grows —
// the o(1) trend of §5.4.
#include <iostream>

#include "bench_util.hpp"
#include "cgm/sort.hpp"
#include "util/workloads.hpp"

int main() {
  using namespace embsp;
  using namespace embsp::bench;
  banner("O2", "c-optimality: overhead ratios shrink with n");

  constexpr std::uint32_t kV = 32;

  util::Table table({"n", "charged comp ops", "comm bytes", "IO blocks",
                     "comm/comp", "IO/comp"});
  double prev_comm_ratio = 1e18, prev_io_ratio = 1e18;
  bool decreasing = true;
  for (std::uint64_t n : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    auto keys = util::random_keys(n, n ^ 0xbeef);
    cgm::SeqEmExec exec(machine(1, 4, 512, 1 << 22));
    auto out = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
        exec, keys, kV);
    std::uint64_t comp = 0;
    for (const auto& s : out.exec.costs.supersteps) comp += s.total_work;
    const std::uint64_t comm = out.exec.costs.total_bytes();
    const std::uint64_t io_blocks = out.exec.sim->total_io.blocks_read +
                                    out.exec.sim->total_io.blocks_written;
    const double comm_ratio =
        static_cast<double>(comm) / static_cast<double>(comp);
    const double io_ratio =
        static_cast<double>(io_blocks) / static_cast<double>(comp);
    table.add_row({util::fmt_count(n), util::fmt_count(comp),
                   util::fmt_count(comm), util::fmt_count(io_blocks),
                   util::fmt_double(comm_ratio, 4),
                   util::fmt_double(io_ratio, 6)});
    decreasing = decreasing && comm_ratio <= prev_comm_ratio * 1.05 &&
                 io_ratio <= prev_io_ratio * 1.05;
    prev_comm_ratio = comm_ratio;
    prev_io_ratio = io_ratio;
  }
  std::cout << table.render();
  verdict(decreasing,
          "communication and I/O overhead per computation operation do not "
          "grow with n (log-factor computation growth drives them to o(1))");
  return 0;
}
