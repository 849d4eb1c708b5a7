// [R-F] Fault soak — robustness of the resilient disk substrate.
//
// Runs the EM-CGM sort workload under increasing injected-fault rates
// (transient read/write errors plus torn writes and silent bit flips at
// half that rate) with block checksums, retry/backoff and superstep
// recovery enabled, and checks:
//
//   * correctness  — the output is sorted and identical to the fault-free
//                    output at every rate (faults are absorbed below the
//                    model layer, never observable in results);
//   * cost model   — the parallel-I/O count (the quantity the paper's
//                    theorems bound) is unchanged by transient faults;
//   * overhead     — wall-clock degradation vs the fault-free run stays
//                    small at realistic rates (retries are rare and
//                    backoff is micro-seconds scale).
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "cgm/sort.hpp"
#include "util/workloads.hpp"

int main() {
  using namespace embsp;
  using namespace embsp::bench;
  banner("R-F", "fault soak: sort under injected transient I/O faults");

  const std::uint64_t n = 1 << 16;
  auto keys = util::random_keys(n, 5);

  util::Table table({"fault rate", "injected", "retries", "giveups",
                     "rollbacks", "parallel IOs", "time (s)", "overhead"});
  JsonArtifact art("fault_soak");
  bool ok = true;
  std::vector<std::uint64_t> baseline_out;
  std::uint64_t baseline_ios = 0;
  double baseline_secs = 0.0;
  for (const double rate : {0.0, 1e-4, 1e-3}) {
    auto cfg = machine(1, 4, 512, 1 << 20);
    if (rate > 0.0) {
      cfg.faults.seed = 99;
      cfg.faults.read_error_rate = rate;
      cfg.faults.write_error_rate = rate;
      cfg.faults.torn_write_rate = rate / 2;
      cfg.faults.bit_flip_rate = rate / 2;
      cfg.block_checksums = true;
      cfg.superstep_recovery = true;
    }
    const auto start = std::chrono::steady_clock::now();
    cgm::SeqEmExec exec(cfg);
    auto out = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
        exec, keys, 64);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const auto& sim = *out.exec.sim;
    if (rate == 0.0) {
      baseline_out = out.sorted;
      baseline_ios = sim.total_io.parallel_ios;
      baseline_secs = secs;
    }
    const bool sorted =
        std::is_sorted(out.sorted.begin(), out.sorted.end());
    const bool identical = out.sorted == baseline_out;
    const bool same_cost = sim.total_io.parallel_ios == baseline_ios;
    ok = ok && sorted && identical && same_cost;
    const double overhead = baseline_secs > 0.0 ? secs / baseline_secs : 1.0;
    table.add_row({util::fmt_double(rate, 4),
                   util::fmt_count(sim.recovery.faults.total()),
                   util::fmt_count(sim.recovery.io_retries),
                   util::fmt_count(sim.recovery.io_giveups),
                   util::fmt_count(sim.recovery.total_rollbacks()),
                   util::fmt_count(sim.total_io.parallel_ios),
                   util::fmt_double(secs, 3), util::fmt_ratio(overhead)});
    art.begin_case("rate_" + util::fmt_double(rate, 4));
    art.metric("fault_rate", rate);
    art.metric("injected", double(sim.recovery.faults.total()));
    art.metric("io_retries", double(sim.recovery.io_retries));
    art.metric("io_giveups", double(sim.recovery.io_giveups));
    art.metric("rollbacks", double(sim.recovery.total_rollbacks()));
    art.metric("parallel_ios", double(sim.total_io.parallel_ios));
    art.metric("secs", secs);
    art.metric("overhead", overhead);
    art.metric("output_identical", identical ? 1.0 : 0.0);
    if (rate > 0.0 && sim.recovery.faults.total() == 0) {
      // A soak that injected nothing proves nothing.
      ok = false;
    }
  }
  std::cout << table.render();
  const auto path = art.write();
  if (!path.empty()) std::cout << "  artifact: " << path << "\n";
  verdict(ok,
          "injected transient faults are absorbed by retry/recovery: "
          "output and parallel-I/O count identical to the fault-free run");
  return ok ? 0 : 1;
}
