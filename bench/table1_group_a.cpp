// [T1-A] Table 1, Group A — sorting, permutation, matrix transpose.
//
// Regenerates the Table 1 comparison for the fundamental problems:
//   column 2: previously known sequential EM algorithms (our baselines),
//   column 4: the parallel EM-CGM algorithms produced by the simulation
//             technique (Theorem 1 / Corollary 1),
// reporting measured parallel I/O operations against the predicted shapes
//   sort:  Theta(n/(DB) log_{M/B} n/B)  vs  ~O~(n/(pBD))
//   perm:  Theta(min(n/D, sort))        vs  ~O~(n/(pBD))
//   transpose: Theta(n/(DB) * ...)      vs  ~O~(n/(pBD))
#include <iostream>

#include "baseline/em_mergesort.hpp"
#include "baseline/em_permutation.hpp"
#include "baseline/em_transpose.hpp"
#include "bench_util.hpp"
#include "cgm/permutation.hpp"
#include "cgm/sort.hpp"
#include "cgm/transpose.hpp"
#include "util/workloads.hpp"

namespace {

using namespace embsp;
using namespace embsp::bench;

constexpr std::size_t kD = 4;
constexpr std::size_t kB = 512;   // 64 keys per block
constexpr std::size_t kM = 1 << 16;  // 8K keys of internal memory
constexpr std::uint32_t kV = 64;
constexpr std::uint32_t kP = 4;

void bench_sort() {
  banner("T1-A/sort", "sorting: sequential EM mergesort vs EM-CGM sort");
  // Note: the sequential mergesort is already I/O-optimal; Table 1's win
  // for sorting is *parallelism* (p processors, same O~(n/(pBD)) shape).
  // The shape checks are: per-processor I/O drops with p, and the
  // seq/cgm ratio improves as n grows (the simulation constant l is paid
  // once, the baseline's log_{M/B}(n/B) factor grows).
  util::Table table({"n", "seq-EM IOs", "seq pred", "EM-CGM p=1 IOs",
                     "EM-CGM p=4 IOs (max/proc)", "cgm pred n/(pBD)",
                     "seq/cgm(p=4)"});
  bool shape_ok = true;
  double prev_ratio = 0;
  double last_ratio = 0;
  for (std::uint64_t n : {1u << 14, 1u << 16, 1u << 18}) {
    auto keys = util::random_keys(n, n);

    em::DiskArray disks(kD, kB);
    baseline::EmSortStats st;
    baseline::em_mergesort(disks, keys, kM, &st);
    const auto seq_ios = st.algorithm_io().parallel_ios;
    const double seq_pred =
        baseline::em_sort_predicted_ios(n, kM, kD, kB);

    cgm::SeqEmExec seq_exec(machine(1, kD, kB, kM * 8));
    auto out1 = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
        seq_exec, keys, kV);
    const auto cgm1 = algorithm_ios(*out1.exec.sim);

    cgm::ParEmExec par_exec(machine(kP, kD, kB, kM * 8));
    auto out4 = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
        par_exec, keys, kV);
    std::uint64_t cgm4 = 0;
    for (const auto& io : out4.exec.sim->per_proc_io) {
      cgm4 = std::max(cgm4, io.parallel_ios);
    }
    // Corollary 1 shape: lambda passes over the local data, ~8 bytes/key.
    const double cgm_pred = static_cast<double>(out4.exec.lambda) *
                            static_cast<double>(n) * 8.0 /
                            (kP * kB * kD);
    last_ratio = static_cast<double>(seq_ios) / static_cast<double>(cgm4);
    table.add_row({util::fmt_count(n), util::fmt_count(seq_ios),
                   util::fmt_double(seq_pred, 0), util::fmt_count(cgm1),
                   util::fmt_count(cgm4), util::fmt_double(cgm_pred, 0),
                   util::fmt_ratio(last_ratio)});
    shape_ok = shape_ok && cgm4 < cgm1 && out4.exec.lambda == 4 &&
               last_ratio > prev_ratio;
    prev_ratio = last_ratio;
  }
  std::cout << table.render();
  verdict(shape_ok,
          "EM-CGM sort is parallel (p=4 beats p=1 per-processor I/O), stays "
          "within the simulation's constant of the optimal sequential sort, "
          "and the seq/cgm ratio improves with n");
}

void bench_permutation() {
  banner("T1-A/permutation",
         "permutation: naive (n/D) vs sort-based vs EM-CGM route");
  util::Table table({"n", "naive IOs", "sort-based IOs", "EM-CGM p=1 IOs",
                     "EM-CGM p=4 IOs", "naive/cgm(p=1)"});
  bool shape_ok = true;
  for (std::uint64_t n : {1u << 12, 1u << 14, 1u << 16}) {
    auto values = util::random_keys(n, n + 1);
    auto perm = util::random_permutation(n, n + 2);

    em::DiskArray d_naive(kD, kB), d_sort(kD, kB);
    baseline::EmPermStats naive_st, sort_st;
    baseline::em_permute_naive(d_naive, values, perm, kM, &naive_st);
    baseline::em_permute_sort(d_sort, values, perm, kM, &sort_st);

    cgm::SeqEmExec seq_exec(machine(1, kD, kB, kM * 8));
    auto out1 = cgm::cgm_permute(seq_exec, values, perm, kV);
    cgm::ParEmExec par_exec(machine(kP, kD, kB, kM * 8));
    auto out4 = cgm::cgm_permute(par_exec, values, perm, kV);
    std::uint64_t cgm4 = 0;
    for (const auto& io : out4.exec.sim->per_proc_io) {
      cgm4 = std::max(cgm4, io.parallel_ios);
    }
    const auto cgm1 = algorithm_ios(*out1.exec.sim);
    const double ratio =
        static_cast<double>(naive_st.algorithm.parallel_ios) /
        static_cast<double>(cgm1);
    table.add_row({util::fmt_count(n),
                   util::fmt_count(naive_st.algorithm.parallel_ios),
                   util::fmt_count(sort_st.algorithm.parallel_ios),
                   util::fmt_count(cgm1), util::fmt_count(cgm4),
                   util::fmt_ratio(ratio)});
    shape_ok = shape_ok && ratio > 4.0;
  }
  std::cout << table.render();
  verdict(shape_ok,
          "blocked EM-CGM routing beats per-record naive permutation by "
          "roughly the blocking factor");
}

void bench_transpose() {
  banner("T1-A/transpose", "matrix transpose: tiled EM vs EM-CGM");
  util::Table table({"matrix", "seq-EM IOs", "EM-CGM p=1 IOs",
                     "EM-CGM p=4 IOs", "pred n/(pBD)"});
  bool shape_ok = true;
  for (std::uint64_t side : {64u, 128u, 256u}) {
    const std::uint64_t n = side * side;
    auto m = util::random_keys(n, side);
    em::DiskArray disks(kD, kB);
    baseline::EmTransposeStats st;
    baseline::em_transpose(disks, m, side, side, kM, &st);

    cgm::SeqEmExec seq_exec(machine(1, kD, kB, kM * 8));
    auto out1 = cgm::cgm_transpose(seq_exec, m, side, side, kV);
    cgm::ParEmExec par_exec(machine(kP, kD, kB, kM * 8));
    auto out4 = cgm::cgm_transpose(par_exec, m, side, side, kV);
    std::uint64_t cgm4 = 0;
    for (const auto& io : out4.exec.sim->per_proc_io) {
      cgm4 = std::max(cgm4, io.parallel_ios);
    }
    const auto cgm1 = algorithm_ios(*out1.exec.sim);
    const double pred =
        2.0 * static_cast<double>(n) * 8.0 / (kP * kB * kD);
    table.add_row({std::to_string(side) + "x" + std::to_string(side),
                   util::fmt_count(st.algorithm.parallel_ios),
                   util::fmt_count(cgm1), util::fmt_count(cgm4),
                   util::fmt_double(pred, 0)});
    shape_ok = shape_ok && cgm4 < cgm1;
  }
  std::cout << table.render();
  verdict(shape_ok, "EM-CGM transpose parallelizes across processors");
}

}  // namespace

int main() {
  bench_sort();
  bench_permutation();
  bench_transpose();
  return 0;
}
