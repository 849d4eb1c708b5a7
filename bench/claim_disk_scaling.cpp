// [C-D] §1 claim — "if parallel disks are not properly utilized, the
// runtime can be a factor of D too high".
//
// Part 1 runs the same EM-CGM sort on machines with D = 1..16 disks
// (everything else fixed) and checks that the parallel-I/O count — hence
// the model I/O time G * #IOs — scales like 1/D, i.e. the simulation
// exploits all drives.
//
// Part 2 checks the other half of the claim on real hardware: with file
// backends, the worker-pool engine (ParallelDiskArray) must complete the
// same track I/Os measurably faster than the serial engine, because the D
// per-track transfers overlap on the device.  Backends open O_DSYNC so
// each transfer is genuine device I/O rather than a page-cache memcpy.
#include <chrono>
#include <filesystem>
#include <iostream>

#include "bench_util.hpp"
#include "cgm/sort.hpp"
#include "em/disk_array.hpp"
#include "util/workloads.hpp"

namespace {

// Wall-clock seconds for `cycles` full-width track write+read cycles.
double run_engine(embsp::em::DiskArray& arr, std::size_t D, std::size_t B,
                  std::size_t cycles) {
  using namespace embsp::em;
  std::vector<std::byte> buf(D * B);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 31 + 7);
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < cycles; ++c) {
    std::vector<WriteOp> writes;
    for (std::uint32_t d = 0; d < D; ++d) {
      writes.push_back({d, c,
                        std::span<const std::byte>(buf).subspan(d * B, B)});
    }
    arr.parallel_write(writes);
  }
  std::vector<ReadOp> reads;
  for (std::size_t c = 0; c < cycles; ++c) {
    reads.clear();
    for (std::uint32_t d = 0; d < D; ++d) {
      reads.push_back({d, c, std::span<std::byte>(buf).subspan(d * B, B)});
    }
    arr.parallel_read(reads);
  }
  arr.sync();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool engine_comparison(embsp::bench::JsonArtifact& artifact) {
  using namespace embsp;
  using namespace embsp::em;
  using namespace embsp::bench;
  banner("C-D2", "I/O engine: serial vs per-disk worker pool (file backend)");
  const std::size_t B = 1 << 16;  // 64 KiB tracks
  const std::size_t cycles = 64;
  const auto dir = std::filesystem::temp_directory_path();
  util::Table table({"D", "serial (s)", "parallel (s)", "speedup",
                     "overlap", "queue depth"});
  bool ok = true;
  for (std::size_t D : {1u, 4u, 8u}) {
    double secs[2];
    double overlap = 0.0;
    std::uint64_t depth = 0;
    for (int e = 0; e < 2; ++e) {
      const auto engine = e == 0 ? IoEngine::serial : IoEngine::parallel;
      auto arr = make_disk_array(engine, D, B, [&](std::size_t d) {
        const auto path = dir / ("embsp_engine_bench_" + std::to_string(e) +
                                 "_" + std::to_string(d) + ".bin");
        return make_file_backend(path.string(), /*keep=*/false,
                                 /*sync_writes=*/true);
      });
      // Warm up (allocate the file extents, settle the device queue), then
      // take the best of three repetitions — O_DSYNC latency on shared
      // hardware is noisy and the minimum is the stable estimator.
      run_engine(*arr, D, B, 8);
      arr->reset_stats();
      secs[e] = run_engine(*arr, D, B, cycles);
      for (int rep = 1; rep < 3; ++rep) {
        secs[e] = std::min(secs[e], run_engine(*arr, D, B, cycles));
      }
      if (e == 1) {
        const auto& eng = arr->engine_stats();
        depth = eng.max_queue_depth;
        // Every parallel I/O must have issued all D per-track transfers.
        ok = ok && depth == D;
        ok = ok && eng.total_ops() == 3 * 2 * cycles * D;
        // Effective concurrency: total device time the workers spent
        // transferring, over the time the issuing thread actually waited.
        // Both sides come from the same run, so ambient load cancels out.
        std::uint64_t busy = 0;
        for (const auto& ds : eng.per_disk) busy += ds.busy_ns;
        overlap = eng.stall_ns > 0
                      ? static_cast<double>(busy) /
                            static_cast<double>(eng.stall_ns)
                      : 0.0;
      }
    }
    const double speedup = secs[0] / secs[1];
    table.add_row({std::to_string(D), util::fmt_double(secs[0], 3),
                   util::fmt_double(secs[1], 3), util::fmt_ratio(speedup),
                   util::fmt_ratio(overlap), std::to_string(depth)});
    artifact.begin_case("engine_D" + std::to_string(D));
    artifact.metric("serial_s", secs[0]);
    artifact.metric("parallel_s", secs[1]);
    artifact.metric("speedup", speedup);
    artifact.metric("overlap", overlap);
    artifact.metric("max_queue_depth", static_cast<double>(depth));
    // The pool must show real device-level concurrency once there are
    // disks to overlap (D >= 4): either end-to-end wall-clock speedup over
    // the serial engine (threshold conservative — ideal is ~D, but a
    // shared/virtualized device serializes part of the overlap), or —
    // robust against ambient load on shared hardware — per-run overlap,
    // the per-drive transfer time the pool hid from the issuing thread.
    if (D >= 4) ok = ok && (speedup > 1.15 || overlap > 1.5);
  }
  std::cout << table.render();
  verdict(ok, "worker pool overlaps device I/O: parallel engine beats "
              "serial for D >= 4 with all D transfers in flight");
  return ok;
}

}  // namespace

int main() {
  using namespace embsp;
  using namespace embsp::bench;
  banner("C-D", "disk scaling: I/O time vs number of disks");

  const std::uint64_t n = 1 << 16;
  auto keys = util::random_keys(n, 5);

  util::Table table({"D", "parallel IOs", "utilization", "speedup vs D=1",
                     "ideal"});
  JsonArtifact artifact("C-D");
  std::uint64_t base = 0;
  bool ok = true;
  for (std::size_t D : {1u, 2u, 4u, 8u, 16u}) {
    cgm::SeqEmExec exec(machine(1, D, 512, 1 << 20));
    auto out = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
        exec, keys, 64);
    const auto ios = out.exec.sim->total_io.parallel_ios;
    if (D == 1) base = ios;
    const double speedup = static_cast<double>(base) / ios;
    const double disk_util = out.exec.sim->total_io.utilization(D);
    // The pipelined engine must charge the identical model I/O count: it
    // reorders only the waiting, never the submissions.  Doubling M keeps
    // the auto-picked group size k equal under the tightened 2-groups-
    // resident bound, so the schedules are track-for-track comparable.
    auto pcfg = machine(1, D, 512, 2 << 20);
    pcfg.pipeline = true;
    pcfg.io_engine = em::IoEngine::parallel;
    cgm::SeqEmExec pexec(pcfg);
    auto pout = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
        pexec, keys, 64);
    const auto pios = pout.exec.sim->total_io.parallel_ios;
    ok = ok && pios == ios && pout.sorted == out.sorted;
    table.add_row({std::to_string(D), util::fmt_count(ios),
                   util::fmt_double(disk_util, 2),
                   util::fmt_ratio(speedup),
                   util::fmt_ratio(static_cast<double>(D))});
    artifact.begin_case("sort_D" + std::to_string(D));
    artifact.metric("parallel_ios", static_cast<double>(ios));
    artifact.metric("pipelined_ios", static_cast<double>(pios));
    artifact.metric("utilization", disk_util);
    artifact.metric("speedup_vs_D1", speedup);
    // At least 60% of ideal scaling at every width.
    ok = ok && speedup > 0.6 * static_cast<double>(D);
  }
  std::cout << table.render();
  verdict(ok, "I/O time scales ~1/D: the simulation keeps all disks busy");

  engine_comparison(artifact);
  const auto path = artifact.write();
  if (!path.empty()) std::cout << "artifact written to " << path << "\n";
  return 0;
}
