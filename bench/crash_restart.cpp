// [R-K] Crash-restart soak — kill -9 at arbitrary points, resume must be
// byte-identical.
//
// Sweeps the process-death point across the run: for each crash fraction a
// forked child executes the EM-CGM sort workload with checkpointing on and a
// scripted FaultKind::crash at that backend call (std::_Exit(137) — no
// destructors, no flushes, the SIGKILL failure model), then the parent
// resumes from the orphaned checkpoint directory and checks:
//
//   * correctness — the resumed output equals the uninterrupted run's output
//                   byte for byte, at every crash point;
//   * cost model  — the resumed run's parallel-I/O count matches the
//                   uninterrupted run (checkpoint I/O is off-model);
//   * progress    — at least one crash point resumes from a nonzero epoch
//                   (the harness actually exercised restart, not just
//                   re-execution from scratch).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "bench_util.hpp"
#include "cgm/sort.hpp"
#include "util/workloads.hpp"

namespace {

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("embsp_bench_crash_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace

int main() {
  using namespace embsp;
  using namespace embsp::bench;
  banner("R-K", "crash-restart soak: kill -9 sweep with checkpoint resume");

  const std::uint64_t n = 1 << 16;
  auto keys = util::random_keys(n, 5);
  const auto base_cfg = machine(1, 4, 512, 1 << 20);

  // Uninterrupted reference run: output bytes and the parallel-I/O count
  // every resumed run must reproduce.  Also sizes the crash sweep — scripted
  // crash points are per-disk call numbers, approximated as total/D.
  cgm::SeqEmExec base_exec(base_cfg);
  auto base = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
      base_exec, keys, 64);
  const auto& base_sim = *base.exec.sim;
  const std::uint64_t disk0_calls =
      (base_sim.total_io.blocks_read + base_sim.total_io.blocks_written) /
      base_cfg.machine.em.D;

  util::Table table({"crash at call", "killed", "resume epoch", "checkpoints",
                     "parallel IOs", "identical"});
  JsonArtifact art("crash_restart");
  bool ok = disk0_calls > 8;
  std::uint64_t kills = 0;
  std::uint64_t resumes_with_progress = 0;
  for (const std::uint64_t num : {1, 2, 3, 4, 5, 6, 7}) {
    const std::uint64_t crash_call = disk0_calls * num / 8;
    const auto dir = fresh_dir("f" + std::to_string(num));

    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "fork failed\n";
      return 1;
    }
    if (pid == 0) {
      // Child: same run, checkpointing on, process dies without warning at
      // backend call #crash_call of disk 0.
      auto doomed = base_cfg;
      doomed.checkpoint.dir = dir;
      doomed.faults.scripted.push_back({em::FaultKind::crash, 0u, crash_call});
      try {
        cgm::SeqEmExec exec(doomed);
        cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(exec, keys, 64);
      } catch (...) {
      }
      std::_Exit(0);  // reached only if the crash point never fired
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
      std::cerr << "child did not exit cleanly\n";
      return 1;
    }
    const bool killed = WEXITSTATUS(status) == 137;
    if (killed) ++kills;

    // Parent: resume from the orphaned checkpoint directory.  The child's
    // in-memory disks died with it — everything comes from stable storage.
    auto resumed_cfg = base_cfg;
    resumed_cfg.checkpoint.dir = dir;
    resumed_cfg.checkpoint.resume = true;
    cgm::SeqEmExec exec(resumed_cfg);
    auto out = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
        exec, keys, 64);
    const auto& sim = *out.exec.sim;
    const bool identical = out.sorted == base.sorted;
    const bool same_cost =
        sim.total_io.parallel_ios == base_sim.total_io.parallel_ios;
    if (sim.recovery.resume_epoch > 0) ++resumes_with_progress;
    ok = ok && identical && same_cost;

    table.add_row({util::fmt_count(crash_call), killed ? "yes" : "no",
                   util::fmt_count(sim.recovery.resume_epoch),
                   util::fmt_count(sim.recovery.checkpoints),
                   util::fmt_count(sim.total_io.parallel_ios),
                   identical && same_cost ? "yes" : "NO"});
    art.begin_case("crash_" + std::to_string(num) + "_of_8");
    art.metric("crash_call", double(crash_call));
    art.metric("killed", killed ? 1.0 : 0.0);
    art.metric("resume_epoch", double(sim.recovery.resume_epoch));
    art.metric("checkpoints", double(sim.recovery.checkpoints));
    art.metric("parallel_ios", double(sim.total_io.parallel_ios));
    art.metric("identical", identical && same_cost ? 1.0 : 0.0);

    std::filesystem::remove_all(dir);
  }
  // A soak in which no child died — or no resume found a committed epoch —
  // proves nothing.
  ok = ok && kills > 0 && resumes_with_progress > 0;

  std::cout << table.render();
  const auto path = art.write();
  if (!path.empty()) std::cout << "  artifact: " << path << "\n";
  verdict(ok,
          "kill -9 at any point is survivable: resume from the checkpoint "
          "directory reproduces the uninterrupted run byte for byte");
  return ok ? 0 : 1;
}
