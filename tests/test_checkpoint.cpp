// Checkpoint/restart and coordinated-recovery tests.
//
// The durability claims under test (see DESIGN.md §"Failure model &
// recovery"):
//   * a checkpoint torn by a crash is detected (checksums) and the
//     previous epoch loads instead — the manifest + atomic-rename protocol
//     never leaves the directory unloadable;
//   * a run killed at an arbitrary point (including SIGKILL-style death
//     with no destructors, simulated by fork + scripted crash faults) and
//     resumed produces byte-identical results, model costs, and fault
//     tallies to an uninterrupted run;
//   * the parallel simulator's coordinated rollback re-executes a failed
//     superstep across ALL processors and still completes with the
//     fault-free answer;
//   * both hold with the p ranks on a real socket mesh, where every
//     verdict, checkpoint record and resume handoff crosses the wire.
//
// Carries the `recovery` ctest label; the sanitizer presets re-run it.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "cgm/runner.hpp"
#include "em/fault_backend.hpp"
#include "sim/checkpoint.hpp"
#include "sim/par_simulator.hpp"
#include "sim/seq_simulator.hpp"
#include "rank_groups.hpp"
#include "test_programs.hpp"
#include "util/checksum.hpp"

namespace embsp::sim {
namespace {

namespace fs = std::filesystem;
using embsp::testing::IrregularProgram;
using embsp::testing::SocketRanks;

// IrregularProgram plus a cancellation trigger: during superstep
// `cancel_at` the cancel flag is raised, so the simulator stops at the
// following boundary.  With a null flag it is bit-identical to the plain
// program — the same type runs the baseline and the interrupted run.
struct CancelingProgram {
  IrregularProgram inner;
  std::atomic<bool>* flag = nullptr;
  std::size_t cancel_at = 0;

  using State = IrregularProgram::State;

  bool superstep(std::size_t step, const bsp::ProcEnv& env, State& s,
                 const bsp::Inbox& in, bsp::Outbox& out) const {
    if (flag != nullptr && step == cancel_at) {
      flag->store(true, std::memory_order_relaxed);
    }
    return inner.superstep(step, env, s, in, out);
  }
};

std::string fresh_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() / ("embsp_ckpt_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

SimConfig base_config(std::uint32_t p, std::uint32_t v, em::IoEngine engine) {
  SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = 4;
  cfg.machine.em.B = 128;
  cfg.machine.em.M = 1 << 20;
  cfg.mu = 64;
  cfg.gamma = 4096;
  cfg.io_engine = engine;
  return cfg;
}

template <typename Sim>
std::vector<std::uint64_t> run_sim(const SimConfig& cfg, SimResult& result,
                                   std::atomic<bool>* flag = nullptr,
                                   std::size_t cancel_at = 0) {
  Sim simr(cfg);
  // Indexed assignment: collect may re-run after recovery; idempotent.
  std::vector<std::uint64_t> sums(cfg.machine.bsp.v);
  result = simr.template run<CancelingProgram>(
      CancelingProgram{{}, flag, cancel_at},
      [](std::uint32_t) { return CancelingProgram::State{}; },
      [&](std::uint32_t vp, CancelingProgram::State& s) {
        sums[vp] = s.checksum;
      });
  return sums;
}

template <typename T>
std::vector<std::byte> raw_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

void expect_same_superstep_costs(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.lambda(), b.lambda());
  ASSERT_EQ(a.costs.supersteps.size(), b.costs.supersteps.size());
  for (std::size_t i = 0; i < a.costs.supersteps.size(); ++i) {
    EXPECT_EQ(raw_bytes(a.costs.supersteps[i]),
              raw_bytes(b.costs.supersteps[i]))
        << "superstep " << i;
  }
}

void expect_same_io(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(raw_bytes(a.total_io), raw_bytes(b.total_io));
  ASSERT_EQ(a.per_proc_io.size(), b.per_proc_io.size());
  for (std::size_t i = 0; i < a.per_proc_io.size(); ++i) {
    EXPECT_EQ(raw_bytes(a.per_proc_io[i]), raw_bytes(b.per_proc_io[i]))
        << "processor " << i;
  }
}

void expect_same_costs(const SimResult& a, const SimResult& b) {
  expect_same_superstep_costs(a, b);
  expect_same_io(a, b);
}

// --- CheckpointDir: format, torn files, fallback ----------------------------

std::vector<std::byte> make_payload(std::size_t n, std::uint8_t salt) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>(static_cast<std::uint8_t>(i * 31 + salt));
  }
  return p;
}

void corrupt_file(const std::string& path, std::size_t at) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  ASSERT_GT(size, at);
  f.seekp(static_cast<std::streamoff>(at));
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(at));
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(at));
  f.write(&byte, 1);
}

TEST(CheckpointDir, PublishLoadRoundtrip) {
  CheckpointDir dir(fresh_dir("roundtrip"));
  const auto p1 = make_payload(1000, 1);
  dir.publish(0, 1, p1, 0xABCD);

  const auto m = dir.manifest();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->run_index, 0u);
  EXPECT_EQ(m->cur_epoch, 1u);
  EXPECT_EQ(m->cur_bytes, p1.size());
  EXPECT_EQ(m->cur_checksum, util::checksum64(p1));
  EXPECT_EQ(m->prev_epoch, 0u);
  EXPECT_EQ(m->config_fp, 0xABCDu);

  const auto loaded = dir.load(0, 0xABCD);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->payload, p1);

  // A second epoch becomes current; the first is retained as fallback.
  const auto p2 = make_payload(1200, 2);
  dir.publish(0, 2, p2, 0xABCD);
  const auto m2 = dir.manifest();
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m2->cur_epoch, 2u);
  EXPECT_EQ(m2->prev_epoch, 1u);
  EXPECT_TRUE(fs::exists(dir.epoch_path(0, 1)));

  // A third epoch retires epoch 1 (2-epoch retention).
  dir.publish(0, 3, make_payload(900, 3), 0xABCD);
  EXPECT_FALSE(fs::exists(dir.epoch_path(0, 1)));
  EXPECT_TRUE(fs::exists(dir.epoch_path(0, 2)));
  EXPECT_TRUE(fs::exists(dir.epoch_path(0, 3)));
}

TEST(CheckpointDir, TornManifestReadsAsAbsent) {
  const auto path = fresh_dir("torn_manifest");
  CheckpointDir dir(path);
  dir.publish(0, 1, make_payload(500, 1), 7);
  corrupt_file(path + "/MANIFEST", 40);
  // A manifest that fails its checksum is indistinguishable from no
  // checkpoint at all: the run starts fresh rather than loading garbage.
  EXPECT_FALSE(dir.manifest().has_value());
  EXPECT_FALSE(dir.load(0, 7).has_value());
}

TEST(CheckpointDir, CorruptCurrentEpochFallsBackToPrevious) {
  const auto path = fresh_dir("fallback");
  CheckpointDir dir(path);
  const auto p1 = make_payload(800, 1);
  dir.publish(0, 1, p1, 7);
  dir.publish(0, 2, make_payload(800, 2), 7);
  corrupt_file(dir.epoch_path(0, 2), 100);
  const auto loaded = dir.load(0, 7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->payload, p1);
}

TEST(CheckpointDir, CorruptEverythingThrows) {
  const auto path = fresh_dir("all_corrupt");
  CheckpointDir dir(path);
  dir.publish(0, 1, make_payload(600, 1), 7);
  dir.publish(0, 2, make_payload(600, 2), 7);
  corrupt_file(dir.epoch_path(0, 1), 50);
  corrupt_file(dir.epoch_path(0, 2), 50);
  EXPECT_THROW(dir.load(0, 7), std::runtime_error);
}

TEST(CheckpointDir, ConfigFingerprintMismatchThrows) {
  CheckpointDir dir(fresh_dir("fp_mismatch"));
  dir.publish(0, 1, make_payload(100, 1), 7);
  EXPECT_THROW(dir.load(0, 8), std::runtime_error);
}

TEST(CheckpointDir, OtherRunIndexLoadsNothing) {
  CheckpointDir dir(fresh_dir("run_index"));
  dir.publish(1, 4, make_payload(100, 1), 7);
  // Run 0 finished before the checkpointed run 1 started; it re-executes
  // deterministically instead of loading run 1's state.
  EXPECT_FALSE(dir.load(0, 7).has_value());
  EXPECT_TRUE(dir.load(1, 7).has_value());
}

TEST(CheckpointFingerprint, SensitiveToConfigButNotCrashPoints) {
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  const auto fp = config_fingerprint(cfg);
  auto other = cfg;
  other.seed += 1;
  EXPECT_NE(fp, config_fingerprint(other));
  other = cfg;
  other.faults.bursts.push_back({0u, 10u, 4u});
  EXPECT_NE(fp, config_fingerprint(other));
  // A scripted crash point is where the process *dies*, not part of the
  // surviving history — the restart runs without it and must still match.
  other = cfg;
  other.faults.scripted.push_back({em::FaultKind::crash, 0u, 123u});
  EXPECT_EQ(fp, config_fingerprint(other));
}

// --- Sequential simulator: cancel / resume equivalence ----------------------

TEST(SeqResume, CheckpointingItselfChangesNothing) {
  // Checkpoint I/O is off-model (raw backend peeks, no stats, no fault
  // draws): a run with checkpointing enabled is byte-identical to one
  // without.
  auto plain = base_config(1, 16, em::IoEngine::serial);
  SimResult plain_res;
  const auto plain_sums = run_sim<SeqSimulator>(plain, plain_res);

  auto ckpt = plain;
  ckpt.checkpoint.dir = fresh_dir("seq_noop");
  SimResult ckpt_res;
  const auto ckpt_sums = run_sim<SeqSimulator>(ckpt, ckpt_res);

  EXPECT_EQ(plain_sums, ckpt_sums);
  expect_same_costs(plain_res, ckpt_res);
  EXPECT_GT(ckpt_res.recovery.checkpoints, 0u);
  EXPECT_EQ(plain_res.recovery.checkpoints, 0u);
}

void seq_cancel_resume_case(em::IoEngine engine, bool pipeline,
                            std::size_t cancel_at, const std::string& tag) {
  auto cfg = base_config(1, 16, engine);
  if (pipeline) {
    cfg.pipeline = true;
    cfg.compute_threads = 2;
  }
  cfg.checkpoint.dir = fresh_dir(tag + "_base");
  SimResult base_res;
  const auto expected = run_sim<SeqSimulator>(cfg, base_res);

  auto killed = cfg;
  killed.checkpoint.dir = fresh_dir(tag);
  std::atomic<bool> cancel{false};
  killed.cancel = &cancel;
  SimResult dead_res;
  EXPECT_THROW(run_sim<SeqSimulator>(killed, dead_res, &cancel, cancel_at),
               CanceledError);

  auto resumed = cfg;
  resumed.checkpoint.dir = killed.checkpoint.dir;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_sim<SeqSimulator>(resumed, res);
  EXPECT_EQ(got, expected) << tag;
  expect_same_costs(base_res, res);
  EXPECT_EQ(res.recovery.resume_epoch, cancel_at + 1);
}

TEST(SeqResume, CancelAtFirstBoundaryThenResume) {
  seq_cancel_resume_case(em::IoEngine::serial, false, 0, "seq_first");
}

TEST(SeqResume, CancelMidRunThenResume) {
  seq_cancel_resume_case(em::IoEngine::serial, false, 2, "seq_mid");
}

TEST(SeqResume, ResumeUnderUringPipeline) {
  seq_cancel_resume_case(em::IoEngine::uring, true, 1, "seq_uring_pipe");
}

TEST(SeqResume, CheckpointEveryNSkipsBoundaries) {
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  cfg.checkpoint.dir = fresh_dir("seq_every");
  cfg.checkpoint.every = 2;
  SimResult res;
  run_sim<SeqSimulator>(cfg, res);
  SimResult dense_res;
  auto dense = cfg;
  dense.checkpoint.dir = fresh_dir("seq_every_dense");
  dense.checkpoint.every = 1;
  run_sim<SeqSimulator>(dense, dense_res);
  EXPECT_GT(res.recovery.checkpoints, 0u);
  EXPECT_LT(res.recovery.checkpoints, dense_res.recovery.checkpoints);
}

TEST(SeqResume, FaultHistoryContinuesAcrossResume) {
  // The fault schedule is part of the run's identity: a resumed run's
  // injected-fault tally, retry count, and results must all match an
  // uninterrupted run under the same schedule (ScheduleState round-trip).
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  cfg.faults.seed = 2024;
  cfg.faults.read_error_rate = 0.02;
  cfg.faults.write_error_rate = 0.02;
  cfg.faults.torn_write_rate = 0.01;
  cfg.faults.bit_flip_rate = 0.01;
  cfg.block_checksums = true;
  cfg.superstep_recovery = true;
  cfg.checkpoint.dir = fresh_dir("seq_faulty_base");

  SimResult base_res;
  const auto expected = run_sim<SeqSimulator>(cfg, base_res);
  ASSERT_GT(base_res.recovery.faults.total(), 0u);

  auto killed = cfg;
  killed.checkpoint.dir = fresh_dir("seq_faulty");
  std::atomic<bool> cancel{false};
  killed.cancel = &cancel;
  SimResult dead_res;
  EXPECT_THROW(run_sim<SeqSimulator>(killed, dead_res, &cancel, 1),
               CanceledError);

  auto resumed = killed;
  resumed.cancel = nullptr;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_sim<SeqSimulator>(resumed, res);
  EXPECT_EQ(got, expected);
  expect_same_costs(base_res, res);
  EXPECT_EQ(res.recovery.faults.total(), base_res.recovery.faults.total());
  EXPECT_EQ(res.recovery.faults.read_errors,
            base_res.recovery.faults.read_errors);
  EXPECT_EQ(res.recovery.faults.torn_writes,
            base_res.recovery.faults.torn_writes);
  EXPECT_EQ(res.recovery.io_retries, base_res.recovery.io_retries);
}

TEST(SeqResume, MultiRunWorkloadResumesInterruptedRunOnly) {
  // Workloads like euler_tour run several simulations through one
  // executor; the manifest's run_index makes a resumed process re-execute
  // completed runs fresh and resume only the interrupted one.
  auto cfg0 = base_config(1, 16, em::IoEngine::serial);
  cfg0.checkpoint.run_index = 0;
  auto cfg1 = cfg0;
  cfg1.seed = cfg0.seed + 99;
  cfg1.checkpoint.run_index = 1;

  SimResult base0, base1;
  const auto expected0 = run_sim<SeqSimulator>(cfg0, base0);
  const auto expected1 = run_sim<SeqSimulator>(cfg1, base1);

  // Interrupted process: run 0 completes (checkpointing), run 1 canceled.
  const auto dir = fresh_dir("seq_multirun");
  auto k0 = cfg0;
  k0.checkpoint.dir = dir;
  SimResult r0;
  EXPECT_EQ(run_sim<SeqSimulator>(k0, r0), expected0);
  auto k1 = cfg1;
  k1.checkpoint.dir = dir;
  std::atomic<bool> cancel{false};
  k1.cancel = &cancel;
  SimResult rdead;
  EXPECT_THROW(run_sim<SeqSimulator>(k1, rdead, &cancel, 1), CanceledError);

  // Restarted process replays run 0 (manifest belongs to run 1, so run 0
  // starts fresh with checkpoint writes suppressed) then resumes run 1.
  auto re0 = k0;
  re0.checkpoint.resume = true;
  SimResult rr0;
  EXPECT_EQ(run_sim<SeqSimulator>(re0, rr0), expected0);
  EXPECT_EQ(rr0.recovery.resume_epoch, 0u);
  EXPECT_EQ(rr0.recovery.checkpoints, 0u);  // suppressed: run 1 owns the dir

  auto re1 = k1;
  re1.cancel = nullptr;
  re1.checkpoint.resume = true;
  SimResult rr1;
  EXPECT_EQ(run_sim<SeqSimulator>(re1, rr1), expected1);
  EXPECT_GT(rr1.recovery.resume_epoch, 0u);
  expect_same_costs(base1, rr1);
}

// --- SIGKILL-style death: fork + scripted crash fault -----------------------

TEST(CrashRestart, KillNineMidRunThenResumeMatches) {
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  SimResult base_res;
  const auto expected = run_sim<SeqSimulator>(cfg, base_res);
  const std::uint64_t disk0_calls =
      (base_res.total_io.blocks_read + base_res.total_io.blocks_written) / 4;
  ASSERT_GT(disk0_calls, 8u);

  const auto dir = fresh_dir("crash_kill9");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: same run, checkpointing on, process dies without warning at
    // backend call #N of disk 0 — std::_Exit, no destructors, no flushes.
    auto doomed = cfg;
    doomed.checkpoint.dir = dir;
    doomed.faults.scripted.push_back(
        {em::FaultKind::crash, 0u, disk0_calls / 2});
    SimResult r;
    try {
      run_sim<SeqSimulator>(doomed, r);
    } catch (...) {
    }
    std::_Exit(0);  // reached only if the crash point never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137) << "child should die at the crash point";

  // Parent: resume from the orphaned checkpoint directory.  The in-memory
  // disks died with the child — everything must come from stable storage.
  auto resumed = cfg;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_sim<SeqSimulator>(resumed, res);
  EXPECT_EQ(got, expected);
  expect_same_costs(base_res, res);
  EXPECT_GT(res.recovery.resume_epoch, 0u);
}

// --- Parallel simulator: resume + coordinated rollback ----------------------
//
// Each case runs on ParSimulator (p ranks over the in-process loopback
// group) and on SocketRanks (the same ranks over a unix-socket mesh).

template <typename Sim>
void par_cancel_resume_case(em::IoEngine engine, bool recovery,
                            const std::string& tag) {
  auto cfg = base_config(2, 16, engine);
  cfg.superstep_recovery = recovery;
  cfg.checkpoint.dir = fresh_dir(tag + "_base");
  SimResult base_res;
  const auto expected = run_sim<Sim>(cfg, base_res);

  auto killed = cfg;
  killed.checkpoint.dir = fresh_dir(tag);
  std::atomic<bool> cancel{false};
  killed.cancel = &cancel;
  SimResult dead_res;
  EXPECT_THROW(run_sim<Sim>(killed, dead_res, &cancel, 1), CanceledError);

  auto resumed = cfg;
  resumed.checkpoint.dir = killed.checkpoint.dir;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_sim<Sim>(resumed, res);
  EXPECT_EQ(got, expected) << tag;
  expect_same_costs(base_res, res);
  EXPECT_GT(res.recovery.resume_epoch, 0u);
}

TEST(ParResume, CancelThenResumeParallelEngine) {
  par_cancel_resume_case<ParSimulator>(em::IoEngine::parallel, false,
                                       "par_plain");
}

TEST(ParResume, CancelThenResumeWithJournaledContexts) {
  par_cancel_resume_case<ParSimulator>(em::IoEngine::parallel, true,
                                       "par_journal");
}

TEST(ParResume, CancelThenResumeUring) {
  par_cancel_resume_case<ParSimulator>(em::IoEngine::uring, false,
                                       "par_uring");
}

TEST(SocketResume, CancelThenResumeParallelEngine) {
  par_cancel_resume_case<SocketRanks>(em::IoEngine::parallel, false,
                                      "sock_plain");
}

TEST(SocketResume, CancelThenResumeWithJournaledContexts) {
  par_cancel_resume_case<SocketRanks>(em::IoEngine::parallel, true,
                                      "sock_journal");
}

TEST(SocketResume, CancelThenResumeUring) {
  par_cancel_resume_case<SocketRanks>(em::IoEngine::uring, false,
                                      "sock_uring");
}

/// Leaves the recovered run's result in `res`.
template <typename Sim>
void par_rollback_case(em::IoEngine engine, const std::string& tag,
                       SimResult& res) {
  // Clean reference: coordinated recovery on (journaled banks change the
  // disk layout, so the reference must run the same layout).
  auto clean = base_config(2, 16, engine);
  clean.superstep_recovery = true;
  clean.block_checksums = true;
  SimResult clean_res;
  const auto expected = run_sim<Sim>(clean, clean_res);

  // Hostile run: a burst longer than the retry budget on proc 0's disk 0,
  // placed mid-run.  The giveup must trigger a rollback of ALL processors
  // to the last committed epoch, then a successful re-execution.
  const std::uint64_t proc0_calls =
      (clean_res.per_proc_io[0].blocks_read +
       clean_res.per_proc_io[0].blocks_written) /
      4;
  ASSERT_GT(proc0_calls, 8u) << tag;
  auto hostile = clean;
  hostile.faults.seed = 5;
  hostile.faults.bursts.push_back(
      {0u, proc0_calls / 2,
       static_cast<std::uint64_t>(hostile.retry.max_attempts)});
  const auto got = run_sim<Sim>(hostile, res);
  EXPECT_EQ(got, expected) << tag;
  expect_same_superstep_costs(clean_res, res);
  EXPECT_EQ(res.recovery.io_giveups, 1u) << tag;
  EXPECT_GE(res.recovery.total_rollbacks(), 1u) << tag;
}

TEST(ParRecovery, CoordinatedRollbackCompletesParallelEngine) {
  SimResult res;
  par_rollback_case<ParSimulator>(em::IoEngine::parallel,
                                  "rollback_parallel", res);
}

TEST(ParRecovery, CoordinatedRollbackCompletesUring) {
  SimResult res;
  par_rollback_case<ParSimulator>(em::IoEngine::uring, "rollback_uring", res);
}

// A rollback re-executes I/O, so a recovered run's IoStats exceed the clean
// run's — but not between transports: the in-process run pays the same.
TEST(SocketRecovery, CoordinatedRollbackCompletesParallelEngine) {
  SimResult loop, sock;
  par_rollback_case<ParSimulator>(em::IoEngine::parallel, "loop_rb", loop);
  par_rollback_case<SocketRanks>(em::IoEngine::parallel, "sock_rb", sock);
  expect_same_io(loop, sock);
}

TEST(SocketRecovery, CoordinatedRollbackCompletesUring) {
  SimResult loop, sock;
  par_rollback_case<ParSimulator>(em::IoEngine::uring, "loop_rb_u", loop);
  par_rollback_case<SocketRanks>(em::IoEngine::uring, "sock_rb_u", sock);
  expect_same_io(loop, sock);
}

TEST(SocketRecovery, RetryBudgetExhaustionStillSurfacesError) {
  auto cfg = base_config(2, 16, em::IoEngine::parallel);
  cfg.superstep_recovery = true;
  cfg.block_checksums = true;
  cfg.max_superstep_retries = 1;
  cfg.faults.seed = 5;
  cfg.faults.bursts.push_back({0u, 8u, 100000u});
  SimResult res;
  try {
    run_sim<SocketRanks>(cfg, res);
    FAIL() << "expected the giveup to surface";
  } catch (const net::NetError& e) {
    FAIL() << "root cause lost to a transport echo: " << e.what();
  } catch (const em::IoError&) {
  }
}

TEST(ParRecovery, RetryBudgetExhaustionStillSurfacesError) {
  // A fault that outlives every rollback attempt must abort the run with
  // the underlying IoError — bounded retries, no hang, no silent loss.
  auto cfg = base_config(2, 16, em::IoEngine::parallel);
  cfg.superstep_recovery = true;
  cfg.block_checksums = true;
  cfg.max_superstep_retries = 1;
  cfg.faults.seed = 5;
  cfg.faults.bursts.push_back({0u, 8u, 100000u});  // effectively forever
  SimResult res;
  EXPECT_THROW(run_sim<ParSimulator>(cfg, res), em::IoError);
}

TEST(ParRecovery, AbortStillFlushesRegistry) {
  // Satellite: a run that dies mid-flight must still leave its counters in
  // the attached registry (that is when a post-mortem needs them).
  auto cfg = base_config(2, 16, em::IoEngine::parallel);
  cfg.superstep_recovery = false;  // no rollback: the giveup is fatal
  cfg.faults.seed = 5;
  cfg.faults.bursts.push_back({0u, 8u, 100000u});
  obs::Recorder recorder;
  cfg.recorder = &recorder;
  SimResult res;
  EXPECT_THROW(run_sim<ParSimulator>(cfg, res), em::IoError);
  std::ostringstream json;
  recorder.registry.write_json(json);
  EXPECT_NE(json.str().find("recovery.io_giveups"), std::string::npos);
  EXPECT_NE(json.str().find("faults.injected"), std::string::npos);
}

/// Two simulations with distinct inputs through one DistEmExec per rank of
/// a 2-rank loopback group, the second canceled during superstep 1 when
/// `cancel` is set.  Returns rank 0's collected checksums per run.
std::vector<std::vector<std::uint64_t>> drive_two_runs(
    const SimConfig& cfg, std::atomic<bool>* cancel) {
  auto eps = net::make_loopback_group(2);
  std::vector<std::vector<std::uint64_t>> sums(
      2, std::vector<std::uint64_t>(cfg.machine.bsp.v));
  embsp::testing::run_ranks(eps, [&](std::uint32_t r, net::Transport& tp) {
    cgm::DistEmExec exec(cfg, tp);
    for (std::uint64_t run = 0; run < 2; ++run) {
      exec.run<CancelingProgram>(
          CancelingProgram{{}, run == 1 ? cancel : nullptr, 1},
          cfg.machine.bsp.v,
          [run](std::uint32_t pid) {
            CancelingProgram::State s;
            s.checksum = run * 1000003 + pid;
            return s;
          },
          [&, r, run](std::uint32_t vp, CancelingProgram::State& s) {
            if (r == 0) sums[run][vp] = s.checksum;
          });
    }
  });
  return sums;
}

TEST(DistResume, MultiRunWorkloadResumesInterruptedRunOnly) {
  // DistEmExec numbers its runs like the other executors, so restarted
  // ranks re-execute the completed run and resume only the interrupted one
  // instead of restoring its state into the wrong run.
  auto cfg = base_config(2, 16, em::IoEngine::serial);
  const auto expected = drive_two_runs(cfg, nullptr);
  ASSERT_NE(expected[0], expected[1]);
  cfg.checkpoint.dir = fresh_dir("dist_multirun");
  auto killed = cfg;
  std::atomic<bool> cancel{false};
  killed.cancel = &cancel;
  EXPECT_THROW(drive_two_runs(killed, &cancel), CanceledError);
  auto resumed = cfg;
  resumed.checkpoint.resume = true;
  EXPECT_EQ(drive_two_runs(resumed, nullptr), expected);
}

TEST(ParCheckpoint, CheckpointingItselfChangesNothing) {
  auto plain = base_config(2, 16, em::IoEngine::parallel);
  SimResult plain_res;
  const auto plain_sums = run_sim<ParSimulator>(plain, plain_res);

  auto ckpt = plain;
  ckpt.checkpoint.dir = fresh_dir("par_noop");
  SimResult ckpt_res;
  const auto ckpt_sums = run_sim<ParSimulator>(ckpt, ckpt_res);

  EXPECT_EQ(plain_sums, ckpt_sums);
  expect_same_costs(plain_res, ckpt_res);
  EXPECT_GT(ckpt_res.recovery.checkpoints, 0u);
}

TEST(ObsHooks, CheckpointCountersExported) {
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  cfg.checkpoint.dir = fresh_dir("obs_gauges");
  obs::Recorder recorder;
  cfg.recorder = &recorder;
  SimResult res;
  run_sim<SeqSimulator>(cfg, res);
  std::ostringstream json;
  recorder.registry.write_json(json);
  EXPECT_NE(json.str().find("recovery.checkpoints"), std::string::npos);
  EXPECT_NE(json.str().find("checkpoint.bytes"), std::string::npos);
  EXPECT_NE(json.str().find("checkpoint.latency_ns"), std::string::npos);
}

}  // namespace
}  // namespace embsp::sim
