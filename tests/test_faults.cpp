// Fault-tolerance tests: deterministic fault injection, retry/backoff,
// block checksums, the backend robustness fixes, and superstep-granular
// recovery in the sequential simulator.
//
// Carries both the `sanitize` and `faults` ctest labels: the retry loops
// run on the parallel engine's workers and the fault counters are shared
// atomics, so the suite is worth re-running under TSan/ASan.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "em/fault_backend.hpp"
#include "em/parallel_disk_array.hpp"
#include "sim/par_simulator.hpp"
#include "sim/seq_simulator.hpp"
#include "test_programs.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace embsp::em {
namespace {

namespace fs = std::filesystem;
using embsp::testing::IrregularProgram;

std::vector<std::byte> pattern_block(std::size_t size, std::uint64_t tag) {
  std::vector<std::byte> b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::byte>(
        static_cast<std::uint8_t>(tag * 131 + i * 7 + 3));
  }
  return b;
}

// --- Checksums --------------------------------------------------------------

TEST(Checksum, StableAndSensitive) {
  const auto a = pattern_block(512, 1);
  const auto b = pattern_block(512, 1);
  EXPECT_EQ(util::checksum64(a), util::checksum64(b));

  auto c = a;
  c[300] ^= std::byte{1};  // single bit flip
  EXPECT_NE(util::checksum64(a), util::checksum64(c));

  // Length matters even when content is all zeros.
  const std::vector<std::byte> z1(64), z2(65);
  EXPECT_NE(util::checksum64(z1), util::checksum64(z2));
}

TEST(Checksum, DiskDetectsMediumCorruption) {
  auto backend = std::make_unique<MemoryBackend>();
  auto* raw = backend.get();
  Disk disk(128, std::move(backend), 0, /*verify_checksums=*/true);
  const auto block = pattern_block(128, 9);
  disk.write_track(3, block);

  std::vector<std::byte> out(128);
  disk.read_track(3, out);
  EXPECT_EQ(out, block);
  EXPECT_EQ(disk.checksum_failures(), 0u);

  // Corrupt the medium behind the disk's back: every re-read now fails
  // verification (this is genuine rot, not an in-flight flip).
  std::byte evil{0x40};
  raw->write(3 * 128 + 17, {&evil, 1});
  EXPECT_THROW(disk.read_track(3, out), CorruptBlockError);
  EXPECT_GE(disk.checksum_failures(), 1u);
}

TEST(Checksum, EmptyVectoredRunKeepsChecksumTable) {
  // An empty run at track 0 once computed its last track as 0 - 1, which
  // wrapped and resized the checksum table to nothing: later corruption of
  // track 0 then read back silently.
  auto backend = std::make_unique<MemoryBackend>();
  auto* raw = backend.get();
  Disk disk(128, std::move(backend), 0, /*verify_checksums=*/true);
  disk.write_track(0, pattern_block(128, 5));
  disk.write_tracks(0, {});
  std::vector<std::byte> out(128);
  disk.read_tracks(0, {});
  EXPECT_EQ(disk.writes(), 1u);
  EXPECT_EQ(disk.reads(), 0u);

  std::byte evil{0x08};
  raw->write(40, {&evil, 1});
  EXPECT_THROW(disk.read_track(0, out), CorruptBlockError);
  EXPECT_EQ(disk.checksum_failures(), 1u);
}

// --- Error taxonomy / retry policy ------------------------------------------

TEST(IoErrorTaxonomy, KindsAndRetryability) {
  EXPECT_TRUE(TransientIoError("x").retryable());
  EXPECT_TRUE(CorruptBlockError("x").retryable());
  EXPECT_FALSE(PersistentIoError("x").retryable());
  EXPECT_EQ(classify_errno(EIO), IoError::Kind::transient);
  EXPECT_EQ(classify_errno(EBADF), IoError::Kind::persistent);
  // IoError stays catchable as runtime_error (pre-existing call sites).
  try {
    throw TransientIoError("hiccup");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "hiccup");
  }
}

TEST(RetryPolicy, BackoffGrowsAndIsBounded) {
  RetryPolicy p;
  p.base_backoff_ns = 1000;
  p.multiplier = 2.0;
  p.max_backoff_ns = 6000;
  util::Rng jitter(7);
  for (std::uint32_t attempt = 1; attempt <= 10; ++attempt) {
    const std::uint64_t raw =
        std::min<std::uint64_t>(1000ULL << (attempt - 1), 6000);
    const std::uint64_t got = p.backoff_ns(attempt, jitter);
    // Jitter multiplies by U ~ [0.5, 1.5).
    EXPECT_GE(got, raw / 2) << attempt;
    EXPECT_LT(got, raw + raw / 2 + 1) << attempt;
  }
}

// --- Deterministic injection ------------------------------------------------

FaultSpec noisy_spec() {
  FaultSpec s;
  s.seed = 42;
  s.read_error_rate = 0.2;
  s.write_error_rate = 0.2;
  s.torn_write_rate = 0.1;
  s.bit_flip_rate = 0.1;
  return s;
}

// Record, for a fixed call sequence, which calls fault and how.
std::vector<int> fault_trace(std::uint32_t disk_index, std::uint64_t seed) {
  FaultInjectingBackend b(std::make_unique<MemoryBackend>(), noisy_spec(),
                          seed, disk_index);
  const auto block = pattern_block(64, 5);
  std::vector<std::byte> buf(64);
  std::vector<int> trace;
  for (int i = 0; i < 200; ++i) {
    try {
      if (i % 2 == 0) {
        b.write(static_cast<std::uint64_t>(i) * 64, block);
      } else {
        b.read(static_cast<std::uint64_t>(i - 1) * 64, buf);
      }
      trace.push_back(0);
    } catch (const IoError&) {
      trace.push_back(1);
    }
  }
  return trace;
}

TEST(FaultInjection, ScheduleIsDeterministicPerSeedAndDisk) {
  const auto t1 = fault_trace(0, 1);
  const auto t2 = fault_trace(0, 1);
  EXPECT_EQ(t1, t2);  // same seed, same disk -> identical schedule
  EXPECT_NE(t1, fault_trace(1, 1));  // another disk -> decorrelated stream
  EXPECT_NE(t1, fault_trace(0, 2));  // another seed -> different schedule
  // With these rates something must actually fire.
  EXPECT_GT(std::count(t1.begin(), t1.end(), 1), 0);
}

TEST(FaultInjection, TornWritesHealedByRetryLayer) {
  FaultSpec spec;
  spec.seed = 7;
  spec.torn_write_rate = 0.3;
  spec.write_error_rate = 0.1;
  auto counters = std::make_shared<FaultCounters>();
  DiskArrayOptions opts;
  opts.retry.max_attempts = 8;  // tears redraw per attempt; 0.3^8 ~ never
  DiskArray arr(2, 64, wrap_with_faults(nullptr, spec, 99, counters), 0,
                opts);
  // Every write is retried to completion, so every read-back must match
  // bit for bit even though many attempts only persisted a prefix.
  for (int iter = 0; iter < 100; ++iter) {
    const auto b0 = pattern_block(64, iter);
    const auto b1 = pattern_block(64, iter + 1000);
    std::vector<WriteOp> w{{0u, static_cast<std::uint64_t>(iter), b0},
                           {1u, static_cast<std::uint64_t>(iter), b1}};
    arr.parallel_write(w);
    std::vector<std::byte> r0(64), r1(64);
    std::vector<ReadOp> r{{0u, static_cast<std::uint64_t>(iter), r0},
                          {1u, static_cast<std::uint64_t>(iter), r1}};
    arr.parallel_read(r);
    ASSERT_EQ(r0, b0) << iter;
    ASSERT_EQ(r1, b1) << iter;
  }
  EXPECT_GT(counters->torn_writes.load(), 0u);
  EXPECT_GT(arr.engine_stats().total_retries(), 0u);
  EXPECT_EQ(arr.engine_stats().total_giveups(), 0u);
}

TEST(FaultInjection, BitFlipsHealedOnlyWithChecksums) {
  FaultSpec spec;
  spec.seed = 11;
  spec.bit_flip_rate = 0.4;
  auto counters = std::make_shared<FaultCounters>();
  DiskArrayOptions opts;
  opts.verify_checksums = true;
  opts.retry.max_attempts = 12;
  DiskArray arr(1, 128, wrap_with_faults(nullptr, spec, 5, counters), 0,
                opts);
  const auto block = pattern_block(128, 77);
  std::vector<WriteOp> w{{0u, 0u, block}};
  arr.parallel_write(w);
  // The flip mutates only the returned buffer; verification rejects the
  // read and the retry re-reads the intact medium.
  for (int i = 0; i < 50; ++i) {
    std::vector<std::byte> out(128);
    std::vector<ReadOp> r{{0u, 0u, out}};
    arr.parallel_read(r);
    ASSERT_EQ(out, block) << i;
  }
  EXPECT_GT(counters->bit_flips.load(), 0u);
  EXPECT_GT(arr.engine_stats().total_retries(), 0u);
  EXPECT_GT(arr.disk(0).checksum_failures(), 0u);
}

TEST(FaultInjection, DeadRangeFailsFastWithoutRetries) {
  FaultSpec spec;
  spec.seed = 1;
  spec.dead_ranges.push_back({0u, 0u, 10 * 64u});  // disk 0, first 10 tracks
  DiskArray arr(2, 64, wrap_with_faults(nullptr, spec, 1, nullptr));
  const auto block = pattern_block(64, 3);
  std::vector<WriteOp> bad{{0u, 2u, block}};
  EXPECT_THROW(arr.parallel_write(bad), PersistentIoError);
  // Persistent failures are not worth retrying: one attempt, one giveup.
  EXPECT_EQ(arr.engine_stats().total_retries(), 0u);
  EXPECT_EQ(arr.engine_stats().per_disk[0].giveups, 1u);
  // Beyond the dead range (and on the other disk) the array still works.
  std::vector<WriteOp> ok{{0u, 10u, block}, {1u, 0u, block}};
  arr.parallel_write(ok);
}

// --- Model accounting on failed operations ----------------------------------
// Regression: parallel_read/parallel_write used to charge bytes_read /
// bytes_written while *building* the transfer list, before execute() ran —
// an operation that then threw left the model stats claiming bytes for I/O
// that never completed (and recovery re-execution double-counted them).

TEST(IoAccounting, FailedParallelIoChargesNothing) {
  for (const auto engine :
       {IoEngine::serial, IoEngine::parallel, IoEngine::uring}) {
    FaultSpec spec;
    spec.seed = 1;
    spec.dead_ranges.push_back({0u, 0u, 10 * 64u});  // disk 0, tracks 0..9
    auto arr = make_disk_array(engine, 2, 64,
                               wrap_with_faults(nullptr, spec, 1, nullptr));
    const auto block = pattern_block(64, 3);

    std::vector<WriteOp> bad_w{{0u, 2u, block}};
    EXPECT_THROW(arr->parallel_write(bad_w), PersistentIoError);
    std::vector<std::byte> buf(64);
    std::vector<ReadOp> bad_r{{0u, 3u, buf}};
    EXPECT_THROW(arr->parallel_read(bad_r), PersistentIoError);

    // The model operations never completed: nothing may be charged.
    EXPECT_EQ(arr->stats().parallel_ios, 0u) << "engine " << int(engine);
    EXPECT_EQ(arr->stats().blocks_written, 0u);
    EXPECT_EQ(arr->stats().blocks_read, 0u);
    EXPECT_EQ(arr->stats().bytes_written, 0u);
    EXPECT_EQ(arr->stats().bytes_read, 0u);

    // A successful operation charges exactly once, all fields consistent.
    std::vector<WriteOp> ok{{0u, 20u, block}, {1u, 0u, block}};
    arr->parallel_write(ok);
    EXPECT_EQ(arr->stats().parallel_ios, 1u);
    EXPECT_EQ(arr->stats().blocks_written, 2u);
    EXPECT_EQ(arr->stats().bytes_written, 2 * 64u);
    EXPECT_EQ(arr->stats().bytes_written, arr->stats().blocks_written * 64u);
  }
}

TEST(FaultInjection, BurstShorterThanBudgetIsAbsorbed) {
  FaultSpec spec;
  spec.seed = 1;
  spec.bursts.push_back({0u, 2u, 3u});  // calls 2,3,4 on disk 0 fail
  DiskArrayOptions opts;
  opts.retry.max_attempts = 4;
  DiskArray arr(1, 64, wrap_with_faults(nullptr, spec, 1, nullptr), 0, opts);
  const auto block = pattern_block(64, 3);
  std::vector<WriteOp> w{{0u, 0u, block}};
  arr.parallel_write(w);  // calls 0
  arr.parallel_write(w);  // call 1
  arr.parallel_write(w);  // calls 2,3,4 fail; call 5 succeeds
  EXPECT_EQ(arr.engine_stats().total_retries(), 3u);
  EXPECT_EQ(arr.engine_stats().total_giveups(), 0u);
  // Execution histograms: one service-time sample per attempt (successful
  // or not), one retry-delay sample per backoff slept.
  const auto& ds = arr.engine_stats().per_disk[0];
  EXPECT_EQ(ds.service_ns.count(), 6u);  // 1 + 1 + 4 attempts
  EXPECT_EQ(ds.service_ns.sum(), ds.busy_ns);
  EXPECT_EQ(ds.retry_delay_ns.count(), 3u);
  EXPECT_EQ(arr.engine_stats().queue_depth.count(), 3u);
  EXPECT_EQ(arr.engine_stats().queue_depth.max(), 1u);
}

TEST(FaultInjection, BurstLongerThanBudgetGivesUp) {
  FaultSpec spec;
  spec.seed = 1;
  spec.bursts.push_back({0u, 1u, 6u});
  DiskArrayOptions opts;
  opts.retry.max_attempts = 4;
  DiskArray arr(1, 64, wrap_with_faults(nullptr, spec, 1, nullptr), 0, opts);
  const auto block = pattern_block(64, 3);
  std::vector<WriteOp> w{{0u, 0u, block}};
  arr.parallel_write(w);  // call 0 fine
  EXPECT_THROW(arr.parallel_write(w), TransientIoError);  // calls 1..4 fail
  EXPECT_EQ(arr.engine_stats().total_retries(), 3u);
  EXPECT_EQ(arr.engine_stats().total_giveups(), 1u);
  arr.parallel_write(w);  // calls 5,6 fail, 7 succeeds
  EXPECT_EQ(arr.engine_stats().total_giveups(), 1u);
}

// --- Backend robustness fixes -----------------------------------------------

TEST(MemoryBackendConcurrency, ConcurrentDisjointWritesDuringGrowth) {
  // Regression for the resize data race: writers extending the backend
  // concurrently with other writers/readers on disjoint ranges must never
  // invalidate each other's buffers.  Run under TSan (`sanitize` label).
  MemoryBackend b;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kChunk = 64 * 1024 + 13;  // straddles segments
  constexpr int kRounds = 20;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&b, t] {
      const auto block = pattern_block(kChunk, t + 1);
      for (int r = 0; r < kRounds; ++r) {
        // Interleaved strides so growth constantly crosses segment
        // boundaries owned by different threads.
        const std::uint64_t off =
            (static_cast<std::uint64_t>(r) * kThreads + t) * kChunk;
        b.write(off, block);
        std::vector<std::byte> back(kChunk);
        b.read(off, back);
        if (back != block) {
          ADD_FAILURE() << "thread " << t << " round " << r
                        << ": readback mismatch";
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(b.size(), kThreads * kChunk * kRounds);
  // Never-written gaps read as zero.
  std::vector<std::byte> z(17);
  b.read(kThreads * kChunk * kRounds + 12345, z);
  for (auto v : z) EXPECT_EQ(v, std::byte{0});
}

TEST(FileBackend, KeepPreservesExistingFileAcrossReopen) {
  const auto path =
      (fs::temp_directory_path() / "embsp_keep_reopen.bin").string();
  fs::remove(path);
  const auto block = pattern_block(256, 8);
  {
    FileBackend b(path, /*keep=*/true);
    b.write(512, block);
    b.flush();
  }
  ASSERT_TRUE(fs::exists(path));
  {
    // Re-opening with keep must NOT truncate: the previous run's data is
    // exactly what the caller asked to preserve.
    FileBackend b(path, /*keep=*/true);
    EXPECT_EQ(b.size(), 512u + 256u);
    std::vector<std::byte> back(256);
    b.read(512, back);
    EXPECT_EQ(back, block);
  }
  fs::remove(path);
}

TEST(FileBackend, ScratchFilesStartFresh) {
  const auto path =
      (fs::temp_directory_path() / "embsp_scratch_fresh.bin").string();
  {
    std::ofstream f(path, std::ios::binary);
    f << "stale garbage from an earlier crash";
  }
  {
    FileBackend b(path, /*keep=*/false);
    EXPECT_EQ(b.size(), 0u);  // truncated on open
    std::vector<std::byte> z(8);
    b.read(0, z);
    for (auto v : z) EXPECT_EQ(v, std::byte{0});
  }
  EXPECT_FALSE(fs::exists(path));  // scratch: unlinked on destruction
}

TEST(FileBackend, DoubleOpenOfLivePathThrows) {
  const auto path =
      (fs::temp_directory_path() / "embsp_double_open.bin").string();
  fs::remove(path);
  {
    FileBackend first(path, /*keep=*/true);
    // A second backend on the live path would clobber the first.
    EXPECT_THROW(FileBackend second(path, /*keep=*/true), PersistentIoError);
  }
  // Once the first holder is gone the path is free again.
  FileBackend again(path, /*keep=*/false);
  fs::remove(path);
}

// --- End-to-end: simulators under injected faults ---------------------------

sim::SimConfig fault_config(std::uint32_t p, std::uint32_t v,
                            em::IoEngine engine, double rate) {
  sim::SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = 4;
  cfg.machine.em.B = 128;
  cfg.machine.em.M = 1 << 20;
  cfg.mu = 64;
  cfg.gamma = 4096;
  cfg.io_engine = engine;
  cfg.faults.seed = 2024;
  cfg.faults.read_error_rate = rate;
  cfg.faults.write_error_rate = rate;
  cfg.faults.torn_write_rate = rate / 2;
  cfg.faults.bit_flip_rate = rate / 2;
  cfg.block_checksums = true;  // needed: bit flips are silent without them
  return cfg;
}

std::vector<std::uint64_t> run_seq(const sim::SimConfig& cfg,
                                   sim::SimResult& result,
                                   const std::string& file_tag = {}) {
  sim::SeqSimulator simr(
      cfg, file_tag.empty()
               ? std::function<std::unique_ptr<Backend>(std::size_t)>{}
               : [&](std::size_t d) {
                   return make_file_backend(
                       (fs::temp_directory_path() /
                        ("embsp_faults_" + file_tag + "_" +
                         std::to_string(d) + ".bin"))
                           .string(),
                       /*keep=*/true);
                 });
  // Indexed by processor (not push_back): the collect unit may re-execute
  // after a rollback, and re-assignments must stay idempotent.
  std::vector<std::uint64_t> sums(cfg.machine.bsp.v);
  result = simr.run<IrregularProgram>(
      IrregularProgram{},
      [](std::uint32_t) { return IrregularProgram::State{}; },
      [&](std::uint32_t vp, IrregularProgram::State& s) {
        sums[vp] = s.checksum;
      });
  return sums;
}

TEST(FaultySimSeq, FaultyRunMatchesFaultFreeByteForByte) {
  // The acceptance test of the substrate: a moderately hostile fault rate
  // must change *nothing* observable except the resilience counters —
  // same collected states, same model I/O cost, byte-identical disk
  // images.  Superstep recovery is on in BOTH runs so layouts match.
  auto scrub = [&](const std::string& tag) {
    for (std::size_t d = 0; d < 4; ++d) {
      fs::remove(fs::temp_directory_path() /
                 ("embsp_faults_" + tag + "_" + std::to_string(d) + ".bin"));
    }
  };
  scrub("clean");
  scrub("noisy");

  auto clean_cfg = fault_config(1, 16, IoEngine::serial, 0.0);
  clean_cfg.faults = FaultSpec{};  // truly fault-free
  clean_cfg.superstep_recovery = true;
  sim::SimResult clean_res;
  const auto clean = run_seq(clean_cfg, clean_res, "clean");
  EXPECT_EQ(clean_res.recovery.io_retries, 0u);
  EXPECT_EQ(clean_res.recovery.faults.total(), 0u);

  auto noisy_cfg = fault_config(1, 16, IoEngine::serial, 0.01);
  noisy_cfg.superstep_recovery = true;
  sim::SimResult noisy_res;
  const auto noisy = run_seq(noisy_cfg, noisy_res, "noisy");

  EXPECT_EQ(clean, noisy);
  EXPECT_GT(noisy_res.recovery.faults.total(), 0u);
  EXPECT_GT(noisy_res.recovery.io_retries, 0u);
  // Every transient was absorbed below the model layer: parallel I/O
  // counts (the quantity the paper's theorems bound) are unchanged.
  EXPECT_EQ(clean_res.total_io.parallel_ios, noisy_res.total_io.parallel_ios);
  EXPECT_EQ(clean_res.total_io.blocks_written,
            noisy_res.total_io.blocks_written);

  for (std::size_t d = 0; d < 4; ++d) {
    const auto a = fs::temp_directory_path() /
                   ("embsp_faults_clean_" + std::to_string(d) + ".bin");
    const auto b = fs::temp_directory_path() /
                   ("embsp_faults_noisy_" + std::to_string(d) + ".bin");
    ASSERT_TRUE(fs::exists(a));
    ASSERT_TRUE(fs::exists(b));
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    std::vector<char> ca((std::istreambuf_iterator<char>(fa)),
                         std::istreambuf_iterator<char>());
    std::vector<char> cb((std::istreambuf_iterator<char>(fb)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(ca, cb) << "disk image " << d
                      << " differs between fault-free and faulty run";
  }
  scrub("clean");
  scrub("noisy");
}

TEST(FaultySimSeq, SameSeedSameFaultHistory) {
  // Run-to-run determinism of the whole resilient stack: identical config
  // => identical collected states AND identical fault/retry tallies.
  const auto cfg = fault_config(1, 16, IoEngine::serial, 0.02);
  sim::SimResult r1, r2;
  const auto s1 = run_seq(cfg, r1);
  const auto s2 = run_seq(cfg, r2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(r1.recovery.io_retries, r2.recovery.io_retries);
  EXPECT_EQ(r1.recovery.faults.read_errors, r2.recovery.faults.read_errors);
  EXPECT_EQ(r1.recovery.faults.write_errors, r2.recovery.faults.write_errors);
  EXPECT_EQ(r1.recovery.faults.torn_writes, r2.recovery.faults.torn_writes);
  EXPECT_EQ(r1.recovery.faults.bit_flips, r2.recovery.faults.bit_flips);
  EXPECT_EQ(r1.total_io.parallel_ios, r2.total_io.parallel_ios);
}

TEST(FaultySimSeq, ParallelEngineSeesSameFaultSchedule) {
  // The schedule is a pure function of each disk's call sequence, and both
  // engines issue per-disk transfers in the same order — so switching the
  // engine changes nothing, faults included.
  const auto serial_cfg = fault_config(1, 16, IoEngine::serial, 0.02);
  auto parallel_cfg = serial_cfg;
  parallel_cfg.io_engine = IoEngine::parallel;
  sim::SimResult rs, rp;
  const auto ss = run_seq(serial_cfg, rs);
  const auto sp = run_seq(parallel_cfg, rp);
  EXPECT_EQ(ss, sp);
  EXPECT_EQ(rs.recovery.faults.read_errors, rp.recovery.faults.read_errors);
  EXPECT_EQ(rs.recovery.faults.write_errors, rp.recovery.faults.write_errors);
  EXPECT_EQ(rs.recovery.io_retries, rp.recovery.io_retries);
  EXPECT_EQ(rs.total_io.parallel_ios, rp.total_io.parallel_ios);
}

TEST(FaultySimSeq, UringEngineSeesSameFaultSchedule) {
  // The kernel-native engine keeps the per-drive worker FIFO, and the fault
  // decorator sits *above* the ring — so the deterministic schedule fires
  // on the same per-disk call indices and every recovery tally matches the
  // serial engine's.  (Where io_uring is unavailable the uring scratch
  // factory silently substitutes file backends; the parity claim is
  // unchanged.)  Exercised both blocking and pipelined.
  const auto serial_cfg = fault_config(1, 16, IoEngine::serial, 0.02);
  auto uring_cfg = serial_cfg;
  uring_cfg.io_engine = IoEngine::uring;
  auto uring_piped_cfg = uring_cfg;
  uring_piped_cfg.pipeline = true;
  uring_piped_cfg.compute_threads = 2;
  sim::SimResult rs, ru, rup;
  const auto ss = run_seq(serial_cfg, rs);
  const auto su = run_seq(uring_cfg, ru);
  const auto sup = run_seq(uring_piped_cfg, rup);
  EXPECT_EQ(ss, su);
  EXPECT_EQ(ss, sup);
  EXPECT_GT(ru.recovery.faults.total(), 0u);
  EXPECT_EQ(rs.recovery.faults.read_errors, ru.recovery.faults.read_errors);
  EXPECT_EQ(rs.recovery.faults.write_errors, ru.recovery.faults.write_errors);
  EXPECT_EQ(rs.recovery.io_retries, ru.recovery.io_retries);
  EXPECT_EQ(rs.total_io.parallel_ios, ru.total_io.parallel_ios);
  // Pipelining may re-attribute a fault between op kinds (see below) but
  // not move it to a different call index.
  EXPECT_EQ(rs.recovery.faults.read_errors + rs.recovery.faults.write_errors,
            rup.recovery.faults.read_errors + rup.recovery.faults.write_errors);
  EXPECT_EQ(rs.recovery.io_retries, rup.recovery.io_retries);
  EXPECT_EQ(rs.total_io.parallel_ios, rup.total_io.parallel_ios);
}

TEST(FaultySimSeq, PipelinedScheduleSeesSameFaultSchedule) {
  // The injector draws a fixed number of values per backend call, so the
  // schedule is a pure function of each disk's call index.  Pipelining
  // front-runs group g+1's prefetch reads past group g's writes, which can
  // turn call N from a write into a read — a fault re-attributes between
  // kinds (the rates are kind-symmetric here) — but the faulting call
  // indices, the retry each one provokes, the model I/O counts and the
  // recovered results are identical to the serial schedule's.
  const auto serial_cfg = fault_config(1, 16, IoEngine::serial, 0.02);
  auto piped_cfg = serial_cfg;
  piped_cfg.io_engine = IoEngine::parallel;
  piped_cfg.pipeline = true;
  piped_cfg.compute_threads = 2;
  sim::SimResult rs, rp;
  const auto ss = run_seq(serial_cfg, rs);
  const auto sp = run_seq(piped_cfg, rp);
  EXPECT_EQ(ss, sp);
  EXPECT_GT(rp.recovery.faults.total(), 0u);
  EXPECT_EQ(rs.recovery.faults.read_errors + rs.recovery.faults.write_errors,
            rp.recovery.faults.read_errors + rp.recovery.faults.write_errors);
  EXPECT_EQ(rs.recovery.faults.torn_writes + rs.recovery.faults.bit_flips,
            rp.recovery.faults.torn_writes + rp.recovery.faults.bit_flips);
  EXPECT_EQ(rs.recovery.io_retries, rp.recovery.io_retries);
  EXPECT_EQ(rs.total_io.parallel_ios, rp.total_io.parallel_ios);
}

TEST(FaultySimSeq, BurstForcesSuperstepRollbackAndRecovers) {
  // Script a burst long enough to exhaust the retry budget mid-run: the
  // simulator must give up on the transfer, roll back to the enclosing
  // recovery unit, re-execute, and still produce the fault-free answer.
  auto base = fault_config(1, 16, IoEngine::serial, 0.0);
  base.faults = FaultSpec{};
  sim::SimResult clean_res;
  const auto clean = run_seq(base, clean_res);
  const std::uint64_t disk0_calls =
      clean_res.total_io.blocks_read + clean_res.total_io.blocks_written;
  ASSERT_GT(disk0_calls, 40u);

  auto cfg = base;
  cfg.faults.seed = 5;
  cfg.faults.bursts.push_back(
      {0u, disk0_calls / 8, static_cast<std::uint64_t>(cfg.retry.max_attempts)});
  cfg.superstep_recovery = true;
  cfg.block_checksums = true;

  auto clean_rec = base;
  clean_rec.superstep_recovery = true;
  clean_rec.block_checksums = true;
  sim::SimResult clean_rec_res;
  const auto expected = run_seq(clean_rec, clean_rec_res);

  sim::SimResult res;
  const auto got = run_seq(cfg, res);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(res.recovery.io_giveups, 1u);
  EXPECT_EQ(res.recovery.total_rollbacks(), 1u);
  // Accounting bugfix regression: a rolled-back (thrown) parallel I/O must
  // charge nothing, so byte and block tallies stay exactly consistent even
  // across a giveup + re-execution (B = 128 in fault_config).
  EXPECT_EQ(res.total_io.bytes_written, res.total_io.blocks_written * 128u);
  EXPECT_EQ(res.total_io.bytes_read, res.total_io.blocks_read * 128u);
}

TEST(FaultySimSeq, UnrecoverableWithoutSuperstepRecovery) {
  // The same scripted burst without rollback support must surface as an
  // IoError to the caller — no silent corruption, no hang.
  auto cfg = fault_config(1, 16, IoEngine::serial, 0.0);
  cfg.faults = FaultSpec{};
  cfg.faults.seed = 5;
  cfg.faults.bursts.push_back(
      {0u, 20u, static_cast<std::uint64_t>(cfg.retry.max_attempts)});
  sim::SimResult res;
  EXPECT_THROW(run_seq(cfg, res), IoError);
}

TEST(FaultySimPar, FaultyRunMatchesFaultFree) {
  // Parallel simulator: retry-layer resilience across p threads x D
  // workers with a shared fault tally.
  auto clean_cfg = fault_config(2, 16, IoEngine::parallel, 0.0);
  clean_cfg.faults = FaultSpec{};
  auto noisy_cfg = fault_config(2, 16, IoEngine::parallel, 0.01);

  auto run_par = [](const sim::SimConfig& cfg, sim::SimResult& result) {
    sim::ParSimulator simr(cfg);
    std::vector<std::uint64_t> sums(cfg.machine.bsp.v);
    result = simr.run<IrregularProgram>(
        IrregularProgram{},
        [](std::uint32_t) { return IrregularProgram::State{}; },
        [&](std::uint32_t vp, IrregularProgram::State& s) {
          sums[vp] = s.checksum;
        });
    return sums;
  };
  sim::SimResult clean_res, noisy_res;
  const auto clean = run_par(clean_cfg, clean_res);
  const auto noisy = run_par(noisy_cfg, noisy_res);
  EXPECT_EQ(clean, noisy);
  EXPECT_GT(noisy_res.recovery.faults.total(), 0u);
  EXPECT_GT(noisy_res.recovery.io_retries, 0u);
  EXPECT_EQ(noisy_res.recovery.io_giveups, 0u);
  EXPECT_EQ(clean_res.total_io.parallel_ios, noisy_res.total_io.parallel_ios);
}

}  // namespace
}  // namespace embsp::em
