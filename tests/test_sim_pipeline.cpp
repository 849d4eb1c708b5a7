// Pipelined group scheduler tests: the asynchronous submit/wait disk API
// and the double-buffered prefetch/write-behind schedule of both
// simulators.
//
// The central claim under test is BYTE-IDENTITY: for a fixed seed the
// pipelined schedule must produce the same collected states, the same
// SimResult costs and model I/O counts, and bit-for-bit the same disk
// images as the serial schedule — pipelining reorders only the *waiting*,
// never the submissions, placements or RNG draws.
//
// Carries the `pipeline` and `sanitize` ctest labels; the suite is the
// TSan workout for the per-disk worker queues and the compute pool.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "em/fault_backend.hpp"
#include "em/io_error.hpp"
#include "em/uring_backend.hpp"
#include "sim/par_simulator.hpp"
#include "sim/seq_simulator.hpp"
#include "test_programs.hpp"
#include "util/thread_pool.hpp"

namespace embsp {
namespace {

namespace fs = std::filesystem;
using embsp::testing::IrregularProgram;
using embsp::testing::PrefixSumProgram;
using embsp::testing::RingProgram;

// --- Async disk-array API ---------------------------------------------------

std::vector<std::byte> tagged_block(std::size_t size, std::uint64_t tag) {
  std::vector<std::byte> b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::byte>(
        static_cast<std::uint8_t>(tag * 37 + i * 11 + 5));
  }
  return b;
}

class AsyncDiskArray : public ::testing::TestWithParam<em::IoEngine> {};

TEST_P(AsyncDiskArray, SubmitWaitRoundTrip) {
  auto arr = em::make_disk_array(GetParam(), 4, 64);
  const auto b0 = tagged_block(64, 1);
  const auto b1 = tagged_block(64, 2);
  const em::WriteOp w[] = {{0, 3, b0}, {2, 5, b1}};
  const auto wt = arr->submit_write(w);

  std::vector<std::byte> r0(64), r1(64);
  // Same-disk FIFO: this read of (0,3)/(2,5) is submitted while the write
  // may still be in flight; per-drive queues guarantee it sees the data.
  const em::ReadOp r[] = {{0, 3, r0}, {2, 5, r1}};
  const auto rt = arr->submit_read(r);

  // Waiting out of submission order is allowed.
  arr->wait(rt);
  EXPECT_EQ(r0, b0);
  EXPECT_EQ(r1, b1);
  arr->wait(rt);  // settled token: no-op
  arr->wait(wt);

  // Each submitted batch is exactly one model parallel I/O, charged at
  // settlement.
  EXPECT_EQ(arr->stats().parallel_ios, 2u);
  EXPECT_EQ(arr->stats().blocks_written, 2u);
  EXPECT_EQ(arr->stats().blocks_read, 2u);
}

TEST_P(AsyncDiskArray, WaitAllSettlesInSubmissionOrder) {
  auto arr = em::make_disk_array(GetParam(), 4, 64);
  std::vector<std::vector<std::byte>> blocks;
  for (std::uint64_t t = 0; t < 6; ++t) {
    blocks.push_back(tagged_block(64, t + 10));
  }
  for (std::uint64_t t = 0; t < 6; ++t) {
    const em::WriteOp w[] = {
        {static_cast<std::uint32_t>(t % 4), t, blocks[t]}};
    (void)arr->submit_write(w);
  }
  arr->wait_all();
  EXPECT_EQ(arr->stats().parallel_ios, 6u);
  for (std::uint64_t t = 0; t < 6; ++t) {
    std::vector<std::byte> out(64);
    const em::ReadOp r[] = {{static_cast<std::uint32_t>(t % 4), t, out}};
    arr->parallel_read(r);
    EXPECT_EQ(out, blocks[t]) << t;
  }
}

TEST_P(AsyncDiskArray, DrainSwallowsErrorsAndChargesSuccesses) {
  // One injected persistent write fault; drain() must settle everything,
  // keep the process alive, and charge only the successful operation.
  em::FaultSpec spec;
  spec.seed = 7;
  spec.bursts.push_back({0u, 0u, 1000u});  // disk 0: every call faults
  em::DiskArrayOptions opts;
  opts.retry.max_attempts = 1;
  auto arr = em::make_disk_array(
      GetParam(), 2, 64,
      [&](std::size_t d) -> std::unique_ptr<em::Backend> {
        auto mem = std::make_unique<em::MemoryBackend>();
        if (d == 0) {
          return std::make_unique<em::FaultInjectingBackend>(
              std::move(mem), spec, /*sim_seed=*/0,
              static_cast<std::uint32_t>(d));
        }
        return mem;
      },
      0, opts);
  const auto good = tagged_block(64, 3);
  const auto bad = tagged_block(64, 4);
  const em::WriteOp ok_op[] = {{1, 0, good}};
  const em::WriteOp bad_op[] = {{0, 0, bad}};
  (void)arr->submit_write(ok_op);
  const auto bad_token = arr->submit_write(bad_op);
  arr->drain();  // must not throw
  EXPECT_EQ(arr->stats().parallel_ios, 1u);
  EXPECT_EQ(arr->stats().blocks_written, 1u);
  arr->wait(bad_token);  // already settled (swallowed): no-op

  // The swallowed error is not lost: drain() records it in the engine
  // stats so recovery-path cleanup failures stay observable.  Bursts
  // inject transient errors; with a retry budget of 1 the transient is
  // rethrown as-is, so that's the kind drain() swallows.
  EXPECT_EQ(arr->pending_ops(), 0u);
  EXPECT_EQ(arr->engine_stats().drain_errors, 1u);
  EXPECT_EQ(arr->engine_stats().last_drain_error_kind,
            static_cast<int>(em::IoError::Kind::transient));
  EXPECT_FALSE(arr->engine_stats().last_drain_error.empty());
}

TEST_P(AsyncDiskArray, DrainWithoutErrorsRecordsNothing) {
  auto arr = em::make_disk_array(GetParam(), 2, 64);
  const auto b = tagged_block(64, 9);
  const em::WriteOp w[] = {{0, 0, b}};
  (void)arr->submit_write(w);
  arr->drain();
  EXPECT_EQ(arr->engine_stats().drain_errors, 0u);
  EXPECT_EQ(arr->engine_stats().last_drain_error_kind, -1);
  EXPECT_TRUE(arr->engine_stats().last_drain_error.empty());
}

INSTANTIATE_TEST_SUITE_P(Engines, AsyncDiskArray,
                         ::testing::Values(em::IoEngine::serial,
                                           em::IoEngine::parallel,
                                           em::IoEngine::uring));

// --- Simulator parity helpers ----------------------------------------------

sim::SimConfig base_config(std::uint32_t p, std::uint32_t v) {
  sim::SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = 4;
  cfg.machine.em.B = 128;
  cfg.machine.em.M = 1 << 20;
  cfg.mu = 2048;
  cfg.gamma = 8192;
  cfg.k = 4;  // fixed so serial and pipelined layouts match exactly
  return cfg;
}

sim::SimConfig pipelined(sim::SimConfig cfg, std::size_t threads = 1) {
  cfg.pipeline = true;
  cfg.io_engine = em::IoEngine::parallel;
  cfg.compute_threads = threads;
  return cfg;
}

void expect_same_costs(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.costs.supersteps.size(), b.costs.supersteps.size());
  for (std::size_t s = 0; s < a.costs.supersteps.size(); ++s) {
    const auto& ca = a.costs.supersteps[s];
    const auto& cb = b.costs.supersteps[s];
    EXPECT_EQ(ca.max_work, cb.max_work) << s;
    EXPECT_EQ(ca.total_work, cb.total_work) << s;
    EXPECT_EQ(ca.max_bytes_sent, cb.max_bytes_sent) << s;
    EXPECT_EQ(ca.max_bytes_received, cb.max_bytes_received) << s;
    EXPECT_EQ(ca.max_packets_sent, cb.max_packets_sent) << s;
    EXPECT_EQ(ca.max_packets_received, cb.max_packets_received) << s;
    EXPECT_EQ(ca.max_wire_sent, cb.max_wire_sent) << s;
    EXPECT_EQ(ca.total_bytes, cb.total_bytes) << s;
    EXPECT_EQ(ca.num_messages, cb.num_messages) << s;
  }
  EXPECT_EQ(a.total_io.parallel_ios, b.total_io.parallel_ios);
  EXPECT_EQ(a.total_io.blocks_read, b.total_io.blocks_read);
  EXPECT_EQ(a.total_io.blocks_written, b.total_io.blocks_written);
  EXPECT_EQ(a.total_io.bytes_read, b.total_io.bytes_read);
  EXPECT_EQ(a.total_io.bytes_written, b.total_io.bytes_written);
  EXPECT_EQ(a.max_tracks_per_disk, b.max_tracks_per_disk);
}

std::uint64_t fingerprint(const IrregularProgram::State& s) {
  return s.checksum;
}
std::uint64_t fingerprint(const RingProgram::State& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (auto wdata : s.data) h = (h ^ wdata) * 1099511628211ULL;
  return h;
}

template <typename Prog>
std::vector<std::uint64_t> run_seq_collect(const Prog& prog,
                                           const sim::SimConfig& cfg,
                                           sim::SimResult& result,
                                           const std::string& file_tag = {}) {
  sim::SeqSimulator simr(
      cfg, file_tag.empty()
               ? std::function<std::unique_ptr<em::Backend>(std::size_t)>{}
               : [&](std::size_t d) {
                   return em::make_file_backend(
                       (fs::temp_directory_path() /
                        ("embsp_pipe_" + file_tag + "_" + std::to_string(d) +
                         ".bin"))
                           .string(),
                       /*keep=*/true);
                 });
  std::vector<std::uint64_t> out(cfg.machine.bsp.v);
  result = simr.run<Prog>(
      prog, [](std::uint32_t) { return typename Prog::State{}; },
      [&](std::uint32_t vp, typename Prog::State& s) {
        out[vp] = fingerprint(s);
      });
  return out;
}

void scrub_images(const std::string& tag) {
  for (std::size_t d = 0; d < 4; ++d) {
    fs::remove(fs::temp_directory_path() /
               ("embsp_pipe_" + tag + "_" + std::to_string(d) + ".bin"));
  }
}

std::vector<char> image_bytes(const std::string& tag, std::size_t d) {
  std::ifstream f(fs::temp_directory_path() /
                      ("embsp_pipe_" + tag + "_" + std::to_string(d) + ".bin"),
                  std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

// --- Sequential simulator parity --------------------------------------------

TEST(SimPipeline, SeqDiskImageByteIdenticalToSerialSchedule) {
  scrub_images("serial");
  scrub_images("piped");

  IrregularProgram prog;
  auto cfg = base_config(1, 16);
  sim::SimResult serial_res, piped_res;
  const auto serial = run_seq_collect(prog, cfg, serial_res, "serial");
  const auto piped =
      run_seq_collect(prog, pipelined(cfg), piped_res, "piped");

  EXPECT_EQ(serial, piped);
  expect_same_costs(serial_res, piped_res);
  for (std::size_t d = 0; d < 4; ++d) {
    const auto a = image_bytes("serial", d);
    const auto b = image_bytes("piped", d);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "disk image " << d
                    << " differs between serial and pipelined schedule";
  }
  scrub_images("serial");
  scrub_images("piped");
}

TEST(SimPipeline, SeqCostParityAcrossPrograms) {
  {
    IrregularProgram prog;
    prog.rounds = 4;
    auto cfg = base_config(1, 24);
    sim::SimResult a, b;
    EXPECT_EQ(run_seq_collect(prog, cfg, a),
              run_seq_collect(prog, pipelined(cfg), b));
    expect_same_costs(a, b);
  }
  {
    PrefixSumProgram prog;
    auto cfg = base_config(1, 16);
    sim::SimResult a, b;
    auto mk = [](std::uint32_t vp) {
      PrefixSumProgram::State s;
      s.value = vp * 3 + 1;
      return s;
    };
    std::vector<std::uint64_t> ra(16), rb(16);
    sim::SeqSimulator s1(cfg);
    a = s1.run<PrefixSumProgram>(prog, mk, [&](std::uint32_t vp, auto& s) {
      ra[vp] = s.prefix;
    });
    sim::SeqSimulator s2(pipelined(cfg, 2));
    b = s2.run<PrefixSumProgram>(prog, mk, [&](std::uint32_t vp, auto& s) {
      rb[vp] = s.prefix;
    });
    EXPECT_EQ(ra, rb);
    expect_same_costs(a, b);
  }
  {
    RingProgram prog;
    auto cfg = base_config(1, 8);
    sim::SimResult a, b;
    EXPECT_EQ(run_seq_collect(prog, cfg, a),
              run_seq_collect(prog, pipelined(cfg), b));
    expect_same_costs(a, b);
  }
}

TEST(SimPipeline, ComputeThreadsDoNotChangeResults) {
  IrregularProgram prog;
  prog.rounds = 4;
  const auto cfg = base_config(1, 32);
  sim::SimResult t1, t4;
  const auto r1 = run_seq_collect(prog, pipelined(cfg, 1), t1);
  const auto r4 = run_seq_collect(prog, pipelined(cfg, 4), t4);
  EXPECT_EQ(r1, r4);
  expect_same_costs(t1, t4);
}

TEST(SimPipeline, RoutingModesStayDeterministic) {
  for (const auto mode :
       {sim::RoutingMode::compact, sim::RoutingMode::padded,
        sim::RoutingMode::deterministic}) {
    IrregularProgram prog;
    auto cfg = base_config(1, 16);
    cfg.routing = mode;
    sim::SimResult a, b;
    EXPECT_EQ(run_seq_collect(prog, cfg, a),
              run_seq_collect(prog, pipelined(cfg, 2), b))
        << static_cast<int>(mode);
    expect_same_costs(a, b);
  }
}

TEST(SimPipeline, AutoRoutingMatchesCompactWithFewerIos) {
  // base_config's groups fit the staging budget, so `automatic` must take
  // the in-memory delivery path: identical program results, strictly fewer
  // parallel I/Os than compact (no Algorithm 2 reorganization, no fetch
  // reads).  Equality of I/O counts would mean the fast path never engaged.
  IrregularProgram prog;
  prog.rounds = 4;
  auto compact_cfg = base_config(1, 24);
  compact_cfg.routing = sim::RoutingMode::compact;
  auto auto_cfg = compact_cfg;
  auto_cfg.routing = sim::RoutingMode::automatic;
  sim::SimResult rc, ra;
  EXPECT_EQ(run_seq_collect(prog, compact_cfg, rc),
            run_seq_collect(prog, auto_cfg, ra));
  ASSERT_EQ(rc.costs.supersteps.size(), ra.costs.supersteps.size());
  for (std::size_t s = 0; s < rc.costs.supersteps.size(); ++s) {
    // Transport-independent communication costs are unchanged...
    EXPECT_EQ(rc.costs.supersteps[s].total_bytes,
              ra.costs.supersteps[s].total_bytes)
        << s;
    EXPECT_EQ(rc.costs.supersteps[s].num_messages,
              ra.costs.supersteps[s].num_messages)
        << s;
  }
  // ...but the routing I/O is gone.
  EXPECT_LT(ra.total_io.parallel_ios, rc.total_io.parallel_ios);
  EXPECT_LT(ra.total_io.blocks_read, rc.total_io.blocks_read);

  // Pipelined schedule agrees with the blocking one in auto mode too.
  sim::SimResult rp;
  EXPECT_EQ(run_seq_collect(prog, pipelined(auto_cfg, 2), rp),
            run_seq_collect(prog, auto_cfg, ra));
  expect_same_costs(ra, rp);
}

// --- Fault injection and recovery under pipelining ---------------------------

sim::SimConfig faulty(sim::SimConfig cfg, double rate) {
  cfg.faults.seed = 2024;
  cfg.faults.read_error_rate = rate;
  cfg.faults.write_error_rate = rate;
  cfg.faults.torn_write_rate = rate / 2;
  cfg.faults.bit_flip_rate = rate / 2;
  cfg.block_checksums = true;
  cfg.superstep_recovery = true;
  return cfg;
}

TEST(SimPipeline, FaultScheduleAndRecoveryMatchSerial) {
  // The fault schedule is keyed on each disk's call sequence (fixed draw
  // count per call).  Pipelining issues group g+1's prefetch reads before
  // group g's writes, so call N on a disk may be a read where the serial
  // schedule had a write — a fault re-attributes between op kinds — but
  // the same call indices fault (rates are kind-symmetric here), every
  // fault costs exactly one retry call in both schedules, and the
  // recovered results and model costs match the serial schedule's.
  IrregularProgram prog;
  const auto cfg = faulty(base_config(1, 16), 0.01);
  sim::SimResult rs, rp;
  const auto ss = run_seq_collect(prog, cfg, rs);
  const auto sp = run_seq_collect(prog, pipelined(cfg), rp);
  EXPECT_EQ(ss, sp);
  EXPECT_GT(rp.recovery.faults.total(), 0u);
  EXPECT_EQ(rs.recovery.faults.read_errors + rs.recovery.faults.write_errors,
            rp.recovery.faults.read_errors + rp.recovery.faults.write_errors);
  EXPECT_EQ(rs.recovery.faults.torn_writes + rs.recovery.faults.bit_flips,
            rp.recovery.faults.torn_writes + rp.recovery.faults.bit_flips);
  EXPECT_EQ(rs.recovery.io_retries, rp.recovery.io_retries);
  expect_same_costs(rs, rp);
}

TEST(SimPipeline, BurstRollbackQuiescesAndRecovers) {
  // Exhaust the retry budget mid-run while transfers are in flight: the
  // rollback must quiesce the pipeline (tokens settled, staged cycles
  // abandoned) before restoring snapshots, then replay to the clean answer.
  IrregularProgram prog;
  auto clean_cfg = base_config(1, 16);
  clean_cfg.superstep_recovery = true;
  clean_cfg.block_checksums = true;
  sim::SimResult clean_res;
  const auto expected = run_seq_collect(prog, pipelined(clean_cfg), clean_res);
  const std::uint64_t calls =
      clean_res.total_io.blocks_read + clean_res.total_io.blocks_written;
  ASSERT_GT(calls, 40u);

  auto cfg = clean_cfg;
  cfg.faults.seed = 5;
  cfg.faults.bursts.push_back(
      {0u, calls / 8,
       static_cast<std::uint64_t>(cfg.retry.max_attempts)});
  sim::SimResult res;
  const auto got = run_seq_collect(prog, pipelined(cfg, 2), res);
  EXPECT_EQ(got, expected);
  EXPECT_GE(res.recovery.io_giveups, 1u);
  EXPECT_GE(res.recovery.total_rollbacks(), 1u);
}

// --- Layout bound ------------------------------------------------------------

TEST(SimPipeline, DoubleBufferingTightensLayoutBound) {
  // slot = 2048+4 rounded to 128-byte blocks = 2176; pick k so that one
  // resident group fits M but two do not.
  auto cfg = base_config(1, 64);
  cfg.machine.em.M = 1 << 15;  // 32 KiB
  const std::size_t slot = 2176;
  cfg.k = (cfg.machine.em.M / slot);  // fits once: k*slot <= M < 2*k*slot
  ASSERT_GT(cfg.k * slot * 2, cfg.machine.em.M);
  EXPECT_NO_THROW(sim::LayoutPlanner::flat(cfg, cfg.machine.bsp.v));
  cfg.pipeline = true;
  EXPECT_THROW(sim::LayoutPlanner::flat(cfg, cfg.machine.bsp.v),
               sim::LayoutError);
}

// --- Parallel simulator -------------------------------------------------------

template <typename Prog>
std::vector<std::uint64_t> run_par_collect(const Prog& prog,
                                           const sim::SimConfig& cfg,
                                           sim::SimResult& result) {
  sim::ParSimulator simr(cfg);
  std::vector<std::uint64_t> out(cfg.machine.bsp.v);
  result = simr.run<Prog>(
      prog, [](std::uint32_t) { return typename Prog::State{}; },
      [&](std::uint32_t vp, typename Prog::State& s) {
        out[vp] = fingerprint(s);
      });
  return out;
}

TEST(SimPipeline, ParPipelinedMatchesBaseline) {
  IrregularProgram prog;
  auto cfg = base_config(2, 32);
  sim::SimResult base, piped;
  const auto a = run_par_collect(prog, cfg, base);
  const auto b = run_par_collect(prog, pipelined(cfg, 3), piped);
  EXPECT_EQ(a, b);
  expect_same_costs(base, piped);
}

TEST(SimPipeline, ParAbortPathStaysClean) {
  // A program that trips the gamma budget mid-superstep while transfers
  // are in flight: the cooperative abort must drain before unwinding (no
  // use-after-free under ASan/TSan) and surface the original error.
  struct GreedyProgram {
    struct State {
      std::uint64_t x = 0;
      void serialize(util::Writer& w) const { w.write(x); }
      void deserialize(util::Reader& r) { x = r.read<std::uint64_t>(); }
    };
    bool superstep(std::size_t step, const bsp::ProcEnv& env, State& s,
                   const bsp::Inbox&, bsp::Outbox& out) const {
      if (step == 1 && env.pid == 3) {
        // Far past gamma = 8192 wire bytes.
        std::vector<std::uint64_t> huge(4096, s.x);
        for (int rep = 0; rep < 8; ++rep) {
          out.send_vector((env.pid + 1) % env.nprocs, huge);
        }
      } else {
        out.send_value((env.pid + 1) % env.nprocs, s.x);
      }
      ++s.x;
      return step < 2;
    }
  };
  auto cfg = base_config(2, 32);
  sim::ParSimulator simr(pipelined(cfg, 2));
  EXPECT_THROW(
      simr.run<GreedyProgram>(
          GreedyProgram{},
          [](std::uint32_t) { return GreedyProgram::State{}; },
          [](std::uint32_t, GreedyProgram::State&) {}),
      std::runtime_error);
}

// --- Abort-path quiesce -------------------------------------------------------

// A user superstep that throws mid-run while the pipelined schedule holds
// prefetched reads and write-behind tokens in flight.
struct ThrowingProgram {
  struct State {
    std::uint64_t x = 0;
    void serialize(util::Writer& w) const { w.write(x); }
    void deserialize(util::Reader& r) { x = r.read<std::uint64_t>(); }
  };
  bool superstep(std::size_t step, const bsp::ProcEnv& env, State& s,
                 const bsp::Inbox&, bsp::Outbox& out) const {
    if (step == 1 && env.pid == 2) {
      throw std::runtime_error("superstep exploded");
    }
    out.send_value((env.pid + 1) % env.nprocs, s.x);
    ++s.x;
    return step < 3;
  }
};

TEST(SimPipeline, SeqThrowingSuperstepQuiescesPipeline) {
  // The rethrow must happen only after every in-flight token has settled:
  // no pending operations may survive the unwind, for any compute width.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    sim::SeqSimulator simr(pipelined(base_config(1, 16), threads));
    try {
      simr.run<ThrowingProgram>(
          ThrowingProgram{},
          [](std::uint32_t) { return ThrowingProgram::State{}; },
          [](std::uint32_t, ThrowingProgram::State&) {});
      FAIL() << "expected the superstep error to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "superstep exploded");
    }
    EXPECT_EQ(simr.disks().pending_ops(), 0u)
        << "abort path left tokens in flight (threads=" << threads << ")";
  }
}

TEST(SimPipeline, ParThrowingSuperstepQuiescesPipeline) {
  sim::ParSimulator simr(pipelined(base_config(2, 32), 2));
  try {
    simr.run<ThrowingProgram>(
        ThrowingProgram{},
        [](std::uint32_t) { return ThrowingProgram::State{}; },
        [](std::uint32_t, ThrowingProgram::State&) {});
    FAIL() << "expected the superstep error to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "superstep exploded");
  }
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(simr.disks(i).pending_ops(), 0u) << "rank " << i;
  }
}

// --- Cross-engine parity: worker-pool vs io_uring -----------------------------

// Runs the program with cfg.io_engine = uring over uring-backed (or, where
// the kernel lacks io_uring, transparently file-backed) keep=true images.
template <typename Prog>
std::vector<std::uint64_t> run_seq_collect_uring(const Prog& prog,
                                                 sim::SimConfig cfg,
                                                 sim::SimResult& result,
                                                 const std::string& file_tag,
                                                 em::UringConfig ucfg = {}) {
  cfg.io_engine = em::IoEngine::uring;
  sim::SeqSimulator simr(cfg, [&](std::size_t d) {
    return em::make_uring_file_backend(
        (fs::temp_directory_path() /
         ("embsp_pipe_" + file_tag + "_" + std::to_string(d) + ".bin"))
            .string(),
        /*keep=*/true, ucfg);
  });
  std::vector<std::uint64_t> out(cfg.machine.bsp.v);
  result = simr.run<Prog>(
      prog, [](std::uint32_t) { return typename Prog::State{}; },
      [&](std::uint32_t vp, typename Prog::State& s) {
        out[vp] = fingerprint(s);
      });
  return out;
}

TEST(SimPipeline, UringEngineMatchesWorkerPoolByteForByte) {
  // The engine matrix: worker-pool file I/O vs kernel-native uring I/O must
  // agree on program results, model costs, and bit-for-bit the disk
  // images.  The uring factory falls back to plain file I/O when the
  // kernel lacks io_uring, so the comparison is valid (if then trivial)
  // everywhere.
  scrub_images("eng_pool");
  scrub_images("eng_uring");
  IrregularProgram prog;
  prog.rounds = 4;
  auto cfg = pipelined(base_config(1, 24));
  sim::SimResult pool_res, uring_res;
  const auto pool = run_seq_collect(prog, cfg, pool_res, "eng_pool");
  const auto uring = run_seq_collect_uring(prog, cfg, uring_res, "eng_uring");
  EXPECT_EQ(pool, uring);
  expect_same_costs(pool_res, uring_res);
  for (std::size_t d = 0; d < 4; ++d) {
    const auto a = image_bytes("eng_pool", d);
    const auto b = image_bytes("eng_uring", d);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "disk image " << d << " differs between engines";
  }
  scrub_images("eng_pool");
  scrub_images("eng_uring");
}

TEST(SimPipeline, UringEngineDirectIoMatchesBuffered) {
  // O_DIRECT routes transfers through the aligned staging path; nothing
  // model- or byte-visible may change.  Where the filesystem refuses
  // O_DIRECT (tmpfs) the backend degrades to buffered I/O and the test
  // still checks engine parity.
  scrub_images("eng_buf");
  scrub_images("eng_dir");
  IrregularProgram prog;
  auto cfg = pipelined(base_config(1, 16));
  em::UringConfig direct_cfg;
  direct_cfg.direct = true;
  sim::SimResult buf_res, dir_res;
  const auto buf = run_seq_collect_uring(prog, cfg, buf_res, "eng_buf");
  const auto dir =
      run_seq_collect_uring(prog, cfg, dir_res, "eng_dir", direct_cfg);
  EXPECT_EQ(buf, dir);
  expect_same_costs(buf_res, dir_res);
  for (std::size_t d = 0; d < 4; ++d) {
    const auto a = image_bytes("eng_buf", d);
    const auto b = image_bytes("eng_dir", d);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "disk image " << d << " differs under O_DIRECT";
  }
  scrub_images("eng_buf");
  scrub_images("eng_dir");
}

TEST(SimPipeline, UringScratchEngineMatchesDefault) {
  // End-to-end default path: io_engine = uring with no explicit backend
  // factory uses uring scratch files (disk_dir) instead of memory, and
  // must reproduce the default engine's results and costs exactly.
  IrregularProgram prog;
  auto cfg = base_config(1, 16);
  sim::SimResult mem_res, uring_res;
  const auto mem = run_seq_collect(prog, cfg, mem_res);
  auto ucfg = pipelined(cfg);
  ucfg.io_engine = em::IoEngine::uring;
  std::vector<std::uint64_t> out(ucfg.machine.bsp.v);
  sim::SeqSimulator simr(ucfg);
  uring_res = simr.run<IrregularProgram>(
      prog, [](std::uint32_t) { return IrregularProgram::State{}; },
      [&](std::uint32_t vp, IrregularProgram::State& s) {
        out[vp] = fingerprint(s);
      });
  EXPECT_EQ(mem, out);
  expect_same_costs(mem_res, uring_res);
}

// --- Overlap instrumentation --------------------------------------------------

TEST(SimPipeline, OverlapRatioStaysInRange) {
  IrregularProgram prog;
  const auto cfg = base_config(1, 16);
  sim::SimResult serial_res, piped_res;
  run_seq_collect(prog, cfg, serial_res);
  run_seq_collect(prog, pipelined(cfg), piped_res);
  EXPECT_GE(serial_res.overlap_ratio, 0.0);
  EXPECT_LE(serial_res.overlap_ratio, 1.0);
  EXPECT_GE(piped_res.overlap_ratio, 0.0);
  EXPECT_LE(piped_res.overlap_ratio, 1.0);
}

// --- Compute pool -------------------------------------------------------------

TEST(ComputePool, RunsEveryIndexExactlyOnce) {
  util::ComputePool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.run(257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_EQ(pool.width(), 4u);
}

TEST(ComputePool, RethrowsLowestIndexError) {
  util::ComputePool pool(3);
  try {
    pool.run(64, [&](std::size_t i) {
      if (i % 7 == 3) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
  // The pool survives a throwing job.
  std::atomic<int> n{0};
  pool.run(16, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
}

TEST(ComputePool, ZeroThreadsRunsInline) {
  util::ComputePool pool(0);
  std::vector<int> order;
  pool.run(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ComputePool, DegenerateRunsStayOnCallerThread) {
  // A width-1 pool, and any single-task run, must execute entirely on the
  // calling thread — no wakeup, no handoff.  compute_threads=1 configs hit
  // this on every superstep, so the fast path is the common path.
  const auto caller = std::this_thread::get_id();
  {
    util::ComputePool pool(0);
    std::vector<std::thread::id> ran;
    pool.run(4, [&](std::size_t) { ran.push_back(std::this_thread::get_id()); });
    ASSERT_EQ(ran.size(), 4u);
    for (const auto& id : ran) EXPECT_EQ(id, caller);
  }
  {
    util::ComputePool pool(3);  // workers exist but must not be woken
    std::thread::id ran;
    pool.run(1, [&](std::size_t) { ran = std::this_thread::get_id(); });
    EXPECT_EQ(ran, caller);
  }
}

}  // namespace
}  // namespace embsp
