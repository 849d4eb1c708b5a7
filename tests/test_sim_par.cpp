#include <gtest/gtest.h>

#include "bsp/direct_runtime.hpp"
#include "obs/span.hpp"
#include "sim/par_simulator.hpp"
#include "test_programs.hpp"

namespace embsp::sim {
namespace {

using embsp::testing::BigMessageProgram;
using embsp::testing::EmptyMessageProgram;
using embsp::testing::IrregularProgram;
using embsp::testing::PrefixSumProgram;
using embsp::testing::RingProgram;

SimConfig par_config(std::uint32_t p, std::uint32_t v, std::size_t D,
                     std::size_t B, std::size_t mu, std::size_t gamma) {
  SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = D;
  cfg.machine.em.B = B;
  cfg.machine.em.M = std::max<std::size_t>(D * B, 8 * (mu + B));
  cfg.mu = mu;
  cfg.gamma = gamma;
  return cfg;
}

template <bsp::Program P>
void expect_equivalent(const P& prog, SimConfig cfg,
                       const std::function<typename P::State(std::uint32_t)>&
                           make_state) {
  using State = typename P::State;
  const std::uint32_t v = cfg.machine.bsp.v;
  std::vector<std::vector<std::byte>> direct_states(v), sim_states(v);

  bsp::DirectRuntime rt;
  auto direct = rt.run<P>(prog, v, make_state,
                          [&](std::uint32_t pid, State& s) {
                            util::Writer w;
                            s.serialize(w);
                            direct_states[pid] = w.take();
                          });

  ParSimulator sim(cfg);
  auto result = sim.run<P>(prog, make_state, [&](std::uint32_t pid, State& s) {
    util::Writer w;
    s.serialize(w);
    sim_states[pid] = w.take();
  });

  for (std::uint32_t i = 0; i < v; ++i) {
    EXPECT_EQ(direct_states[i], sim_states[i]) << "processor " << i;
  }
  EXPECT_EQ(result.lambda(), direct.lambda());
}

TEST(ParSimulator, PrefixSumTwoProcs) {
  PrefixSumProgram prog;
  expect_equivalent(prog, par_config(2, 16, 2, 128, 64, 600),
                    [](std::uint32_t pid) {
                      PrefixSumProgram::State s;
                      s.value = pid + 1;
                      return s;
                    });
}

TEST(ParSimulator, PrefixSumFourProcs) {
  PrefixSumProgram prog;
  expect_equivalent(prog, par_config(4, 32, 2, 128, 64, 1400),
                    [](std::uint32_t pid) {
                      PrefixSumProgram::State s;
                      s.value = pid * 5 + 2;
                      return s;
                    });
}

TEST(ParSimulator, RingAcrossProcessors) {
  RingProgram prog;
  prog.rounds = 6;
  expect_equivalent(prog, par_config(4, 8, 2, 128, 2048, 4096),
                    [](std::uint32_t pid) {
                      RingProgram::State s;
                      s.data = {pid};
                      return s;
                    });
}

TEST(ParSimulator, IrregularTraffic) {
  IrregularProgram prog;
  expect_equivalent(prog, par_config(3, 12, 2, 128, 64, 4096),
                    [](std::uint32_t) { return IrregularProgram::State{}; });
}

TEST(ParSimulator, EmptyMessages) {
  EmptyMessageProgram prog;
  expect_equivalent(prog, par_config(2, 6, 2, 64, 32, 256),
                    [](std::uint32_t) { return EmptyMessageProgram::State{}; });
}

TEST(ParSimulator, BigMessageCrossesProcessors) {
  BigMessageProgram prog;
  prog.words = 1500;
  expect_equivalent(prog, par_config(2, 4, 2, 128, 64, 14000),
                    [](std::uint32_t) { return BigMessageProgram::State{}; });
}

TEST(ParSimulator, SingleProcessorDegenerate) {
  // p = 1 through the parallel code path must agree with the direct runtime.
  PrefixSumProgram prog;
  expect_equivalent(prog, par_config(1, 8, 2, 128, 64, 400),
                    [](std::uint32_t pid) {
                      PrefixSumProgram::State s;
                      s.value = pid;
                      return s;
                    });
}

TEST(ParSimulator, DeterministicAcrossRuns) {
  IrregularProgram prog;
  auto cfg = par_config(3, 12, 2, 128, 64, 4096);
  std::vector<std::uint64_t> sums[2];
  for (int run = 0; run < 2; ++run) {
    ParSimulator sim(cfg);
    sim.run<IrregularProgram>(
        prog, [](std::uint32_t) { return IrregularProgram::State{}; },
        [&](std::uint32_t, IrregularProgram::State& s) {
          sums[run].push_back(s.checksum);
        });
  }
  EXPECT_EQ(sums[0], sums[1]);
}

TEST(ParSimulator, ErrorInProgramPropagates) {
  struct ThrowingProgram {
    struct State {
      void serialize(util::Writer&) const {}
      void deserialize(util::Reader&) {}
    };
    bool superstep(std::size_t, const bsp::ProcEnv& env, State&,
                   const bsp::Inbox&, bsp::Outbox&) const {
      if (env.pid == 3) throw std::runtime_error("boom");
      return false;
    }
  };
  ThrowingProgram prog;
  ParSimulator sim(par_config(2, 8, 2, 128, 64, 256));
  EXPECT_THROW(sim.run<ThrowingProgram>(
                   prog, [](std::uint32_t) { return ThrowingProgram::State{}; },
                   [](std::uint32_t, ThrowingProgram::State&) {}),
               std::runtime_error);
}

TEST(ParSimulator, PerProcessorIoBalanced) {
  // The randomized scatter should spread message I/O roughly evenly across
  // the real processors.
  IrregularProgram prog;
  prog.rounds = 4;
  auto cfg = par_config(4, 32, 2, 128, 64, 8192);
  ParSimulator sim(cfg);
  auto result = sim.run<IrregularProgram>(
      prog, [](std::uint32_t) { return IrregularProgram::State{}; },
      [](std::uint32_t, IrregularProgram::State&) {});
  ASSERT_EQ(result.per_proc_io.size(), 4u);
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& io : result.per_proc_io) {
    lo = std::min(lo, io.parallel_ios);
    hi = std::max(hi, io.parallel_ios);
  }
  EXPECT_LT(static_cast<double>(hi), 3.0 * static_cast<double>(lo) + 64.0);
}

TEST(ParSimulator, RealCommunicationMetered) {
  PrefixSumProgram prog;
  auto cfg = par_config(4, 16, 2, 128, 64, 600);
  ParSimulator sim(cfg);
  auto result = sim.run<PrefixSumProgram>(
      prog,
      [](std::uint32_t pid) {
        PrefixSumProgram::State s;
        s.value = pid;
        return s;
      },
      [](std::uint32_t, PrefixSumProgram::State&) {});
  // The all-to-all pattern must move real bytes between real processors.
  EXPECT_GT(result.real_comm_bytes, 0u);
}

TEST(ParSimulator, RegistryHoldsRunWideCountersOnce) {
  // The p ranks share the caller's registry: run-wide sim.*, routing.* and
  // recovery.* entries are recorded once, per-rank engine entries and phase
  // spans by every rank, and the loopback group's internals not at all.
  IrregularProgram prog;
  auto cfg = par_config(3, 12, 2, 128, 64, 4096);
  cfg.faults.seed = cfg.seed;
  cfg.faults.read_error_rate = 0.05;
  cfg.block_checksums = true;
  obs::Recorder recorder;
  cfg.recorder = &recorder;
  ParSimulator sim(cfg);
  const auto result = sim.run<IrregularProgram>(
      prog, [](std::uint32_t) { return IrregularProgram::State{}; },
      [](std::uint32_t, IrregularProgram::State&) {});
  const auto& reg = recorder.registry;
  EXPECT_EQ(reg.counter("sim.supersteps"), result.lambda());
  EXPECT_EQ(reg.counter("routing.blocks_total"),
            result.routing_stats.blocks_total);
  ASSERT_GT(result.recovery.io_retries, 0u);
  EXPECT_EQ(reg.counter("recovery.io_retries"), result.recovery.io_retries);
  EXPECT_EQ(reg.counter("phase.init.calls"), 3u);
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_GT(reg.counter("proc." + std::to_string(r) + ".engine.disk.0.ops"),
              0u)
        << "rank " << r;
  }
  EXPECT_EQ(reg.counter("net.exchanges"), 0u);
}

TEST(ParSimulator, AbortedRunSumsEveryRanksRecoveryShare) {
  // A run that dies never reaches the end-of-run allgather; each rank
  // flushes its own share, so the giveup on rank 1's first drive still
  // shows in the shared registry — and the root cause is rethrown, not a
  // peer's echo of the abort.
  IrregularProgram prog;
  auto cfg = par_config(2, 8, 2, 128, 64, 4096);
  cfg.faults.seed = 5;
  cfg.faults.bursts.push_back({2u, 8u, 100000u});  // drive 1*D + 0
  obs::Recorder recorder;
  cfg.recorder = &recorder;
  ParSimulator sim(cfg);
  try {
    sim.run<IrregularProgram>(
        prog, [](std::uint32_t) { return IrregularProgram::State{}; },
        [](std::uint32_t, IrregularProgram::State&) {});
    FAIL() << "expected the giveup to abort the run";
  } catch (const net::NetError& e) {
    FAIL() << "root cause lost to a transport echo: " << e.what();
  } catch (const em::IoError&) {
  }
  EXPECT_EQ(recorder.registry.counter("recovery.io_giveups"), 1u);
}

}  // namespace
}  // namespace embsp::sim
