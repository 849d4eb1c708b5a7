// Property-style sweeps across the whole simulation stack.
//
// The central invariant of the paper's technique is *transport
// transparency*: a BSP* program computes the same thing no matter which
// executor runs it and no matter how the EM machine is shaped.  These
// tests sweep machine shapes x routing modes x programs and assert
// bit-identical results, check that the knobs documented not to change
// results do not, plus structural properties of the layouts and the
// analytic tail bounds.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "bsp/direct_runtime.hpp"
#include "sim/context_store.hpp"
#include "sim/par_simulator.hpp"
#include "sim/seq_simulator.hpp"
#include "sim/tail_bounds.hpp"
#include "rank_groups.hpp"
#include "test_programs.hpp"
#include "util/checksum.hpp"

namespace embsp::sim {
namespace {

using embsp::testing::IrregularProgram;
using embsp::testing::PrefixSumProgram;
using embsp::testing::RingProgram;

struct Shape {
  std::uint32_t p;
  std::uint32_t v;
  std::size_t D;
  std::size_t B;
  std::size_t k;  // 0 = auto
  RoutingMode mode;
};

class ExecutorEquivalence : public ::testing::TestWithParam<Shape> {};

template <bsp::Program P>
std::vector<std::vector<std::byte>> run_and_serialize(
    const P& prog, const Shape& shape,
    const std::function<typename P::State(std::uint32_t)>& make_state) {
  using State = typename P::State;
  std::vector<std::vector<std::byte>> states(shape.v);
  auto collect = [&](std::uint32_t pid, State& s) {
    util::Writer w;
    s.serialize(w);
    states[pid] = w.take();
  };
  SimConfig cfg;
  cfg.machine.p = shape.p;
  cfg.machine.bsp.v = shape.v;
  cfg.machine.em.D = shape.D;
  cfg.machine.em.B = shape.B;
  cfg.machine.em.M = 1 << 20;
  cfg.k = shape.k;
  cfg.routing = shape.mode;
  cfg.mu = 4096;
  cfg.gamma = 1 << 16;
  if (shape.p == 1) {
    SeqSimulator sim(cfg);
    sim.run<P>(prog, make_state, collect);
  } else {
    ParSimulator sim(cfg);
    sim.run<P>(prog, make_state, collect);
  }
  return states;
}

TEST_P(ExecutorEquivalence, IrregularTrafficMatchesDirect) {
  const auto shape = GetParam();
  IrregularProgram prog;
  auto make = [](std::uint32_t) { return IrregularProgram::State{}; };

  std::vector<std::vector<std::byte>> direct(shape.v);
  bsp::DirectRuntime rt;
  rt.run<IrregularProgram>(prog, shape.v, make,
                           [&](std::uint32_t pid, IrregularProgram::State& s) {
                             util::Writer w;
                             s.serialize(w);
                             direct[pid] = w.take();
                           });
  EXPECT_EQ(run_and_serialize(prog, shape, make), direct);
}

TEST_P(ExecutorEquivalence, RingMatchesDirect) {
  const auto shape = GetParam();
  RingProgram prog;
  prog.rounds = 4;
  auto make = [](std::uint32_t pid) {
    RingProgram::State s;
    s.data = {pid, pid * 3};
    return s;
  };
  std::vector<std::vector<std::byte>> direct(shape.v);
  bsp::DirectRuntime rt;
  rt.run<RingProgram>(prog, shape.v, make,
                      [&](std::uint32_t pid, RingProgram::State& s) {
                        util::Writer w;
                        s.serialize(w);
                        direct[pid] = w.take();
                      });
  EXPECT_EQ(run_and_serialize(prog, shape, make), direct);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecutorEquivalence,
    ::testing::Values(
        Shape{1, 12, 1, 128, 0, RoutingMode::compact},
        Shape{1, 12, 3, 128, 0, RoutingMode::compact},
        Shape{1, 12, 3, 128, 0, RoutingMode::padded},
        Shape{1, 12, 3, 128, 0, RoutingMode::deterministic},
        Shape{1, 12, 8, 64, 1, RoutingMode::compact},
        Shape{1, 24, 4, 256, 3, RoutingMode::compact},
        Shape{2, 12, 2, 128, 0, RoutingMode::compact},
        Shape{3, 12, 2, 128, 0, RoutingMode::padded},
        Shape{4, 12, 1, 128, 0, RoutingMode::deterministic},
        Shape{4, 24, 4, 64, 2, RoutingMode::compact},
        Shape{6, 12, 2, 128, 0, RoutingMode::compact}),
    [](const auto& info) {
      const auto& s = info.param;
      const char* mode = s.mode == RoutingMode::compact ? "compact"
                         : s.mode == RoutingMode::padded ? "padded"
                                                         : "determ";
      return "p" + std::to_string(s.p) + "v" + std::to_string(s.v) + "D" +
             std::to_string(s.D) + "B" + std::to_string(s.B) + "k" +
             std::to_string(s.k) + mode;
    });

// --- knob invariance -----------------------------------------------------------

/// Final states, SuperstepCosts, total_io and per_proc_io, hashed together.
template <typename Sim>
std::uint64_t run_fingerprint(const SimConfig& cfg) {
  std::vector<std::vector<std::byte>> states(cfg.machine.bsp.v);
  Sim sim(cfg);
  const auto r = sim.template run<IrregularProgram>(
      IrregularProgram{},
      [](std::uint32_t) { return IrregularProgram::State{}; },
      [&](std::uint32_t pid, IrregularProgram::State& s) {
        util::Writer w;
        s.serialize(w);
        states[pid] = w.take();
      });
  util::Writer w;
  for (const auto& st : states) w.write_vector(st);
  w.write_vector(r.costs.supersteps);
  w.write<em::IoStats>(r.total_io);
  w.write_vector(r.per_proc_io);
  return util::checksum64(w.bytes());
}

TEST(KnobInvariance, OneFingerprintAcrossExecutionKnobs) {
  // Executor, I/O engine, pipelining, compute width and coalescing change
  // how a run executes, never what it computes or what it costs.  Seeded
  // draws of all five, at a pinned k (so double-buffered contexts cannot
  // shrink an auto-picked group size), must agree on one fingerprint.
  util::Rng draw(0x6b6e6f62);
  for (const std::uint32_t p : {2u, 3u}) {
    SimConfig base;
    base.machine.p = p;
    base.machine.bsp.v = 12;
    base.machine.em = {1 << 16, 2, 128, 1.0};
    base.k = 2;
    base.mu = 64;
    base.gamma = 4096;
    base.seed = 0x5eed;
    const std::uint64_t want = run_fingerprint<ParSimulator>(base);
    for (int trial = 0; trial < 10; ++trial) {
      const std::uint64_t bits = draw.below(32);
      const bool socket = (bits & 1) != 0;
      auto cfg = base;
      cfg.io_engine =
          (bits & 2) != 0 ? em::IoEngine::parallel : em::IoEngine::serial;
      cfg.pipeline = (bits & 4) != 0;
      cfg.compute_threads = (bits & 8) != 0 ? 2 : 1;
      cfg.coalesce_io = (bits & 16) != 0;
      const std::uint64_t got =
          socket ? run_fingerprint<testing::SocketRanks>(cfg)
                 : run_fingerprint<ParSimulator>(cfg);
      EXPECT_EQ(got, want) << "p=" << p << (socket ? " socket" : " loopback")
                           << " parallel=" << ((bits & 2) != 0)
                           << " pipeline=" << cfg.pipeline
                           << " threads=" << cfg.compute_threads
                           << " coalesce=" << cfg.coalesce_io;
    }
  }
}

// --- layout bijections -------------------------------------------------------

TEST(LayoutProperties, ContextStorePlacementIsInjective) {
  for (std::size_t D : {1u, 3u, 4u, 7u}) {
    em::DiskArray disks(D, 64);
    em::TrackAllocators alloc(D);
    ContextStore store(disks, alloc, 20, 300);  // multi-block contexts
    std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
    for (std::uint32_t ctx = 0; ctx < 20; ++ctx) {
      for (std::uint64_t b = 0; b < store.blocks_per_context(); ++b) {
        EXPECT_TRUE(seen.insert(store.location(ctx, b)).second)
            << "collision D=" << D << " ctx=" << ctx << " block=" << b;
      }
    }
  }
}

TEST(LayoutProperties, ContextRotationSpreadsSmallContexts) {
  // With one used block per context, consecutive contexts must map to
  // different disks (the rotation that keeps partial reads parallel).
  em::DiskArray disks(4, 64);
  em::TrackAllocators alloc(4);
  ContextStore store(disks, alloc, 16, 300);
  std::set<std::uint32_t> disks_hit;
  for (std::uint32_t ctx = 0; ctx < 4; ++ctx) {
    disks_hit.insert(store.location(ctx, 0).first);
  }
  EXPECT_EQ(disks_hit.size(), 4u);
}

TEST(LayoutProperties, StripedRegionLocationIsInjective) {
  em::DiskArray disks(5, 32);
  em::TrackAllocators alloc(5);
  auto r1 = em::StripedRegion::reserve(disks, alloc, 23);
  auto r2 = em::StripedRegion::reserve(disks, alloc, 17);
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  for (std::uint64_t g = 0; g < 23; ++g) {
    EXPECT_TRUE(seen.insert(r1.location(g)).second);
  }
  for (std::uint64_t g = 0; g < 17; ++g) {
    EXPECT_TRUE(seen.insert(r2.location(g)).second)
        << "regions overlap at block " << g;
  }
}

// --- analytic tail bounds ----------------------------------------------------

TEST(TailBounds, Lemma2Monotonicity) {
  // Larger overload factor l and larger bucket R both shrink the tail.
  for (double R : {32.0, 128.0, 1024.0}) {
    double prev = 1.0;
    for (double l : {1.1, 1.5, 2.0, 3.0}) {
      const double p = lemma2_tail(l, R, 8.0);
      EXPECT_LE(p, prev + 1e-12);
      prev = p;
    }
  }
  EXPECT_LE(lemma2_tail(2.0, 1024, 8), lemma2_tail(2.0, 128, 8));
}

TEST(TailBounds, Lemma2Boundaries) {
  EXPECT_DOUBLE_EQ(lemma2_tail(1.0, 100, 4), 1.0);   // l <= 1: vacuous
  EXPECT_DOUBLE_EQ(lemma2_tail(0.5, 100, 4), 1.0);
  EXPECT_GT(lemma2_tail(1.5, 100, 4), 0.0);
  EXPECT_LT(lemma2_tail(4.0, 1000, 4), 1e-50);
}

TEST(TailBounds, Lemma10ShrinksWithLoad) {
  const double p1 = lemma10_tail(4.0, 1000, 10);
  const double p2 = lemma10_tail(4.0, 10000, 10);
  EXPECT_LT(p2, p1);
  EXPECT_LE(lemma10_tail(8.0, 1000, 10), lemma10_tail(4.0, 1000, 10));
}

TEST(TailBounds, Lemma9Hoeffding) {
  EXPECT_DOUBLE_EQ(lemma9_tail(8.0, 100, 1), std::exp(-800.0));
  EXPECT_LE(lemma9_tail(8.0, 100, 10), 1.0);
}

// --- file-backed simulation ---------------------------------------------------

TEST(FileBackedSimulation, MatchesMemoryBacked) {
  IrregularProgram prog;
  auto make = [](std::uint32_t) { return IrregularProgram::State{}; };
  SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.bsp.v = 10;
  cfg.machine.em = {1 << 18, 3, 128, 1.0};
  cfg.mu = 64;
  cfg.gamma = 1 << 14;

  std::vector<std::uint64_t> mem_sums, file_sums;
  {
    SeqSimulator sim(cfg);
    sim.run<IrregularProgram>(
        prog, make, [&](std::uint32_t, IrregularProgram::State& s) {
          mem_sums.push_back(s.checksum);
        });
  }
  const auto dir =
      std::filesystem::temp_directory_path() / "embsp_test_filesim";
  std::filesystem::create_directories(dir);
  {
    SeqSimulator sim(cfg, [dir](std::size_t d) {
      return em::make_file_backend(
          (dir / ("d" + std::to_string(d) + ".bin")).string());
    });
    sim.run<IrregularProgram>(
        prog, make, [&](std::uint32_t, IrregularProgram::State& s) {
          file_sums.push_back(s.checksum);
        });
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(mem_sums, file_sums);
}

// --- model discipline ----------------------------------------------------------

TEST(ModelDiscipline, SlackRequirementHelper) {
  bsp::MachineParams m;
  m.p = 2;
  m.bsp.v = 64;
  m.em = {1 << 20, 4, 1 << 12, 1.0};
  // v >= k p D log(M/B): with k = 1 this machine needs v >= 2*4*8 = 64.
  EXPECT_EQ(bsp::min_virtual_processors(m, 1), 64u);
  EXPECT_EQ(bsp::min_virtual_processors(m, 2), 128u);
}

TEST(ModelDiscipline, LayoutKeepsGroupsAtLeastD) {
  // The auto-chosen k must leave >= D destination groups so the routing
  // buckets can all be populated (practical slackness).
  SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.bsp.v = 64;
  cfg.machine.em = {1 << 22, 8, 512, 1.0};  // huge M: unconstrained k
  cfg.mu = 128;
  cfg.gamma = 4096;
  const auto layout = SimLayout::compute(cfg, 64);
  EXPECT_GE(layout.num_groups, 8u);
}

TEST(ModelDiscipline, ExplicitKRespected) {
  SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.bsp.v = 64;
  cfg.machine.em = {1 << 22, 4, 512, 1.0};
  cfg.mu = 128;
  cfg.gamma = 4096;
  cfg.k = 5;
  const auto layout = SimLayout::compute(cfg, 64);
  EXPECT_EQ(layout.k, 5u);
  EXPECT_EQ(layout.num_groups, 13u);  // ceil(64/5)
}

}  // namespace
}  // namespace embsp::sim
