// Layout planner tests: parity of the extracted planner against the
// arithmetic that used to live inline in the simulators, the typed
// LayoutError bound diagnostics, the multi-level (hierarchical) group
// schedule's equivalence with the flat schedule, and auto-tuning.
#include <gtest/gtest.h>

#include "bsp/direct_runtime.hpp"
#include "net/transport.hpp"
#include "obs/span.hpp"
#include "sim/dist_simulator.hpp"
#include "sim/par_simulator.hpp"
#include "sim/seq_simulator.hpp"
#include "test_programs.hpp"

namespace embsp::sim {
namespace {

using embsp::testing::IrregularProgram;
using embsp::testing::PrefixSumProgram;

SimConfig layout_config(std::uint32_t v, std::size_t D, std::size_t B,
                        std::size_t M, std::size_t mu, std::size_t gamma,
                        std::size_t k = 0) {
  SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = D;
  cfg.machine.em.B = B;
  cfg.machine.em.M = M;
  cfg.mu = mu;
  cfg.gamma = gamma;
  cfg.k = k;
  return cfg;
}

// --- parity with the pre-extraction arithmetic -------------------------------

/// Independent copy of the LayoutPlanner::flat arithmetic the three
/// simulators carried inline before the planner was extracted.  Kept
/// deliberately verbatim (not calling any planner helper) so the parity
/// test pins the extraction, not itself.
struct LegacyLayout {
  std::size_t k = 0;
  std::uint32_t num_groups = 0;
  std::uint64_t group_capacity = 0;
  std::size_t context_slot_bytes = 0;
  std::uint64_t routing_mem_budget = 0;
  bool rejected = false;  ///< legacy code threw for this config
};

LegacyLayout legacy_compute(const SimConfig& cfg, std::uint32_t local_v) {
  const auto& em = cfg.machine.em;
  LegacyLayout out;
  const std::size_t slot = ((cfg.mu + 4 + em.B - 1) / em.B) * em.B;
  const std::size_t resident = cfg.pipeline ? 2 : 1;
  out.context_slot_bytes = slot;
  if (cfg.k != 0 && cfg.k * slot * resident > em.M) {
    out.rejected = true;
    return out;
  }
  std::size_t k =
      cfg.k != 0 ? cfg.k
                 : std::max<std::size_t>(1, (em.M / resident) / slot);
  if (cfg.k == 0 && local_v >= em.D) {
    k = std::min<std::size_t>(k, local_v / em.D);
  }
  k = std::min<std::size_t>(k, local_v);
  k = std::max<std::size_t>(k, 1);
  out.k = k;
  out.num_groups = static_cast<std::uint32_t>((local_v + k - 1) / k);
  const std::size_t payload = em.B - kBlockHeaderBytes;
  const std::size_t usable =
      payload > 2 * kChunkHeaderBytes ? payload - 2 * kChunkHeaderBytes : 1;
  out.group_capacity =
      (static_cast<std::uint64_t>(k) * cfg.gamma + usable - 1) / usable +
      out.num_groups + 1;
  const std::uint64_t ctx = static_cast<std::uint64_t>(resident) * k * slot;
  out.routing_mem_budget = em.M > ctx ? em.M - ctx : 0;
  return out;
}

TEST(LayoutPlanner, FlatParityWithLegacyArithmetic) {
  // Grid: the configurations the executor tests use, across explicit and
  // auto k, pipelined and not, and p = 1..4 (local_v = v / p).
  const SimConfig grid[] = {
      layout_config(16, 4, 128, 1 << 16, 64, 600),
      layout_config(16, 4, 128, 1024, 124, 256, 8),
      layout_config(64, 8, 512, 1 << 22, 128, 4096),
      layout_config(64, 4, 512, 1 << 22, 128, 4096, 5),
      layout_config(12, 4, 128, 8 * (64 + 128), 64, 4096),
      layout_config(8, 2, 128, 1 << 20, 2048, 4096, 3),
      layout_config(32, 2, 128, 1024, 124, 1024, 16),
      layout_config(6, 2, 64, 1 << 12, 32, 256),
  };
  for (const SimConfig& base : grid) {
    for (const bool pipe : {false, true}) {
      for (std::uint32_t p = 1; p <= 4; ++p) {
        SimConfig cfg = base;
        cfg.pipeline = pipe;
        const auto local_v =
            std::max<std::uint32_t>(1, cfg.machine.bsp.v / p);
        const LegacyLayout want = legacy_compute(cfg, local_v);
        SCOPED_TRACE("v=" + std::to_string(cfg.machine.bsp.v) +
                     " M=" + std::to_string(cfg.machine.em.M) +
                     " k=" + std::to_string(cfg.k) +
                     " pipe=" + std::to_string(pipe) +
                     " local_v=" + std::to_string(local_v));
        if (want.rejected) {
          EXPECT_THROW(LayoutPlanner::flat(cfg, local_v), LayoutError);
          continue;
        }
        const SimLayout got = LayoutPlanner::flat(cfg, local_v);
        EXPECT_EQ(got.k, want.k);
        EXPECT_EQ(got.num_groups, want.num_groups);
        EXPECT_EQ(got.group_capacity, want.group_capacity);
        EXPECT_EQ(got.context_slot_bytes, want.context_slot_bytes);
        EXPECT_EQ(got.routing_mem_budget, want.routing_mem_budget);
        // And the full planner agrees with flat() whenever flat fits.
        const LayoutPlan plan = LayoutPlanner::plan(cfg, local_v);
        if (!plan.hierarchical()) {
          EXPECT_EQ(plan.leaf.k, got.k);
          EXPECT_EQ(plan.leaf.num_groups, got.num_groups);
          EXPECT_EQ(plan.leaf.group_capacity, got.group_capacity);
          EXPECT_EQ(plan.leaf.routing_mem_budget, got.routing_mem_budget);
          ASSERT_EQ(plan.levels.size(), 1u);
          EXPECT_EQ(plan.levels[0].k, got.k);
        }
      }
    }
  }
}

// --- typed bound errors ------------------------------------------------------

TEST(LayoutPlanner, SlotOverMIsTypedAcrossSimulators) {
  // One context slot (mu rounded to blocks) larger than M: no group size —
  // and no number of grouping levels — can fit, so every simulator's run
  // path must surface the typed bound error, catchable as em::IoError.
  auto cfg = layout_config(8, 2, 128, 1024, 2048, 4096);
  const auto state = [](std::uint32_t) { return PrefixSumProgram::State{}; };
  const auto sink = [](std::uint32_t, PrefixSumProgram::State&) {};
  PrefixSumProgram prog;

  EXPECT_THROW(LayoutPlanner::flat(cfg, 8), LayoutError);
  EXPECT_THROW(LayoutPlanner::plan(cfg, 8), LayoutError);
  try {
    LayoutPlanner::plan(cfg, 8);
    FAIL() << "plan accepted slot > M";
  } catch (const em::IoError& e) {  // family-typed, message names the bound
    EXPECT_NE(std::string(e.what()).find("memory bound M"),
              std::string::npos);
  }

  {
    SeqSimulator sim(cfg);
    EXPECT_THROW(sim.run<PrefixSumProgram>(prog, state, sink), LayoutError);
  }
  {
    ParSimulator sim(cfg);
    EXPECT_THROW(sim.run<PrefixSumProgram>(prog, state, sink), LayoutError);
  }
  {
    auto eps = net::make_loopback_group(1);
    DistSimulator sim(cfg, *eps[0]);
    EXPECT_THROW(sim.run<PrefixSumProgram>(prog, state, sink), LayoutError);
  }
}

TEST(LayoutPlanner, ZeroLocalProcessorsIsTypedError) {
  // A rank hosting no virtual processors would drive k to 0; the planner
  // names the bound instead of dividing by zero downstream.
  const auto cfg = layout_config(8, 2, 128, 1 << 16, 64, 600);
  EXPECT_THROW(LayoutPlanner::flat(cfg, 0), LayoutError);
  EXPECT_THROW(LayoutPlanner::plan(cfg, 0), LayoutError);
}

// --- multi-level plans -------------------------------------------------------

TEST(LayoutPlanner, TwoLevelPlanShape) {
  // slot = 128, M = 1024 -> at most 8 contexts resident; k = 16 needs a
  // two-level schedule: leaves of 8, super-groups of 2 leaves.
  auto cfg = layout_config(32, 2, 128, 1024, 124, 1024, 16);
  EXPECT_THROW(LayoutPlanner::flat(cfg, 32), LayoutError);
  const LayoutPlan plan = LayoutPlanner::plan(cfg, 32);
  ASSERT_TRUE(plan.hierarchical());
  ASSERT_EQ(plan.levels.size(), 2u);
  EXPECT_EQ(plan.levels[0].k, 8u);
  EXPECT_EQ(plan.levels[0].num_groups, 4u);
  EXPECT_EQ(plan.levels[1].k, 16u);
  EXPECT_EQ(plan.levels[1].num_groups, 2u);
  EXPECT_EQ(plan.fanout(), 2u);
  EXPECT_GT(plan.super_capacity_blocks, plan.leaf.group_capacity);
  EXPECT_GT(plan.leaf_capacity_blocks, 0u);
  // Every level's resident context set respects the memory bound.
  EXPECT_LE(plan.leaf.k * plan.leaf.context_slot_bytes, cfg.machine.em.M);
}

template <typename Prog>
std::vector<std::vector<std::byte>> run_seq_states(const Prog& prog,
                                                   const SimConfig& cfg,
                                                   SimResult& result) {
  using State = typename Prog::State;
  std::vector<std::vector<std::byte>> states(cfg.machine.bsp.v);
  SeqSimulator sim(cfg);
  result = sim.run<Prog>(
      prog, [](std::uint32_t) { return State{}; },
      [&](std::uint32_t pid, State& s) {
        util::Writer w;
        s.serialize(w);
        states[pid] = w.take();
      });
  return states;
}

TEST(MultiLevel, MatchesFlatSchedule) {
  // Same machine, same program: k = 8 runs the flat schedule, k = 16 the
  // two-level one.  Results and BSP-level costs must be identical; only
  // the I/O schedule (the distribution pass) differs.
  IrregularProgram prog;
  auto flat_cfg = layout_config(32, 2, 128, 1024, 124, 4096, 8);
  auto hier_cfg = flat_cfg;
  hier_cfg.k = 16;
  ASSERT_FALSE(LayoutPlanner::plan(flat_cfg, 32).hierarchical());
  ASSERT_TRUE(LayoutPlanner::plan(hier_cfg, 32).hierarchical());

  SimResult flat_res, hier_res;
  const auto flat_states = run_seq_states(prog, flat_cfg, flat_res);
  const auto hier_states = run_seq_states(prog, hier_cfg, hier_res);
  EXPECT_EQ(flat_states, hier_states);
  ASSERT_EQ(flat_res.costs.supersteps.size(),
            hier_res.costs.supersteps.size());
  for (std::size_t s = 0; s < flat_res.costs.supersteps.size(); ++s) {
    EXPECT_EQ(flat_res.costs.supersteps[s].max_bytes_sent,
              hier_res.costs.supersteps[s].max_bytes_sent);
    EXPECT_EQ(flat_res.costs.supersteps[s].total_bytes,
              hier_res.costs.supersteps[s].total_bytes);
  }
  // The distribution pass ran (and only under the two-level schedule).
  EXPECT_EQ(flat_res.routing_stats.distribute_cycles, 0u);
  EXPECT_GT(hier_res.routing_stats.distribute_cycles, 0u);
}

TEST(MultiLevel, DeterministicAcrossRunsUnderFaults) {
  // Two identical two-level runs with injected transient faults must agree
  // on results AND on the injected-fault tally — the fault schedule is
  // call-indexed, so equality pins the whole I/O call sequence, scratch
  // distribution included.
  IrregularProgram prog;
  auto cfg = layout_config(32, 2, 128, 1024, 124, 4096, 16);
  cfg.faults.seed = 7;
  cfg.faults.read_error_rate = 0.02;
  cfg.faults.write_error_rate = 0.02;
  cfg.block_checksums = true;
  ASSERT_TRUE(LayoutPlanner::plan(cfg, 32).hierarchical());

  SimResult res[2];
  const auto a = run_seq_states(prog, cfg, res[0]);
  const auto b = run_seq_states(prog, cfg, res[1]);
  EXPECT_EQ(a, b);
  EXPECT_EQ(res[0].recovery.faults.read_errors,
            res[1].recovery.faults.read_errors);
  EXPECT_EQ(res[0].recovery.faults.write_errors,
            res[1].recovery.faults.write_errors);
  EXPECT_EQ(res[0].recovery.io_retries, res[1].recovery.io_retries);
  EXPECT_GT(res[0].recovery.faults.read_errors +
                res[0].recovery.faults.write_errors,
            0u);
  EXPECT_EQ(res[0].routing_stats.distribute_cycles,
            res[1].routing_stats.distribute_cycles);
}

TEST(MultiLevel, PipelinedMatchesSerialSchedule) {
  IrregularProgram prog;
  auto cfg = layout_config(32, 2, 128, 1024, 124, 4096, 16);
  ASSERT_TRUE(LayoutPlanner::plan(cfg, 32).hierarchical());
  SimResult serial_res, pipe_res;
  const auto serial = run_seq_states(prog, cfg, serial_res);

  auto pcfg = cfg;
  pcfg.pipeline = true;
  pcfg.io_engine = em::IoEngine::parallel;
  pcfg.compute_threads = 2;
  ASSERT_TRUE(LayoutPlanner::plan(pcfg, 32).hierarchical());
  const auto piped = run_seq_states(prog, pcfg, pipe_res);
  EXPECT_EQ(serial, piped);
  EXPECT_GT(pipe_res.routing_stats.distribute_cycles, 0u);
}

TEST(MultiLevel, OversizedInputRunsToCompletion) {
  // v * slot = 32 KiB = 8 * M: the flat schedule rejects k = 32 outright
  // (32 contexts can never be resident under M = 4 KiB), but the
  // two-level schedule stages super-groups of 4 leaf groups through
  // scratch and completes, matching the direct runtime bit for bit.
  PrefixSumProgram prog;
  auto cfg = layout_config(64, 4, 512, 4096, 508, 4096, 32);
  ASSERT_GT(std::uint64_t{64} * 512, 4 * cfg.machine.em.M);
  EXPECT_THROW(LayoutPlanner::flat(cfg, 64), LayoutError);
  const LayoutPlan plan = LayoutPlanner::plan(cfg, 64);
  ASSERT_TRUE(plan.hierarchical());
  EXPECT_EQ(plan.levels[0].k, 8u);
  EXPECT_EQ(plan.fanout(), 4u);

  const auto make_state = [](std::uint32_t pid) {
    PrefixSumProgram::State s;
    s.value = pid * 5 + 3;
    return s;
  };
  std::vector<std::uint64_t> direct(64), simulated(64);
  bsp::DirectRuntime rt;
  rt.run<PrefixSumProgram>(prog, 64, make_state,
                           [&](std::uint32_t pid, PrefixSumProgram::State& s) {
                             direct[pid] = s.prefix;
                           });
  SeqSimulator sim(cfg);
  SimResult res = sim.run<PrefixSumProgram>(
      prog, make_state, [&](std::uint32_t pid, PrefixSumProgram::State& s) {
        simulated[pid] = s.prefix;
      });
  EXPECT_EQ(direct, simulated);
  EXPECT_GT(res.routing_stats.distribute_cycles, 0u);
}

TEST(MultiLevel, RejectsRecoveryComposition) {
  // Superstep recovery / checkpointing do not compose with the two-level
  // schedule yet; the simulator must say so up front, not corrupt state.
  IrregularProgram prog;
  auto cfg = layout_config(32, 2, 128, 1024, 124, 4096, 16);
  cfg.superstep_recovery = true;
  SeqSimulator sim(cfg);
  EXPECT_THROW(sim.run<IrregularProgram>(
                   prog, [](std::uint32_t) { return IrregularProgram::State{}; },
                   [](std::uint32_t, IrregularProgram::State&) {}),
               LayoutError);
}

// --- auto-tuning -------------------------------------------------------------

TEST(AutoTune, SameResultsWithPlanExported) {
  IrregularProgram prog;
  auto cfg = layout_config(16, 4, 128, 1 << 16, 64, 4096);
  SimResult plain_res;
  const auto plain = run_seq_states(prog, cfg, plain_res);

  obs::Recorder rec;
  auto tuned_cfg = cfg;
  tuned_cfg.auto_tune = true;
  tuned_cfg.recorder = &rec;
  SimResult tuned_res;
  const auto tuned = run_seq_states(prog, tuned_cfg, tuned_res);

  EXPECT_EQ(plain, tuned);
  EXPECT_EQ(plain_res.lambda(), tuned_res.lambda());
  const auto& reg = rec.registry;
  EXPECT_DOUBLE_EQ(reg.gauge("sim.layout.auto_tuned"), 1.0);
  EXPECT_GE(reg.gauge("sim.layout.k"), 1.0);
  EXPECT_GE(reg.gauge("sim.layout.num_groups"), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.layout.levels"), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.layout.fanout"), 1.0);
  EXPECT_GE(reg.gauge("sim.layout.group_capacity_blocks"), 1.0);
  EXPECT_GE(reg.gauge("sim.layout.context_slot_bytes"), 128.0);
}

TEST(AutoTune, PipelinedAdaptsComputeWidthWithoutChangingResults) {
  IrregularProgram prog;
  auto cfg = layout_config(16, 4, 128, 1 << 16, 64, 4096);
  SimResult plain_res;
  const auto plain = run_seq_states(prog, cfg, plain_res);

  obs::Recorder rec;
  auto tuned_cfg = cfg;
  tuned_cfg.auto_tune = true;
  tuned_cfg.pipeline = true;
  tuned_cfg.io_engine = em::IoEngine::parallel;
  tuned_cfg.recorder = &rec;
  SimResult tuned_res;
  const auto tuned = run_seq_states(prog, tuned_cfg, tuned_res);

  EXPECT_EQ(plain, tuned);
  // apply_auto_tune widened the pool, and the tuner exported its state.
  EXPECT_GE(rec.registry.gauge("sim.layout.compute_width"), 1.0);
  EXPECT_GE(rec.registry.gauge("sim.layout.replans"), 0.0);
}

TEST(GroupTuner, AdaptsToStallFraction) {
  GroupTuner tuner(1, 8);
  em::EngineStats stats;
  stats.per_disk.resize(2);

  // Superstep 1: issuer stalled for most of the busiest disk's service
  // time -> I/O bound -> shed a thread.
  stats.per_disk[0].busy_ns = 1000;
  stats.per_disk[1].busy_ns = 800;
  stats.stall_ns = 900;
  EXPECT_EQ(tuner.recommend(stats, 4), 3u);

  // Superstep 2: barely any new stall -> compute bound -> widen.
  stats.per_disk[0].busy_ns = 2000;
  stats.stall_ns = 910;
  EXPECT_EQ(tuner.recommend(stats, 3), 4u);

  // Superstep 3: moderate stall -> hold.
  stats.per_disk[0].busy_ns = 3000;
  stats.stall_ns = 1210;
  EXPECT_EQ(tuner.recommend(stats, 4), 4u);
  EXPECT_EQ(tuner.replans(), 2u);

  // The min bound holds even when the signal says shed.
  stats.per_disk[0].busy_ns = 4000;
  stats.stall_ns = 2200;  // ~all of this superstep's service time stalled
  EXPECT_EQ(tuner.recommend(stats, 1), 1u);
  EXPECT_EQ(tuner.replans(), 2u);
}

}  // namespace
}  // namespace embsp::sim
