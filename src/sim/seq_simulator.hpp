// Algorithm 1 — SeqCompoundSuperstep: simulation of a v-processor BSP* on a
// single-processor EM-BSP* machine with D disks (§5.1).
//
// Each compound superstep is simulated in v/k rounds of k virtual
// processors (one *group*):
//   1(a) read the k contexts            — ContextStore, striped, parallel
//   1(b) read the group's messages      — MessageStore arena, parallel
//   1(c) run the k supersteps in memory
//   1(d) cut generated messages into blocks, write them to the D buckets
//        with a random disk permutation per write cycle
//   1(e) write the k contexts back
//   (2)  SimulateRouting — reorganize buckets into standard consecutive
//        format per destination group
//
// §5.2 presents Algorithm 3 as the p >= 1 generalization of Algorithm 1:
// with one processor its forward and scatter steps vanish.  SeqSimulator is
// therefore a thin driver over ParSimulator at p = 1 — one DistSimulator
// rank over a one-endpoint loopback group, which runs exactly the steps
// above, pipelining, recovery and checkpoints included (see
// sim/dist_simulator.hpp).
//
// The simulator validates the model's resource discipline at runtime:
// contexts must fit the declared mu, per-processor communication must fit
// the declared gamma, and k*mu must fit the machine's memory M.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>

#include "bsp/direct_runtime.hpp"
#include "bsp/program.hpp"
#include "sim/par_simulator.hpp"
#include "sim/sim_config.hpp"

namespace embsp::sim {

class SeqSimulator {
 public:
  /// Throws std::invalid_argument unless cfg.machine.p == 1.
  explicit SeqSimulator(
      SimConfig cfg,
      std::function<std::unique_ptr<em::Backend>(std::size_t)> backend =
          nullptr)
      : par_(lone(std::move(cfg)), std::move(backend)) {}

  template <bsp::Program P>
  SimResult run(
      const P& prog,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    return par_.run(prog, make_state, collect);
  }

  [[nodiscard]] const em::DiskArray& disks() const { return par_.disks(0); }
  [[nodiscard]] const SimConfig& config() const { return par_.config(); }

 private:
  static SimConfig lone(SimConfig cfg) {
    if (cfg.machine.p != 1) {
      throw std::invalid_argument(
          "SeqSimulator: p must be 1 (use ParSimulator for p > 1)");
    }
    return cfg;
  }

  ParSimulator par_;
};

/// Convenience: measure mu/gamma with a direct dry run (small v is fine as
/// long as it has the same per-processor footprint), then simulate.
template <bsp::Program P>
SimResult simulate_measured(
    const P& prog, SimConfig cfg,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::function<void(std::uint32_t, typename P::State&)>& collect) {
  const auto req =
      bsp::measure_requirements(prog, cfg.machine.bsp.v, make_state);
  cfg.mu = req.mu + req.mu / 8 + 64;  // headroom: serialized sizes may drift
  cfg.gamma = req.gamma + 64;         // req.gamma is already in wire bytes
  SeqSimulator sim(cfg);
  return sim.run(prog, make_state, collect);
}

}  // namespace embsp::sim
