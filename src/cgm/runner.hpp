// Uniform executor adapters.
//
// CGM algorithm drivers (cgm_sort, cgm_list_ranking, ...) are templated on
// an executor so the same program runs on:
//   * DirectExec — the in-memory reference runtime,
//   * SeqEmExec  — the 1-processor EM-BSP* simulator (Algorithm 1),
//   * ParEmExec  — the p-processor EM-BSP* simulator (Algorithm 3),
//   * DistEmExec — one rank of Algorithm 3 over a net::Transport.
// Each adapter exposes run(prog, v, make_state, collect) -> ExecResult and
// auto-measures mu/gamma with a direct dry run when the caller has not
// declared them.
#pragma once

#include <optional>

#include "bsp/direct_runtime.hpp"
#include "sim/dist_simulator.hpp"
#include "sim/par_simulator.hpp"
#include "sim/seq_simulator.hpp"

namespace embsp::cgm {

struct ExecResult {
  std::size_t lambda = 0;
  bsp::RunCosts costs;
  std::optional<sim::SimResult> sim;  ///< set by the EM executors
};

class DirectExec {
 public:
  explicit DirectExec(std::size_t b = 1) { opt_.b = b; }

  template <bsp::Program P>
  ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    bsp::DirectRuntime rt;
    auto r = rt.run(prog, v, make_state, collect, opt_);
    return ExecResult{r.lambda(), std::move(r.costs), std::nullopt};
  }

 private:
  bsp::DirectRuntime::Options opt_;
};

/// Fills in mu/gamma by dry-running on the direct runtime if unset.
template <bsp::Program P>
sim::SimConfig autoconfigure(
    sim::SimConfig cfg, const P& prog, std::uint32_t v,
    const std::function<typename P::State(std::uint32_t)>& make_state) {
  cfg.machine.bsp.v = v;
  if (cfg.mu == 0 || cfg.gamma == 0) {
    const auto req = bsp::measure_requirements(prog, v, make_state);
    if (cfg.mu == 0) cfg.mu = req.mu + req.mu / 8 + 64;
    // req.gamma is already in wire bytes (payload + per-message overhead),
    // the exact quantity the simulators meter; a small margin guards
    // against rounding.
    if (cfg.gamma == 0) cfg.gamma = req.gamma + 64;
  }
  return cfg;
}

class SeqEmExec {
 public:
  explicit SeqEmExec(sim::SimConfig cfg) : cfg_(cfg) { cfg_.machine.p = 1; }

  template <bsp::Program P>
  ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    auto cfg = autoconfigure(cfg_, prog, v, make_state);
    // Multi-run workloads (e.g. euler_tour) call run() several times; the
    // checkpoint manifest records which invocation a checkpoint belongs to,
    // so a resumed process re-executes completed runs deterministically and
    // resumes only the interrupted one.
    cfg.checkpoint.run_index = runs_started_++;
    sim::SeqSimulator s(cfg);
    auto r = s.run(prog, make_state, collect);
    ExecResult out{r.lambda(), r.costs, std::nullopt};
    out.sim = std::move(r);
    return out;
  }

 private:
  sim::SimConfig cfg_;
  std::size_t runs_started_ = 0;
};

class ParEmExec {
 public:
  explicit ParEmExec(sim::SimConfig cfg) : cfg_(cfg) {}

  template <bsp::Program P>
  ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    auto cfg = autoconfigure(cfg_, prog, v, make_state);
    cfg.checkpoint.run_index = runs_started_++;  // see SeqEmExec::run
    sim::ParSimulator s(cfg);
    auto r = s.run(prog, make_state, collect);
    ExecResult out{r.lambda(), r.costs, std::nullopt};
    out.sim = std::move(r);
    return out;
  }

 private:
  sim::SimConfig cfg_;
  std::size_t runs_started_ = 0;
};

/// One rank of a distributed run: every participating process (or loopback
/// thread) drives the SAME workload code with its own DistEmExec over its
/// own transport endpoint; the executors stay in lockstep through the
/// transport's exchanges.  The mu/gamma dry run happens independently on
/// every rank — it is deterministic, so all ranks derive the same budgets.
class DistEmExec {
 public:
  DistEmExec(sim::SimConfig cfg, net::Transport& transport)
      : cfg_(cfg), tp_(&transport) {
    cfg_.machine.p = tp_->size();
  }

  template <bsp::Program P>
  ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    auto cfg = autoconfigure(cfg_, prog, v, make_state);
    cfg.checkpoint.run_index = runs_started_++;  // see SeqEmExec::run
    sim::DistSimulator s(cfg, *tp_);
    auto r = s.run(prog, make_state, collect);
    ExecResult out{r.lambda(), r.costs, std::nullopt};
    out.sim = std::move(r);
    return out;
  }

 private:
  sim::SimConfig cfg_;
  net::Transport* tp_;
  std::size_t runs_started_ = 0;
};

// --- Block distribution helpers --------------------------------------------
// CGM inputs of n items over v processors use block distribution: processor
// i owns items [i*ceil(n/v), min((i+1)*ceil(n/v), n)).

struct BlockDist {
  std::uint64_t n = 0;
  std::uint32_t v = 1;

  [[nodiscard]] std::uint64_t chunk() const { return (n + v - 1) / v; }
  [[nodiscard]] std::uint32_t owner(std::uint64_t i) const {
    return static_cast<std::uint32_t>(i / chunk());
  }
  [[nodiscard]] std::uint64_t first(std::uint32_t pid) const {
    return std::min<std::uint64_t>(static_cast<std::uint64_t>(pid) * chunk(),
                                   n);
  }
  [[nodiscard]] std::uint64_t count(std::uint32_t pid) const {
    return std::min<std::uint64_t>(first(pid) + chunk(), n) - first(pid);
  }
  [[nodiscard]] std::uint64_t local_index(std::uint64_t i) const {
    return i - first(owner(i));
  }
};

}  // namespace embsp::cgm
