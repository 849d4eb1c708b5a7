// Algorithm 3 — ParCompoundSuperstep (§5.2) on p real processors inside one
// process.
//
// ParSimulator is a thin driver: p DistSimulator ranks over an in-process
// loopback transport group, one thread each.  Rank i owns a private D-disk
// array (drive indices i*D + d) and shares nothing with its peers but the
// messages it exchanges, so this runs the very rank loop a socket mesh runs
// — fetch, forward, compute, scatter, reorganize with Algorithm 2, plus
// coordinated rollback and checkpoints; see sim/dist_simulator.hpp.  At
// p = 1 that loop is Algorithm 1, and SeqSimulator is this driver.  The
// loopback group waits without a deadline, as a thread barrier does: a
// straggling rank is slow, never lost.
//
// Inter-processor communication is metered per superstep (h-relation
// accounting), the quantity Theorem 1 bounds.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "sim/dist_simulator.hpp"

namespace embsp::sim {

class ParSimulator {
 public:
  explicit ParSimulator(
      SimConfig cfg,
      std::function<std::unique_ptr<em::Backend>(std::size_t)> backend =
          nullptr);

  /// Runs one rank per thread (rank 0 on the calling thread) and returns
  /// rank 0's result; every rank assembles the same one.  `collect` runs on
  /// the calling thread, once per virtual processor, in order.  A failed
  /// run rethrows the root cause, not a peer's PeerFailedError echo of it.
  template <bsp::Program P>
  SimResult run(
      const P& prog,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect);

  [[nodiscard]] const em::DiskArray& disks(std::size_t i) const {
    return ranks_[i]->disks();
  }
  [[nodiscard]] const SimConfig& config() const {
    return ranks_.front()->config();
  }

 private:
  std::vector<std::unique_ptr<net::Transport>> group_;
  std::vector<std::unique_ptr<DistSimulator>> ranks_;
};

template <bsp::Program P>
SimResult ParSimulator::run(
    const P& prog,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::function<void(std::uint32_t, typename P::State&)>& collect) {
  const std::function<void(std::uint32_t, typename P::State&)> ignore =
      [](std::uint32_t, typename P::State&) {};
  SimResult result;
  std::vector<std::exception_ptr> errors(ranks_.size());
  auto run_rank = [&](std::size_t r) {
    try {
      auto got = ranks_[r]->run(prog, make_state, r == 0 ? collect : ignore);
      if (r == 0) result = std::move(got);
    } catch (...) {
      errors[r] = std::current_exception();
      // Whatever the rank was doing when it failed, no peer may wait on it.
      group_[r]->abort("rank failed");
    }
  };
  std::vector<std::thread> threads;
  try {
    for (std::size_t r = 1; r < ranks_.size(); ++r) {
      threads.emplace_back(run_rank, r);
    }
  } catch (...) {
    // The started ranks would wait forever for the missing ones.
    for (auto& tp : group_) tp->abort("could not start a rank thread");
    for (auto& t : threads) t.join();
    throw;
  }
  run_rank(0);
  for (auto& t : threads) t.join();
  if (const auto e = net::root_cause(errors)) std::rethrow_exception(e);
  return result;
}

}  // namespace embsp::sim
