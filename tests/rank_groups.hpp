// Rank groups for the executor tests: transport endpoints driven by threads
// of the test process, and a ParSimulator-shaped driver that runs the p
// DistSimulator ranks over a real unix-socket mesh — every record, verdict
// and checkpoint handoff on the wire.
#pragma once

#include <unistd.h>

#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "sim/dist_simulator.hpp"

namespace embsp::testing {

/// Runs `body(rank, transport)` on one thread per endpoint and rethrows the
/// root-cause failure (not a peer's PeerFailedError echo of it).
inline void run_ranks(
    std::vector<std::unique_ptr<net::Transport>>& eps,
    const std::function<void(std::uint32_t, net::Transport&)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(eps.size());
  for (std::uint32_t r = 0; r < eps.size(); ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r, *eps[r]);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (const auto e = net::root_cause(errors)) std::rethrow_exception(e);
}

inline std::string unix_prefix(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("embsp_net_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

/// Builds a p-endpoint socket mesh by running the handshakes concurrently
/// (each constructor blocks until the full mesh is up).
inline std::vector<std::unique_ptr<net::Transport>> make_socket_group(
    std::uint32_t p, const std::string& tag) {
  std::vector<std::unique_ptr<net::Transport>> eps(p);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(p);
  for (std::uint32_t r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      try {
        net::SocketConfig cfg;
        cfg.address = unix_prefix(tag);
        cfg.rank = r;
        cfg.peers = p;
        eps[r] = net::make_socket_transport(cfg);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return eps;
}

/// ParSimulator's interface over a fresh socket mesh per run: rank 0's
/// result and collect calls, the root cause of a failure.
class SocketRanks {
 public:
  explicit SocketRanks(sim::SimConfig cfg) : cfg_(std::move(cfg)) {}

  template <bsp::Program P>
  sim::SimResult run(
      const P& prog,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>&
          collect) {
    static std::uint32_t meshes = 0;
    auto eps = make_socket_group(cfg_.machine.p,
                                 "ranks" + std::to_string(meshes++));
    const std::function<void(std::uint32_t, typename P::State&)> ignore =
        [](std::uint32_t, typename P::State&) {};
    std::vector<sim::SimResult> results(eps.size());
    run_ranks(eps, [&](std::uint32_t r, net::Transport& tp) {
      sim::DistSimulator simr(cfg_, tp);
      results[r] = simr.run<P>(prog, make_state, r == 0 ? collect : ignore);
    });
    return results[0];
  }

 private:
  sim::SimConfig cfg_;
};

}  // namespace embsp::testing
