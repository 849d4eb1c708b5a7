#include "sim/par_simulator.hpp"

namespace embsp::sim {

ParSimulator::ParSimulator(
    SimConfig cfg,
    std::function<std::unique_ptr<em::Backend>(std::size_t)> backend) {
  cfg.machine.validate();
  group_ = net::make_loopback_group(cfg.machine.p, /*timeout_ms=*/0);
  ranks_.reserve(group_.size());
  for (auto& tp : group_) {
    ranks_.push_back(std::make_unique<DistSimulator>(cfg, *tp, backend));
    ranks_.back()->in_process_ = true;
  }
}

}  // namespace embsp::sim
