#include "sim/dist_simulator.hpp"

#include "em/uring_backend.hpp"

namespace embsp::sim {

DistSimulator::DistSimulator(
    SimConfig cfg, net::Transport& transport,
    std::function<std::unique_ptr<em::Backend>(std::size_t)> backend)
    : cfg_(cfg), tp_(&transport) {
  cfg_.machine.validate();
  // Resolve the self-tuned knobs before the engine options read them.
  LayoutPlanner::apply_auto_tune(cfg_);
  if (tp_->size() != cfg_.machine.p) {
    throw std::invalid_argument(
        "DistSimulator: transport has " + std::to_string(tp_->size()) +
        " endpoints but the machine declares p=" +
        std::to_string(cfg_.machine.p));
  }
  if (cfg_.faults.enabled()) {
    fault_counters_ = std::make_shared<em::FaultCounters>();
  }
  if (cfg_.io_engine == em::IoEngine::uring && !backend) {
    em::UringConfig ucfg;
    ucfg.direct = cfg_.direct_io;
    backend = em::make_uring_scratch_factory(cfg_.disk_dir, "dist", ucfg);
  }
  em::DiskArrayOptions opts;
  opts.retry = cfg_.retry;
  opts.verify_checksums = cfg_.block_checksums;
  opts.coalesce = cfg_.coalesce_io && !cfg_.faults.enabled();
  auto global = em::wrap_with_faults(backend, cfg_.faults, cfg_.seed,
                                     fault_counters_);
  // Machine-wide drive indices (rank*D + d): the deterministic fault
  // schedule and any file-backed factory see the same per-drive streams
  // however the ranks are spread over processes.
  const std::uint32_t me = tp_->rank();
  auto make = global
                  ? std::function<std::unique_ptr<em::Backend>(std::size_t)>(
                        [global, me, this](std::size_t d) {
                          return global(me * cfg_.machine.em.D + d);
                        })
                  : nullptr;
  disks_ = em::make_disk_array(cfg_.io_engine, cfg_.machine.em.D,
                               cfg_.machine.em.B, std::move(make),
                               /*capacity_tracks_per_disk=*/0, opts);
}

}  // namespace embsp::sim
