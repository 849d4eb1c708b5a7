// EM-BSP perf ledger: shared declarations (see README.md for the method).
//
// A workload is one CGM driver on one simulated machine.  A repeat runs the
// driver once, closed loop, and is measured from outside through public
// entry points only: the executor adapter times cgm::autoconfigure, the
// simulator constructor and Simulator::run; TimedTransport times each
// rank's transport calls; a traced repeat additionally attaches an
// obs::Recorder through SimConfig::recorder and reads the registry the
// simulators already fill.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "em/uring_backend.hpp"
#include "embsp/embsp.hpp"

namespace ledger {

namespace em = embsp::em;
namespace net = embsp::net;
namespace obs = embsp::obs;
namespace sim = embsp::sim;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Algo { sort, list_ranking, dominance, permute };
enum class Executor { seq, par, dist_socket };

/// One row of the workload table: a CGM driver on a fixed simulated machine.
struct Workload {
  const char* name;
  Algo algo;
  Executor exec;
  std::uint64_t n;
  std::uint32_t v;
  std::uint32_t p;
  std::size_t D;
  std::size_t B;
  std::size_t M;
  std::size_t k;  ///< 0 = simulator picks
  sim::RoutingMode routing;
  em::IoEngine engine;
  bool direct_io;
  bool pipeline;
};

const std::vector<Workload>& workloads();

/// The workload's simulator configuration.  `disk_dir` holds the uring
/// engine's scratch files; `cancel` is polled at superstep boundaries.
sim::SimConfig sim_config(const Workload& w, std::uint64_t seed,
                          const std::string& disk_dir,
                          const std::atomic<bool>* cancel);

/// Generated inputs plus the in-memory (cgm::DirectExec) reference output.
struct Inputs {
  std::vector<std::uint64_t> keys;  ///< sort keys, list successors, values
  std::vector<std::uint64_t> perm;  ///< permutation targets
  std::vector<embsp::util::Point2D> points;
  std::vector<std::uint64_t> weights;
  std::vector<std::uint64_t> reference;
  std::uint64_t bytes = 0;  ///< input bytes handed to the driver
};

Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// Wall-clock split of one rank's share of a repeat, plus the model counts
/// of the simulator runs the driver made.
struct ExecTimes {
  double net_setup_s = 0;  ///< socket mesh bring-up
  double dry_run_s = 0;    ///< cgm::autoconfigure (mu/gamma dry run)
  double construct_s = 0;  ///< simulator constructors
  double run_s = 0;        ///< Simulator::run
  std::uint64_t sim_runs = 0;
  std::uint64_t parallel_ios = 0;  ///< max over real processors, summed
  std::uint64_t max_tracks = 0;    ///< max tracks used on one disk

  [[nodiscard]] double setup_s() const {
    return net_setup_s + dry_run_s + construct_s;
  }
};

/// What TimedTransport saw on one rank.
struct TransportTimes {
  double post_s = 0;
  double progress_s = 0;
  double exchange_s = 0;
  std::uint64_t posts = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t bytes_posted = 0;
};

struct Repeat {
  bool traced = false;
  double total_s = 0;  ///< the whole driver call, mesh bring-up included
  double cpu_s = 0;
  double peak_rss_mib = 0;
  std::vector<ExecTimes> ranks;      ///< one per transport rank (1 if none)
  std::vector<TransportTimes> net;   ///< filled by traced socket repeats
  std::vector<std::unique_ptr<obs::Recorder>> recorders;  ///< traced only
  embsp::cgm::ExecResult exec;
  bool ok = false;
  std::uint64_t digest = 0;
  std::string error;

  [[nodiscard]] double setup_s() const { return ranks[0].setup_s(); }
  [[nodiscard]] double wall_s() const { return total_s - setup_s(); }
};

/// Runs fn(rank) on one thread per rank and joins them all; rethrows the
/// root-cause failure (a peer's PeerFailedError is only its echo).
void run_ranks(std::uint32_t p, const std::function<void(std::uint32_t)>& fn);

/// Host-speed reference, run just before each timed repeat; returns its
/// wall time.  The host's speed drifts by tens of percent over minutes, and
/// its drives' latency by more; this fixed work drifts with them.  It is
/// the same integer, memcpy and random-walk work on each of the workload's
/// p threads, plus, for O_DIRECT workloads, synchronous 4 KiB O_DIRECT
/// writes and reads of a file in `dir`.  It calls nothing in libembsp, so
/// no change to the program can move it.
double reference_s(const Workload& w, const std::string& dir);

/// reference_s on a quiet 4-core 2.0 GHz Xeon VM with a virtio disk.
/// End-to-end times are reported as measured × nominal_reference_s /
/// (median reference_s of the run): about the seconds that host takes.
double nominal_reference_s(const Workload& w);

/// One closed-loop execution of the workload's driver.  `mesh` is the
/// unix-socket prefix for socket workloads.
Repeat run_repeat(const Workload& w, const Inputs& in,
                  const sim::SimConfig& cfg, const std::string& mesh,
                  bool traced);

/// Empty when the workload can run on this machine as specified, else why
/// not (a silent fallback would measure a different program).
std::string check_preconditions(const Workload& w, const std::string& dir);

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Hardware ceilings and the G/g/L cost model, from micro-runs on the
/// workload's own engine, backend kind, D, B and transport.
struct Calibration {
  double em_mib_per_s = 0;
  double memcpy_gib_per_s = 0;
  double net_mib_per_s = 0;
  double G_us = 0;
  double g_ns_per_kib = 0;
  double L_us = 0;
};

Calibration calibrate(const Workload& w, const Repeat& traced,
                      const std::string& dir, const std::string& mesh);

/// Per-layer metrics of a traced repeat, in BENCHMARK.json order.
/// `untraced_wall_s` is the measured median of the timed repeats and
/// `host_ref_s` their median reference_s.
std::vector<Metric> layer_metrics(const Workload& w, const Repeat& traced,
                                  double untraced_wall_s, double host_ref_s,
                                  const Calibration& cal);

}  // namespace ledger
