// Shared configuration and result types for the EM-BSP* simulators.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/cost_model.hpp"
#include "bsp/params.hpp"
#include "em/disk_array.hpp"
#include "em/fault_backend.hpp"
#include "em/io_error.hpp"
#include "em/io_stats.hpp"
#include "obs/span.hpp"
#include "sim/routing.hpp"

namespace embsp::sim {

/// Per-message wire overhead charged against gamma: one chunk header plus
/// slack for splitting (see routing.hpp).  Programs' declared gamma must
/// bound sum(payload + kMessageOverhead) per virtual processor per
/// superstep, sent and received.  Aliases the bsp-level constant so the
/// direct runtime's measured gamma() is directly usable as SimConfig.gamma.
inline constexpr std::size_t kMessageOverhead =
    static_cast<std::size_t>(bsp::kWireOverheadPerMessage);

/// Durable checkpoint/restart (see DESIGN.md §"Failure model & recovery").
/// With `dir` set, the simulators serialize a crash-consistent snapshot of
/// the run's logical state to `dir` at superstep boundaries (every `every`
/// supersteps), using write-tmp → fsync → atomic-rename ordering so a
/// checkpoint torn by a crash is always detectable and the previous epoch
/// always loadable.  With `resume` set, the run restores the last committed
/// epoch from `dir` instead of initializing, and then continues — producing
/// byte-identical images and costs to an uninterrupted run.
struct CheckpointConfig {
  std::string dir;          ///< checkpoint directory; empty = disabled
  std::size_t every = 1;    ///< checkpoint every N superstep boundaries
  bool resume = false;      ///< restore the last committed epoch from `dir`
  /// Which exec.run() invocation of a multi-run workload this simulator
  /// instance is (workloads like euler_tour run several simulations); the
  /// manifest records it so a resumed process re-executes earlier runs
  /// deterministically and resumes only the interrupted one.
  std::size_t run_index = 0;

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
};

/// Thrown when a run stops at a superstep boundary because the caller's
/// cancel flag was set (SIGINT/SIGTERM graceful shutdown).  If
/// checkpointing is enabled a final checkpoint was published first, so the
/// run is resumable from where it stopped.
class CanceledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SimConfig {
  bsp::MachineParams machine;  ///< target machine (p, BSP* params, EM params)
  std::size_t mu = 0;          ///< declared max serialized context bytes
  std::size_t gamma = 0;       ///< declared max comm bytes per vproc/superstep
  std::size_t k = 0;           ///< group size; 0 = auto floor(M / context slot)
  RoutingMode routing = RoutingMode::compact;

  /// Self-tuning layout (CLI --auto-tune): LayoutPlanner::apply_auto_tune
  /// overrides k, routing mode and (when pipelining) the compute-pool width
  /// at construction, and each rank re-plans the compute width at
  /// superstep boundaries from the engine's stall/busy deltas.  Results
  /// never depend on any tuned knob — only wall clock does.  The chosen
  /// plan is exported as sim.layout.* gauges.
  bool auto_tune = false;

  /// How the D per-disk transfers of each parallel I/O are executed:
  /// serial (issuing thread, default), parallel (per-disk worker pool —
  /// overlaps real device I/O on file backends), or uring (per-disk workers
  /// over kernel-native io_uring backends; when no backend factory is
  /// supplied the simulator creates per-drive UringBackend scratch files,
  /// falling back to FileBackend on kernels without io_uring).  Model cost
  /// is identical; results are byte-identical for a fixed seed.
  em::IoEngine io_engine = em::IoEngine::serial;

  /// With io_engine == uring (and no caller-supplied backend factory): open
  /// the scratch files O_DIRECT so transfers bypass the page cache and
  /// benches measure device behavior.  Filesystems that refuse O_DIRECT
  /// (tmpfs) degrade gracefully to buffered I/O.  Ignored by the other
  /// engines (their default backends are in-memory).
  bool direct_io = false;

  /// Directory for the uring engine's per-drive scratch files; empty means
  /// std::filesystem::temp_directory_path().  Point it at a real block
  /// device's filesystem when measuring with direct_io.
  std::string disk_dir;
  std::uint64_t seed = 0x5EEDULL;
  std::size_t max_supersteps = 1'000'000;

  // --- Pipelined execution (see DESIGN.md §"Pipelined execution") ---------

  /// Overlap group I/O with compute: while group g computes, prefetch group
  /// g+1's contexts and message arena and retire group g-1's write-backs
  /// (double-buffered staging, at most 2 groups resident — SimLayout
  /// tightens its bound to 2*k*slot <= M).  RNG draws and disk placement
  /// happen at submission in group order, so for a fixed seed the disk
  /// image, SimResult costs and fault schedule are byte-identical to the
  /// serial schedule.  Off by default (the default path is untouched).
  /// Pair with io_engine = parallel; under the serial engine submission
  /// itself blocks and pipelining buys nothing.  Composes with the
  /// distributed simulator: each DistSimulator rank runs the same
  /// double-buffered schedule against its private disks and additionally
  /// drives Transport::progress() from the fetch/compute/scatter phases,
  /// overlapping wire traffic with compute and disk I/O (byte-identical
  /// results either way — see dist_simulator.hpp).
  bool pipeline = false;

  /// Compute-phase width when pipelining: total concurrent superstep()
  /// calls per group, including the coordinating thread (1 = compute stays
  /// on the coordinator).  Cost aggregation is reduced in virtual-processor
  /// order, so results do not depend on this value.  Requires superstep()
  /// implementations without shared mutable state across virtual
  /// processors (true for Program implementations by construction).
  std::size_t compute_threads = 1;

  // --- Resilience (see DESIGN.md §"Failure model & recovery") -------------

  /// Deterministic fault injection over every disk backend.  Disabled by
  /// default (all rates zero): the fault-free path is byte-for-byte the
  /// PR-1 substrate.  The schedule folds `faults.seed` with `seed` and the
  /// disk index, so a fixed config reproduces the exact same faults under
  /// either I/O engine.
  em::FaultSpec faults;

  /// Retry/backoff for per-disk transfers that raise retryable IoErrors.
  em::RetryPolicy retry;

  /// Keep + verify a 64-bit checksum per written track (detects silent
  /// bit-rot; adds no I/O and leaves the disk image unchanged).
  bool block_checksums = false;

  /// Superstep-granular recovery (sequential simulator): journal context
  /// writes (2x context disk space) and, when a transfer exhausts its retry
  /// budget, roll back to the enclosing superstep boundary and re-execute.
  /// Off by default so default-config layouts match PR 1 exactly.
  bool superstep_recovery = false;

  /// Re-execution budget per recovery unit (superstep body / reorganize);
  /// exceeded => the original IoError propagates to the caller.
  std::size_t max_superstep_retries = 2;

  /// Durable checkpoint/restart; disabled unless checkpoint.dir is set.
  CheckpointConfig checkpoint;

  /// Cooperative cancellation: when non-null and set, the run stops at the
  /// next superstep boundary — after quiescing in-flight tokens and (if
  /// checkpointing is enabled) publishing a final checkpoint — by throwing
  /// CanceledError.  Set from a signal handler for graceful shutdown.
  const std::atomic<bool>* cancel = nullptr;

  // --- Observability (see DESIGN.md §"Observability") ---------------------

  /// Metrics/trace sink shared by the run: phase spans, engine histograms
  /// and routing/recovery counters are recorded here.  Null (the default)
  /// disables all instrumentation — the null-sink fast path makes spans
  /// free and keeps default-config runs byte-identical.  The recorder must
  /// outlive the run; it is borrowed, never owned.
  obs::Recorder* recorder = nullptr;
};

/// Resilience events observed during one run (all zero on a fault-free
/// run with default config).
struct RecoveryStats {
  std::uint64_t io_retries = 0;   ///< per-disk transfer attempts repeated
  std::uint64_t io_giveups = 0;   ///< transfers that exhausted the budget
  std::uint64_t superstep_rollbacks = 0;   ///< superstep bodies re-executed
  std::uint64_t reorganize_rollbacks = 0;  ///< reorganizations re-executed
  std::uint64_t checkpoints = 0;  ///< checkpoint epochs published this run
  /// Superstep boundary the run resumed from (0 when it started fresh).
  std::uint64_t resume_epoch = 0;
  em::FaultCounts faults;         ///< injected-fault tally

  [[nodiscard]] std::uint64_t total_rollbacks() const {
    return superstep_rollbacks + reorganize_rollbacks;
  }
};

/// Per-phase I/O breakdown of one simulation run (maps onto the phases of
/// Algorithm 1: fetch = steps 1(a)+1(b), write = steps 1(d)+1(e),
/// reorganize = step 2).
struct PhaseIo {
  em::IoStats init;        ///< writing the initial contexts
  em::IoStats fetch_ctx;   ///< step 1(a)
  em::IoStats fetch_msg;   ///< step 1(b)
  em::IoStats write_msg;   ///< step 1(d)
  em::IoStats write_ctx;   ///< step 1(e)
  em::IoStats reorganize;  ///< step 2 (SimulateRouting)
  em::IoStats collect;     ///< reading final contexts out
};

struct SimResult {
  bsp::RunCosts costs;        ///< per-superstep BSP-level cost records
  em::IoStats total_io;       ///< all parallel I/O (max over processors in
                              ///< the parallel simulator)
  std::vector<em::IoStats> per_proc_io;  ///< one entry per real processor
  /// Per-superstep I/O deltas (sequential simulator only; used by the CSV
  /// trace writer in sim/trace.hpp).
  std::vector<em::IoStats> per_superstep_io;
  PhaseIo phase_io;           ///< phase breakdown (processor 0 in parallel)
  RoutingStats routing_stats; ///< accumulated SimulateRouting statistics
  std::size_t group_size = 0; ///< k actually used
  std::uint64_t max_tracks_per_disk = 0;  ///< disk space (Lemma 1 bound)
  /// Real-processor communication per superstep (parallel simulator only):
  /// max bytes sent/received by one real processor.
  std::uint64_t real_comm_bytes = 0;
  /// Retries, rollbacks and injected faults observed during the run.
  RecoveryStats recovery;
  /// Fraction of the busiest disk's service time hidden from the issuing
  /// thread: 1 - stall_ns / max_busy_ns, clamped to [0, 1].  ~0 for the
  /// serial engine (every transfer stalls the issuer); approaches 1 when
  /// pipelining keeps the disks busy behind compute.  Wall-clock derived —
  /// excluded from determinism guarantees.
  double overlap_ratio = 0.0;

  [[nodiscard]] std::size_t lambda() const { return costs.num_supersteps(); }
  [[nodiscard]] double io_time(double cost_g) const {
    return total_io.io_time(cost_g);
  }
};

}  // namespace embsp::sim
