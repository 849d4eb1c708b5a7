// I/O cost accounting for the EM-BSP model (§3 of the paper).
//
// The model charges G time units per *parallel I/O operation*: one operation
// moves at most one track (= one block of B bytes) per disk, touching up to
// D disks at once.  The simulation theorems (Theorem 1, Corollary 1) are
// statements about the number of such operations, so the substrate counts
// them exactly; wall-clock time plays no role in the accounting.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace embsp::obs {
class Registry;
}  // namespace embsp::obs

namespace embsp::em {

struct IoStats {
  std::uint64_t parallel_ios = 0;   ///< number of parallel I/O operations
  std::uint64_t blocks_read = 0;    ///< total blocks moved disk -> memory
  std::uint64_t blocks_written = 0; ///< total blocks moved memory -> disk
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  /// Model I/O time: t_IO = G * (#parallel I/O operations).
  [[nodiscard]] double io_time(double cost_g) const {
    return cost_g * static_cast<double>(parallel_ios);
  }

  /// Fraction of disk slots actually used: 1.0 means every parallel I/O
  /// moved a block on every disk (the "full parallel disk I/O" the paper is
  /// after); 1/D means disks were used one at a time.
  [[nodiscard]] double utilization(std::size_t num_disks) const {
    if (parallel_ios == 0 || num_disks == 0) return 0.0;
    return static_cast<double>(blocks_read + blocks_written) /
           (static_cast<double>(parallel_ios) *
            static_cast<double>(num_disks));
  }

  IoStats& operator+=(const IoStats& o) {
    parallel_ios += o.parallel_ios;
    blocks_read += o.blocks_read;
    blocks_written += o.blocks_written;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    return *this;
  }

  /// Stats accumulated since `before` was captured — used for per-phase
  /// breakdowns (fetch / compute / write / reorganize).
  [[nodiscard]] IoStats since(const IoStats& before) const {
    IoStats d;
    d.parallel_ios = parallel_ios - before.parallel_ios;
    d.blocks_read = blocks_read - before.blocks_read;
    d.blocks_written = blocks_written - before.blocks_written;
    d.bytes_read = bytes_read - before.bytes_read;
    d.bytes_written = bytes_written - before.bytes_written;
    return d;
  }
};

/// Wall-clock execution stats of one disk drive inside an I/O engine.
/// Model cost (IoStats above) is deterministic; these measure what the
/// engine actually did with the hardware.  Written only by the drive's
/// owning thread (the caller for the serial engine, the drive's worker for
/// the parallel engine); safe to read whenever no parallel I/O is in
/// flight.
struct DiskIoStats {
  std::uint64_t ops = 0;      ///< one-track transfers executed on this drive
  std::uint64_t bytes = 0;    ///< bytes moved through this drive
  std::uint64_t busy_ns = 0;  ///< wall time spent inside backend transfers
  std::uint64_t retries = 0;  ///< transfer attempts repeated after IoError
  std::uint64_t giveups = 0;  ///< transfers abandoned (retry budget spent
                              ///< or persistent failure)
  /// Tracks that rode along in a coalesced vectored transfer instead of
  /// costing their own backend call: a run of n adjacent tracks adds n - 1.
  /// ops still counts every track, so ops - coalesced_tracks approximates
  /// the drive's backend call count.
  std::uint64_t coalesced_tracks = 0;
  /// Service time per backend call — every transfer attempt, successful
  /// or not, or one sample per wave when the drive's backend batches
  /// (ParallelDiskArray over UringBackend) — busy_ns is this histogram's
  /// sum.
  obs::LogHistogram service_ns;
  /// Backoff delay actually slept before each retry (jittered; see
  /// RetryPolicy) — the latency cost of absorbing transient faults.
  obs::LogHistogram retry_delay_ns;
};

/// Ring-level execution stats aggregated over the UringBackends of a disk
/// array (zero/inactive when no drive runs on io_uring).  Harvested at
/// quiescence points by DiskArray::harvest_backend_stats().
struct UringEngineStats {
  std::uint64_t rings = 0;         ///< drives backed by an io_uring instance
  std::uint64_t direct_rings = 0;  ///< of those, rings with O_DIRECT in effect
  std::uint64_t sqes = 0;          ///< SQEs submitted across all rings
  std::uint64_t enters = 0;        ///< io_uring_enter syscalls
  std::uint64_t fixed_ops = 0;     ///< READ_FIXED/WRITE_FIXED SQEs
  std::uint64_t bounced_bytes = 0; ///< bytes copied through O_DIRECT staging
  obs::LogHistogram ring_depth;    ///< SQEs in flight per submission wave
  obs::LogHistogram completion_ns; ///< submit-to-reap latency per wave
  [[nodiscard]] bool active() const { return rings != 0; }
};

/// Engine-level execution stats of a whole disk array.
struct EngineStats {
  std::vector<DiskIoStats> per_disk;
  /// Wall time the issuing thread spent blocked waiting for parallel I/O
  /// operations to complete.  For the serial engine this equals the total
  /// transfer time (the caller does the work itself); for the parallel
  /// engine it is the per-operation max over the involved drives — the gap
  /// between the two is the overlap the worker pool buys.
  std::uint64_t stall_ns = 0;
  /// Largest number of per-disk transfers issued by one parallel I/O
  /// operation (== D when every drive participates in some operation).
  /// Semantics differ by engine: under ParallelDiskArray the transfers are
  /// genuinely concurrent, so this is true in-flight depth; under the
  /// serial DiskArray the issuing thread runs them back-to-back, so it is
  /// the *batch size* of the widest operation, not a concurrency measure.
  std::uint64_t max_queue_depth = 0;
  /// Distribution of per-operation batch width (same per-engine caveat as
  /// max_queue_depth): how often the caller actually filled all D slots.
  obs::LogHistogram queue_depth;
  /// Errors swallowed by drain() at quiescence points (rollback paths).
  /// drain() is noexcept by contract, but the failures must stay visible:
  /// the counter and the first error's classification surface in the obs
  /// snapshot (see export_metrics).
  std::uint64_t drain_errors = 0;
  /// IoError::Kind of the first swallowed drain error as an int
  /// (transient=0, persistent=1, corrupt=2); -1 when none occurred.
  int last_drain_error_kind = -1;
  /// what() of the first swallowed drain error; empty when none occurred.
  std::string last_drain_error;
  /// io_uring ring counters; inactive() unless drives run on UringBackend.
  UringEngineStats uring;

  void reset() {
    for (auto& d : per_disk) d = DiskIoStats{};
    stall_ns = 0;
    max_queue_depth = 0;
    queue_depth = obs::LogHistogram{};
    drain_errors = 0;
    last_drain_error_kind = -1;
    last_drain_error.clear();
    uring = UringEngineStats{};
  }

  [[nodiscard]] std::uint64_t total_ops() const {
    std::uint64_t n = 0;
    for (const auto& d : per_disk) n += d.ops;
    return n;
  }

  [[nodiscard]] std::uint64_t max_busy_ns() const {
    std::uint64_t n = 0;
    for (const auto& d : per_disk) n = std::max(n, d.busy_ns);
    return n;
  }

  [[nodiscard]] std::uint64_t total_retries() const {
    std::uint64_t n = 0;
    for (const auto& d : per_disk) n += d.retries;
    return n;
  }

  [[nodiscard]] std::uint64_t total_giveups() const {
    std::uint64_t n = 0;
    for (const auto& d : per_disk) n += d.giveups;
    return n;
  }

  [[nodiscard]] std::uint64_t total_coalesced_tracks() const {
    std::uint64_t n = 0;
    for (const auto& d : per_disk) n += d.coalesced_tracks;
    return n;
  }

  /// Fraction of the busiest disk's service time the issuing thread spent
  /// stalled, over the window since `prev` was captured (pass a
  /// default-constructed EngineStats for run-to-date).  ~1 means I/O
  /// bound, ~0 means the engine hid the I/O behind compute.  Clamped to
  /// [0, 1]; 0 when the window saw no disk activity.  Wall-clock derived —
  /// a tuning signal, never part of the determinism guarantees.
  [[nodiscard]] double stall_fraction_since(const EngineStats& prev) const;
};

/// Dump engine execution stats into a metrics registry under `prefix`
/// (e.g. "engine." or "proc.3.engine."): per-disk counters
/// `<prefix>disk.<d>.{ops,bytes,busy_ns,retries,giveups}`, per-disk
/// histograms `<prefix>disk.<d>.{service_ns,retry_delay_ns}`, plus
/// `<prefix>stall_ns`, `<prefix>max_queue_depth` (gauge) and
/// `<prefix>queue_depth` (histogram).  Call once per run, after all
/// parallel I/O has completed.
void export_metrics(const EngineStats& stats, obs::Registry& registry,
                    const std::string& prefix);

}  // namespace embsp::em
