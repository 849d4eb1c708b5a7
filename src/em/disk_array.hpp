// The D-disk array of one EM-BSP processor, with the parallel-I/O discipline
// of §3 enforced by construction:
//
//   "Each processor can use all of its D disk drives concurrently, and
//    transfer D x B items ... in a single I/O operation and at cost G.  In
//    such an operation, we permit only one track per disk to be accessed."
//
// Every read/write goes through one parallel I/O operation: either the
// blocking parallel_read()/parallel_write(), or the asynchronous
// submit_read()/submit_write() + wait() pair that the pipelined simulator
// uses to overlap transfers with compute.  The blocking calls are literally
// submit+wait, so both paths meter identical model cost.  A call that names
// the same disk twice throws — higher layers cannot accidentally serialize
// disk accesses without it showing up in the operation count.
//
// Async contract:
//  * submit_read/submit_write validate the op set (distinct disks), start
//    the transfers, and return a completion token;
//  * wait(token) blocks until the operation settles, charges IoStats (one
//    parallel I/O) **at completion, only on success**, and rethrows the
//    lowest-transfer-index error on failure (deterministic across engines);
//  * wait_all() settles every outstanding token in submission order;
//    drain() does the same but swallows errors — the quiescence point the
//    simulator's rollback path uses before restoring snapshots;
//  * tokens, submissions and waits belong to ONE issuing thread per array
//    (the simulators' coordinator / per-proc worker); only the transfers
//    themselves run concurrently.
//  * distinct in-flight operations MAY touch the same disk: each drive
//    executes its transfers in submission order (FIFO per drive), so the
//    per-disk sequence of track accesses — and therefore any per-disk
//    deterministic fault schedule — is the submission order, regardless of
//    how operations interleave in time.
//
// Two execution engines implement the same interface:
//  * DiskArray          — serial: start() runs the transfers back-to-back
//                         on the issuing thread (submission blocks; wait is
//                         then a bookkeeping step — the model cost is
//                         identical, only wall-clock differs);
//  * ParallelDiskArray  — a persistent worker pool, one worker per drive,
//                         with a FIFO task queue per worker: submissions
//                         return immediately and the D transfers of each
//                         operation proceed concurrently
//                         (parallel_disk_array.hpp).
// Select via make_disk_array(IoEngine, ...).  Model-cost accounting
// (IoStats) is engine-independent; EngineStats records what the engine did
// with the hardware (per-disk busy time, issuing-thread stall, queue depth).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "em/disk.hpp"
#include "em/io_error.hpp"
#include "em/io_stats.hpp"
#include "util/rng.hpp"

namespace embsp::em {

struct ReadOp {
  std::uint32_t disk;
  std::uint64_t track;
  std::span<std::byte> dst;  ///< exactly block_size bytes
};

struct WriteOp {
  std::uint32_t disk;
  std::uint64_t track;
  std::span<const std::byte> src;  ///< exactly block_size bytes
};

/// How a disk array executes the per-disk transfers of one parallel I/O.
enum class IoEngine {
  serial,    ///< issuing thread performs transfers back-to-back
  parallel,  ///< persistent per-disk workers execute them concurrently
  uring,     ///< per-disk workers issuing kernel-native io_uring transfers
             ///< (scheduling as `parallel`; drives default to UringBackend
             ///< scratch files, with runtime fallback to FileBackend —
             ///< see uring_backend.hpp)
};

/// Resilience knobs of a disk array, applied identically by both engines.
struct DiskArrayOptions {
  /// Retry discipline for transient IoErrors raised by a per-disk transfer
  /// (see run_transfer).  max_attempts == 1 disables retrying.
  RetryPolicy retry{};
  /// Keep and verify a 64-bit checksum per written track; mismatches on
  /// read surface as CorruptBlockError (and are retried like any other
  /// transient fault, which heals read-path bit flips).
  bool verify_checksums = false;
  /// Merge runs of adjacent tracks inside a *batched* submission into one
  /// vectored backend transfer per run (preadv/pwritev on FileBackend).
  /// Purely physical: model IoStats, per-track checksums, and Disk
  /// read/write counters are charged per track either way.  The simulators
  /// turn this off when fault injection is active, because retrying a
  /// multi-track run would replay backend calls for tracks that already
  /// succeeded and shift the deterministic fault schedule.
  bool coalesce = true;
};

class DiskArray {
 public:
  /// Completion token for an asynchronous parallel I/O operation.  Tokens
  /// are handed out in submission order; wait()ing a token that was already
  /// settled (by wait, wait_all or drain) is a no-op.
  using IoToken = std::uint64_t;

  /// Creates `num_disks` drives with the given block size.  `make_backend`
  /// is invoked once per drive; pass nullptr for in-memory backends.
  DiskArray(std::size_t num_disks, std::size_t block_size,
            std::function<std::unique_ptr<Backend>(std::size_t)> make_backend =
                nullptr,
            std::uint64_t capacity_tracks_per_disk = 0,
            DiskArrayOptions options = {});
  virtual ~DiskArray();

  DiskArray(const DiskArray&) = delete;
  DiskArray& operator=(const DiskArray&) = delete;

  /// One parallel I/O operation reading up to one track per disk; blocks
  /// until complete (submit_read + wait).  Empty op lists are rejected
  /// (they would be free I/O).
  void parallel_read(std::span<const ReadOp> ops);

  /// One parallel I/O operation writing up to one track per disk; blocks
  /// until complete (submit_write + wait).
  void parallel_write(std::span<const WriteOp> ops);

  /// Start one parallel read without waiting for it.  The destination
  /// buffers must stay alive (and untouched) until the token is settled.
  IoToken submit_read(std::span<const ReadOp> ops);

  /// Start one parallel write without waiting for it.  The source buffers
  /// must stay alive (and unmodified) until the token is settled.
  IoToken submit_write(std::span<const WriteOp> ops);

  /// Start a *batched* read: `ops` may name the same disk several times
  /// (per-disk execution order = op order), and the batch is pre-declared
  /// to cost `cycles` parallel I/O operations — the number of D-block
  /// cycles Algorithm 1 would schedule for it, which must be at least the
  /// per-disk op count (one track per disk per cycle; validated).  Model
  /// IoStats charge exactly `cycles` parallel_ios when the token settles
  /// successfully.  With options.coalesce, runs of adjacent tracks on one
  /// disk execute as a single vectored backend transfer; per-track
  /// accounting (Disk counters, checksums, IoStats blocks/bytes) is
  /// unchanged, so the disk image and model costs are byte-identical to
  /// submitting the equivalent sequence of ≤D-op cycles.
  IoToken submit_read_batch(std::span<const ReadOp> ops, std::uint64_t cycles);

  /// Batched write; mirror of submit_read_batch.
  IoToken submit_write_batch(std::span<const WriteOp> ops,
                             std::uint64_t cycles);

  /// Blocking forms of the batched submissions (submit + wait).
  void parallel_read_batch(std::span<const ReadOp> ops, std::uint64_t cycles);
  void parallel_write_batch(std::span<const WriteOp> ops,
                            std::uint64_t cycles);

  /// Block until the given operation has settled.  On success charges one
  /// parallel I/O to IoStats; on failure rethrows the error of the lowest
  /// transfer index without charging anything.  Settled/unknown tokens are
  /// a no-op.
  void wait(IoToken token);

  /// Settle every outstanding token in submission order; rethrows the
  /// first error encountered (after settling the rest).
  void wait_all();

  /// Quiesce: settle every outstanding token, swallowing errors (successful
  /// operations are still charged).  Rollback paths call this before
  /// restoring snapshots so no in-flight transfer can touch a staging
  /// buffer — or the disk image — after the restore.  Swallowed errors are
  /// not lost: each one bumps EngineStats::drain_errors and the first is
  /// kept as EngineStats::last_drain_error{_kind}, so recovery-path I/O
  /// failures stay visible in the obs snapshot.
  void drain() noexcept;

  /// Tokens submitted but not yet settled.  Quiescence invariant checks
  /// (tests, simulator abort paths) assert this returns 0 after drain().
  [[nodiscard]] std::size_t pending_ops() const { return pending_.size(); }

  /// Offer long-lived buffer regions (e.g. the simulator's bump-allocated
  /// staging arenas) to every drive's backend for registration as kernel
  /// fixed buffers.  Returns the number of drives whose backend accepted
  /// (0 for memory/file backends — the hint is free).  Call while no I/O
  /// is in flight.
  std::size_t register_io_buffers(
      std::span<const std::span<std::byte>> regions);

  /// Fold backend-level execution stats (UringBackend ring counters) into
  /// EngineStats::uring.  Call at a quiescence point before reading
  /// engine_stats(); repeated calls re-snapshot rather than double-count.
  void harvest_backend_stats();

  /// Barrier: returns once every transfer issued so far has completed and
  /// the backends have flushed buffered data to their medium.  Implies
  /// wait_all(), so outstanding async errors surface here.
  virtual void sync();

  [[nodiscard]] std::size_t num_disks() const { return disks_.size(); }
  [[nodiscard]] std::size_t block_size() const { return block_size_; }

  [[nodiscard]] Disk& disk(std::size_t i) { return *disks_[i]; }
  [[nodiscard]] const Disk& disk(std::size_t i) const { return *disks_[i]; }

  [[nodiscard]] const IoStats& stats() const { return stats_; }
  /// Engine execution stats; valid whenever no parallel I/O is in flight.
  [[nodiscard]] const EngineStats& engine_stats() const { return engine_; }
  void reset_stats() {
    stats_ = IoStats{};
    engine_.reset();
  }
  /// Pre-load the model-cost accumulator with the stats a checkpointed run
  /// had accrued, so a resumed run's stats()/since() deltas and final
  /// totals match an uninterrupted run's.  Call before any I/O is issued.
  void seed_stats(const IoStats& s) { stats_ = s; }

  /// Max tracks used over all drives — the per-disk space bound of Lemma 1.
  [[nodiscard]] std::uint64_t max_tracks_used() const;

 protected:
  /// One per-disk transfer of a parallel I/O operation: the range
  /// [first, first + tracks) of its operation's span table, holding tracks
  /// `track`, `track + 1`, ... of `disk`.  A run of more than one track
  /// (coalesced) executes as one vectored backend call on that subspan.
  struct Transfer {
    std::uint32_t disk = 0;
    std::uint64_t track = 0;
    std::size_t first = 0;
    std::size_t tracks = 1;
  };

  /// One in-flight parallel I/O operation.  Transfer completions are
  /// recorded per transfer index so the error rethrown at wait() is the
  /// lowest-index one, independent of completion order.
  struct PendingOp {
    std::vector<Transfer> transfers;
    /// The operation's buffers, grouped by transfer (a read fills `dst`,
    /// a write fills `src`); transfers name ranges of it.
    std::vector<std::span<std::byte>> dst;
    std::vector<std::span<const std::byte>> src;
    bool is_read = false;
    std::uint64_t cycles = 1;  ///< parallel I/Os charged when it settles
    std::uint64_t blocks = 0;
    std::uint64_t bytes = 0;
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining = 0;                 ///< guarded by m
    bool done = false;                         ///< guarded by m
    std::vector<std::exception_ptr> errors;    ///< slot i = transfers[i]
    /// Mark transfer `index` finished (with `error` if it threw); wakes the
    /// waiter when the whole operation has settled.
    void complete(std::size_t index, std::exception_ptr error);
  };

  /// Begin executing an already-validated operation.  The serial engine
  /// runs the transfers back-to-back on the calling thread, stopping at the
  /// first failure (remaining transfers are marked skipped-by-error — the
  /// historical serial semantics).  ParallelDiskArray overrides this to
  /// enqueue one task per transfer on the owning drive's FIFO worker.
  virtual void start(const std::shared_ptr<PendingOp>& op);

  /// Perform transfer `index` of `op` against the owning Disk, retrying
  /// retryable IoErrors per the array's RetryPolicy (with per-disk
  /// jittered backoff), and record per-disk engine stats including
  /// retries/giveups.  Safe to call concurrently for *different* disks.
  void run_transfer(const PendingOp& op, std::size_t index);

  EngineStats engine_;

 private:
  void check_distinct(std::span<const std::uint32_t> disks) const;
  template <class Op>
  IoToken submit(std::span<const Op> ops, bool is_read);
  template <class Op>
  IoToken submit_batch(std::span<const Op> ops, std::uint64_t cycles,
                       bool is_read);
  IoToken launch(std::shared_ptr<PendingOp> op, std::size_t width);
  /// Block until `op` settles; charge stats / rethrow per the wait()
  /// contract.  With `swallow` set, errors are discarded instead.
  void settle(PendingOp& op, bool swallow);

  std::size_t block_size_;
  DiskArrayOptions options_;
  std::vector<std::unique_ptr<Disk>> disks_;
  std::vector<util::Rng> jitter_;  ///< per-disk backoff jitter streams
  IoStats stats_;
  mutable std::vector<std::uint8_t> seen_;  // scratch for distinctness check
  std::vector<std::size_t> disk_fill_;  // batch scratch: per-disk cursor
  std::vector<std::size_t> by_disk_;    // batch scratch: op indices by disk
  IoToken next_token_ = 1;
  std::map<IoToken, std::shared_ptr<PendingOp>> pending_;  // issuing thread
};

/// Worker-pool engine: see parallel_disk_array.hpp.  Declared here so the
/// factory can live next to the interface.
std::unique_ptr<DiskArray> make_disk_array(
    IoEngine engine, std::size_t num_disks, std::size_t block_size,
    std::function<std::unique_ptr<Backend>(std::size_t)> make_backend =
        nullptr,
    std::uint64_t capacity_tracks_per_disk = 0, DiskArrayOptions options = {});

}  // namespace embsp::em
