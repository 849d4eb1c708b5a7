// Kernel-native file backend on io_uring (raw syscalls, no liburing).
//
// UringBackend is the third disk substrate next to MemoryBackend and
// FileBackend: one submission/completion ring per backend instance — i.e.
// one ring per drive, since DiskArray creates one backend per disk — and
// every transfer maps onto SQEs reaped as CQEs:
//
//   * scalar read()/write()    — one IORING_OP_READ / IORING_OP_WRITE SQE,
//                                one io_uring_enter(GETEVENTS);
//   * read_vec()/write_vec()   — one SQE per buffer at consecutive offsets,
//                                submitted as waves of up to the ring size
//                                and reaped with one enter each, so a
//                                coalesced run of adjacent tracks costs one
//                                syscall per wave like preadv, and scales
//                                past IOV_MAX;
//   * transfer_batch()         — every transfer of a batch (one direction,
//                                disjoint ranges) in the same wave, so the
//                                drive sees them together: the queue depth
//                                ParallelDiskArray's worker builds up for
//                                this ring (batch_capacity() = SQ entries).
//                                The calls above are its one-transfer case;
//   * flush()                  — an IORING_OP_FSYNC (datasync) SQE.
//
// Fixed buffers: register_buffers() hands bump-allocated arenas (or any
// long-lived staging region) to IORING_REGISTER_BUFFERS; transfers whose
// buffer lies entirely inside a registered region are submitted as
// IORING_OP_READ_FIXED / IORING_OP_WRITE_FIXED, extending the zero-copy
// path into the kernel (no per-op get_user_pages).
//
// O_DIRECT: with UringConfig::direct the file is opened O_DIRECT and reads
// and writes bypass the page cache, so benches measure device behavior.
// Direct I/O requires offset, length and buffer address aligned to
// `alignment` (4096 covers every mainstream filesystem).  A transfer that
// is not aligned bounces through an internal aligned 1 MiB staging buffer,
// and a vectored run bounces whole: its file-contiguous buffers are
// gathered into (or scattered out of) aligned chunks, one SQE and one
// enter per chunk, so a run of N tracks costs ceil(bytes / 1 MiB) device
// requests, not N.  Writes read-modify-write only the run's unaligned
// first and last alignment unit.  In a batch, a file-aligned transfer from
// a misaligned buffer bounces through its own slice of the staging buffer
// and rides the shared wave, which is submitted early when the next slice
// would not fit — the staging never grows with the batch; a transfer that
// needs read-modify-write (unaligned offset or length) bounces alone.
// This keeps the Backend byte-semantics identical to FileBackend at a copy
// cost recorded in UringBackendStats::bounced_bytes.  Filesystems that
// reject O_DIRECT (tmpfs) degrade gracefully: the open retries without the
// flag and direct_io() reports false.
//
// Fallback: uring_supported() probes the kernel once (io_uring_setup);
// make_uring_file_backend() returns a plain FileBackend when the probe
// fails, and the whole translation unit compiles to the fallback when
// <linux/io_uring.h> is absent — callers never need #ifdefs.
//
// Concurrency: rings are single-issuer.  A mutex serializes calls, but by
// construction each backend belongs to one Disk whose transfers are issued
// by one thread (the serial engine's caller or the drive's worker under
// ParallelDiskArray/IoEngine::uring), so the lock is uncontended.
// register_buffers() must be called while no I/O is in flight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "em/backend.hpp"
#include "obs/histogram.hpp"

namespace embsp::em {

/// Tuning knobs of one ring; defaults suit one-drive-per-ring use.
struct UringConfig {
  /// SQ entries requested from io_uring_setup (kernel rounds up to a power
  /// of two).  The ring's SQ entries are also its batch_capacity(): the
  /// most tracks a drive worker puts in one wave, i.e. the drive's queue
  /// depth.
  unsigned entries = 64;
  /// Open the backing file O_DIRECT (page-cache bypass); silently degraded
  /// to buffered I/O on filesystems that refuse it (see direct_io()).
  bool direct = false;
  /// Offset/length/address granularity O_DIRECT transfers must satisfy;
  /// unaligned transfers bounce through the staging buffer.
  std::size_t alignment = 4096;
  /// Open O_DSYNC so every write reaches the device before its CQE.
  bool sync_writes = false;
};

/// Ring-level execution counters of one UringBackend.  Single-writer (the
/// issuing thread); read when quiescent.  DiskArray::harvest_backend_stats
/// folds them into EngineStats::uring.
struct UringBackendStats {
  std::uint64_t sqes = 0;         ///< SQEs submitted
  std::uint64_t enters = 0;       ///< io_uring_enter syscalls
  std::uint64_t fixed_ops = 0;    ///< READ_FIXED/WRITE_FIXED SQEs
  std::uint64_t bounced_bytes = 0;///< bytes copied through O_DIRECT staging
  obs::LogHistogram ring_depth;   ///< SQEs in flight per enter
  obs::LogHistogram completion_ns;///< submit-to-reap latency per wave
};

/// One-time runtime probe: can this kernel set up an io_uring instance?
/// (false on pre-5.1 kernels, seccomp-filtered containers, or when the
/// translation unit was built without <linux/io_uring.h>).
[[nodiscard]] bool uring_supported();

class UringBackend final : public Backend {
 public:
  /// Opens `path` with FileBackend's keep/truncate semantics (and the same
  /// process-wide double-open guard) and sets up the ring.  Throws
  /// PersistentIoError when io_uring is unavailable — use
  /// make_uring_file_backend() for the graceful-fallback path.
  explicit UringBackend(std::string path, bool keep = false,
                        UringConfig cfg = {});
  ~UringBackend() override;

  UringBackend(const UringBackend&) = delete;
  UringBackend& operator=(const UringBackend&) = delete;

  void read(std::uint64_t offset, std::span<std::byte> dst) override;
  void write(std::uint64_t offset, std::span<const std::byte> src) override;
  void read_vec(std::uint64_t offset,
                std::span<const std::span<std::byte>> dsts) override;
  void write_vec(std::uint64_t offset,
                 std::span<const std::span<const std::byte>> srcs) override;
  /// The ring's SQ entries: a wave never needs more than one enter.
  [[nodiscard]] std::size_t batch_capacity() const override;
  void transfer_batch(bool is_read, std::span<const BatchIo> ios) override;
  void flush() override;
  [[nodiscard]] std::uint64_t size() const override;

  /// Registers long-lived memory regions as kernel fixed buffers; replaces
  /// any previous registration.  Returns false when the kernel refuses
  /// (ops then fall back to plain READ/WRITE SQEs — never an error).
  bool register_buffers(std::span<const std::span<std::byte>> regions) override;

  /// Whether O_DIRECT is actually in effect (requested AND accepted by the
  /// filesystem).
  [[nodiscard]] bool direct_io() const;

  [[nodiscard]] const UringBackendStats& uring_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// UringBackend when the kernel supports io_uring, FileBackend otherwise
/// (same path/keep semantics; cfg.sync_writes maps to O_DSYNC either way).
/// This is the runtime face of the graceful-fallback contract.
std::unique_ptr<Backend> make_uring_file_backend(const std::string& path,
                                                 bool keep = false,
                                                 UringConfig cfg = {});

/// Per-drive scratch-file factory for SimConfig::io_engine == uring when
/// the caller supplied no backend factory: drive d gets a scratch file
/// under `dir` (std::filesystem::temp_directory_path() when empty) named
/// from `tag`, the pid and a process-unique run id, so concurrent
/// simulations never collide.  Each backend falls back to FileBackend when
/// io_uring is unavailable.
std::function<std::unique_ptr<Backend>(std::size_t)>
make_uring_scratch_factory(std::string dir, std::string tag,
                           UringConfig cfg = {});

}  // namespace embsp::em
