// Storage backends for simulated disk drives.
//
// A Disk stores tracks through a Backend.  Implementations:
//  * MemoryBackend        — a segmented byte store; fast, used by
//    tests/benches.
//  * FileBackend          — one flat file per disk accessed at byte
//    offsets; this is the STXXL-style path used when the data genuinely
//    exceeds RAM (see examples/em_sort_file.cpp).
//  * FaultInjectingBackend (fault_backend.hpp) — decorator injecting a
//    deterministic fault schedule over any of the above.
// The paper's machine has physical disks; per the substitution rules the
// backends exercise the same code paths while letting the cost meter (the
// quantity the paper's theorems are about) stay exact.
//
// Thread-safety contract: read()/write() must be safe to call without
// external locking as long as concurrent calls do not overlap byte ranges —
// including calls that grow the backend.  The parallel I/O engine
// (ParallelDiskArray) relies on this — each disk's worker issues one-track
// transfers, and one parallel I/O touches at most one track per disk, so
// ranges never overlap within an operation.
//
// Batching: a backend that can keep several requests in flight reports
// batch_capacity() > 1 and overrides transfer_batch(); the drive's worker
// then hands it waves of queued transfers (UringBackend: one SQE wave per
// call).  Every other backend gets one call per transfer.
//
// Error contract: I/O failures are reported as em::IoError (io_error.hpp)
// so DiskArray::run_transfer can classify transient vs persistent failures
// for its retry policy.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace embsp::em {

/// One file-contiguous transfer of a batch (Backend::transfer_batch): a
/// read fills `dsts`, a write drains `srcs`, over consecutive byte ranges
/// starting at `offset`.
struct BatchIo {
  std::uint64_t offset = 0;
  std::span<const std::span<std::byte>> dsts;
  std::span<const std::span<const std::byte>> srcs;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Read `dst.size()` bytes starting at `offset`.  Reading a region that
  /// was never written yields zero bytes.
  virtual void read(std::uint64_t offset, std::span<std::byte> dst) = 0;

  /// Write `src.size()` bytes starting at `offset`, growing as needed.
  virtual void write(std::uint64_t offset, std::span<const std::byte> src) = 0;

  /// Vectored read: fill `dsts[0]`, `dsts[1]`, ... from consecutive byte
  /// ranges starting at `offset` (gather into scattered buffers).  The
  /// default decomposes into one read() per buffer, in order — decorators
  /// that count or perturb calls (FaultInjectingBackend) therefore see
  /// exactly the same call sequence as the scalar path.  FileBackend
  /// overrides this with preadv so a coalesced run of adjacent tracks
  /// costs one syscall.
  virtual void read_vec(std::uint64_t offset,
                        std::span<const std::span<std::byte>> dsts) {
    for (const auto& d : dsts) {
      read(offset, d);
      offset += d.size();
    }
  }

  /// Vectored write: store `srcs[0]`, `srcs[1]`, ... to consecutive byte
  /// ranges starting at `offset` (scatter from gathered buffers).  Default
  /// and override contract mirror read_vec.
  virtual void write_vec(std::uint64_t offset,
                         std::span<const std::span<const std::byte>> srcs) {
    for (const auto& s : srcs) {
      write(offset, s);
      offset += s.size();
    }
  }

  /// Buffers one transfer_batch() call may carry when the backend batches
  /// natively (UringBackend: its SQ entries).  The default, 1, says it does
  /// not: callers then issue one call per transfer, which is what keeps a
  /// call-indexed fault schedule (FaultInjectingBackend) in place.
  [[nodiscard]] virtual std::size_t batch_capacity() const { return 1; }

  /// Perform every transfer of `ios`: all reads (`is_read`) or all writes,
  /// over pairwise disjoint byte ranges, so they may complete in any order.
  /// When it throws, any subset may have landed; callers re-run the
  /// transfers, which is idempotent.  The default is one read_vec() or
  /// write_vec() per transfer, in order.
  virtual void transfer_batch(bool is_read, std::span<const BatchIo> ios) {
    for (const BatchIo& io : ios) {
      if (is_read) {
        read_vec(io.offset, io.dsts);
      } else {
        write_vec(io.offset, io.srcs);
      }
    }
  }

  /// Make all completed writes durable on the backing medium (no-op for
  /// memory backends).  Called from DiskArray::sync().
  virtual void flush() {}

  /// High-water mark of bytes ever touched (for disk-space reporting).
  [[nodiscard]] virtual std::uint64_t size() const = 0;

  /// Offer long-lived memory regions (bump-allocated arenas, staging pools)
  /// for backend-side acceleration.  UringBackend registers them as kernel
  /// fixed buffers (IORING_REGISTER_BUFFERS); every other backend ignores
  /// the hint and returns false.  Must be called while no I/O is in flight;
  /// a later call replaces the previous registration.
  virtual bool register_buffers(
      std::span<const std::span<std::byte>> /*regions*/) {
    return false;
  }
};

namespace detail {

/// Process-wide double-open guard shared by file-backed backends: claims
/// `path` (normalized to an absolute key, which is returned) and throws
/// PersistentIoError if a live backend already owns it — two backends
/// writing one file would silently clobber each other.
std::string claim_backend_path(const std::string& path);

/// Releases a key previously returned by claim_backend_path.
void release_backend_path(const std::string& key);

}  // namespace detail

/// In-memory backend over fixed-size segments.  Segments make concurrent
/// growth safe: a plain growable vector would reallocate (or zero-fill)
/// under a writer that is mid-memcpy on a non-overlapping range, violating
/// the backend concurrency contract.  Here segment payloads never move —
/// the directory of segment pointers is the only shared structure, and it
/// is guarded by a mutex held only while resolving/creating segments,
/// never during the copies themselves.
///
/// The vectored calls are native: a coalesced run resolves each segment it
/// crosses once (not once per track) and bumps the size high-water mark
/// once per call.  read()/write() are their one-buffer case.
class MemoryBackend final : public Backend {
 public:
  void read(std::uint64_t offset, std::span<std::byte> dst) override {
    read_vec(offset, {&dst, 1});
  }
  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    write_vec(offset, {&src, 1});
  }
  void read_vec(std::uint64_t offset,
                std::span<const std::span<std::byte>> dsts) override;
  void write_vec(std::uint64_t offset,
                 std::span<const std::span<const std::byte>> srcs) override;
  [[nodiscard]] std::uint64_t size() const override {
    return size_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kSegmentBytes = 256 * 1024;

 private:
  /// Segment holding `offset`, created zero-filled on demand if `create`;
  /// nullptr when absent and !create.
  std::byte* segment(std::uint64_t index, bool create);

  /// Walk the consecutive byte ranges of `bufs` from `offset`, calling
  /// `copy(buffer_piece, segment_piece_or_null)` once per maximal piece
  /// that stays inside one segment; returns the end offset.
  template <class Buf, class Copy>
  std::uint64_t for_each_piece(std::uint64_t offset, std::span<const Buf> bufs,
                               bool create, Copy&& copy);

  mutable std::mutex mutex_;  ///< guards segments_ (directory only)
  std::vector<std::unique_ptr<std::byte[]>> segments_;
  std::atomic<std::uint64_t> size_{0};
};

/// Flat-file backend on a raw file descriptor.  All accesses go through
/// pread/pwrite at explicit 64-bit offsets, so the backend carries no seek
/// state, is safe for concurrent non-overlapping transfers, and supports
/// sparse files larger than 2 GiB.  With `keep`, the backing file survives
/// destruction AND re-opening an existing file preserves its contents
/// (only freshly created files are truncated); without `keep` the file is
/// scratch: truncated on open, removed on destruction.  Opening a path
/// that is already held by a live FileBackend in this process throws —
/// two backends writing one file would silently clobber each other.  With
/// `sync_writes`, the file is opened O_DSYNC so every write reaches the
/// device before returning — used by benches to measure genuine
/// device-level I/O overlap.
class FileBackend final : public Backend {
 public:
  explicit FileBackend(std::string path, bool keep = false,
                       bool sync_writes = false);
  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  void read(std::uint64_t offset, std::span<std::byte> dst) override;
  void write(std::uint64_t offset, std::span<const std::byte> src) override;
  void read_vec(std::uint64_t offset,
                std::span<const std::span<std::byte>> dsts) override;
  void write_vec(std::uint64_t offset,
                 std::span<const std::span<const std::byte>> srcs) override;
  void flush() override;
  [[nodiscard]] std::uint64_t size() const override {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  std::string path_;
  std::string registry_key_;
  int fd_ = -1;
  std::atomic<std::uint64_t> size_{0};
  bool keep_ = false;
};

/// Factory so DiskArray can create one backend per drive.
using BackendFactory =
    std::unique_ptr<Backend> (*)(std::size_t disk_index, void* user);

std::unique_ptr<Backend> make_memory_backend();
std::unique_ptr<Backend> make_file_backend(const std::string& path,
                                           bool keep = false,
                                           bool sync_writes = false);

}  // namespace embsp::em
