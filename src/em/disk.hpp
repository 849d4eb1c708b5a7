// A single simulated disk drive (§3): a sequence of tracks, each storing
// exactly one block of B bytes, addressed by track number.
//
// With `verify_checksums`, the drive keeps a 64-bit checksum per written
// track (in-memory metadata, the same class as the linked buckets' pointer
// tables) and verifies it on every read: silent bit-rot surfaces as a
// classified CorruptBlockError instead of wrong data.  The checksum table
// never touches the backend, so enabling verification leaves the on-disk
// image byte-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "em/backend.hpp"
#include "util/checksum.hpp"

namespace embsp::em {

class Disk {
 public:
  /// `block_size` is B in bytes.  `capacity_tracks` == 0 means unbounded
  /// (the backend grows on demand); a nonzero capacity makes out-of-range
  /// accesses throw, which the tests use to pin down space bounds.
  Disk(std::size_t block_size, std::unique_ptr<Backend> backend,
       std::uint64_t capacity_tracks = 0, bool verify_checksums = false);

  void read_track(std::uint64_t track, std::span<std::byte> dst);
  void write_track(std::uint64_t track, std::span<const std::byte> src);

  /// Read `dsts.size()` consecutive tracks starting at `first_track` with a
  /// single vectored backend transfer.  Per-track accounting is unchanged:
  /// reads() advances by dsts.size() and each track's checksum is verified
  /// individually, so the only observable difference from a read_track loop
  /// is the number of backend calls.
  void read_tracks(std::uint64_t first_track,
                   std::span<const std::span<std::byte>> dsts);

  /// Write `srcs.size()` consecutive tracks starting at `first_track`;
  /// mirror of read_tracks.
  void write_tracks(std::uint64_t first_track,
                    std::span<const std::span<const std::byte>> srcs);

  /// Throws what a transfer of `len` bytes at `track` would throw before
  /// reaching the backend: a length other than one block, or a track beyond
  /// the capacity.
  void check(std::uint64_t track, std::size_t len) const;

  /// Transfer `runs` — runs of whole tracks (offsets at track boundaries,
  /// one block per buffer), every track already check()ed, pairwise
  /// disjoint — with one Backend::transfer_batch call.  Per-track accounting
  /// follows the call, run by run in order, exactly as read_tracks /
  /// write_tracks charge it: reads()/writes(), tracks_used(), and each
  /// track's checksum, recorded (writes) or verified (reads, throwing
  /// CorruptBlockError at the first mismatch).
  void transfer_batch(bool is_read, std::span<const BatchIo> runs);

  /// Flush buffered writes to the backend's medium (DiskArray::sync).
  void flush() { backend_->flush(); }

  /// The storage substrate behind this drive — used by DiskArray to pass
  /// through buffer registrations and to harvest engine-specific stats
  /// (e.g. UringBackend ring counters).
  [[nodiscard]] Backend& backend() { return *backend_; }
  [[nodiscard]] const Backend& backend() const { return *backend_; }

  [[nodiscard]] std::size_t block_size() const { return block_size_; }
  [[nodiscard]] std::uint64_t capacity_tracks() const { return capacity_; }
  [[nodiscard]] bool verify_checksums() const { return verify_; }

  /// Highest track ever written + 1 — the disk-space usage the space bounds
  /// of Lemma 1 / Theorem 1 talk about.
  [[nodiscard]] std::uint64_t tracks_used() const { return tracks_used_; }

  /// Per-drive transfer counters (used to verify even load across drives).
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }

  /// Reads that failed checksum verification (each throws; retried reads
  /// that then pass do not undo the count).
  [[nodiscard]] std::uint64_t checksum_failures() const {
    return checksum_failures_;
  }

  /// Off-model track access for the checkpoint subsystem: reads/writes the
  /// medium without touching reads_/writes_ counters or checksum
  /// verification (restore_track still refreshes the checksum table so
  /// later verified reads pass).  Callers must hand these the *unwrapped*
  /// backend path — see FaultInjectingBackend::inner() — so checkpoint
  /// traffic consumes no fault-schedule draws.  Model IoStats are charged
  /// by the DiskArray layer, which these bypass entirely: checkpointing is
  /// outside the EM-BSP cost model, like the allocator's metadata.
  void peek_track(std::uint64_t track, std::span<std::byte> dst,
                  Backend& raw) {
    check(track, dst.size());
    raw.read(track * block_size_, dst);
  }
  void restore_track(std::uint64_t track, std::span<const std::byte> src,
                     Backend& raw) {
    check(track, src.size());
    raw.write(track * block_size_, src);
    tracks_used_ = std::max(tracks_used_, track + 1);
    if (verify_) {
      if (track >= has_sum_.size()) {
        has_sum_.resize(track + 1, 0);
        sums_.resize(track + 1, 0);
      }
      sums_[track] = util::checksum64(src);
      has_sum_[track] = 1;
    }
  }

  /// Restore the tracks_used() high-water mark on resume (the checkpoint
  /// records it; a fresh Disk starts at 0).
  void note_tracks_used(std::uint64_t used) {
    tracks_used_ = std::max(tracks_used_, used);
  }

 private:
  /// Accounting of a completed run: counters, high-water, checksums.
  void note_read(std::uint64_t first_track,
                 std::span<const std::span<std::byte>> dsts);
  void note_written(std::uint64_t first_track,
                    std::span<const std::span<const std::byte>> srcs);

  std::size_t block_size_;
  std::unique_ptr<Backend> backend_;
  std::uint64_t capacity_;
  bool verify_;
  std::uint64_t tracks_used_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t checksum_failures_ = 0;
  std::vector<std::uint64_t> sums_;     ///< per-track checksum (if verify_)
  std::vector<std::uint8_t> has_sum_;   ///< track ever written
};

}  // namespace embsp::em
