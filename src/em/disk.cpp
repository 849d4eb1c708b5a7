#include "em/disk.hpp"

#include <stdexcept>
#include <string>

#include "em/io_error.hpp"
#include "util/checksum.hpp"

namespace embsp::em {

Disk::Disk(std::size_t block_size, std::unique_ptr<Backend> backend,
           std::uint64_t capacity_tracks, bool verify_checksums)
    : block_size_(block_size),
      backend_(std::move(backend)),
      capacity_(capacity_tracks),
      verify_(verify_checksums) {
  if (block_size_ == 0) {
    throw std::invalid_argument("Disk: block size must be > 0");
  }
  if (backend_ == nullptr) {
    throw std::invalid_argument("Disk: backend must not be null");
  }
}

void Disk::check(std::uint64_t track, std::size_t len) const {
  if (len != block_size_) {
    throw std::invalid_argument(
        "Disk: transfer must be exactly one block (" +
        std::to_string(block_size_) + " bytes), got " + std::to_string(len));
  }
  if (capacity_ != 0 && track >= capacity_) {
    throw std::out_of_range("Disk: track " + std::to_string(track) +
                            " beyond capacity " + std::to_string(capacity_));
  }
}

void Disk::read_track(std::uint64_t track, std::span<std::byte> dst) {
  check(track, dst.size());
  backend_->read(track * block_size_, dst);
  note_read(track, {&dst, 1});
}

void Disk::write_track(std::uint64_t track, std::span<const std::byte> src) {
  check(track, src.size());
  backend_->write(track * block_size_, src);
  note_written(track, {&src, 1});
}

void Disk::read_tracks(std::uint64_t first_track,
                       std::span<const std::span<std::byte>> dsts) {
  if (dsts.empty()) return;
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    check(first_track + i, dsts[i].size());
  }
  backend_->read_vec(first_track * block_size_, dsts);
  note_read(first_track, dsts);
}

void Disk::write_tracks(std::uint64_t first_track,
                        std::span<const std::span<const std::byte>> srcs) {
  // An empty run touches nothing; without this return, note_written would
  // wrap at track 0 and shrink the checksum table to nothing.
  if (srcs.empty()) return;
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    check(first_track + i, srcs[i].size());
  }
  backend_->write_vec(first_track * block_size_, srcs);
  note_written(first_track, srcs);
}

void Disk::transfer_batch(bool is_read, std::span<const BatchIo> runs) {
  backend_->transfer_batch(is_read, runs);
  for (const BatchIo& r : runs) {
    if (is_read) {
      note_read(r.offset / block_size_, r.dsts);
    } else if (!r.srcs.empty()) {
      note_written(r.offset / block_size_, r.srcs);
    }
  }
}

void Disk::note_read(std::uint64_t first_track,
                     std::span<const std::span<std::byte>> dsts) {
  reads_ += dsts.size();
  if (!verify_) return;
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    const std::uint64_t track = first_track + i;
    if (track < has_sum_.size() && has_sum_[track] != 0) {
      const std::uint64_t sum = util::checksum64(dsts[i]);
      if (sum != sums_[track]) {
        ++checksum_failures_;
        throw CorruptBlockError("Disk: checksum mismatch on track " +
                                std::to_string(track) +
                                " (silent corruption detected)");
      }
    }
  }
}

void Disk::note_written(std::uint64_t first_track,
                        std::span<const std::span<const std::byte>> srcs) {
  writes_ += srcs.size();
  tracks_used_ = std::max(tracks_used_, first_track + srcs.size());
  if (!verify_) return;
  const std::uint64_t last = first_track + srcs.size() - 1;
  if (last >= has_sum_.size()) {
    has_sum_.resize(last + 1, 0);
    sums_.resize(last + 1, 0);
  }
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    sums_[first_track + i] = util::checksum64(srcs[i]);
    has_sum_[first_track + i] = 1;
  }
}

}  // namespace embsp::em
