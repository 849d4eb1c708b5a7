#include "sim/context_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "em/fault_backend.hpp"

namespace embsp::sim {

namespace {
constexpr std::size_t kLenPrefix = sizeof(std::uint32_t);
}

ContextStore::ContextStore(em::DiskArray& disks, em::TrackAllocators& alloc,
                           std::uint32_t num_contexts,
                           std::size_t max_context_bytes, bool journaled)
    : disks_(&disks),
      num_contexts_(num_contexts),
      max_context_bytes_(max_context_bytes),
      block_size_(disks.block_size()),
      blocks_((max_context_bytes + kLenPrefix + block_size_ - 1) /
              block_size_),
      band_((blocks_ + disks.num_disks() - 1) / disks.num_disks()),
      journaled_(journaled),
      lengths_(num_contexts, 0) {
  if (num_contexts == 0) {
    throw std::invalid_argument("ContextStore: need at least one context");
  }
  if (max_context_bytes == 0) {
    throw std::invalid_argument("ContextStore: mu must be > 0");
  }
  // Context j occupies its own band of `band_` tracks on every disk; its
  // i-th block lives on disk (j + i) mod D — the rotation keeps partial
  // (length-limited) accesses of consecutive contexts spread over all
  // drives, preserving the fully parallel group I/O of §5.1.  Journaled
  // mode reserves a second bank of the same shape right after the first.
  start_tracks_ = alloc.reserve_striped(static_cast<std::uint64_t>(band_) *
                                        num_contexts *
                                        (journaled_ ? 2 : 1));
  if (journaled_) {
    bank_.assign(num_contexts, 0);
    dirty_.assign(num_contexts, 0);
    pending_lengths_.assign(num_contexts, 0);
  }
}

std::pair<std::uint32_t, std::uint64_t> ContextStore::location_in_bank(
    std::uint32_t ctx, std::uint64_t block, std::uint8_t bank) const {
  const std::uint64_t d = disks_->num_disks();
  const auto disk = static_cast<std::uint32_t>((ctx + block) % d);
  return {disk, band_start(disk, ctx, bank) + block / d};
}

std::pair<std::uint32_t, std::uint64_t> ContextStore::location(
    std::uint32_t ctx, std::uint64_t block) const {
  return location_in_bank(ctx, block, journaled_ ? bank_[ctx] : 0);
}

void ContextStore::commit_epoch() {
  ++epoch_;
  if (!journaled_) return;
  for (std::uint32_t c = 0; c < num_contexts_; ++c) {
    if (dirty_[c] != 0) {
      bank_[c] ^= 1;
      lengths_[c] = pending_lengths_[c];
      dirty_[c] = 0;
    }
  }
}

void ContextStore::discard_epoch() {
  if (!journaled_) return;
  for (std::uint32_t c = 0; c < num_contexts_; ++c) dirty_[c] = 0;
}

void ContextStore::export_context(std::uint32_t ctx, util::Writer& w) {
  if (ctx >= num_contexts_) {
    throw std::out_of_range("ContextStore::export_context: context index");
  }
  const std::uint8_t bank = journaled_ ? bank_[ctx] : 0;
  const std::uint32_t len = lengths_[ctx];
  w.write<std::uint8_t>(bank);
  w.write<std::uint32_t>(len);
  const std::uint64_t used = blocks_for(len);
  std::vector<std::byte> slot(used * block_size_);
  for (std::uint64_t b = 0; b < used; ++b) {
    const auto [disk, track] = location_in_bank(ctx, b, bank);
    em::Disk& d = disks_->disk(disk);
    d.peek_track(track,
                 std::span<std::byte>(slot).subspan(b * block_size_,
                                                    block_size_),
                 em::unwrap_faults(d.backend()));
  }
  std::uint32_t stored = 0;
  std::memcpy(&stored, slot.data(), kLenPrefix);
  if (stored != len) {
    throw std::runtime_error(
        "ContextStore::export_context: slot of processor " +
        std::to_string(ctx) + " stores length " + std::to_string(stored) +
        ", metadata says " + std::to_string(len));
  }
  w.write_bytes(std::span<const std::byte>(slot).subspan(kLenPrefix, len));
}

void ContextStore::restore_context(std::uint32_t ctx, util::Reader& r) {
  if (ctx >= num_contexts_) {
    throw std::out_of_range("ContextStore::restore_context: context index");
  }
  const auto bank = r.read<std::uint8_t>();
  const auto len = r.read<std::uint32_t>();
  if (len > max_context_bytes_ || bank > 1 || (bank != 0 && !journaled_)) {
    throw std::runtime_error(
        "ContextStore::restore_context: corrupt record for processor " +
        std::to_string(ctx));
  }
  const auto payload = r.read_bytes(len);
  const std::uint64_t used = blocks_for(len);
  std::vector<std::byte> slot(used * block_size_, std::byte{0});
  std::memcpy(slot.data(), &len, kLenPrefix);
  std::memcpy(slot.data() + kLenPrefix, payload.data(), len);
  for (std::uint64_t b = 0; b < used; ++b) {
    const auto [disk, track] = location_in_bank(ctx, b, bank);
    em::Disk& d = disks_->disk(disk);
    d.restore_track(track,
                    std::span<const std::byte>(slot).subspan(
                        b * block_size_, block_size_),
                    em::unwrap_faults(d.backend()));
  }
  if (journaled_) bank_[ctx] = bank;
  lengths_[ctx] = len;
}

template <class Push>
std::uint64_t ContextStore::for_each_block(const PendingIo& io,
                                           std::uint8_t bank_flip,
                                           Push&& push) const {
  const auto num_disks = static_cast<std::uint32_t>(disks_->num_disks());
  const std::size_t stride = num_disks * block_size_;
  const std::uint32_t first_mod = io.first % num_disks;
  std::uint64_t deepest = 0;
  for (std::uint32_t d = 0; d < num_disks; ++d) {
    std::uint64_t on_disk = 0;
    // Context j's first block on disk d is (d - j) mod D: start at
    // io.first and step it down by one per following context.
    std::uint32_t b0 = (d + num_disks - first_mod) % num_disks;
    for (std::uint32_t i = 0; i < io.count; ++i) {
      const std::uint64_t used = blocks_for(io.len[i]);
      if (b0 < used) {
        const std::uint32_t ctx = io.first + i;
        const std::uint8_t bank =
            journaled_ ? static_cast<std::uint8_t>(bank_[ctx] ^ bank_flip) : 0;
        std::uint64_t track = band_start(d, ctx, bank);
        std::size_t offset = io.ctx_offset[i] + b0 * block_size_;
        for (std::uint64_t b = b0; b < used; b += num_disks) {
          push(d, track++, offset);
          offset += stride;
          ++on_disk;
        }
      }
      b0 = b0 == 0 ? num_disks - 1 : b0 - 1;
    }
    deepest = std::max(deepest, on_disk);
  }
  return deepest;
}

void ContextStore::write_submit(std::uint32_t first, std::uint32_t count,
                                const EmitFn& emit, PendingIo& io) {
  if (first + count > num_contexts_) {
    throw std::out_of_range("ContextStore::write: context range");
  }
  io.tokens.clear();
  io.buf.clear();  // keeps capacity: the staging buffer is grow-only
  io.first = first;
  io.count = count;
  io.active = true;
  io.ctx_offset.resize(count);
  io.len.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    // Slot format [u32 len][payload][zero pad]: serialize straight into the
    // staging buffer behind a length placeholder, then zero only the pad
    // bytes (resize value-initializes the tail) — never the payload region.
    const std::size_t offset = io.buf.size();
    io.buf.resize(offset + kLenPrefix);
    util::Writer w(io.buf);
    emit(first + i, w);
    const std::size_t payload = io.buf.size() - offset - kLenPrefix;
    if (payload > max_context_bytes_) {
      throw std::runtime_error(
          "ContextStore: context of processor " + std::to_string(first + i) +
          " is " + std::to_string(payload) +
          " bytes, exceeding the declared mu = " +
          std::to_string(max_context_bytes_));
    }
    const auto len = static_cast<std::uint32_t>(payload);
    std::memcpy(io.buf.data() + offset, &len, kLenPrefix);
    io.buf.resize(offset + blocks_for(payload) * block_size_);
    io.ctx_offset[i] = offset;
    io.len[i] = len;
    if (journaled_) {
      pending_lengths_[first + i] = len;
      dirty_[first + i] = 1;
    } else {
      lengths_[first + i] = len;
    }
  }
  // Spans are taken only once staging is complete (serializing may
  // reallocate the buffer).  One batched submission, pre-declared at the
  // deepest per-disk block count — one track per disk per parallel I/O.
  // Journaled: write the non-live bank and leave the committed copy (the
  // checkpoint) untouched until commit_epoch().
  const std::span<const std::byte> staged(io.buf);
  io.writes.clear();
  const std::uint64_t deepest = for_each_block(
      io, /*bank_flip=*/1,
      [&](std::uint32_t disk, std::uint64_t track, std::size_t offset) {
        io.writes.push_back(
            {disk, track, staged.subspan(offset, block_size_)});
      });
  if (!io.writes.empty()) {
    io.tokens.push_back(disks_->submit_write_batch(io.writes, deepest));
  }
}

void ContextStore::write_wait(PendingIo& io) {
  if (!io.active) return;
  // A token that fails leaves the rest outstanding; the recovery path
  // settles them via DiskArray::drain() before restoring snapshots.
  for (const auto t : io.tokens) disks_->wait(t);
  io.tokens.clear();
  io.active = false;
}

void ContextStore::write(std::uint32_t first, std::uint32_t count,
                         const EmitFn& emit) {
  write_submit(first, count, emit, sync_io_);
  write_wait(sync_io_);
}

void ContextStore::write(std::uint32_t first,
                         std::span<const std::vector<std::byte>> payloads) {
  write(first, static_cast<std::uint32_t>(payloads.size()),
        [&](std::uint32_t ctx, util::Writer& w) {
          w.write_bytes(payloads[ctx - first]);
        });
}

void ContextStore::read_submit(std::uint32_t first, std::uint32_t count,
                               PendingIo& io) {
  if (first + count > num_contexts_) {
    throw std::out_of_range("ContextStore::read: context range");
  }
  io.tokens.clear();
  io.first = first;
  io.count = count;
  io.active = true;
  io.ctx_offset.resize(count);
  io.len.resize(count);
  std::size_t staged = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    io.ctx_offset[i] = staged;
    io.len[i] = lengths_[first + i];
    staged += blocks_for(io.len[i]) * block_size_;
  }
  // Grow-only: every staged byte is overwritten by the reads, so stale
  // contents need no clearing.
  if (io.buf.size() < staged) io.buf.resize(staged);
  // Mirror of write_submit's batching, from the live bank.
  const std::span<std::byte> buf(io.buf);
  io.reads.clear();
  const std::uint64_t deepest = for_each_block(
      io, /*bank_flip=*/0,
      [&](std::uint32_t disk, std::uint64_t track, std::size_t offset) {
        io.reads.push_back({disk, track, buf.subspan(offset, block_size_)});
      });
  if (!io.reads.empty()) {
    io.tokens.push_back(disks_->submit_read_batch(io.reads, deepest));
  }
}

void ContextStore::read_wait(PendingIo& io, Views& out) {
  if (!io.active) {
    throw std::logic_error("ContextStore::read_wait: no read in flight");
  }
  for (const auto t : io.tokens) disks_->wait(t);
  io.tokens.clear();
  io.active = false;
  out.resize(io.count);
  const std::span<const std::byte> staged(io.buf);
  for (std::uint32_t i = 0; i < io.count; ++i) {
    std::uint32_t len = 0;
    std::memcpy(&len, staged.data() + io.ctx_offset[i], kLenPrefix);
    if (len != io.len[i] || len > max_context_bytes_) {
      throw std::runtime_error(
          "ContextStore: corrupted context slot for processor " +
          std::to_string(io.first + i));
    }
    out[i] = staged.subspan(io.ctx_offset[i] + kLenPrefix, len);
  }
}

void ContextStore::read_into(std::uint32_t first, std::uint32_t count,
                             Views& out) {
  read_submit(first, count, sync_io_);
  read_wait(sync_io_, out);
}

std::vector<std::vector<std::byte>> ContextStore::read(std::uint32_t first,
                                                       std::uint32_t count) {
  Views views;
  read_into(first, count, views);
  std::vector<std::vector<std::byte>> out;
  out.reserve(views.size());
  for (const auto v : views) out.emplace_back(v.begin(), v.end());
  return out;
}

}  // namespace embsp::sim
