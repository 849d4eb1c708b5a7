#include "sim/routing.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "em/io_error.hpp"

namespace embsp::sim {

namespace {

void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u16(std::byte* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint16_t get_u16(const std::byte* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

[[noreturn]] void throw_overlap(std::uint32_t src, std::uint32_t dst,
                                std::uint32_t seq) {
  throw em::CorruptBlockError(
      "Reassembler: overlapping chunks in message (src " +
      std::to_string(src) + ", dst " + std::to_string(dst) + ", seq " +
      std::to_string(seq) + ")");
}

}  // namespace

std::size_t pack_blocks_into(
    std::span<const bsp::MessageRef> messages, std::uint32_t dst_group,
    std::size_t block_size,
    const std::function<std::span<std::byte>()>& alloc) {
  if (block_size < kMinBlockSize) {
    throw std::invalid_argument("pack_blocks: block size below minimum");
  }
  std::span<std::byte> block{};
  std::size_t pos = kBlockHeaderBytes;
  std::uint16_t chunks = 0;
  std::size_t produced = 0;

  auto complete = [&]() {
    if (chunks == 0) return;
    std::memset(block.data() + pos, 0, block_size - pos);
    put_u32(block.data(), dst_group);
    put_u16(block.data() + 4, chunks);
    put_u16(block.data() + 6, 0);
    ++produced;
    block = {};
    pos = kBlockHeaderBytes;
    chunks = 0;
  };
  auto acquire = [&]() {
    block = alloc();
    if (block.size() != block_size) {
      throw std::invalid_argument(
          "pack_blocks: alloc returned a span of wrong size");
    }
  };

  for (const bsp::MessageRef& m : messages) {
    const auto total = static_cast<std::uint32_t>(m.payload.size());
    std::uint32_t offset = 0;
    // Emit at least one chunk even for empty messages.
    do {
      std::size_t space = block_size - pos;
      if (block.empty() ||
          space < kChunkHeaderBytes + (total > offset ? 1u : 0u)) {
        complete();
        acquire();
        space = block_size - pos;
      }
      const auto chunk_len = static_cast<std::uint16_t>(std::min<std::size_t>(
          {space - kChunkHeaderBytes, static_cast<std::size_t>(total - offset),
           std::size_t{0xFFFF}}));
      std::byte* p = block.data() + pos;
      put_u32(p, m.src);
      put_u32(p + 4, m.dst);
      put_u32(p + 8, m.seq);
      put_u32(p + 12, total);
      put_u32(p + 16, offset);
      put_u16(p + 20, chunk_len);
      if (chunk_len > 0) {
        std::memcpy(p + kChunkHeaderBytes, m.payload.data() + offset,
                    chunk_len);
      }
      pos += kChunkHeaderBytes + chunk_len;
      ++chunks;
      offset += chunk_len;
    } while (offset < total);
  }
  complete();
  return produced;
}

std::size_t pack_blocks(
    std::span<const bsp::MessageRef> messages, std::uint32_t dst_group,
    std::size_t block_size,
    const std::function<void(std::span<const std::byte>)>& emit) {
  // One bounce buffer, emitted when pack_blocks_into completes it: just
  // before the next alloc, and once more after it returns.  Every alloc'd
  // block gets >= 1 chunk, so the counts always match.
  std::vector<std::byte> buf(block_size >= kMinBlockSize ? block_size : 0);
  bool have = false;
  const std::size_t produced =
      pack_blocks_into(messages, dst_group, block_size, [&]() {
        if (have) emit(buf);
        have = true;
        return std::span<std::byte>(buf);
      });
  if (have) emit(buf);
  return produced;
}

void make_dummy_block(std::uint32_t dst_group, std::span<std::byte> out) {
  std::fill(out.begin(), out.end(), std::byte{0});
  put_u32(out.data(), dst_group);
  put_u16(out.data() + 4, 0xFFFF);  // n_chunks sentinel marks a dummy
}

BlockHeader parse_header(std::span<const std::byte> block) {
  if (block.size() < kBlockHeaderBytes) {
    throw std::invalid_argument("parse_header: block too small");
  }
  BlockHeader h;
  h.dst_group = get_u32(block.data());
  h.n_chunks = get_u16(block.data() + 4);
  return h;
}

bool is_dummy_block(std::span<const std::byte> block) {
  return parse_header(block).n_chunks == 0xFFFF;
}

void for_each_chunk(
    std::span<const std::byte> block,
    const std::function<void(std::span<const std::byte>, std::uint32_t)>&
        fn) {
  const BlockHeader h = parse_header(block);
  if (h.n_chunks == 0xFFFF) return;  // dummy padding block
  // Same untrusted-input discipline as Reassembler::absorb: every header
  // field is validated against the block span before a record is handed out.
  if (kBlockHeaderBytes + h.n_chunks * kChunkHeaderBytes > block.size()) {
    throw em::CorruptBlockError(
        "for_each_chunk: n_chunks " + std::to_string(h.n_chunks) +
        " cannot fit in a " + std::to_string(block.size()) + "-byte block");
  }
  std::size_t pos = kBlockHeaderBytes;
  for (std::uint16_t c = 0; c < h.n_chunks; ++c) {
    if (pos + kChunkHeaderBytes > block.size()) {
      throw em::CorruptBlockError("for_each_chunk: truncated chunk header");
    }
    const std::byte* p = block.data() + pos;
    const std::uint32_t dst = get_u32(p + 4);
    const std::uint32_t total = get_u32(p + 12);
    const std::uint32_t offset = get_u32(p + 16);
    const std::uint16_t len = get_u16(p + 20);
    if (pos + kChunkHeaderBytes + len > block.size()) {
      throw em::CorruptBlockError("for_each_chunk: chunk_len " +
                                  std::to_string(len) +
                                  " runs past the block span");
    }
    if (std::uint64_t{offset} + std::uint64_t{len} > std::uint64_t{total}) {
      throw em::CorruptBlockError(
          "for_each_chunk: chunk [" + std::to_string(offset) + ", " +
          std::to_string(offset + std::uint64_t{len}) +
          ") outside message of total_len " + std::to_string(total));
    }
    fn(block.subspan(pos, kChunkHeaderBytes + len), dst);
    pos += kChunkHeaderBytes + len;
  }
}

BlockBuilder::BlockBuilder(std::size_t block_size)
    : block_size_(block_size) {
  if (block_size < kMinBlockSize) {
    throw std::invalid_argument("BlockBuilder: block size below minimum");
  }
  buf_.reserve(block_size - kBlockHeaderBytes);
}

bool BlockBuilder::fits(std::size_t record_bytes) const {
  return n_chunks_ < 0xFFFE &&
         kBlockHeaderBytes + buf_.size() + record_bytes <= block_size_;
}

void BlockBuilder::append(std::span<const std::byte> record) {
  if (record.size() < kChunkHeaderBytes) {
    throw std::invalid_argument("BlockBuilder: record below a chunk header");
  }
  const std::uint16_t len = get_u16(record.data() + 20);
  if (record.size() != kChunkHeaderBytes + len) {
    throw std::invalid_argument(
        "BlockBuilder: record size disagrees with its chunk_len");
  }
  if (!fits(record.size())) {
    throw std::invalid_argument("BlockBuilder: record does not fit");
  }
  buf_.insert(buf_.end(), record.begin(), record.end());
  ++n_chunks_;
}

void BlockBuilder::take(std::uint32_t dst_group, std::vector<std::byte>& out) {
  out.assign(block_size_, std::byte{0});
  put_u32(out.data(), dst_group);
  put_u16(out.data() + 4, n_chunks_);
  put_u16(out.data() + 6, 0);
  if (!buf_.empty()) {
    std::memcpy(out.data() + kBlockHeaderBytes, buf_.data(), buf_.size());
  }
  buf_.clear();
  n_chunks_ = 0;
}

Reassembler::Partial* Reassembler::find_or_create(std::uint32_t src,
                                                  std::uint32_t dst,
                                                  std::uint32_t seq,
                                                  std::uint32_t total_len) {
  auto [it, inserted] = partial_.try_emplace(ChunkKey{src, dst, seq});
  Partial& p = it->second;
  if (inserted) {
    p.src = src;
    p.dst = dst;
    p.seq = seq;
    p.buf = arena_->allocate(total_len);
  } else if (p.buf.size() != total_len) {
    // Chunks of one message must agree on its total length; a mismatch
    // means a garbled header, and trusting the larger value would let the
    // memcpy below run past the buffer sized by the first chunk.
    throw em::CorruptBlockError(
        "Reassembler: total_len mismatch across chunks of message (src " +
        std::to_string(src) + ", dst " + std::to_string(dst) + ", seq " +
        std::to_string(seq) + "): " + std::to_string(p.buf.size()) + " vs " +
        std::to_string(total_len));
  }
  return &p;
}

void Reassembler::absorb(std::span<const std::byte> block,
                         std::uint32_t expected_group) {
  const BlockHeader h = parse_header(block);
  if (h.n_chunks == 0xFFFF) return;  // dummy padding block
  if (expected_group != kDummyGroup && h.dst_group != expected_group) {
    throw std::runtime_error(
        "Reassembler: block for group " + std::to_string(h.dst_group) +
        " delivered to group " + std::to_string(expected_group));
  }
  // All fields below came off disk — validate before use, in 64-bit
  // arithmetic (the u32 fields can be crafted so that offset + len wraps).
  if (kBlockHeaderBytes + h.n_chunks * kChunkHeaderBytes > block.size()) {
    throw em::CorruptBlockError(
        "Reassembler: n_chunks " + std::to_string(h.n_chunks) +
        " cannot fit in a " + std::to_string(block.size()) + "-byte block");
  }
  std::size_t pos = kBlockHeaderBytes;
  for (std::uint16_t c = 0; c < h.n_chunks; ++c) {
    if (pos + kChunkHeaderBytes > block.size()) {
      throw em::CorruptBlockError("Reassembler: truncated chunk header");
    }
    const std::byte* p = block.data() + pos;
    const std::uint32_t src = get_u32(p);
    const std::uint32_t dst = get_u32(p + 4);
    const std::uint32_t seq = get_u32(p + 8);
    const std::uint32_t total = get_u32(p + 12);
    const std::uint32_t offset = get_u32(p + 16);
    const std::uint16_t len = get_u16(p + 20);
    pos += kChunkHeaderBytes;
    if (pos + len > block.size()) {
      throw em::CorruptBlockError("Reassembler: chunk_len " +
                                  std::to_string(len) +
                                  " runs past the block span");
    }
    if (std::uint64_t{offset} + std::uint64_t{len} > std::uint64_t{total}) {
      throw em::CorruptBlockError(
          "Reassembler: chunk [" + std::to_string(offset) + ", " +
          std::to_string(offset + std::uint64_t{len}) +
          ") outside message of total_len " + std::to_string(total));
    }
    if (max_message_bytes_ != 0 && total > max_message_bytes_) {
      throw em::CorruptBlockError(
          "Reassembler: claimed total_len " + std::to_string(total) +
          " exceeds the message-size limit " +
          std::to_string(max_message_bytes_));
    }
    Partial* part = find_or_create(src, dst, seq, total);
    if (len > 0) {
      // Every chunk lies inside [0, total), so more bytes than total means
      // two chunks overlap: a block read twice, misdirected or replayed.
      if (part->received + len > total) throw_overlap(src, dst, seq);
      std::memcpy(part->buf.data() + offset, block.data() + pos, len);
      if (offset == part->prefix) {
        part->prefix += len;
      } else {
        part->spans.emplace_back(offset, std::uint64_t{offset} + len);
      }
      part->received += len;
    }
    pos += len;
  }
}

std::vector<bsp::MessageRef> Reassembler::take() {
  std::vector<bsp::MessageRef> out;
  out.reserve(partial_.size());
  for (auto& [key, p] : partial_) {
    check_complete(p);
    out.push_back(bsp::MessageRef{p.src, p.dst, p.seq, p.buf});
  }
  partial_.clear();
  return out;
}

void Reassembler::check_complete(Partial& p) const {
  if (p.received != p.buf.size()) {
    throw std::runtime_error(
        "Reassembler: incomplete message (src " + std::to_string(p.src) +
        ", seq " + std::to_string(p.seq) + "): got " +
        std::to_string(p.received) + " of " + std::to_string(p.buf.size()) +
        " bytes");
  }
  // The chunks add up to the total; they tile [0, total) unless two of
  // them overlap, in which case a duplicate stands in for a missing chunk
  // and part of the payload was never written.
  std::sort(p.spans.begin(), p.spans.end());
  std::uint64_t covered = p.prefix;
  for (const auto& [begin, end] : p.spans) {
    if (begin < covered) throw_overlap(p.src, p.dst, p.seq);
    covered = end;
  }
}

}  // namespace embsp::sim
