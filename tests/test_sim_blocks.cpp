#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "em/disk_array.hpp"
#include "em/io_error.hpp"
#include "sim/context_store.hpp"
#include "sim/message_store.hpp"
#include "sim/routing.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace embsp::sim {
namespace {

bsp::Message make_msg(std::uint32_t src, std::uint32_t dst, std::uint32_t seq,
                      std::size_t len) {
  bsp::Message m;
  m.src = src;
  m.dst = dst;
  m.seq = seq;
  m.payload.resize(len);
  for (std::size_t i = 0; i < len; ++i) {
    m.payload[i] =
        static_cast<std::byte>(static_cast<std::uint8_t>(src * 31 + seq + i));
  }
  return m;
}

/// Views of `msgs`' payloads; `msgs` must outlive them.
std::vector<bsp::MessageRef> refs_of(std::span<const bsp::Message> msgs) {
  std::vector<bsp::MessageRef> refs;
  for (const auto& m : msgs) refs.push_back({m.src, m.dst, m.seq, m.payload});
  return refs;
}

/// Owning copies of `refs`, for comparisons that outlive their arena.
std::vector<bsp::Message> owned(std::span<const bsp::MessageRef> refs) {
  std::vector<bsp::Message> out;
  for (const auto& m : refs) {
    out.push_back({m.src, m.dst, m.seq, {m.payload.begin(), m.payload.end()}});
  }
  return out;
}

std::vector<bsp::Message> pack_and_reassemble(
    const std::vector<bsp::Message>& msgs, std::size_t block_size,
    bool shuffle_blocks) {
  std::vector<std::vector<std::byte>> blocks;
  pack_blocks(refs_of(msgs), 0, block_size,
              [&](std::span<const std::byte> b) {
                blocks.emplace_back(b.begin(), b.end());
              });
  if (shuffle_blocks) {
    util::Rng rng(77);
    for (std::size_t i = blocks.size(); i > 1; --i) {
      std::swap(blocks[i - 1], blocks[rng.below(i)]);
    }
  }
  util::Arena arena;
  Reassembler r(arena);
  for (const auto& b : blocks) r.absorb(b, 0);
  return owned(r.take());
}

void expect_same_messages(std::vector<bsp::Message> got,
                          std::vector<bsp::Message> want) {
  auto key = [](const bsp::Message& m) {
    return std::make_pair(m.src, m.seq);
  };
  auto cmp = [&](const bsp::Message& a, const bsp::Message& b) {
    return key(a) < key(b);
  };
  std::sort(got.begin(), got.end(), cmp);
  std::sort(want.begin(), want.end(), cmp);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src);
    EXPECT_EQ(got[i].dst, want[i].dst);
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].payload, want[i].payload);
  }
}

TEST(BlockFormat, SingleSmallMessage) {
  auto msgs = std::vector<bsp::Message>{make_msg(1, 2, 0, 10)};
  expect_same_messages(pack_and_reassemble(msgs, 128, false), msgs);
}

TEST(BlockFormat, EmptyMessage) {
  auto msgs = std::vector<bsp::Message>{make_msg(3, 4, 0, 0)};
  expect_same_messages(pack_and_reassemble(msgs, 64, false), msgs);
}

TEST(BlockFormat, MessageSpanningManyBlocks) {
  auto msgs = std::vector<bsp::Message>{make_msg(0, 1, 0, 1000)};
  expect_same_messages(pack_and_reassemble(msgs, 64, true), msgs);
}

TEST(BlockFormat, ManyMessagesMixedSizesShuffled) {
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 50; ++i) {
    msgs.push_back(make_msg(i % 5, 1, i, (i * 37) % 300));
  }
  expect_same_messages(pack_and_reassemble(msgs, 96, true), msgs);
}

TEST(BlockFormat, BlocksAreFull) {
  // Packing 10 messages of 100 bytes into 128-byte blocks should produce
  // close to the information-theoretic minimum number of blocks.
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 10; ++i) msgs.push_back(make_msg(0, 1, i, 100));
  std::size_t blocks = 0;
  pack_blocks(refs_of(msgs), 0, 128,
              [&](std::span<const std::byte>) { ++blocks; });
  // ~1000 payload bytes + ~22 per chunk; with 120 usable per block this
  // needs at least 9 blocks and should not exceed 13.
  EXPECT_GE(blocks, 9u);
  EXPECT_LE(blocks, 13u);
}

TEST(BlockFormat, DummyBlockSkipped) {
  std::vector<std::byte> dummy(64);
  make_dummy_block(5, dummy);
  EXPECT_TRUE(is_dummy_block(dummy));
  util::Arena arena;
  Reassembler r(arena);
  r.absorb(dummy, 5);
  EXPECT_TRUE(r.take().empty());
}

TEST(BlockFormat, WrongGroupDetected) {
  auto m = make_msg(0, 1, 0, 8);
  std::vector<std::byte> block;
  pack_blocks(refs_of({&m, 1}), 3, 64, [&](std::span<const std::byte> b) {
    block.assign(b.begin(), b.end());
  });
  util::Arena arena;
  Reassembler r(arena);
  EXPECT_THROW(r.absorb(block, 4), std::runtime_error);
}

TEST(BlockFormat, IncompleteMessageDetected) {
  auto m = make_msg(0, 1, 0, 500);
  std::vector<std::vector<std::byte>> blocks;
  pack_blocks(refs_of({&m, 1}), 0, 64, [&](std::span<const std::byte> b) {
    blocks.emplace_back(b.begin(), b.end());
  });
  ASSERT_GT(blocks.size(), 1u);
  util::Arena arena;
  Reassembler r(arena);
  r.absorb(blocks[0], 0);  // drop the rest
  EXPECT_THROW(r.take(), std::runtime_error);
}

TEST(BlockFormat, SameSrcSeqDifferentDstKeptApart) {
  // Regression: the reassembler used to key partial messages on (src, seq)
  // only.  seq numbers order messages per (src, dst) pair, so two messages
  // from one sender to *different* receivers in the same group can share a
  // seq — they must reassemble into two intact messages, not be merged.
  std::vector<bsp::Message> msgs{
      make_msg(0, 1, 0, 150),  // spans blocks at block_size 64
      make_msg(0, 2, 0, 150),  // same src, same seq, different dst
  };
  msgs[1].payload.assign(150, std::byte{0xAB});  // distinguishable payloads
  auto got = pack_and_reassemble(msgs, 64, true);
  ASSERT_EQ(got.size(), 2u);
  std::sort(got.begin(), got.end(),
            [](const auto& a, const auto& b) { return a.dst < b.dst; });
  EXPECT_EQ(got[0].dst, 1u);
  EXPECT_EQ(got[0].payload, msgs[0].payload);
  EXPECT_EQ(got[1].dst, 2u);
  EXPECT_EQ(got[1].payload, msgs[1].payload);
}

// --- Adversarial / corrupt-block parsing -----------------------------------
//
// Blocks come back from disk, so every header field is untrusted input: a
// torn write or bit flip can produce counts and lengths that point outside
// the block span or wrap 32-bit arithmetic.  Each test hand-crafts one
// corruption and expects em::CorruptBlockError (never a crash or an
// out-of-bounds access — these are the asan regression cases).

void poke_u32(std::vector<std::byte>& b, std::size_t off, std::uint32_t v) {
  std::memcpy(b.data() + off, &v, 4);
}
void poke_u16(std::vector<std::byte>& b, std::size_t off, std::uint16_t v) {
  std::memcpy(b.data() + off, &v, 2);
}

/// One valid 64-byte block holding a single small message, as a mutable
/// starting point for corruption.
std::vector<std::byte> valid_block(std::size_t block_size = 64,
                                   std::size_t payload_len = 8) {
  auto m = make_msg(1, 2, 0, payload_len);
  std::vector<std::byte> block;
  pack_blocks(refs_of({&m, 1}), 0, block_size,
              [&](std::span<const std::byte> b) {
                block.assign(b.begin(), b.end());
              });
  return block;
}

TEST(CorruptBlock, TruncatedHeaderThrows) {
  std::vector<std::byte> tiny(kBlockHeaderBytes - 1, std::byte{0});
  EXPECT_THROW((void)parse_header(tiny), std::invalid_argument);
  util::Arena arena;
  Reassembler r(arena);
  EXPECT_THROW(r.absorb(tiny, 0), std::exception);
}

TEST(CorruptBlock, NChunksBeyondSpanThrows) {
  // n_chunks claims more chunk headers than the block can physically hold;
  // the parser must reject it up front instead of walking off the end.
  auto block = valid_block();
  poke_u16(block, 4, 0x7FFF);
  util::Arena arena;
  Reassembler r(arena);
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, TruncatedChunkHeaderThrows) {
  // Two chunks claimed, but the block ends inside the second chunk header.
  auto block = valid_block(64, 8);
  poke_u16(block, 4, 2);
  // First chunk: header(22) + 8 payload ends at 8+30=38; 64-38=26 bytes
  // remain, enough for the second header (22) — shrink the block so the
  // second header is cut off.
  block.resize(kBlockHeaderBytes + kChunkHeaderBytes + 8 + 10);
  util::Arena arena;
  Reassembler r(arena);
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, ChunkLenPastBlockEndThrows) {
  // chunk_len points past the physical block span.
  auto block = valid_block();
  poke_u16(block, kBlockHeaderBytes + 20, 0xFFF0);
  util::Arena arena;
  Reassembler r(arena);
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, OffsetOverflowWrapThrows) {
  // offset + chunk_len wraps 32-bit arithmetic: 0xFFFFFFF8 + 8 == 0 in u32,
  // which would pass a naive `offset + len <= total` check and memcpy to
  // payload.data() + 4 GiB.  The check must be done in 64 bits.
  auto block = valid_block(64, 8);
  poke_u32(block, kBlockHeaderBytes + 16, 0xFFFFFFF8u);
  util::Arena arena;
  Reassembler r(arena);
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, OffsetPastTotalLenThrows) {
  // In-range lengths, but the chunk lands past the message's total_len.
  auto block = valid_block(64, 8);
  poke_u32(block, kBlockHeaderBytes + 16, 100);  // offset 100 into an 8-byte msg
  util::Arena arena;
  Reassembler r(arena);
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, TotalLenMismatchAcrossChunksThrows) {
  // Two chunks of the "same" message disagree on total_len.  The payload
  // buffer is sized by the first chunk; trusting the second (larger) value
  // used to let the memcpy run past it — a heap overflow.
  auto m = make_msg(1, 2, 0, 100);
  std::vector<std::vector<std::byte>> blocks;
  pack_blocks(refs_of({&m, 1}), 0, 64, [&](std::span<const std::byte> b) {
    blocks.emplace_back(b.begin(), b.end());
  });
  ASSERT_GE(blocks.size(), 2u);
  poke_u32(blocks[1], kBlockHeaderBytes + 12, 200);  // total_len 100 -> 200
  util::Arena arena;
  Reassembler r(arena);
  r.absorb(blocks[0], 0);
  EXPECT_THROW(r.absorb(blocks[1], 0), em::CorruptBlockError);
}

TEST(CorruptBlock, DuplicatedChunkIsNotTheMissingOne) {
  // A 68-byte message packs into two 64-byte blocks of 34 payload bytes
  // each.  A block absorbed twice (read twice, misdirected or replayed)
  // brings the byte count to total_len while the other half of the payload
  // was never written; reassembly must reject it, not hand it out.
  auto m = make_msg(1, 2, 0, 68);
  std::vector<std::vector<std::byte>> blocks;
  pack_blocks(refs_of({&m, 1}), 0, 64, [&](std::span<const std::byte> b) {
    blocks.emplace_back(b.begin(), b.end());
  });
  ASSERT_EQ(blocks.size(), 2u);
  util::Arena arena;
  for (std::size_t dup = 0; dup < 2; ++dup) {
    Reassembler twice(arena);
    twice.absorb(blocks[dup], 0);
    twice.absorb(blocks[dup], 0);
    EXPECT_THROW((void)twice.take(), em::CorruptBlockError) << dup;
  }
  // Both halves in either order still reassemble.
  Reassembler r(arena);
  r.absorb(blocks[1], 0);
  r.absorb(blocks[0], 0);
  auto got = owned(r.take());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, m.payload);
}

TEST(CorruptBlock, OversizedTotalLenRejectedByLimit) {
  // gamma bounds any legitimate message, so a Reassembler built with that
  // cap rejects absurd total_len values before allocating the buffer.
  auto block = valid_block(64, 8);
  poke_u32(block, kBlockHeaderBytes + 12, 1u << 20);  // total_len = 1 MiB
  poke_u32(block, kBlockHeaderBytes + 16, 0);         // keep offset sane
  util::Arena arena;
  Reassembler capped(arena, 1024);
  EXPECT_THROW(capped.absorb(block, 0), em::CorruptBlockError);
  // An uncapped reassembler accepts the header (the chunk itself is
  // in-bounds) and reports the message incomplete at take() time.
  Reassembler uncapped(arena);
  uncapped.absorb(block, 0);
  EXPECT_THROW(uncapped.take(), std::runtime_error);
}

TEST(CorruptBlock, GarbledBlockFuzzNeverCrashes) {
  // Byte-soup fuzz: random corruptions of valid blocks plus fully random
  // blocks.  absorb() must either succeed or throw an exception — never
  // read or write out of bounds (asan enforces the "never" part).
  util::Rng rng(2026);
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    msgs.push_back(make_msg(i, 1, i, (i * 53) % 200));
  }
  std::vector<std::vector<std::byte>> blocks;
  pack_blocks(refs_of(msgs), 0, 96, [&](std::span<const std::byte> b) {
    blocks.emplace_back(b.begin(), b.end());
  });
  ASSERT_FALSE(blocks.empty());
  util::Arena arena;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> block;
    if (iter % 4 == 0) {
      block.resize(96);
      for (auto& byte : block) {
        byte = static_cast<std::byte>(rng.below(256));
      }
      poke_u32(block, 0, 0);  // pass the dst_group check, fuzz the rest
    } else {
      block = blocks[rng.below(blocks.size())];
      const std::size_t flips = 1 + rng.below(6);
      for (std::size_t f = 0; f < flips; ++f) {
        block[rng.below(block.size())] ^=
            static_cast<std::byte>(1u << rng.below(8));
      }
    }
    arena.reset();
    Reassembler r(arena, 4096);
    try {
      r.absorb(block, 0);
      (void)r.take();
    } catch (const std::exception&) {
      // Detected corruption is the expected outcome; crashing is not.
    }
  }
}

TEST(ContextStore, RoundTripVariableSizes) {
  em::DiskArray disks(4, 64);
  em::TrackAllocators alloc(4);
  ContextStore store(disks, alloc, 10, 100);
  std::vector<std::vector<std::byte>> payloads;
  for (std::uint32_t i = 0; i < 10; ++i) {
    payloads.emplace_back(i * 9, static_cast<std::byte>(i + 1));
  }
  store.write(0, payloads);
  auto got = store.read(0, 10);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(got[i], payloads[i]);
}

TEST(ContextStore, PartialGroupReadWrite) {
  em::DiskArray disks(2, 32);
  em::TrackAllocators alloc(2);
  ContextStore store(disks, alloc, 8, 40);
  std::vector<std::vector<std::byte>> payloads;
  for (std::uint32_t i = 0; i < 3; ++i) {
    payloads.emplace_back(20, static_cast<std::byte>(0x40 + i));
  }
  store.write(4, payloads);
  auto got = store.read(4, 3);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(got[i], payloads[i]);
}

TEST(ContextStore, OversizedContextThrows) {
  em::DiskArray disks(2, 32);
  em::TrackAllocators alloc(2);
  ContextStore store(disks, alloc, 4, 40);
  std::vector<std::vector<std::byte>> payloads{std::vector<std::byte>(41)};
  EXPECT_THROW(store.write(0, payloads), std::runtime_error);
}

TEST(ContextStore, FullyParallelGroupAccess) {
  // Reading k consecutive contexts must use all D disks on every I/O.
  em::DiskArray disks(4, 64);
  em::TrackAllocators alloc(4);
  ContextStore store(disks, alloc, 16, 60);  // 1 block per context
  std::vector<std::vector<std::byte>> payloads(8,
                                               std::vector<std::byte>(60));
  store.write(0, payloads);
  disks.reset_stats();
  (void)store.read(0, 8);
  EXPECT_EQ(disks.stats().parallel_ios, 2u);  // 8 blocks / 4 disks
  EXPECT_DOUBLE_EQ(disks.stats().utilization(4), 1.0);
}

std::vector<std::byte> context_payload(std::uint32_t ctx, std::size_t len,
                                       std::uint32_t epoch) {
  std::vector<std::byte> p(len);
  for (std::size_t i = 0; i < len; ++i) {
    p[i] = static_cast<std::byte>(
        static_cast<std::uint8_t>(ctx * 29 + epoch * 101 + i * 7 + 1));
  }
  return p;
}

TEST(ContextStore, BatchedWritePlacesEveryBlockAtItsLocation) {
  // The batch is built disk by disk, independently of location(); here
  // every used block must land where location() says, in the slot format
  // [u32 len][payload][zero pad], and the batch must cost the deepest
  // per-disk block count.  Round trips alone cannot catch a misplacement,
  // because reads and writes share the batch builder.
  constexpr std::size_t kB = 64;
  constexpr std::uint32_t kContexts = 20;
  constexpr std::size_t kMu = 300;  // up to 5 blocks per context
  for (std::size_t D : {1u, 3u, 4u, 7u}) {
    for (bool journaled : {false, true}) {
      SCOPED_TRACE("D=" + std::to_string(D) +
                   (journaled ? " journaled" : " plain"));
      em::DiskArray disks(D, kB);
      em::TrackAllocators alloc(D);
      ContextStore store(disks, alloc, kContexts, kMu, journaled);
      // Epochs 1 and 2 write different lengths to a partial group and
      // commit; journaled stores alternate banks, so both banks are hit.
      for (std::uint32_t epoch = 1; epoch <= 2; ++epoch) {
        const std::uint32_t first = 2 + epoch;
        const std::uint32_t count = 13;
        std::vector<std::vector<std::byte>> payloads;
        std::vector<std::uint64_t> per_disk(D, 0);
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::size_t len = (i * 67 + epoch * 45) % (kMu + 1);
          payloads.push_back(context_payload(first + i, i == 5 ? 0 : len,
                                             epoch));
          const std::uint64_t used =
              (payloads.back().size() + sizeof(std::uint32_t) + kB - 1) / kB;
          for (std::uint64_t b = 0; b < used; ++b) {
            ++per_disk[(first + i + b) % D];
          }
        }
        disks.reset_stats();
        store.write(first, payloads);
        store.commit_epoch();
        EXPECT_EQ(disks.stats().parallel_ios,
                  *std::max_element(per_disk.begin(), per_disk.end()));

        std::vector<std::byte> block(kB);
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint32_t ctx = first + i;
          const auto& payload = payloads[i];
          std::vector<std::byte> slot(sizeof(std::uint32_t) + payload.size());
          const auto len = static_cast<std::uint32_t>(payload.size());
          std::memcpy(slot.data(), &len, sizeof(len));
          std::copy(payload.begin(), payload.end(),
                    slot.begin() + sizeof(len));
          slot.resize((slot.size() + kB - 1) / kB * kB);
          for (std::uint64_t b = 0; b * kB < slot.size(); ++b) {
            const auto [disk, track] = store.location(ctx, b);
            EXPECT_EQ(disk, (ctx + b) % D);
            em::Disk& d = disks.disk(disk);
            d.peek_track(track, block, d.backend());
            EXPECT_TRUE(std::equal(block.begin(), block.end(),
                                   slot.begin() + b * kB))
                << "epoch " << epoch << " ctx " << ctx << " block " << b;
          }
        }
        disks.reset_stats();
        EXPECT_EQ(store.read(first, count), payloads);
        EXPECT_EQ(disks.stats().parallel_ios,
                  *std::max_element(per_disk.begin(), per_disk.end()));
      }
    }
  }
}

TEST(ContextStore, ReadViewsOutliveTheOtherSlot) {
  // The pipelined simulators compute group g from slot g&1's views while
  // slot (g+1)&1 reads ahead: a view must survive submits and waits on the
  // other slot, and blocking reads and writes.  The committed contexts are
  // placed by restore_context (which addresses blocks through location(),
  // not the batch builder), alternately in bank 0 and bank 1, and an
  // uncommitted epoch is discarded, so the views must come from the live
  // bank at the right tracks.
  constexpr std::uint32_t kContexts = 8;
  em::DiskArray disks(3, 64);
  em::TrackAllocators alloc(3);
  ContextStore store(disks, alloc, kContexts, 200, /*journaled=*/true);
  std::vector<std::vector<std::byte>> committed;
  std::vector<std::vector<std::byte>> discarded;
  for (std::uint32_t c = 0; c < kContexts; ++c) {
    committed.push_back(context_payload(c, 40 + c * 19, 1));
    discarded.push_back(context_payload(c, 150 - c * 9, 2));
    util::Writer record;
    record.write<std::uint8_t>(c & 1);
    record.write<std::uint32_t>(
        static_cast<std::uint32_t>(committed.back().size()));
    record.write_bytes(committed.back());
    util::Reader r(record.bytes());
    store.restore_context(c, r);
  }
  store.write(0, discarded);
  store.discard_epoch();

  ContextStore::PendingIo slot[2];
  ContextStore::Views views[2];
  store.read_submit(0, 4, slot[0]);
  store.read_wait(slot[0], views[0]);
  store.read_submit(4, 4, slot[1]);
  store.read_wait(slot[1], views[1]);
  store.write(2, std::span(discarded).subspan(2, 3));
  (void)store.read(5, 3);
  for (int s = 0; s < 2; ++s) {
    ASSERT_EQ(views[s].size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
      const auto& want = committed[s * 4 + i];
      EXPECT_TRUE(std::equal(views[s][i].begin(), views[s][i].end(),
                             want.begin(), want.end()))
          << "slot " << s << " context " << s * 4 + i;
    }
  }
}

class MessageStoreTest : public ::testing::TestWithParam<RoutingMode> {};

TEST_P(MessageStoreTest, WriteReorganizeFetchRoundTrip) {
  em::DiskArray disks(4, 128);
  em::TrackAllocators alloc(4);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{8, 32, GetParam()});
  util::Rng rng(9);

  // 8 groups of 4 destination processors each (group = dst / 4).
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 100; ++i) {
    msgs.push_back(make_msg(i % 16, i % 32, i, (i * 11) % 200));
  }
  store.write_messages(refs_of(msgs),
                       [](std::uint32_t dst) { return dst / 4; }, rng);
  store.flush(rng);
  store.reorganize(rng);

  util::Arena arena;
  std::vector<bsp::Message> got;
  for (std::uint32_t g = 0; g < 8; ++g) {
    auto part = owned(store.fetch_group(g, arena));
    for (auto& m : part) {
      EXPECT_EQ(m.dst / 4, g);
      got.push_back(std::move(m));
    }
  }
  expect_same_messages(got, msgs);
}

TEST_P(MessageStoreTest, SecondSuperstepReusesSpace) {
  em::DiskArray disks(2, 128);
  em::TrackAllocators alloc(2);
  MessageStore store(disks, alloc, MessageStoreConfig{4, 16, GetParam()});
  util::Rng rng(10);
  const auto group_of = [](std::uint32_t dst) { return dst / 2; };
  util::Arena arena;

  for (int superstep = 0; superstep < 3; ++superstep) {
    std::vector<bsp::Message> msgs;
    for (std::uint32_t i = 0; i < 20; ++i) {
      msgs.push_back(make_msg(i, i % 8, i + superstep * 100, 50));
    }
    store.write_messages(refs_of(msgs), group_of, rng);
    store.flush(rng);
    store.reorganize(rng);
    std::vector<bsp::Message> got;
    for (std::uint32_t g = 0; g < 4; ++g) {
      auto part = owned(store.fetch_group(g, arena));
      got.insert(got.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    expect_same_messages(got, msgs);
  }
  // Linked-bucket tracks must have been recycled: space bounded by the
  // reserved regions plus one superstep of staging.
  EXPECT_LT(disks.max_tracks_used(), 200u);
}

TEST_P(MessageStoreTest, CapacityOverflowDiagnosed) {
  em::DiskArray disks(2, 128);
  em::TrackAllocators alloc(2);
  MessageStore store(disks, alloc, MessageStoreConfig{2, 2, GetParam()});
  util::Rng rng(11);
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 50; ++i) msgs.push_back(make_msg(0, 0, i, 100));
  EXPECT_THROW(store.write_messages(
                   refs_of(msgs), [](std::uint32_t) { return 0u; }, rng),
               std::runtime_error);
}

// Windowed Algorithm 2: reorganize batches W D-block cycles per parallel
// read/write pair, W = max(1, memory_budget_bytes / (D*B)).  Whatever the
// window, slots, model costs and the disk image must equal the per-cycle
// schedule (W = 1).
struct WindowRig {
  static constexpr std::uint32_t kD = 3;
  static constexpr std::size_t kB = 128;
  static constexpr std::uint32_t kGroups = 6;

  static MessageStoreConfig config(RoutingMode mode, std::uint64_t budget) {
    MessageStoreConfig cfg;
    cfg.num_groups = kGroups;
    cfg.group_capacity_blocks = 40;
    cfg.mode = mode;
    cfg.memory_budget_bytes = budget;
    return cfg;
  }

  WindowRig(RoutingMode mode, std::uint64_t budget)
      : disks(kD, kB), alloc(kD), store(disks, alloc, config(mode, budget)) {}

  em::DiskArray disks;
  em::TrackAllocators alloc;
  MessageStore store;
  util::Rng rng{31};
};

TEST_P(MessageStoreTest, WindowedReorganizeMatchesPerCycleSchedule) {
  constexpr std::uint64_t kCycleBytes = WindowRig::kD * WindowRig::kB;
  // W = 1, W = 3, and one window holding every cycle.
  std::vector<std::unique_ptr<WindowRig>> rigs;
  for (const std::uint64_t budget :
       {std::uint64_t{0}, 3 * kCycleBytes + kCycleBytes / 2,
        std::uint64_t{1} << 40}) {
    rigs.push_back(std::make_unique<WindowRig>(GetParam(), budget));
  }
  const auto group_of = [](std::uint32_t dst) { return dst / 4; };
  util::Arena arena;
  // Three supersteps: later ones reuse the chain tracks released earlier.
  for (std::uint32_t superstep = 0; superstep < 3; ++superstep) {
    std::vector<bsp::Message> msgs;
    for (std::uint32_t i = 0; i < 84; ++i) {
      msgs.push_back(make_msg(i % 17, (i * 7 + superstep) % 24,
                              superstep * 1000 + i, (i * 13) % 150));
    }
    std::vector<RoutingStats> stats;
    for (auto& r : rigs) {
      r->store.write_messages(refs_of(msgs), group_of, r->rng);
      r->store.flush(r->rng);
      const em::IoStats before = r->disks.stats();
      stats.push_back(r->store.reorganize(r->rng));
      // One read and one write per cycle (padded mode also flushes its
      // dummy blocks inside reorganize).
      if (GetParam() != RoutingMode::padded) {
        EXPECT_EQ(r->disks.stats().since(before).parallel_ios,
                  2 * (stats.back().step1_cycles + stats.back().step2_cycles));
      }
    }
    // Step 2 spends one cycle per block of the longest bucket (two groups
    // per bucket here).
    std::uint64_t longest = 0;
    for (std::uint32_t g = 0; g < WindowRig::kGroups; g += 2) {
      longest = std::max(longest, rigs[0]->store.group_blocks(g) +
                                      rigs[0]->store.group_blocks(g + 1));
    }
    EXPECT_EQ(stats[0].step2_cycles, longest);
    // W = 3 must leave a partial last window in both passes.
    EXPECT_NE(stats[0].step1_cycles % 3, 0u) << "superstep " << superstep;
    EXPECT_NE(stats[0].step2_cycles % 3, 0u) << "superstep " << superstep;
    for (std::uint32_t g = 0; g < WindowRig::kGroups; ++g) {
      const auto want = owned(rigs[0]->store.fetch_group(g, arena));
      for (std::size_t r = 1; r < rigs.size(); ++r) {
        const auto got = owned(rigs[r]->store.fetch_group(g, arena));
        ASSERT_EQ(got.size(), want.size()) << "rig " << r << " group " << g;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].src, want[i].src);
          EXPECT_EQ(got[i].dst, want[i].dst);
          EXPECT_EQ(got[i].seq, want[i].seq);
          EXPECT_EQ(got[i].payload, want[i].payload);
        }
      }
    }
    for (std::size_t r = 1; r < rigs.size(); ++r) {
      SCOPED_TRACE("rig " + std::to_string(r) + ", superstep " +
                   std::to_string(superstep));
      EXPECT_EQ(stats[r].blocks_total, stats[0].blocks_total);
      EXPECT_EQ(stats[r].dummy_blocks, stats[0].dummy_blocks);
      EXPECT_EQ(stats[r].step1_cycles, stats[0].step1_cycles);
      EXPECT_EQ(stats[r].step2_cycles, stats[0].step2_cycles);
      EXPECT_EQ(stats[r].max_chain, stats[0].max_chain);
      const em::IoStats& a = rigs[0]->disks.stats();
      const em::IoStats& b = rigs[r]->disks.stats();
      EXPECT_EQ(b.parallel_ios, a.parallel_ios);
      EXPECT_EQ(b.blocks_read, a.blocks_read);
      EXPECT_EQ(b.blocks_written, a.blocks_written);
      EXPECT_EQ(b.bytes_read, a.bytes_read);
      EXPECT_EQ(b.bytes_written, a.bytes_written);
      std::vector<std::byte> ta(WindowRig::kB), tb(WindowRig::kB);
      for (std::uint32_t d = 0; d < WindowRig::kD; ++d) {
        em::Disk& da = rigs[0]->disks.disk(d);
        em::Disk& db = rigs[r]->disks.disk(d);
        EXPECT_EQ(db.reads(), da.reads()) << "disk " << d;
        EXPECT_EQ(db.writes(), da.writes()) << "disk " << d;
        ASSERT_EQ(db.tracks_used(), da.tracks_used()) << "disk " << d;
        for (std::uint64_t t = 0; t < da.tracks_used(); ++t) {
          da.peek_track(t, ta, da.backend());
          db.peek_track(t, tb, db.backend());
          ASSERT_EQ(tb, ta) << "disk " << d << " track " << t;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, MessageStoreTest,
                         ::testing::Values(RoutingMode::compact,
                                           RoutingMode::padded,
                                           RoutingMode::deterministic),
                         [](const auto& info) {
                           switch (info.param) {
                             case RoutingMode::compact:
                               return "compact";
                             case RoutingMode::padded:
                               return "padded";
                             default:
                               return "deterministic";
                           }
                         });

TEST(MessageStore, DeterministicModeBalancesExactly) {
  // Round-robin placement makes every bucket's chain lengths differ by at
  // most one across the disks — deterministic, not just w.h.p.
  em::DiskArray disks(4, 128);
  em::TrackAllocators alloc(4);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{4, 256, RoutingMode::deterministic});
  util::Rng rng(21);
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 300; ++i) {
    msgs.push_back(make_msg(i, i % 8, i, 100));
  }
  store.write_messages(refs_of(msgs),
                       [](std::uint32_t dst) { return dst / 2; }, rng);
  store.flush(rng);
  const auto& buckets = store.buckets();
  for (std::uint32_t b = 0; b < 4; ++b) {
    std::size_t lo = SIZE_MAX, hi = 0;
    for (std::uint32_t d = 0; d < 4; ++d) {
      lo = std::min(lo, buckets.blocks_on_disk(b, d));
      hi = std::max(hi, buckets.blocks_on_disk(b, d));
    }
    if (hi > 0) {
      EXPECT_LE(hi - lo, 1u) << "bucket " << b;
    }
  }
}

TEST(MessageStore, PaddedModeWritesFullCapacity) {
  em::DiskArray disks(2, 128);
  em::TrackAllocators alloc(2);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{4, 8, RoutingMode::padded});
  util::Rng rng(12);
  // No traffic at all: padded mode still routes 4 groups x 8 dummy blocks.
  auto stats = store.reorganize(rng);
  EXPECT_EQ(stats.blocks_total, 32u);
  EXPECT_EQ(stats.dummy_blocks, 32u);
  util::Arena arena;
  for (std::uint32_t g = 0; g < 4; ++g) {
    EXPECT_EQ(store.group_blocks(g), 8u);
    EXPECT_TRUE(store.fetch_group(g, arena).empty());  // dummies skipped
  }
}

TEST(MessageStore, CompactModeNoTrafficNoIo) {
  em::DiskArray disks(2, 128);
  em::TrackAllocators alloc(2);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{4, 8, RoutingMode::compact});
  util::Rng rng(13);
  auto stats = store.reorganize(rng);
  EXPECT_EQ(stats.blocks_total, 0u);
  EXPECT_EQ(disks.stats().parallel_ios, 0u);
}

TEST(MessageStore, RoutingBalanceStats) {
  em::DiskArray disks(4, 128);
  em::TrackAllocators alloc(4);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{8, 64, RoutingMode::compact});
  util::Rng rng(14);
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 400; ++i) {
    msgs.push_back(make_msg(i, i % 16, i, 90));
  }
  store.write_messages(refs_of(msgs),
                       [](std::uint32_t dst) { return dst / 2; }, rng);
  store.flush(rng);
  auto stats = store.reorganize(rng);
  EXPECT_GT(stats.blocks_total, 0u);
  // Each bucket holds ~blocks_total/D blocks; Lemma 2 says the max chain is
  // close to blocks_total/D^2 — allow generous slack but catch gross
  // imbalance (e.g. everything on one disk).
  EXPECT_LT(stats.max_chain, stats.blocks_total / 4);
}

}  // namespace
}  // namespace embsp::sim
