// Zero-copy substrate tests: arena-backed message refs, vectored backend
// transfers, and track-coalescing in the disk array.
//
// The claims under test mirror the pipelined-scheduler suite's parity
// discipline:
//  * MessageRef packing is the same whether blocks are emitted through a
//    bounce buffer or written in place, and arena reassembly returns every
//    payload intact whatever the block order;
//  * vectored backend I/O (read_vec/write_vec) produces the same bytes on
//    the medium as the scalar path, and the default decomposition presents
//    the same per-disk call sequence to decorators (the fault schedule);
//  * DiskArray track coalescing is purely physical: disk images, model
//    IoStats and per-track Disk counters are unchanged, only the backend
//    call count drops.
//
// Carries the `sanitize` ctest label (arena spans + vectored buffers are
// prime ASan bait).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "em/disk_array.hpp"
#include "em/fault_backend.hpp"
#include "sim/routing.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace embsp {
namespace {

namespace fs = std::filesystem;

// --- Arena ------------------------------------------------------------------

TEST(Arena, SpansStayPutAcrossGrowth) {
  util::Arena arena(/*chunk_bytes=*/64);
  std::vector<std::pair<std::span<std::byte>, std::uint8_t>> spans;
  for (std::uint8_t i = 0; i < 100; ++i) {
    auto s = arena.allocate(48);  // forces many chunk growths
    std::fill(s.begin(), s.end(), static_cast<std::byte>(i));
    spans.emplace_back(s, i);
  }
  for (const auto& [s, tag] : spans) {
    for (auto b : s) EXPECT_EQ(b, static_cast<std::byte>(tag));
  }
  EXPECT_EQ(arena.bytes_in_use(), 100u * 48u);
  EXPECT_EQ(arena.high_water(), 100u * 48u);
  const auto cap = arena.capacity();
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.high_water(), 100u * 48u);  // peak survives reset
  EXPECT_EQ(arena.capacity(), cap);           // capacity retained
}

TEST(Arena, CopyReturnsStableEqualBytes) {
  util::Arena arena;
  std::vector<std::byte> src(1000);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i * 7 + 3);
  }
  auto c = arena.copy(src);
  src.assign(src.size(), std::byte{0});  // mutate the original
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i], static_cast<std::byte>(i * 7 + 3));
  }
}

// --- Vectored backend I/O ---------------------------------------------------

std::vector<std::byte> pattern(std::size_t size, std::uint64_t tag) {
  std::vector<std::byte> b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::byte>(static_cast<std::uint8_t>(tag * 41 + i));
  }
  return b;
}

std::vector<char> slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(VectoredBackend, FileWriteVecMatchesScalarWrites) {
  const auto dir = fs::temp_directory_path();
  const auto pa = dir / "embsp_zc_scalar.bin";
  const auto pb = dir / "embsp_zc_vec.bin";
  fs::remove(pa);
  fs::remove(pb);

  const auto b0 = pattern(64, 1);
  const auto b1 = pattern(64, 2);
  const auto b2 = pattern(64, 3);
  {
    auto scalar = em::make_file_backend(pa.string(), /*keep=*/true);
    scalar->write(128, b0);
    scalar->write(192, b1);
    scalar->write(256, b2);
    scalar->flush();

    auto vec = em::make_file_backend(pb.string(), /*keep=*/true);
    const std::span<const std::byte> srcs[] = {b0, b1, b2};
    vec->write_vec(128, srcs);
    vec->flush();
    EXPECT_EQ(scalar->size(), vec->size());
  }
  EXPECT_EQ(slurp(pa), slurp(pb));

  // Gathering read_vec sees the same bytes as scalar reads.
  {
    auto vec = em::make_file_backend(pb.string(), /*keep=*/true);
    std::vector<std::byte> r0(64), r1(64), r2(64);
    const std::span<std::byte> dsts[] = {r0, r1, r2};
    vec->read_vec(128, dsts);
    EXPECT_EQ(r0, b0);
    EXPECT_EQ(r1, b1);
    EXPECT_EQ(r2, b2);
  }
  fs::remove(pa);
  fs::remove(pb);
}

TEST(VectoredBackend, FileVecRoundTripsAcrossManyBuffers) {
  // More buffers than IOV_MAX would be needed for only if huge; exercise a
  // moderately long run plus a short-read tail (region never written reads
  // as zeros).
  const auto p = fs::temp_directory_path() / "embsp_zc_many.bin";
  fs::remove(p);
  auto be = em::make_file_backend(p.string(), /*keep=*/false);
  std::vector<std::vector<std::byte>> bufs;
  std::vector<std::span<const std::byte>> srcs;
  for (std::uint64_t t = 0; t < 40; ++t) {
    bufs.push_back(pattern(32, t + 5));
    srcs.emplace_back(bufs.back());
  }
  be->write_vec(0, srcs);
  std::vector<std::vector<std::byte>> in(41, std::vector<std::byte>(32));
  std::vector<std::span<std::byte>> dsts;
  for (auto& b : in) dsts.emplace_back(b);
  be->read_vec(0, dsts);  // last buffer reads past EOF -> zero filled
  for (std::uint64_t t = 0; t < 40; ++t) EXPECT_EQ(in[t], bufs[t]) << t;
  EXPECT_EQ(in[40], std::vector<std::byte>(32)) << "unwritten tail not zero";
}

// Records the scalar call sequence a decorator would observe.
class CallLogBackend final : public em::Backend {
 public:
  struct Call {
    char kind;  // 'r' or 'w'
    std::uint64_t offset;
    std::size_t len;
    bool operator==(const Call&) const = default;
  };
  void read(std::uint64_t offset, std::span<std::byte> dst) override {
    calls.push_back({'r', offset, dst.size()});
    inner.read(offset, dst);
  }
  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    calls.push_back({'w', offset, src.size()});
    inner.write(offset, src);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner.size(); }
  em::MemoryBackend inner;
  std::vector<Call> calls;
};

TEST(VectoredBackend, DefaultVecDecomposesIntoScalarCallSequence) {
  // The Backend default is the compatibility contract for decorators: a
  // vectored transfer must hit read()/write() once per buffer, in order,
  // at consecutive offsets.
  CallLogBackend a, b;
  const auto b0 = pattern(16, 9);
  const auto b1 = pattern(16, 10);
  a.write(100, b0);
  a.write(116, b1);
  std::vector<std::byte> r(16);
  a.read(100, r);

  const std::span<const std::byte> srcs[] = {b0, b1};
  b.write_vec(100, srcs);
  const std::span<std::byte> dsts[] = {r};
  b.read_vec(100, dsts);

  EXPECT_EQ(a.calls, b.calls);
}

TEST(VectoredBackend, FaultScheduleSeesSameCallIndices) {
  // FaultInjectingBackend does not override the vectored entry points, so
  // the deterministic fault schedule is keyed on the same call sequence
  // whether the caller goes scalar or vectored.
  em::FaultSpec spec;
  spec.seed = 11;
  spec.bursts.push_back({0u, 2u, 1u});  // exactly call #2 faults

  auto run = [&](bool vectored) {
    em::FaultInjectingBackend be(std::make_unique<em::MemoryBackend>(), spec,
                                 /*sim_seed=*/0, /*disk_index=*/0);
    const auto b0 = pattern(8, 1);
    const auto b1 = pattern(8, 2);
    const auto b2 = pattern(8, 3);
    std::uint64_t faulted_at = ~0ull;
    try {
      if (vectored) {
        const std::span<const std::byte> srcs[] = {b0, b1, b2};
        be.write_vec(0, srcs);
      } else {
        be.write(0, b0);
        be.write(8, b1);
        be.write(16, b2);
      }
    } catch (const em::IoError&) {
      faulted_at = be.calls();
    }
    return std::pair{faulted_at, be.calls()};
  };

  const auto scalar = run(false);
  const auto vec = run(true);
  EXPECT_EQ(scalar.first, 3u);  // burst fired on the third call
  EXPECT_EQ(scalar, vec);
}

// --- MessageRef packing / reassembly ----------------------------------------

struct Fuzzed {
  std::vector<bsp::Message> owned;
  std::vector<bsp::MessageRef> refs;
};

Fuzzed fuzz_messages(std::uint64_t seed, std::size_t n,
                     std::size_t max_payload) {
  Fuzzed f;
  util::Rng rng(seed);
  f.owned.reserve(n);  // payload vectors must not reallocate under refs
  for (std::size_t i = 0; i < n; ++i) {
    bsp::Message m;
    m.src = static_cast<std::uint32_t>(rng.below(7));
    m.dst = static_cast<std::uint32_t>(rng.below(5));
    m.seq = static_cast<std::uint32_t>(i);
    m.payload.resize(rng.below(max_payload + 1));
    for (auto& byte : m.payload) {
      byte = static_cast<std::byte>(rng.below(256));
    }
    f.owned.push_back(std::move(m));
  }
  for (const auto& m : f.owned) {
    f.refs.push_back({m.src, m.dst, m.seq, m.payload});
  }
  return f;
}

using Blocks = std::vector<std::vector<std::byte>>;

TEST(MessageRefPath, PackBlocksIntoMatchesEmit) {
  const auto f = fuzz_messages(99, 48, 500);
  const std::size_t block = 128;
  Blocks emitted;
  sim::pack_blocks(std::span<const bsp::MessageRef>(f.refs), 0, block,
                   [&](std::span<const std::byte> blk) {
                     emitted.emplace_back(blk.begin(), blk.end());
                   });
  Blocks in_place;
  const auto n = sim::pack_blocks_into(
      std::span<const bsp::MessageRef>(f.refs), 0, block, [&] {
        in_place.emplace_back(block);
        return std::span<std::byte>(in_place.back());
      });
  EXPECT_EQ(n, in_place.size());
  EXPECT_EQ(emitted, in_place);
}

TEST(MessageRefPath, ArenaReassemblyRoundTripFuzz) {
  // pack -> shuffle block order -> reassemble into an arena -> compare to
  // the originals.  Payloads up to 5x the block size force multi-block
  // messages with out-of-order chunk arrival.
  for (std::uint64_t seed : {3u, 21u, 77u}) {
    const auto f = fuzz_messages(seed, 40, 640);
    const std::size_t block = 128;
    Blocks blocks;
    sim::pack_blocks(std::span<const bsp::MessageRef>(f.refs), 0, block,
                     [&](std::span<const std::byte> blk) {
                       blocks.emplace_back(blk.begin(), blk.end());
                     });
    util::Rng rng(seed * 31 + 1);
    for (std::size_t i = blocks.size(); i > 1; --i) {
      std::swap(blocks[i - 1], blocks[rng.below(i)]);
    }
    util::Arena arena;
    sim::Reassembler reasm(arena, /*max_message_bytes=*/1 << 20);
    for (const auto& blk : blocks) reasm.absorb(blk, /*expected_group=*/0);
    auto got = reasm.take();
    ASSERT_EQ(got.size(), f.owned.size());
    bsp::sort_inbox(got);

    auto want = f.refs;
    bsp::sort_inbox(want);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].src, want[i].src) << i;
      EXPECT_EQ(got[i].dst, want[i].dst) << i;
      EXPECT_EQ(got[i].seq, want[i].seq) << i;
      ASSERT_EQ(got[i].payload.size(), want[i].payload.size()) << i;
      EXPECT_TRUE(std::equal(got[i].payload.begin(), got[i].payload.end(),
                             want[i].payload.begin()))
          << "payload " << i << " differs (seed " << seed << ")";
    }
    // Every reassembled payload lives in the arena.
    EXPECT_GE(arena.bytes_in_use(),
              std::accumulate(got.begin(), got.end(), std::size_t{0},
                              [](std::size_t acc, const bsp::MessageRef& m) {
                                return acc + m.payload.size();
                              }));
  }
}

TEST(MessageRefPath, OutboxRefsMatchMaterializedMessages) {
  auto fill = [](bsp::Outbox& out) {
    out.send_value(2, std::uint64_t{0xDEADBEEF});
    out.send_vector(1, std::vector<std::uint32_t>{1, 2, 3, 4, 5});
    const auto p = pattern(33, 6);
    out.send(2, p);
    out.send_value(0, 3.5);
  };
  bsp::Outbox ref_box(7, 8), own_box(7, 8);
  fill(ref_box);
  fill(own_box);

  const auto refs = ref_box.messages();
  const auto owned = own_box.take();
  ASSERT_EQ(refs.size(), owned.size());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    EXPECT_EQ(refs[i].src, owned[i].src) << i;
    EXPECT_EQ(refs[i].dst, owned[i].dst) << i;
    EXPECT_EQ(refs[i].seq, owned[i].seq) << i;
    ASSERT_EQ(refs[i].payload.size(), owned[i].payload.size()) << i;
    EXPECT_TRUE(std::equal(refs[i].payload.begin(), refs[i].payload.end(),
                           owned[i].payload.begin()))
        << i;
  }
}

TEST(MessageRefPath, InboxSortsRefAndOwningIdentically) {
  // Both inbox constructors must present the canonical (src, seq) order.
  std::vector<bsp::Message> owned;
  for (auto [src, seq] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {3, 0}, {1, 1}, {1, 0}, {2, 5}, {0, 9}, {2, 1}}) {
    bsp::Message m;
    m.src = src;
    m.dst = 0;
    m.seq = seq;
    m.payload = pattern(4, src * 16 + seq);
    owned.push_back(std::move(m));
  }
  std::vector<bsp::MessageRef> refs;
  for (const auto& m : owned) refs.push_back({m.src, m.dst, m.seq, m.payload});

  const bsp::Inbox own_box(owned);  // copies, owned stays alive for refs
  const bsp::Inbox ref_box(std::move(refs));
  ASSERT_EQ(own_box.count(), ref_box.count());
  for (std::size_t i = 0; i < own_box.count(); ++i) {
    EXPECT_EQ(own_box.all()[i].src, ref_box.all()[i].src) << i;
    EXPECT_EQ(own_box.all()[i].seq, ref_box.all()[i].seq) << i;
    EXPECT_TRUE(std::equal(own_box.all()[i].payload.begin(),
                           own_box.all()[i].payload.end(),
                           ref_box.all()[i].payload.begin()))
        << i;
  }
}

// --- DiskArray coalescing ----------------------------------------------------

class CoalescedDiskArray : public ::testing::TestWithParam<em::IoEngine> {};

TEST_P(CoalescedDiskArray, BatchedIoPreservesImageStatsAndCounters) {
  // The same batched submission with coalescing on vs off must produce the
  // same file images, the same model IoStats and the same per-disk track
  // counters; only engine.coalesced_tracks may differ.
  const auto dir = fs::temp_directory_path();
  // Key the scratch paths on the engine parameter: ctest runs each
  // parameterization as its own test, possibly concurrently, and shared
  // paths would let one instance's cleanup race the other's run.
  auto tag_path = [&](const char* tag, std::size_t d) {
    return dir / ("embsp_zc_coal_" + std::string(tag) + "_e" +
                  std::to_string(static_cast<int>(GetParam())) + "_" +
                  std::to_string(d) + ".bin");
  };
  struct Probe {
    em::IoStats stats;
    std::uint64_t coalesced = 0;
    std::uint64_t disk0_writes = 0;
    std::uint64_t disk0_reads = 0;
  };

  auto run = [&](const char* tag, bool coalesce) {
    em::DiskArrayOptions opts;
    opts.coalesce = coalesce;
    auto arr = em::make_disk_array(
        GetParam(), 2, 64,
        [&](std::size_t d) {
          return em::make_file_backend(tag_path(tag, d).string(),
                                       /*keep=*/true);
        },
        0, opts);
    // Disk 0 gets an adjacent run of 5 tracks plus a detached track; disk 1
    // gets two detached tracks.  cycles = max per-disk op count = 6.
    std::vector<std::vector<std::byte>> data;
    for (std::uint64_t t = 0; t < 9; ++t) data.push_back(pattern(64, t + 1));
    std::vector<em::WriteOp> w;
    for (std::uint64_t t = 0; t < 5; ++t) w.push_back({0, 10 + t, data[t]});
    w.push_back({0, 99, data[5]});
    w.push_back({1, 0, data[6]});
    w.push_back({1, 7, data[7]});
    arr->parallel_write_batch(w, /*cycles=*/6);

    std::vector<std::vector<std::byte>> in(8, std::vector<std::byte>(64));
    std::vector<em::ReadOp> r;
    for (std::uint64_t t = 0; t < 5; ++t) r.push_back({0, 10 + t, in[t]});
    r.push_back({0, 99, in[5]});
    r.push_back({1, 0, in[6]});
    r.push_back({1, 7, in[7]});
    arr->parallel_read_batch(r, /*cycles=*/6);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(in[i], data[i]) << i;
    arr->sync();

    Probe p;
    p.stats = arr->stats();
    for (const auto& ds : arr->engine_stats().per_disk) {
      p.coalesced += ds.coalesced_tracks;
    }
    p.disk0_writes = arr->disk(0).writes();
    p.disk0_reads = arr->disk(0).reads();
    return p;
  };

  const auto off = run("off", false);
  const auto on = run("on", true);

  EXPECT_EQ(off.stats.parallel_ios, 12u);  // 6 write + 6 read cycles
  EXPECT_EQ(on.stats.parallel_ios, off.stats.parallel_ios);
  EXPECT_EQ(on.stats.blocks_written, off.stats.blocks_written);
  EXPECT_EQ(on.stats.blocks_read, off.stats.blocks_read);
  EXPECT_EQ(on.stats.bytes_written, off.stats.bytes_written);
  EXPECT_EQ(on.stats.bytes_read, off.stats.bytes_read);
  EXPECT_EQ(on.disk0_writes, off.disk0_writes);
  EXPECT_EQ(on.disk0_reads, off.disk0_reads);
  EXPECT_EQ(off.coalesced, 0u);
  // The 5-track adjacent run coalesces 4 rider tracks per direction.
  EXPECT_EQ(on.coalesced, 8u);

  for (std::size_t d = 0; d < 2; ++d) {
    const auto a = slurp(tag_path("off", d));
    const auto b = slurp(tag_path("on", d));
    ASSERT_FALSE(a.empty()) << d;
    EXPECT_EQ(a, b) << "disk image " << d << " differs with coalescing";
    fs::remove(tag_path("off", d));
    fs::remove(tag_path("on", d));
  }
}

TEST_P(CoalescedDiskArray, ChecksumsVerifyPerTrackThroughCoalescedRuns) {
  em::DiskArrayOptions opts;
  opts.coalesce = true;
  opts.verify_checksums = true;
  auto arr = em::make_disk_array(GetParam(), 1, 64, nullptr, 0, opts);
  std::vector<std::vector<std::byte>> data;
  std::vector<em::WriteOp> w;
  for (std::uint64_t t = 0; t < 4; ++t) {
    data.push_back(pattern(64, t + 30));
    w.push_back({0, t, data.back()});
  }
  arr->parallel_write_batch(w, 4);
  std::vector<std::vector<std::byte>> in(4, std::vector<std::byte>(64));
  std::vector<em::ReadOp> r;
  for (std::uint64_t t = 0; t < 4; ++t) r.push_back({0, t, in[t]});
  // A coalesced 4-track read must still verify each track's checksum.
  arr->parallel_read_batch(r, 4);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(in[t], data[t]) << t;
}

INSTANTIATE_TEST_SUITE_P(Engines, CoalescedDiskArray,
                         ::testing::Values(em::IoEngine::serial,
                                           em::IoEngine::parallel));

}  // namespace
}  // namespace embsp
