// UringBackend unit tests: byte semantics against FileBackend (the
// reference), O_DIRECT staging, fixed-buffer registration, keep/truncate
// discipline, the double-open guard, the runtime-fallback factory, and the
// wave path: how a drive worker batches its queued transfers and how a
// ring runs a batch.
//
// Every test that needs a live ring begins with a uring_supported() probe
// and GTEST_SKIPs when the kernel (or a seccomp filter) says no — the
// ctest label `uring` marks the suite so CI can surface skip counts.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <random>
#include <vector>

#include "em/disk_array.hpp"
#include "em/io_error.hpp"
#include "em/uring_backend.hpp"

namespace embsp::em {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::byte> pattern(std::size_t n, std::uint32_t seed) {
  std::vector<std::byte> v(n);
  std::mt19937 g(seed);
  for (auto& b : v) b = static_cast<std::byte>(g() & 0xFF);
  return v;
}

#define SKIP_WITHOUT_URING()                                     \
  do {                                                           \
    if (!uring_supported()) {                                    \
      GTEST_SKIP() << "io_uring unavailable on this kernel";     \
    }                                                            \
  } while (0)

TEST(UringBackend, ReadBackWritten) {
  SKIP_WITHOUT_URING();
  UringBackend b(temp_path("embsp_uring_rw.bin"));
  const auto data = pattern(4096, 1);
  b.write(0, data);
  std::vector<std::byte> out(4096);
  b.read(0, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(b.size(), 4096u);
}

TEST(UringBackend, UnwrittenReadsZero) {
  SKIP_WITHOUT_URING();
  UringBackend b(temp_path("embsp_uring_zero.bin"));
  const auto data = pattern(512, 2);
  b.write(0, data);
  // Straddles EOF: first 512 bytes written, the rest never touched.
  std::vector<std::byte> out(2048, std::byte{0xFF});
  b.read(0, out);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 512, data.begin()));
  for (std::size_t i = 512; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::byte{0}) << "at " << i;
  }
  // Entirely past EOF.
  std::vector<std::byte> far(256, std::byte{0xFF});
  b.read(1 << 20, far);
  for (auto v : far) EXPECT_EQ(v, std::byte{0});
}

TEST(UringBackend, VectoredMatchesScalar) {
  SKIP_WITHOUT_URING();
  UringBackend b(temp_path("embsp_uring_vec.bin"));
  const std::size_t kBlock = 512;
  std::vector<std::vector<std::byte>> blocks;
  std::vector<std::span<const std::byte>> srcs;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back(pattern(kBlock, 100 + i));
    srcs.emplace_back(blocks.back());
  }
  b.write_vec(3 * kBlock, srcs);
  EXPECT_EQ(b.size(), (3 + 8) * kBlock);
  // Scalar read of the whole range sees the scattered writes in order.
  std::vector<std::byte> all(8 * kBlock);
  b.read(3 * kBlock, all);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(0, std::memcmp(all.data() + i * kBlock, blocks[i].data(),
                             kBlock))
        << "block " << i;
  }
  // Vectored read scatters back out.
  std::vector<std::vector<std::byte>> outs(8,
                                           std::vector<std::byte>(kBlock));
  std::vector<std::span<std::byte>> dsts;
  for (auto& o : outs) dsts.emplace_back(o);
  b.read_vec(3 * kBlock, dsts);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(outs[i], blocks[i]) << "block " << i;
}

TEST(UringBackend, MatchesFileBackendByteForByte) {
  SKIP_WITHOUT_URING();
  // Same randomized op sequence against both backends; images must agree.
  UringBackend u(temp_path("embsp_uring_parity_u.bin"));
  FileBackend f(temp_path("embsp_uring_parity_f.bin"));
  std::mt19937 g(7);
  const std::size_t kSpanMax = 64 * 1024;
  for (int op = 0; op < 200; ++op) {
    const std::uint64_t off = g() % kSpanMax;
    const std::size_t len = 1 + g() % 4096;
    if (g() % 2 == 0) {
      const auto data = pattern(len, g());
      u.write(off, data);
      f.write(off, data);
    } else {
      std::vector<std::byte> a(len), b(len);
      u.read(off, a);
      f.read(off, b);
      ASSERT_EQ(a, b) << "read mismatch at op " << op;
    }
  }
  EXPECT_EQ(u.size(), f.size());
  std::vector<std::byte> a(kSpanMax + 4096), b(a.size());
  u.read(0, a);
  f.read(0, b);
  EXPECT_EQ(a, b);
  u.flush();  // IORING_OP_FSYNC path
}

TEST(UringBackend, DirectIoUnalignedStaging) {
  SKIP_WITHOUT_URING();
  UringConfig cfg;
  cfg.direct = true;
  UringBackend b(temp_path("embsp_uring_direct.bin"), /*keep=*/false, cfg);
  // tmpfs refuses O_DIRECT; the backend degrades but semantics must hold
  // either way, so the test runs regardless and only the stats differ.
  const auto base = pattern(16384, 42);
  b.write(0, base);
  // Unaligned overwrite in the middle: read-modify-write must preserve the
  // aligned-edge neighbours.
  const auto patch = pattern(1000, 43);
  b.write(4096 + 123, patch);
  std::vector<std::byte> out(16384);
  b.read(0, out);
  std::vector<std::byte> expect = base;
  std::memcpy(expect.data() + 4096 + 123, patch.data(), patch.size());
  EXPECT_EQ(out, expect);
  // Unaligned read.
  std::vector<std::byte> window(777);
  b.read(4096 + 200, window);
  EXPECT_EQ(0, std::memcmp(window.data(), expect.data() + 4096 + 200, 777));
  if (b.direct_io()) {
    EXPECT_GT(b.uring_stats().bounced_bytes, 0u);
  }
}

TEST(UringBackend, DirectIoUnalignedWritePastEof) {
  SKIP_WITHOUT_URING();
  UringConfig cfg;
  cfg.direct = true;
  UringBackend b(temp_path("embsp_uring_direct_eof.bin"), false, cfg);
  // First write is unaligned and beyond any existing data: the staging
  // chunk has no committed bytes to read back, so the edges must come out
  // zero, exactly like FileBackend's sparse-file semantics.
  const auto data = pattern(100, 5);
  b.write(5000, data);
  std::vector<std::byte> out(8192, std::byte{0xFF});
  b.read(0, out);
  for (std::size_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(out[i], std::byte{0}) << "at " << i;
  }
  EXPECT_EQ(0, std::memcmp(out.data() + 5000, data.data(), 100));
  for (std::size_t i = 5100; i < out.size(); ++i) {
    ASSERT_EQ(out[i], std::byte{0}) << "at " << i;
  }
  EXPECT_EQ(b.size(), 5100u);
}

// --- O_DIRECT runs: one bounce per staging chunk, not per buffer -----------

constexpr std::size_t kTrack = 4096;
constexpr std::size_t kStaging = std::size_t{1} << 20;  // backend's bounce

/// `n` buffers of `len` bytes carved from `storage` at an address that is
/// 8 bytes past a 4 KiB boundary, so O_DIRECT must bounce every one.
template <class Span>
std::vector<Span> misaligned_run(std::vector<std::byte>& storage,
                                 std::size_t n, std::size_t len) {
  storage.assign(n * len + 2 * kTrack, std::byte{0xFF});
  const auto addr = reinterpret_cast<std::uintptr_t>(storage.data());
  std::byte* p = storage.data() + (kTrack - addr % kTrack) % kTrack + 8;
  std::vector<Span> run;
  for (std::size_t i = 0; i < n; ++i) run.emplace_back(p + i * len, len);
  return run;
}

std::uint64_t enters(const UringBackend& b) { return b.uring_stats().enters; }

TEST(UringBackend, DirectRunBouncesPerChunk) {
  SKIP_WITHOUT_URING();
  UringConfig cfg;
  cfg.direct = true;
  UringBackend u(temp_path("embsp_uring_run_u.bin"), false, cfg);
  FileBackend f(temp_path("embsp_uring_run_f.bin"));
  // ~300 aligned tracks: longer than the staging buffer, so two chunks.
  constexpr std::size_t kTracks = 300;
  constexpr std::uint64_t kOffset = 5 * kTrack;
  const std::uint64_t chunks = (kTracks * kTrack + kStaging - 1) / kStaging;
  const auto data = pattern(kTracks * kTrack, 77);
  std::vector<std::byte> src_store;
  auto srcs = misaligned_run<std::span<const std::byte>>(src_store, kTracks,
                                                         kTrack);
  for (std::size_t i = 0; i < kTracks; ++i) {
    std::memcpy(const_cast<std::byte*>(srcs[i].data()),
                data.data() + i * kTrack, kTrack);
  }
  auto before = enters(u);
  u.write_vec(kOffset, srcs);
  if (u.direct_io()) {
    EXPECT_EQ(enters(u) - before, chunks);
  }
  f.write_vec(kOffset, srcs);
  EXPECT_EQ(u.size(), f.size());

  std::vector<std::byte> dst_store;
  auto dsts = misaligned_run<std::span<std::byte>>(dst_store, kTracks, kTrack);
  before = enters(u);
  u.read_vec(kOffset, dsts);
  if (u.direct_io()) {
    EXPECT_EQ(enters(u) - before, chunks);
  }
  for (std::size_t i = 0; i < kTracks; ++i) {
    ASSERT_EQ(0, std::memcmp(dsts[i].data(), data.data() + i * kTrack, kTrack))
        << "track " << i;
  }
  // Whole images agree with FileBackend, including the unwritten head.
  std::vector<std::byte> a(kOffset + data.size()), b(a.size());
  u.read(0, a);
  f.read(0, b);
  EXPECT_EQ(a, b);
}

TEST(UringBackend, DirectRunAtUnalignedOffsetKeepsNeighbours) {
  SKIP_WITHOUT_URING();
  UringConfig cfg;
  cfg.direct = true;
  UringBackend u(temp_path("embsp_uring_run_rmw_u.bin"), false, cfg);
  FileBackend f(temp_path("embsp_uring_run_rmw_f.bin"));
  const auto base = pattern(8 * kTrack, 80);
  u.write(0, base);
  f.write(0, base);
  // 20 buffers of 512 bytes from byte 4096 + 300: both ends of the run sit
  // inside live alignment units.
  constexpr std::size_t kPieces = 20, kPiece = 512;
  constexpr std::uint64_t kOffset = kTrack + 300;
  const auto patch = pattern(kPieces * kPiece, 81);
  std::vector<std::byte> store;
  auto srcs = misaligned_run<std::span<const std::byte>>(store, kPieces,
                                                         kPiece);
  for (std::size_t i = 0; i < kPieces; ++i) {
    std::memcpy(const_cast<std::byte*>(srcs[i].data()),
                patch.data() + i * kPiece, kPiece);
  }
  const auto bounced = u.uring_stats().bounced_bytes;
  u.write_vec(kOffset, srcs);
  f.write_vec(kOffset, srcs);
  if (u.direct_io()) {
    // Read-modify-write touches only the first and last alignment unit.
    EXPECT_EQ(u.uring_stats().bounced_bytes - bounced,
              patch.size() + 2 * kTrack);
  }
  std::vector<std::byte> expect = base;
  std::memcpy(expect.data() + kOffset, patch.data(), patch.size());
  std::vector<std::byte> a(base.size()), b(base.size());
  u.read(0, a);
  f.read(0, b);
  EXPECT_EQ(a, expect);
  EXPECT_EQ(b, expect);
}

TEST(UringBackend, DirectReadRunStraddlingEofZeroFills) {
  SKIP_WITHOUT_URING();
  UringConfig cfg;
  cfg.direct = true;
  UringBackend u(temp_path("embsp_uring_run_eof.bin"), false, cfg);
  const auto data = pattern(10000, 90);
  u.write(0, data);
  // Tracks 1..8 cover [4096, 36864): the file ends at byte 10000.
  constexpr std::size_t kTracks = 8;
  std::vector<std::byte> store;
  auto dsts = misaligned_run<std::span<std::byte>>(store, kTracks, kTrack);
  u.read_vec(kTrack, dsts);
  for (std::size_t i = 0; i < kTracks * kTrack; ++i) {
    const std::size_t pos = kTrack + i;
    const std::byte want = pos < data.size() ? data[pos] : std::byte{0};
    ASSERT_EQ(dsts[i / kTrack][i % kTrack], want) << "at byte " << pos;
  }
}

TEST(UringBackend, RegisteredBuffersUsedForFixedOps) {
  SKIP_WITHOUT_URING();
  UringBackend b(temp_path("embsp_uring_fixed.bin"));
  std::vector<std::byte> arena(8192);
  std::span<std::byte> region(arena);
  const bool ok = b.register_buffers({&region, 1});
  if (!ok) GTEST_SKIP() << "kernel refused IORING_REGISTER_BUFFERS";
  auto data = pattern(4096, 9);
  std::copy(data.begin(), data.end(), arena.begin());
  b.write(0, std::span<const std::byte>(arena.data(), 4096));
  EXPECT_GT(b.uring_stats().fixed_ops, 0u);
  const auto fixed_before = b.uring_stats().fixed_ops;
  // Reads into the registered region too.
  b.read(0, std::span<std::byte>(arena.data() + 4096, 4096));
  EXPECT_GT(b.uring_stats().fixed_ops, fixed_before);
  EXPECT_EQ(0, std::memcmp(arena.data(), arena.data() + 4096, 4096));
  // A buffer outside every registered region falls back to plain SQEs
  // (and still works).
  std::vector<std::byte> outside(4096);
  const auto fixed_after = b.uring_stats().fixed_ops;
  b.read(0, outside);
  EXPECT_EQ(b.uring_stats().fixed_ops, fixed_after);
  EXPECT_EQ(0, std::memcmp(outside.data(), data.data(), 4096));
  // Unregister; subsequent ops are plain.
  EXPECT_TRUE(b.register_buffers({}));
  b.read(0, std::span<std::byte>(arena.data(), 4096));
  EXPECT_EQ(b.uring_stats().fixed_ops, fixed_after);
}

TEST(UringBackend, KeepPreservesAndScratchUnlinks) {
  SKIP_WITHOUT_URING();
  const auto keep_path = temp_path("embsp_uring_keep.bin");
  const auto data = pattern(1024, 11);
  {
    UringBackend b(keep_path, /*keep=*/true);
    b.write(0, data);
  }
  ASSERT_TRUE(std::filesystem::exists(keep_path));
  {
    // Re-open preserves contents (no truncate of preexisting kept files).
    UringBackend b(keep_path, /*keep=*/true);
    EXPECT_EQ(b.size(), 1024u);
    std::vector<std::byte> out(1024);
    b.read(0, out);
    EXPECT_EQ(out, data);
  }
  std::filesystem::remove(keep_path);
  const auto scratch_path = temp_path("embsp_uring_scratch.bin");
  {
    UringBackend b(scratch_path);
    b.write(0, data);
    EXPECT_TRUE(std::filesystem::exists(scratch_path));
  }
  EXPECT_FALSE(std::filesystem::exists(scratch_path));
}

TEST(UringBackend, DoubleOpenThrows) {
  SKIP_WITHOUT_URING();
  const auto path = temp_path("embsp_uring_double.bin");
  UringBackend a(path);
  EXPECT_THROW(UringBackend{path}, PersistentIoError);
  // Cross-backend too: FileBackend and UringBackend share the guard.
  EXPECT_THROW(FileBackend{path}, PersistentIoError);
}

TEST(UringBackend, FactoryFallsBackWhenUnsupported) {
  // Runs everywhere: with io_uring available it returns a UringBackend,
  // without it a FileBackend — and either way the Backend contract holds.
  auto b = make_uring_file_backend(temp_path("embsp_uring_fb.bin"));
  ASSERT_NE(b, nullptr);
  const auto data = pattern(256, 3);
  b->write(0, data);
  std::vector<std::byte> out(256);
  b->read(0, out);
  EXPECT_EQ(out, data);
  const bool is_uring = dynamic_cast<UringBackend*>(b.get()) != nullptr;
  EXPECT_EQ(is_uring, uring_supported());
}

TEST(UringBackend, ScratchFactoryUniquePerDrive) {
  auto factory = make_uring_scratch_factory("", "test");
  auto b0 = factory(0);
  auto b1 = factory(1);  // distinct path: no double-open throw
  ASSERT_NE(b0, nullptr);
  ASSERT_NE(b1, nullptr);
  const auto data = pattern(128, 4);
  b0->write(0, data);
  std::vector<std::byte> out(128, std::byte{0xAA});
  b1->read(0, out);  // b1 is a different file: reads zero
  for (auto v : out) EXPECT_EQ(v, std::byte{0});
}

TEST(UringBackend, DiskArrayOnUringEngine) {
  SKIP_WITHOUT_URING();
  // End-to-end through make_disk_array: the uring engine schedules like the
  // worker pool but every drive is a UringBackend scratch file.
  const std::size_t kD = 3, kB = 512;
  auto disks = make_disk_array(IoEngine::uring, kD, kB,
                               make_uring_scratch_factory("", "da"));
  std::vector<std::vector<std::byte>> blocks;
  std::vector<WriteOp> writes;
  for (std::uint32_t d = 0; d < kD; ++d) {
    blocks.push_back(pattern(kB, 60 + d));
    writes.push_back({d, d, blocks.back()});
  }
  disks->parallel_write(writes);
  std::vector<std::vector<std::byte>> outs(kD, std::vector<std::byte>(kB));
  std::vector<ReadOp> reads;
  for (std::uint32_t d = 0; d < kD; ++d) reads.push_back({d, d, outs[d]});
  disks->parallel_read(reads);
  for (std::uint32_t d = 0; d < kD; ++d) EXPECT_EQ(outs[d], blocks[d]);
  EXPECT_EQ(disks->stats().parallel_ios, 2u);
  disks->sync();
  disks->harvest_backend_stats();
  const auto& u = disks->engine_stats().uring;
  EXPECT_TRUE(u.active());
  EXPECT_EQ(u.rings, kD);
  EXPECT_GE(u.sqes, 2 * kD);
  EXPECT_GE(u.enters, 2 * kD);
  EXPECT_FALSE(u.completion_ns.empty());
}

// --- The wave path ---------------------------------------------------------

/// A natively batching backend over memory that logs every call as the
/// tracks it touched, and holds its first call until release() — so a test
/// can queue transfers behind a busy worker and know exactly what the
/// worker finds in its queue.
class WaveLog final : public Backend {
 public:
  struct Call {
    bool is_read;
    std::vector<std::uint64_t> tracks;
    bool operator==(const Call&) const = default;
  };

  WaveLog(std::size_t block, std::size_t capacity)
      : block_(block), capacity_(capacity) {}

  void read(std::uint64_t offset, std::span<std::byte> dst) override {
    read_vec(offset, {&dst, 1});
  }
  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    write_vec(offset, {&src, 1});
  }
  void read_vec(std::uint64_t offset,
                std::span<const std::span<std::byte>> dsts) override {
    const BatchIo io{offset, dsts, {}};
    transfer_batch(true, {&io, 1});
  }
  void write_vec(std::uint64_t offset,
                 std::span<const std::span<const std::byte>> srcs) override {
    const BatchIo io{offset, {}, srcs};
    transfer_batch(false, {&io, 1});
  }
  [[nodiscard]] std::size_t batch_capacity() const override {
    return capacity_;
  }
  void transfer_batch(bool is_read, std::span<const BatchIo> ios) override {
    Call call{is_read, {}};
    for (const BatchIo& io : ios) {
      const std::size_t n = is_read ? io.dsts.size() : io.srcs.size();
      for (std::size_t k = 0; k < n; ++k) {
        call.tracks.push_back(io.offset / block_ + k);
      }
      if (is_read) {
        mem_.read_vec(io.offset, io.dsts);
      } else {
        mem_.write_vec(io.offset, io.srcs);
      }
    }
    std::unique_lock<std::mutex> lock(m_);
    calls_.push_back(std::move(call));
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  [[nodiscard]] std::uint64_t size() const override { return mem_.size(); }

  /// Block until the first call is in progress.
  void await_first_call() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return !calls_.empty(); });
  }
  void release() {
    std::lock_guard<std::mutex> lock(m_);
    released_ = true;
    cv_.notify_all();
  }
  [[nodiscard]] std::vector<Call> calls() {
    std::lock_guard<std::mutex> lock(m_);
    return calls_;
  }

 private:
  std::size_t block_;
  std::size_t capacity_;
  MemoryBackend mem_;
  std::mutex m_;
  std::condition_variable cv_;
  std::vector<Call> calls_;  ///< guarded by m_
  bool released_ = false;    ///< guarded by m_
};

TEST(WavePath, WavesSplitAtOverlapDirectionAndCapacity) {
  // Runs everywhere: the worker's wave rule does not depend on io_uring.
  constexpr std::size_t kB = 64;
  WaveLog* log = nullptr;
  DiskArrayOptions opt;
  opt.coalesce = false;
  auto disks = make_disk_array(
      IoEngine::parallel, 1, kB,
      [&](std::size_t) {
        auto b = std::make_unique<WaveLog>(kB, /*capacity=*/3);
        log = b.get();
        return b;
      },
      0, opt);
  std::vector<std::vector<std::byte>> data;
  for (std::uint32_t i = 0; i < 10; ++i) data.push_back(pattern(kB, 300 + i));
  const auto write = [&](std::uint64_t track, std::size_t d) {
    const WriteOp op{0, track, data[d]};
    return disks->submit_write({&op, 1});
  };
  write(100, 0);  // the worker takes this alone and blocks in it
  log->await_first_call();
  write(0, 1);
  write(1, 2);
  write(0, 3);  // overlaps track 0 of the wave: starts the next one
  write(2, 4);
  std::vector<std::byte> out0(kB), out1(kB);
  const ReadOp reads[] = {{0, 0, out0}, {0, 1, out1}};
  disks->submit_read_batch(reads, 2);  // a change of direction
  for (std::uint64_t t = 3; t < 8; ++t) write(t, t + 2);  // capacity 3
  log->release();
  disks->wait_all();

  using Call = WaveLog::Call;
  const std::vector<Call> want = {
      {false, {100}},   {false, {0, 1}},  {false, {0, 2}},
      {true, {0, 1}},   {false, {3, 4, 5}}, {false, {6, 7}}};
  EXPECT_EQ(log->calls(), want);
  EXPECT_EQ(out0, data[3]);  // the later write to track 0 landed last
  EXPECT_EQ(out1, data[2]);
  EXPECT_EQ(disks->disk(0).writes(), 10u);
  EXPECT_EQ(disks->disk(0).reads(), 2u);
  EXPECT_EQ(disks->stats().parallel_ios, 12u);
}

/// A drive array of one UringBackend scratch file.
std::unique_ptr<DiskArray> uring_drive(std::size_t block, bool direct,
                                       const std::string& tag) {
  UringConfig cfg;
  cfg.direct = direct;
  DiskArrayOptions opt;
  opt.coalesce = false;  // one transfer per track: waves, not runs
  return make_disk_array(IoEngine::uring, 1, block,
                         make_uring_scratch_factory("", tag, cfg), 0, opt);
}

std::uint64_t ring_enters(DiskArray& disks) {
  disks.harvest_backend_stats();
  return disks.engine_stats().uring.enters;
}

TEST(WavePath, WritesToOneTrackLandInFifoOrder) {
  SKIP_WITHOUT_URING();
  for (const bool direct : {false, true}) {
    for (const bool aligned : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "direct " << direct << ", aligned " << aligned);
      auto disks = uring_drive(kTrack, direct, "fifo");
      // Four tracks of payload; an aligned one for O_DIRECT to take as-is,
      // or one 8 bytes past a page boundary, which it must bounce.
      std::vector<std::byte> store;
      auto bufs = misaligned_run<std::span<std::byte>>(store, 4, kTrack);
      std::vector<std::byte> page_store;
      std::vector<std::span<std::byte>> page_bufs;
      if (aligned) {
        page_store.resize(5 * kTrack);
        const auto addr = reinterpret_cast<std::uintptr_t>(page_store.data());
        std::byte* p = page_store.data() + (kTrack - addr % kTrack) % kTrack;
        for (std::size_t i = 0; i < 4; ++i) {
          page_bufs.emplace_back(p + i * kTrack, kTrack);
        }
        bufs = page_bufs;
      }
      for (std::size_t i = 0; i < 4; ++i) {
        const auto d = pattern(kTrack, 400 + i);
        std::memcpy(bufs[i].data(), d.data(), kTrack);
      }
      // One operation, queued in one critical section: tracks 0, 1, 0, 1.
      const WriteOp ops[] = {
          {0, 0, bufs[0]}, {0, 1, bufs[1]}, {0, 0, bufs[2]}, {0, 1, bufs[3]}};
      const auto before = ring_enters(*disks);
      disks->parallel_write_batch(ops, 4);
      // The second pair overlaps the first: two waves, in order.
      EXPECT_GE(ring_enters(*disks) - before, 2u);
      std::vector<std::byte> out(2 * kTrack);
      const ReadOp reads[] = {
          {0, 0, std::span(out).first(kTrack)},
          {0, 1, std::span(out).subspan(kTrack)}};
      disks->parallel_read_batch(reads, 2);
      EXPECT_EQ(0, std::memcmp(out.data(), bufs[2].data(), kTrack));
      EXPECT_EQ(0, std::memcmp(out.data() + kTrack, bufs[3].data(), kTrack));
    }
  }
}

std::vector<std::byte> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> out(raw.size());
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

TEST(WavePath, BatchImagesMatchFileBackend) {
  SKIP_WITHOUT_URING();
  const auto upath = temp_path("embsp_wave_image_u.bin");
  const auto fpath = temp_path("embsp_wave_image_f.bin");
  std::filesystem::remove(upath);
  std::filesystem::remove(fpath);
  std::vector<std::byte> reads_u, reads_f;
  {
    UringConfig cfg;
    cfg.direct = true;
    UringBackend u(upath, /*keep=*/true, cfg);
    FileBackend f(fpath, /*keep=*/true);
    // Transfers of one batch, pairwise disjoint: an aligned track (straight
    // into the wave), misaligned file-aligned runs (bounced through slices
    // of the staging), and unaligned offsets and lengths, two of which
    // share an alignment unit (read-modify-write, one at a time).
    std::vector<std::byte> page_store(2 * kTrack);
    const auto addr = reinterpret_cast<std::uintptr_t>(page_store.data());
    std::span<std::byte> page(
        page_store.data() + (kTrack - addr % kTrack) % kTrack, kTrack);
    std::vector<std::byte> store;
    auto run = misaligned_run<std::span<std::byte>>(store, 3, kTrack);
    std::vector<std::byte> a(512), b(700), c(512);
    std::mt19937 g(11);
    for (auto* buf : {&a, &b, &c}) {
      for (auto& x : *buf) x = static_cast<std::byte>(g() & 0xFF);
    }
    for (auto& x : page) x = static_cast<std::byte>(g() & 0xFF);
    for (auto& r : run) {
      for (auto& x : r) x = static_cast<std::byte>(g() & 0xFF);
    }
    const std::span<const std::byte> straight[] = {page};
    const std::span<const std::byte> bounced2[] = {run[0], run[1]};
    const std::span<const std::byte> bounced1[] = {run[2]};
    const std::span<const std::byte> rmw_a[] = {a};
    const std::span<const std::byte> rmw_b[] = {b};
    const std::span<const std::byte> rmw_c[] = {c};
    const BatchIo writes[] = {
        {5 * kTrack, {}, straight},      {0, {}, bounced2},
        {16 * kTrack + 100, {}, rmw_a},  {9 * kTrack, {}, bounced1},
        {16 * kTrack + 612, {}, rmw_b},  {30 * kTrack + 7, {}, rmw_c}};
    for (Backend* be : {static_cast<Backend*>(&u), static_cast<Backend*>(&f)}) {
      be->transfer_batch(/*is_read=*/false, writes);
    }
    EXPECT_EQ(u.size(), f.size());
    // Read the same shapes back, plus a read past the end of the file.
    for (auto [be, sink] : {std::pair{static_cast<Backend*>(&u), &reads_u},
                            std::pair{static_cast<Backend*>(&f), &reads_f}}) {
      std::vector<std::byte> rstore;
      auto rrun = misaligned_run<std::span<std::byte>>(rstore, 4, kTrack);
      std::vector<std::byte> ra(512), rb(700), rc(600);
      const std::span<std::byte> d_straight[] = {page};
      const std::span<std::byte> d_bounced2[] = {rrun[0], rrun[1]};
      const std::span<std::byte> d_bounced1[] = {rrun[2]};
      const std::span<std::byte> d_past_end[] = {rrun[3]};
      const std::span<std::byte> d_a[] = {ra};
      const std::span<std::byte> d_b[] = {rb};
      const std::span<std::byte> d_c[] = {rc};
      std::fill(page.begin(), page.end(), std::byte{0xEE});
      const BatchIo rios[] = {
          {5 * kTrack, d_straight, {}},     {0, d_bounced2, {}},
          {16 * kTrack + 100, d_a, {}},     {9 * kTrack, d_bounced1, {}},
          {16 * kTrack + 612, d_b, {}},     {30 * kTrack + 7, d_c, {}},
          {64 * kTrack, d_past_end, {}}};
      be->transfer_batch(/*is_read=*/true, rios);
      for (const auto& io : rios) {
        for (const auto& d : io.dsts) {
          sink->insert(sink->end(), d.begin(), d.end());
        }
      }
    }
    if (u.direct_io()) {
      EXPECT_GT(u.uring_stats().bounced_bytes, 0u);
    }
  }
  EXPECT_EQ(reads_u, reads_f);
  const auto image_u = file_bytes(upath);
  EXPECT_FALSE(image_u.empty());
  EXPECT_EQ(image_u, file_bytes(fpath));
  std::filesystem::remove(upath);
  std::filesystem::remove(fpath);
}

TEST(WavePath, BouncedBytesPerWaveStayWithinStaging) {
  SKIP_WITHOUT_URING();
  UringConfig cfg;
  cfg.direct = true;
  UringBackend u(temp_path("embsp_wave_staging.bin"), false, cfg);
  if (!u.direct_io()) GTEST_SKIP() << "filesystem refuses O_DIRECT";
  // Eight misaligned 256 KiB transfers: 2 MiB of bounces, twice the
  // staging, so the batch needs at least two waves each way.
  constexpr std::size_t kN = 8, kLen = 64 * kTrack;
  const auto data = pattern(kN * kLen, 500);
  std::vector<std::byte> store;
  auto srcs = misaligned_run<std::span<const std::byte>>(store, kN, kLen);
  std::vector<BatchIo> ios;
  for (std::size_t i = 0; i < kN; ++i) {
    std::memcpy(const_cast<std::byte*>(srcs[i].data()), data.data() + i * kLen,
                kLen);
    // Every other slot, so no two transfers are file-contiguous.
    ios.push_back({2 * i * kLen, {}, std::span(srcs).subspan(i, 1)});
  }
  const auto stats0 = u.uring_stats();
  u.transfer_batch(/*is_read=*/false, ios);
  const auto stats1 = u.uring_stats();
  EXPECT_GE(stats1.enters - stats0.enters, (kN * kLen) / kStaging);
  EXPECT_EQ(stats1.bounced_bytes - stats0.bounced_bytes, kN * kLen);

  std::vector<std::byte> rstore;
  auto dsts = misaligned_run<std::span<std::byte>>(rstore, kN, kLen);
  for (std::size_t i = 0; i < kN; ++i) {
    ios[i] = {2 * i * kLen, std::span(dsts).subspan(i, 1), {}};
  }
  u.transfer_batch(/*is_read=*/true, ios);
  const auto stats2 = u.uring_stats();
  EXPECT_GE(stats2.enters - stats1.enters, (kN * kLen) / kStaging);
  EXPECT_EQ(stats2.bounced_bytes - stats1.bounced_bytes, kN * kLen);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(0, std::memcmp(dsts[i].data(), data.data() + i * kLen, kLen))
        << "transfer " << i;
  }
}

TEST(WavePath, QueuedReadBatchCostsFewerEntersThanTransfers) {
  SKIP_WITHOUT_URING();
  auto disks = uring_drive(kTrack, /*direct=*/false, "enters");
  constexpr std::uint32_t kN = 31;
  std::vector<std::vector<std::byte>> blocks, outs;
  std::vector<WriteOp> writes;
  std::vector<ReadOp> reads;
  for (std::uint32_t i = 0; i < kN; ++i) {
    blocks.push_back(pattern(kTrack, 600 + i));
    outs.emplace_back(kTrack);
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    writes.push_back({0, i, blocks[i]});
    reads.push_back({0, i, outs[i]});
  }
  disks->parallel_write_batch(writes, kN);
  const auto before = ring_enters(*disks);
  disks->parallel_read_batch(reads, kN);
  EXPECT_LT(ring_enters(*disks) - before, kN);
  EXPECT_EQ(outs, blocks);
  EXPECT_EQ(disks->disk(0).reads(), kN);
  EXPECT_EQ(disks->engine_stats().per_disk[0].ops, 2u * kN);
}

}  // namespace
}  // namespace embsp::em
