#include <gtest/gtest.h>
#include <sys/time.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <span>
#include <numeric>

#include "em/backend.hpp"
#include "em/disk_array.hpp"
#include "em/linked_buckets.hpp"
#include "em/striped_region.hpp"
#include "em/track_allocator.hpp"
#include "util/rng.hpp"

namespace embsp::em {
namespace {

std::vector<std::byte> pattern_block(std::size_t size, std::uint8_t tag) {
  std::vector<std::byte> b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::byte>(static_cast<std::uint8_t>(tag + i));
  }
  return b;
}

TEST(Disk, ReadBackWritten) {
  Disk d(64, make_memory_backend());
  auto block = pattern_block(64, 7);
  d.write_track(3, block);
  std::vector<std::byte> out(64);
  d.read_track(3, out);
  EXPECT_EQ(out, block);
  EXPECT_EQ(d.tracks_used(), 4u);
}

TEST(Disk, UnwrittenTrackReadsZero) {
  Disk d(32, make_memory_backend());
  std::vector<std::byte> out(32, std::byte{0xFF});
  d.read_track(10, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(Disk, WrongSizeThrows) {
  Disk d(64, make_memory_backend());
  std::vector<std::byte> small(32);
  EXPECT_THROW(d.read_track(0, small), std::invalid_argument);
  EXPECT_THROW(d.write_track(0, small), std::invalid_argument);
}

TEST(Disk, CapacityEnforced) {
  Disk d(16, make_memory_backend(), 4);
  std::vector<std::byte> b(16);
  d.write_track(3, b);
  EXPECT_THROW(d.write_track(4, b), std::out_of_range);
}

TEST(FileBackend, PersistsAcrossReadWrite) {
  const auto path =
      (std::filesystem::temp_directory_path() / "embsp_test_disk.bin")
          .string();
  Disk d(128, make_file_backend(path));
  auto b0 = pattern_block(128, 1);
  auto b1 = pattern_block(128, 2);
  d.write_track(0, b0);
  d.write_track(5, b1);
  std::vector<std::byte> out(128);
  d.read_track(0, out);
  EXPECT_EQ(out, b0);
  d.read_track(5, out);
  EXPECT_EQ(out, b1);
  d.read_track(2, out);  // hole reads zero
  for (auto c : out) EXPECT_EQ(c, std::byte{0});
}

TEST(FileBackend, OffsetsBeyondFourGiB) {
  // Regression: the old FILE*-based backend seeked with a cast to long,
  // which truncates large offsets on ILP32/LLP64 platforms.  The pread/
  // pwrite backend must address the full 64-bit offset space.  The file is
  // sparse, so this test touches > 4 GiB of offsets but only a few blocks
  // of actual disk space.
  const auto path =
      (std::filesystem::temp_directory_path() / "embsp_test_big.bin")
          .string();
  constexpr std::size_t kB = 1 << 20;  // 1 MiB blocks
  constexpr std::uint64_t kFarTrack = 4100;  // offset 4100 MiB > 4 GiB
  Disk d(kB, make_file_backend(path));
  auto far = pattern_block(kB, 42);
  auto near = pattern_block(kB, 17);
  d.write_track(kFarTrack, far);
  d.write_track(1, near);
  std::vector<std::byte> out(kB);
  d.read_track(kFarTrack, out);
  EXPECT_EQ(out, far);
  d.read_track(1, out);
  EXPECT_EQ(out, near);
  d.read_track(4099, out);  // hole just below the 4 GiB boundary
  for (auto c : out) {
    ASSERT_EQ(c, std::byte{0});
  }
  EXPECT_EQ(d.tracks_used(), kFarTrack + 1);
}

TEST(DiskArray, ParallelIoCountsOnce) {
  DiskArray arr(4, 64);
  auto b = pattern_block(64, 3);
  std::vector<WriteOp> ops;
  for (std::uint32_t d = 0; d < 4; ++d) ops.push_back({d, 0, b});
  arr.parallel_write(ops);
  EXPECT_EQ(arr.stats().parallel_ios, 1u);
  EXPECT_EQ(arr.stats().blocks_written, 4u);
  EXPECT_DOUBLE_EQ(arr.stats().utilization(4), 1.0);
}

TEST(DiskArray, DuplicateDiskInOneIoThrows) {
  DiskArray arr(4, 64);
  auto b = pattern_block(64, 3);
  std::vector<WriteOp> ops{{1, 0, b}, {1, 1, b}};
  EXPECT_THROW(arr.parallel_write(ops), std::invalid_argument);
  // Array stays usable after the rejected operation.
  std::vector<WriteOp> ok{{1, 0, b}};
  arr.parallel_write(ok);
  EXPECT_EQ(arr.stats().parallel_ios, 1u);
}

TEST(DiskArray, EmptyIoThrows) {
  DiskArray arr(2, 64);
  std::vector<ReadOp> ops;
  EXPECT_THROW(arr.parallel_read(ops), std::invalid_argument);
}

TEST(DiskArray, SingleDiskIoHasLowUtilization) {
  DiskArray arr(8, 64);
  auto b = pattern_block(64, 1);
  for (int i = 0; i < 8; ++i) {
    std::vector<WriteOp> ops{{0, static_cast<std::uint64_t>(i), b}};
    arr.parallel_write(ops);
  }
  EXPECT_EQ(arr.stats().parallel_ios, 8u);
  EXPECT_DOUBLE_EQ(arr.stats().utilization(8), 1.0 / 8.0);
}

TEST(TrackAllocator, RegionsAreConsecutive) {
  TrackAllocator a;
  EXPECT_EQ(a.reserve_region(10), 0u);
  EXPECT_EQ(a.reserve_region(5), 10u);
  EXPECT_EQ(a.alloc_track(), 15u);
}

TEST(TrackAllocator, RecyclesFreedTracks) {
  TrackAllocator a;
  const auto t0 = a.alloc_track();
  const auto t1 = a.alloc_track();
  a.release_track(t0);
  EXPECT_EQ(a.alloc_track(), t0);
  EXPECT_EQ(a.alloc_track(), t1 + 1);
}

TEST(StripedRegion, RoundTripAndPlacement) {
  DiskArray arr(3, 32);
  TrackAllocators alloc(3);
  auto region = StripedRegion::reserve(arr, alloc, 10);
  // Placement: block g on disk g mod D.
  for (std::uint64_t g = 0; g < 10; ++g) {
    EXPECT_EQ(region.location(g).first, g % 3);
  }
  std::vector<std::byte> data(10 * 32);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(static_cast<std::uint8_t>(i * 13));
  }
  region.write_blocks(0, 10, data);
  std::vector<std::byte> out(10 * 32);
  region.read_blocks(0, 10, out);
  EXPECT_EQ(out, data);
}

TEST(StripedRegion, FullDiskParallelism) {
  DiskArray arr(4, 32);
  TrackAllocators alloc(4);
  auto region = StripedRegion::reserve(arr, alloc, 16);
  std::vector<std::byte> data(16 * 32, std::byte{1});
  region.write_blocks(0, 16, data);
  // 16 blocks over 4 disks = 4 fully parallel writes.
  EXPECT_EQ(arr.stats().parallel_ios, 4u);
  EXPECT_DOUBLE_EQ(arr.stats().utilization(4), 1.0);
}

TEST(StripedRegion, PartialRangeRead) {
  DiskArray arr(2, 16);
  TrackAllocators alloc(2);
  auto region = StripedRegion::reserve(arr, alloc, 8);
  std::vector<std::byte> data(8 * 16);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(static_cast<std::uint8_t>(i));
  }
  region.write_blocks(0, 8, data);
  std::vector<std::byte> out(3 * 16);
  region.read_blocks(2, 3, out);
  EXPECT_EQ(std::memcmp(out.data(), data.data() + 2 * 16, 3 * 16), 0);
}

TEST(StripedRegion, OutOfRangeThrows) {
  DiskArray arr(2, 16);
  TrackAllocators alloc(2);
  auto region = StripedRegion::reserve(arr, alloc, 4);
  std::vector<std::byte> buf(2 * 16);
  EXPECT_THROW(region.read_blocks(3, 2, buf), std::out_of_range);
  EXPECT_THROW(region.read_blocks(0, 1, buf), std::invalid_argument);
}

TEST(StripedRegion, TwoRegionsDoNotOverlap) {
  DiskArray arr(2, 16);
  TrackAllocators alloc(2);
  auto r1 = StripedRegion::reserve(arr, alloc, 6);
  auto r2 = StripedRegion::reserve(arr, alloc, 6);
  std::vector<std::byte> a(6 * 16, std::byte{0xAA});
  std::vector<std::byte> b(6 * 16, std::byte{0xBB});
  r1.write_blocks(0, 6, a);
  r2.write_blocks(0, 6, b);
  std::vector<std::byte> out(6 * 16);
  r1.read_blocks(0, 6, out);
  EXPECT_EQ(out, a);
  r2.read_blocks(0, 6, out);
  EXPECT_EQ(out, b);
}

TEST(LinkedBuckets, WriteAndDrainRoundTrip) {
  DiskArray arr(4, 64);
  TrackAllocators alloc(4);
  LinkedBuckets buckets(arr, alloc, 4);
  util::Rng rng(1);

  // Write 32 blocks into bucket 2, four at a time.
  std::vector<std::vector<std::byte>> blocks;
  for (int i = 0; i < 32; ++i) blocks.push_back(pattern_block(64, i));
  for (int cycle = 0; cycle < 8; ++cycle) {
    std::vector<LinkedBuckets::OutBlock> out;
    for (int j = 0; j < 4; ++j) {
      out.push_back({2u, blocks[cycle * 4 + j]});
    }
    buckets.write_cycle(out, rng);
  }
  EXPECT_EQ(buckets.bucket_size(2), 32u);

  std::multiset<std::uint8_t> expected, got;
  for (const auto& b : blocks) expected.insert(std::to_integer<std::uint8_t>(b[0]));
  buckets.drain_bucket(2, [&](std::span<const std::byte> b) {
    got.insert(std::to_integer<std::uint8_t>(b[0]));
  });
  EXPECT_EQ(got, expected);
  EXPECT_EQ(buckets.bucket_size(2), 0u);
}

TEST(LinkedBuckets, EachWriteCycleIsOneParallelIo) {
  DiskArray arr(4, 64);
  TrackAllocators alloc(4);
  LinkedBuckets buckets(arr, alloc, 4);
  util::Rng rng(2);
  auto b = pattern_block(64, 0);
  std::vector<LinkedBuckets::OutBlock> out{{0u, b}, {1u, b}, {2u, b}, {3u, b}};
  buckets.write_cycle(out, rng);
  EXPECT_EQ(arr.stats().parallel_ios, 1u);
  EXPECT_EQ(arr.stats().blocks_written, 4u);
}

TEST(LinkedBuckets, TooManyBlocksPerCycleThrows) {
  DiskArray arr(2, 64);
  TrackAllocators alloc(2);
  LinkedBuckets buckets(arr, alloc, 2);
  util::Rng rng(3);
  auto b = pattern_block(64, 0);
  std::vector<LinkedBuckets::OutBlock> out{{0u, b}, {0u, b}, {1u, b}};
  EXPECT_THROW(buckets.write_cycle(out, rng), std::invalid_argument);
}

TEST(LinkedBuckets, RandomPlacementRoughlyBalanced) {
  // Lemma 2's phenomenon at small scale: R blocks of one bucket spread over
  // D disks end up with ~R/D per disk.
  constexpr std::size_t kD = 8;
  constexpr std::size_t kR = 800;
  DiskArray arr(kD, 64);
  TrackAllocators alloc(kD);
  LinkedBuckets buckets(arr, alloc, kD);
  util::Rng rng(4);
  auto b = pattern_block(64, 0);
  for (std::size_t i = 0; i < kR / kD; ++i) {
    std::vector<LinkedBuckets::OutBlock> out;
    for (std::size_t j = 0; j < kD; ++j) out.push_back({0u, b});
    buckets.write_cycle(out, rng);
  }
  for (std::size_t d = 0; d < kD; ++d) {
    const double load = static_cast<double>(buckets.blocks_on_disk(0, d));
    EXPECT_GT(load, 0.5 * kR / kD);
    EXPECT_LT(load, 2.0 * kR / kD);
  }
}

TEST(LinkedBuckets, TracksRecycledAfterDrain) {
  DiskArray arr(2, 64);
  TrackAllocators alloc(2);
  LinkedBuckets buckets(arr, alloc, 2);
  util::Rng rng(5);
  auto b = pattern_block(64, 1);
  for (int round = 0; round < 10; ++round) {
    std::vector<LinkedBuckets::OutBlock> out{{0u, b}, {1u, b}};
    buckets.write_cycle(out, rng);
    buckets.drain_bucket(0, [](std::span<const std::byte>) {});
    buckets.drain_bucket(1, [](std::span<const std::byte>) {});
  }
  // Space is reused: the high-water mark stays near one cycle's worth.
  EXPECT_LE(alloc[0].high_water(), 4u);
  EXPECT_LE(alloc[1].high_water(), 4u);
}


// --- EINTR under a signal storm ---------------------------------------------
// Regression: a timer signal delivered mid-transfer (handler installed
// WITHOUT SA_RESTART, so every blocking syscall can return EINTR) must
// never surface as an IoError or corrupt data — the pread/pwrite/preadv/
// pwritev loops retry EINTR inline, open() and fdatasync() retry it too.

volatile sig_atomic_t g_storm_ticks = 0;

extern "C" void storm_tick(int) { g_storm_ticks = g_storm_ticks + 1; }

TEST(FileBackend, SurvivesSignalStorm) {
  const auto path =
      (std::filesystem::temp_directory_path() / "embsp_test_eintr.bin")
          .string();

  struct sigaction sa{};
  sa.sa_handler = storm_tick;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART
  struct sigaction old_sa{};
  ASSERT_EQ(::sigaction(SIGALRM, &sa, &old_sa), 0);

  itimerval storm{};
  storm.it_interval.tv_usec = 200;  // 5 kHz
  storm.it_value.tv_usec = 200;
  itimerval old_timer{};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &storm, &old_timer), 0);

  constexpr std::size_t kBlock = 1 << 16;
  {
    // O_DSYNC writes block on the device flush — the widest EINTR window
    // the backend has.
    auto be = make_file_backend(path, /*keep=*/false, /*sync_writes=*/true);
    std::vector<std::byte> block(kBlock);
    std::vector<std::byte> out(kBlock);
    for (int round = 0; round < 200; ++round) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        block[i] = static_cast<std::byte>(
            static_cast<std::uint8_t>(round * 31 + i));
      }
      const std::uint64_t off = (round % 16) * kBlock;
      ASSERT_NO_THROW(be->write(off, block)) << "round " << round;
      ASSERT_NO_THROW(be->read(off, out)) << "round " << round;
      ASSERT_EQ(std::memcmp(out.data(), block.data(), kBlock), 0)
          << "round " << round;
      // Vectored paths: two fragments per call.
      const std::span<const std::byte> wfrags[2] = {
          std::span<const std::byte>(block).first(kBlock / 2),
          std::span<const std::byte>(block).last(kBlock / 2)};
      ASSERT_NO_THROW(be->write_vec(off + 16 * kBlock, wfrags));
      std::vector<std::byte> lo(kBlock / 2), hi(kBlock / 2);
      const std::span<std::byte> rfrags[2] = {lo, hi};
      ASSERT_NO_THROW(be->read_vec(off + 16 * kBlock, rfrags));
      ASSERT_EQ(std::memcmp(lo.data(), block.data(), kBlock / 2), 0);
      ASSERT_EQ(std::memcmp(hi.data(), block.data() + kBlock / 2, kBlock / 2),
                0);
      if (round % 32 == 0) {
        ASSERT_NO_THROW(be->flush());
      }
    }
  }

  ASSERT_EQ(::setitimer(ITIMER_REAL, &old_timer, nullptr), 0);
  ASSERT_EQ(::sigaction(SIGALRM, &old_sa, nullptr), 0);
  // The storm must actually have fired for the test to mean anything.
  EXPECT_GT(g_storm_ticks, 0);
}

}  // namespace
}  // namespace embsp::em
