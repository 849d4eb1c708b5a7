#include "em/uring_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "em/io_error.hpp"

// Self-gating compile-time detection: the CMake check sets
// EMBSP_HAVE_URING explicitly, but the __has_include fallback keeps the
// translation unit correct under any build system.  With 0 the file
// compiles to the fallback stubs at the bottom.
#ifndef EMBSP_HAVE_URING
#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define EMBSP_HAVE_URING 1
#else
#define EMBSP_HAVE_URING 0
#endif
#endif

#if EMBSP_HAVE_URING
#include <fcntl.h>
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace embsp::em {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-unique suffix so two scratch factories (or two runs sharing a
/// dir) never open the same backing file.
std::uint64_t next_scratch_id() {
  static std::atomic<std::uint64_t> id{0};
  return id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

#if EMBSP_HAVE_URING

namespace {

int sys_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

int sys_uring_register(int fd, unsigned opcode, const void* arg,
                       unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

// Ring-buffer indices are shared with the kernel: head/tail crossings need
// acquire/release, exactly like liburing's smp_load_acquire/store_release.
unsigned load_acquire(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}
void store_release(unsigned* p, unsigned v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

/// Calls copy(ptr, at, len) for each piece of the file-contiguous buffer
/// list `bufs` that falls in run bytes [from, from + n): `ptr` points into
/// the buffer, `at` is the piece's offset from `from`.
template <class Byte, class Copy>
void for_each_piece(std::span<const std::span<Byte>> bufs, std::size_t from,
                    std::size_t n, Copy&& copy) {
  std::size_t pos = 0;
  for (const auto& b : bufs) {
    if (pos >= from + n) break;
    const std::size_t lo = std::max(pos, from);
    const std::size_t hi = std::min(pos + b.size(), from + n);
    if (lo < hi) copy(b.data() + (lo - pos), lo - from, hi - lo);
    pos += b.size();
  }
}

}  // namespace

bool uring_supported() {
  static const bool ok = [] {
    io_uring_params p{};
    const int fd = sys_uring_setup(2, &p);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return ok;
}

struct UringBackend::Impl {
  std::string path;
  std::string registry_key;
  bool keep = false;
  UringConfig cfg;
  bool direct = false;  ///< O_DIRECT accepted by the filesystem
  int file_fd = -1;
  std::atomic<std::uint64_t> size{0};  ///< logical high-water (like FileBackend)

  // --- ring state ----------------------------------------------------------
  int ring_fd = -1;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  unsigned sq_entries = 0;
  io_uring_sqe* sqes = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;
  void* sq_ptr = nullptr;
  std::size_t sq_len = 0;
  void* cq_ptr = nullptr;  ///< == sq_ptr under IORING_FEAT_SINGLE_MMAP
  std::size_t cq_len = 0;
  void* sqe_ptr = nullptr;
  std::size_t sqe_len = 0;

  // --- fixed buffers -------------------------------------------------------
  struct Region {
    std::byte* base;
    std::size_t len;
  };
  std::vector<Region> registered;

  // --- O_DIRECT staging ----------------------------------------------------
  void* staging = nullptr;
  std::size_t staging_len = 0;

  std::mutex m;  ///< serializes ring access (uncontended: one issuer per drive)
  UringBackendStats stats;

  /// One SQE's worth of outstanding transfer; re-queued on partial
  /// completion until fully settled.
  struct Unit {
    std::uint64_t offset;
    std::byte* dst = nullptr;        // read target
    const std::byte* src = nullptr;  // write source
    std::size_t len = 0;
  };

  [[nodiscard]] bool aligned(std::uint64_t offset, const void* p,
                             std::size_t len) const {
    const std::size_t a = cfg.alignment;
    return offset % a == 0 && len % a == 0 &&
           reinterpret_cast<std::uintptr_t>(p) % a == 0;
  }

  /// Registered-region index containing [p, p+len), or -1.
  [[nodiscard]] int fixed_index(const void* p, std::size_t len) const {
    const auto* b = static_cast<const std::byte*>(p);
    for (std::size_t i = 0; i < registered.size(); ++i) {
      if (b >= registered[i].base &&
          b + len <= registered[i].base + registered[i].len) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  [[noreturn]] void raise(const char* what, int err) const {
    throw IoError(classify_errno(err), std::string("UringBackend: ") + what +
                                           " failed on " + path + ": " +
                                           std::strerror(err));
  }

  void setup_ring() {
    io_uring_params p{};
    ring_fd = sys_uring_setup(cfg.entries, &p);
    if (ring_fd < 0) {
      throw PersistentIoError("UringBackend: io_uring_setup failed: " +
                              std::string(std::strerror(errno)));
    }
    sq_len = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    cq_len = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
    const bool single = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single) sq_len = cq_len = std::max(sq_len, cq_len);
    sq_ptr = ::mmap(nullptr, sq_len, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQ_RING);
    if (sq_ptr == MAP_FAILED) {
      sq_ptr = nullptr;
      throw PersistentIoError("UringBackend: mmap(SQ ring) failed");
    }
    cq_ptr = sq_ptr;
    if (!single) {
      cq_ptr = ::mmap(nullptr, cq_len, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_CQ_RING);
      if (cq_ptr == MAP_FAILED) {
        cq_ptr = nullptr;
        throw PersistentIoError("UringBackend: mmap(CQ ring) failed");
      }
    }
    sqe_len = p.sq_entries * sizeof(io_uring_sqe);
    sqe_ptr = ::mmap(nullptr, sqe_len, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES);
    if (sqe_ptr == MAP_FAILED) {
      sqe_ptr = nullptr;
      throw PersistentIoError("UringBackend: mmap(SQEs) failed");
    }
    auto* sq = static_cast<std::byte*>(sq_ptr);
    sq_head = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
    sq_mask = *reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
    sq_array = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
    sq_entries = p.sq_entries;
    auto* cq = static_cast<std::byte*>(cq_ptr);
    cq_head = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
    cq_mask = *reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
    cqes = reinterpret_cast<io_uring_cqe*>(cq + p.cq_off.cqes);
    sqes = static_cast<io_uring_sqe*>(sqe_ptr);
  }

  void teardown_ring() {
    if (sqe_ptr != nullptr) ::munmap(sqe_ptr, sqe_len);
    if (cq_ptr != nullptr && cq_ptr != sq_ptr) ::munmap(cq_ptr, cq_len);
    if (sq_ptr != nullptr) ::munmap(sq_ptr, sq_len);
    if (ring_fd >= 0) ::close(ring_fd);
    sqe_ptr = cq_ptr = sq_ptr = nullptr;
    ring_fd = -1;
  }

  /// Fill the next free SQE.  The caller guarantees space (one wave never
  /// exceeds sq_entries).
  void prep_sqe(const Unit& u, bool is_read, std::uint64_t user_data) {
    const unsigned tail = *sq_tail;  // single issuer: plain read is fine
    const unsigned idx = tail & sq_mask;
    io_uring_sqe* sqe = &sqes[idx];
    std::memset(sqe, 0, sizeof(*sqe));
    sqe->fd = file_fd;
    sqe->off = u.offset;
    sqe->user_data = user_data;
    const void* buf = is_read ? static_cast<const void*>(u.dst)
                              : static_cast<const void*>(u.src);
    sqe->addr = reinterpret_cast<std::uint64_t>(buf);
    sqe->len = static_cast<std::uint32_t>(u.len);
    const int fixed = fixed_index(buf, u.len);
    if (fixed >= 0) {
      sqe->opcode = is_read ? IORING_OP_READ_FIXED : IORING_OP_WRITE_FIXED;
      sqe->buf_index = static_cast<std::uint16_t>(fixed);
      stats.fixed_ops += 1;
    } else {
      sqe->opcode = is_read ? IORING_OP_READ : IORING_OP_WRITE;
    }
    sq_array[idx] = idx;
    store_release(sq_tail, tail + 1);
  }

  /// Submit every unit and block until all have fully completed, re-queuing
  /// partial transfers.  Reads past EOF zero-fill (FileBackend semantics).
  /// All submitted SQEs are reaped before an error is thrown, so the ring
  /// never carries stale completions into the next call.
  void run_wave(std::vector<Unit>& units, bool is_read) {
    std::size_t next = 0;  // next unit to submit
    std::size_t live = 0;  // submitted, not yet settled
    int first_err = 0;
    std::size_t zero_progress = 0;
    const std::uint64_t t0 = now_ns();
    while (next < units.size() || live > 0) {
      // Top up the ring (bounded by SQ capacity), then wait for everything
      // currently in flight with a single enter.
      unsigned to_submit = 0;
      while (next < units.size() && live < sq_entries) {
        prep_sqe(units[next], is_read, next);
        ++next;
        ++live;
        ++to_submit;
      }
      stats.sqes += to_submit;
      stats.ring_depth.record(live);
      int rc = sys_uring_enter(ring_fd, to_submit, static_cast<unsigned>(live),
                               IORING_ENTER_GETEVENTS);
      stats.enters += 1;
      if (rc < 0) {
        if (errno == EINTR) {
          // SQEs were consumed before the signal; wait again without
          // resubmitting.
          to_submit = 0;
          continue;
        }
        raise("io_uring_enter", errno);
      }
      // Reap everything available.
      unsigned head = load_acquire(cq_head);
      const unsigned tail = load_acquire(cq_tail);
      while (head != tail) {
        const io_uring_cqe& cqe = cqes[head & cq_mask];
        Unit& u = units[cqe.user_data];
        const auto res = cqe.res;
        ++head;
        --live;
        if (res < 0) {
          if (res == -EINTR || res == -EAGAIN) {
            prep_sqe(u, is_read, cqe.user_data);
            ++live;
            stats.sqes += 1;
            // This enter must retry EINTR itself: the outer loop's
            // to_submit is already spent, so an unsubmitted resubmission
            // SQE would leave `live` waiting on a completion that never
            // arrives.
            int rrc;
            do {
              rrc = sys_uring_enter(ring_fd, 1, 0, 0);
              stats.enters += 1;
            } while (rrc < 0 && errno == EINTR);
            if (rrc < 0 && first_err == 0) first_err = errno;
            continue;
          }
          if (first_err == 0) first_err = -res;
          continue;
        }
        if (is_read && res == 0 && u.len > 0) {
          // Past EOF: unwritten territory reads as zero.
          std::memset(u.dst, 0, u.len);
          continue;
        }
        if (static_cast<std::size_t>(res) < u.len) {
          if (res == 0) {
            // A zero-length write completion makes no progress; guard
            // against spinning forever on a broken filesystem.
            if (++zero_progress > 64 && first_err == 0) first_err = EIO;
            if (first_err != 0) continue;
          }
          u.offset += static_cast<std::uint64_t>(res);
          u.len -= static_cast<std::size_t>(res);
          if (is_read) {
            u.dst += res;
          } else {
            u.src += res;
          }
          prep_sqe(u, is_read, cqe.user_data);
          ++live;
          stats.sqes += 1;
          if (sys_uring_enter(ring_fd, 1, 0, 0) < 0 && first_err == 0) {
            first_err = errno;
          }
          stats.enters += 1;
        }
      }
      store_release(cq_head, head);
      if (first_err != 0 && live == 0 && next >= units.size()) break;
    }
    stats.completion_ns.record(now_ns() - t0);
    if (first_err != 0) {
      raise(is_read ? "read" : "write", first_err);
    }
  }

  void bump_size(std::uint64_t end) {
    std::uint64_t seen = size.load(std::memory_order_relaxed);
    while (seen < end && !size.compare_exchange_weak(
                             seen, end, std::memory_order_relaxed)) {
    }
  }

  // --- O_DIRECT staging paths ---------------------------------------------
  // A file-contiguous run of buffers that O_DIRECT cannot take as-is bounces
  // through `staging` in aligned chunks, one SQE per chunk, so a coalesced
  // run of N tracks costs ceil(bytes / staging_len) device requests rather
  // than N.  Only the run's first and last alignment unit can be partial;
  // writes read-modify-write just those, preserving neighbouring bytes
  // exactly like a buffered write would.

  /// Bounds of the next chunk of a run: `n` run bytes starting `within`
  /// bytes into the aligned chunk [c0, c0 + chunk).
  struct Chunk {
    std::uint64_t c0;
    std::size_t within;
    std::size_t n;
    std::size_t chunk;
  };

  [[nodiscard]] Chunk next_chunk(std::uint64_t pos, std::size_t left) const {
    const std::size_t a = cfg.alignment;
    const std::uint64_t c0 = pos / a * a;
    const auto within = static_cast<std::size_t>(pos - c0);
    const std::size_t n = std::min(left, staging_len - within);
    return {c0, within, n, (within + n + a - 1) / a * a};
  }

  void staged_read(std::uint64_t offset,
                   std::span<const std::span<std::byte>> dsts,
                   std::size_t total) {
    auto* stage = static_cast<std::byte*>(staging);
    for (std::size_t done = 0; done < total;) {
      const Chunk c = next_chunk(offset + done, total - done);
      std::vector<Unit> u{{c.c0, stage, nullptr, c.chunk}};
      run_wave(u, /*is_read=*/true);
      for_each_piece(dsts, done, c.n,
                     [&](std::byte* p, std::size_t at, std::size_t len) {
                       std::memcpy(p, stage + c.within + at, len);
                     });
      stats.bounced_bytes += c.n;
      done += c.n;
    }
  }

  void staged_write(std::uint64_t offset,
                    std::span<const std::span<const std::byte>> srcs,
                    std::size_t total) {
    const std::size_t a = cfg.alignment;
    auto* stage = static_cast<std::byte*>(staging);
    // Edge units the file has ever covered carry live neighbouring bytes;
    // past the high-water they read as zero (sparse-file semantics).
    const std::uint64_t logical = size.load(std::memory_order_relaxed);
    const std::uint64_t covered = (logical + a - 1) / a * a;
    for (std::size_t done = 0; done < total;) {
      const Chunk c = next_chunk(offset + done, total - done);
      const bool head = c.within != 0;
      const bool tail = c.within + c.n < c.chunk;
      const std::uint64_t last = c.c0 + c.chunk - a;
      std::vector<Unit> edges;
      if (head && c.c0 < covered) edges.push_back({c.c0, stage, nullptr, a});
      if (tail && last < covered && !(head && last == c.c0)) {
        edges.push_back({last, stage + c.chunk - a, nullptr, a});
      }
      if (!edges.empty()) {
        run_wave(edges, /*is_read=*/true);
        stats.bounced_bytes += edges.size() * a;
      }
      if (head && c.c0 >= covered) std::memset(stage, 0, c.within);
      if (tail && last >= covered) {
        std::memset(stage + c.within + c.n, 0, c.chunk - c.within - c.n);
      }
      for_each_piece(srcs, done, c.n,
                     [&](const std::byte* p, std::size_t at, std::size_t len) {
                       std::memcpy(stage + c.within + at, p, len);
                     });
      stats.bounced_bytes += c.n;
      std::vector<Unit> w{{c.c0, nullptr, stage, c.chunk}};
      run_wave(w, /*is_read=*/false);
      done += c.n;
    }
    bump_size(offset + total);
  }
};

UringBackend::UringBackend(std::string path, bool keep, UringConfig cfg)
    : impl_(std::make_unique<Impl>()) {
  Impl& s = *impl_;
  s.path = std::move(path);
  s.keep = keep;
  s.cfg = cfg;
  if (s.cfg.alignment == 0 || (s.cfg.alignment & (s.cfg.alignment - 1)) != 0) {
    throw std::invalid_argument("UringBackend: alignment must be a power of 2");
  }
  s.registry_key = detail::claim_backend_path(s.path);
  bool claimed = true;
  try {
    // FileBackend's keep/truncate discipline: only freshly created files
    // are truncated.
    int flags = O_RDWR | O_CREAT;
    bool preexisting = false;
    if (s.keep) {
      struct stat st{};
      preexisting = ::stat(s.path.c_str(), &st) == 0;
    }
    if (!preexisting) flags |= O_TRUNC;
    if (s.cfg.sync_writes) flags |= O_DSYNC;
    if (s.cfg.direct) flags |= O_DIRECT;
    s.file_fd = ::open(s.path.c_str(), flags, 0644);
    if (s.file_fd < 0 && s.cfg.direct && errno == EINVAL) {
      // Filesystem refuses O_DIRECT (tmpfs): degrade to buffered I/O
      // rather than failing the run — direct_io() reports the truth.
      s.file_fd = ::open(s.path.c_str(), flags & ~O_DIRECT, 0644);
    } else if (s.file_fd >= 0 && s.cfg.direct) {
      s.direct = true;
    }
    if (s.file_fd < 0) {
      const int err = errno;
      throw IoError(classify_errno(err), "UringBackend: cannot open " +
                                             s.path + ": " +
                                             std::strerror(err));
    }
    if (preexisting) {
      const off_t end = ::lseek(s.file_fd, 0, SEEK_END);
      if (end > 0) {
        s.size.store(static_cast<std::uint64_t>(end),
                     std::memory_order_relaxed);
      }
    }
    s.setup_ring();
    if (s.direct) {
      s.staging_len = std::max<std::size_t>(s.cfg.alignment, std::size_t{1}
                                                                 << 20);
      s.staging_len = s.staging_len / s.cfg.alignment * s.cfg.alignment;
      s.staging = std::aligned_alloc(s.cfg.alignment, s.staging_len);
      if (s.staging == nullptr) {
        throw std::bad_alloc();
      }
    }
  } catch (...) {
    if (s.ring_fd >= 0 || s.sq_ptr != nullptr) s.teardown_ring();
    if (s.file_fd >= 0) {
      ::close(s.file_fd);
      if (!s.keep) ::unlink(s.path.c_str());
    }
    if (claimed) detail::release_backend_path(s.registry_key);
    throw;
  }
}

UringBackend::~UringBackend() {
  Impl& s = *impl_;
  if (s.staging != nullptr) std::free(s.staging);
  s.teardown_ring();
  if (s.file_fd >= 0) {
    // Staged O_DIRECT writes land in whole aligned chunks, so the physical
    // file may run past the logical high-water mark.  Trim kept files back
    // so the on-disk image is byte-identical to the buffered engines'.
    if (s.keep && s.direct) {
      (void)::ftruncate(s.file_fd,
                        static_cast<off_t>(s.size.load(std::memory_order_acquire)));
    }
    ::close(s.file_fd);
  }
  if (!s.keep) ::unlink(s.path.c_str());
  detail::release_backend_path(s.registry_key);
}

void UringBackend::read(std::uint64_t offset, std::span<std::byte> dst) {
  if (dst.empty()) return;
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.m);
  if (s.direct && !s.aligned(offset, dst.data(), dst.size())) {
    s.staged_read(offset, {&dst, 1}, dst.size());
    return;
  }
  std::vector<Impl::Unit> u{{offset, dst.data(), nullptr, dst.size()}};
  s.run_wave(u, /*is_read=*/true);
}

void UringBackend::write(std::uint64_t offset, std::span<const std::byte> src) {
  if (src.empty()) return;
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.m);
  if (s.direct && !s.aligned(offset, src.data(), src.size())) {
    s.staged_write(offset, {&src, 1}, src.size());
    return;
  }
  std::vector<Impl::Unit> u{{offset, nullptr, src.data(), src.size()}};
  s.run_wave(u, /*is_read=*/false);
  s.bump_size(offset + src.size());
}

void UringBackend::read_vec(std::uint64_t offset,
                            std::span<const std::span<std::byte>> dsts) {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.m);
  std::vector<Impl::Unit> units;
  units.reserve(dsts.size());
  std::uint64_t pos = offset;
  bool ok = true;
  for (const auto& d : dsts) {
    if (!d.empty()) {
      units.push_back({pos, d.data(), nullptr, d.size()});
      ok = ok && (!s.direct || s.aligned(pos, d.data(), d.size()));
    }
    pos += d.size();
  }
  if (units.empty()) return;
  if (!ok) {
    // O_DIRECT with unaligned pieces: the whole run bounces at once.
    s.staged_read(offset, dsts, static_cast<std::size_t>(pos - offset));
    return;
  }
  s.run_wave(units, /*is_read=*/true);
}

void UringBackend::write_vec(std::uint64_t offset,
                             std::span<const std::span<const std::byte>> srcs) {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.m);
  std::vector<Impl::Unit> units;
  units.reserve(srcs.size());
  std::uint64_t pos = offset;
  std::uint64_t total = 0;
  bool ok = true;
  for (const auto& src : srcs) {
    if (!src.empty()) {
      units.push_back({pos, nullptr, src.data(), src.size()});
      ok = ok && (!s.direct || s.aligned(pos, src.data(), src.size()));
    }
    pos += src.size();
    total += src.size();
  }
  if (units.empty()) return;
  if (!ok) {
    s.staged_write(offset, srcs, static_cast<std::size_t>(total));
    return;
  }
  s.run_wave(units, /*is_read=*/false);
  s.bump_size(offset + total);
}

void UringBackend::flush() {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.m);
  const unsigned tail = *s.sq_tail;
  const unsigned idx = tail & s.sq_mask;
  io_uring_sqe* sqe = &s.sqes[idx];
  std::memset(sqe, 0, sizeof(*sqe));
  sqe->opcode = IORING_OP_FSYNC;
  sqe->fd = s.file_fd;
  sqe->fsync_flags = IORING_FSYNC_DATASYNC;
  sqe->user_data = 0;
  s.sq_array[idx] = idx;
  store_release(s.sq_tail, tail + 1);
  s.stats.sqes += 1;
  s.stats.ring_depth.record(1);
  for (;;) {
    const int rc = sys_uring_enter(s.ring_fd, 1, 1, IORING_ENTER_GETEVENTS);
    s.stats.enters += 1;
    if (rc >= 0) break;
    if (errno != EINTR) s.raise("io_uring_enter(fsync)", errno);
  }
  unsigned head = load_acquire(s.cq_head);
  int res = 0;
  while (head != load_acquire(s.cq_tail)) {
    res = s.cqes[head & s.cq_mask].res;
    ++head;
  }
  store_release(s.cq_head, head);
  if (res < 0) s.raise("fsync", -res);
}

std::uint64_t UringBackend::size() const {
  return impl_->size.load(std::memory_order_relaxed);
}

bool UringBackend::register_buffers(
    std::span<const std::span<std::byte>> regions) {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.m);
  if (!s.registered.empty()) {
    sys_uring_register(s.ring_fd, IORING_UNREGISTER_BUFFERS, nullptr, 0);
    s.registered.clear();
  }
  if (regions.empty()) return true;
  std::vector<iovec> iov;
  iov.reserve(regions.size());
  for (const auto& r : regions) {
    if (r.empty()) return false;
    iov.push_back(iovec{r.data(), r.size()});
  }
  if (sys_uring_register(s.ring_fd, IORING_REGISTER_BUFFERS, iov.data(),
                         static_cast<unsigned>(iov.size())) < 0) {
    return false;
  }
  s.registered.reserve(regions.size());
  for (const auto& r : regions) s.registered.push_back({r.data(), r.size()});
  return true;
}

bool UringBackend::direct_io() const { return impl_->direct; }

const UringBackendStats& UringBackend::uring_stats() const {
  return impl_->stats;
}

#else  // !EMBSP_HAVE_URING

// Compile-time fallback: no <linux/io_uring.h>.  The API surface stays so
// callers link unconditionally; construction reports unavailability and
// the factory falls back to FileBackend.

bool uring_supported() { return false; }

struct UringBackend::Impl {};

UringBackend::UringBackend(std::string path, bool /*keep*/, UringConfig /*cfg*/)
    : impl_(nullptr) {
  throw PersistentIoError("UringBackend: built without io_uring support (" +
                          path + ")");
}

UringBackend::~UringBackend() = default;

void UringBackend::read(std::uint64_t, std::span<std::byte>) {}
void UringBackend::write(std::uint64_t, std::span<const std::byte>) {}
void UringBackend::read_vec(std::uint64_t,
                            std::span<const std::span<std::byte>>) {}
void UringBackend::write_vec(std::uint64_t,
                             std::span<const std::span<const std::byte>>) {}
void UringBackend::flush() {}
std::uint64_t UringBackend::size() const { return 0; }
bool UringBackend::register_buffers(std::span<const std::span<std::byte>>) {
  return false;
}
bool UringBackend::direct_io() const { return false; }
const UringBackendStats& UringBackend::uring_stats() const {
  static const UringBackendStats empty;
  return empty;
}

#endif  // EMBSP_HAVE_URING

std::unique_ptr<Backend> make_uring_file_backend(const std::string& path,
                                                 bool keep, UringConfig cfg) {
  if (uring_supported()) {
    return std::make_unique<UringBackend>(path, keep, cfg);
  }
  return make_file_backend(path, keep, cfg.sync_writes);
}

std::function<std::unique_ptr<Backend>(std::size_t)>
make_uring_scratch_factory(std::string dir, std::string tag, UringConfig cfg) {
  if (dir.empty()) {
    std::error_code ec;
    const auto tmp = std::filesystem::temp_directory_path(ec);
    dir = ec ? "." : tmp.string();
  }
  const std::uint64_t run = next_scratch_id();
  return [dir = std::move(dir), tag = std::move(tag), cfg,
          run](std::size_t d) -> std::unique_ptr<Backend> {
    const std::string path = dir + "/embsp_" + tag + "_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(run) + "_d" + std::to_string(d) +
                             ".bin";
    return make_uring_file_backend(path, /*keep=*/false, cfg);
  };
}

}  // namespace embsp::em
