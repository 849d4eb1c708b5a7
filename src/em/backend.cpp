#include "em/backend.hpp"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include "em/io_error.hpp"

namespace embsp::em {

// --- MemoryBackend ---------------------------------------------------------

std::byte* MemoryBackend::segment(std::uint64_t index, bool create) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= segments_.size()) {
    if (!create) return nullptr;
    segments_.resize(index + 1);
  }
  auto& seg = segments_[index];
  if (seg == nullptr) {
    if (!create) return nullptr;
    seg = std::make_unique<std::byte[]>(kSegmentBytes);  // zero-filled
  }
  return seg.get();
}

template <class Buf, class Copy>
std::uint64_t MemoryBackend::for_each_piece(std::uint64_t offset,
                                            std::span<const Buf> bufs,
                                            bool create, Copy&& copy) {
  std::uint64_t cached = UINT64_MAX;  // segment index `seg` resolves
  std::byte* seg = nullptr;
  for (const Buf& buf : bufs) {
    std::size_t done = 0;
    while (done < buf.size()) {
      const std::uint64_t idx = offset / kSegmentBytes;
      const auto within = static_cast<std::size_t>(offset % kSegmentBytes);
      const std::size_t n =
          std::min<std::size_t>(kSegmentBytes - within, buf.size() - done);
      if (idx != cached) {
        seg = segment(idx, create);
        cached = idx;
      }
      copy(buf.subspan(done, n), seg != nullptr ? seg + within : nullptr);
      done += n;
      offset += n;
    }
  }
  return offset;
}

void MemoryBackend::read_vec(std::uint64_t offset,
                             std::span<const std::span<std::byte>> dsts) {
  for_each_piece(offset, dsts, /*create=*/false,
                 [](std::span<std::byte> dst, const std::byte* src) {
                   if (src != nullptr) {
                     std::memcpy(dst.data(), src, dst.size());
                   } else {
                     // Never-written territory reads as zero (freshly
                     // formatted disk).
                     std::memset(dst.data(), 0, dst.size());
                   }
                 });
}

void MemoryBackend::write_vec(
    std::uint64_t offset, std::span<const std::span<const std::byte>> srcs) {
  const std::uint64_t end = for_each_piece(
      offset, srcs, /*create=*/true,
      [](std::span<const std::byte> src, std::byte* dst) {
        std::memcpy(dst, src.data(), src.size());
      });
  std::uint64_t seen = size_.load(std::memory_order_relaxed);
  while (seen < end &&
         !size_.compare_exchange_weak(seen, end, std::memory_order_relaxed)) {
  }
}

// --- FileBackend -----------------------------------------------------------

namespace {

// Live backing files in this process: a second backend on the same path
// would silently clobber the first, so constructors reject it (shared by
// FileBackend and UringBackend through detail::claim_backend_path).
std::mutex g_open_paths_mutex;
std::unordered_set<std::string>& open_paths() {
  static std::unordered_set<std::string> set;
  return set;
}

std::string registry_key_for(const std::string& path) {
  std::error_code ec;
  auto abs = std::filesystem::absolute(path, ec);
  if (ec) return path;
  return abs.lexically_normal().string();
}

}  // namespace

namespace detail {

std::string claim_backend_path(const std::string& path) {
  std::string key = registry_key_for(path);
  std::lock_guard<std::mutex> lock(g_open_paths_mutex);
  if (!open_paths().insert(key).second) {
    throw PersistentIoError(path +
                            " is already open in this process (double-open "
                            "would clobber the backing file)");
  }
  return key;
}

void release_backend_path(const std::string& key) {
  std::lock_guard<std::mutex> lock(g_open_paths_mutex);
  open_paths().erase(key);
}

}  // namespace detail

FileBackend::FileBackend(std::string path, bool keep, bool sync_writes)
    : path_(std::move(path)), keep_(keep) {
  registry_key_ = detail::claim_backend_path(path_);
  // Truncate only files we create: with `keep`, an existing backing file is
  // data the caller asked to preserve across runs.  Scratch files
  // (!keep) are always started fresh.
  int flags = O_RDWR | O_CREAT;
  bool preexisting = false;
  if (keep_) {
    struct stat st{};
    preexisting = ::stat(path_.c_str(), &st) == 0;
  }
  if (!preexisting) flags |= O_TRUNC;
  if (sync_writes) flags |= O_DSYNC;
  // open() can be interrupted too (e.g. O_DSYNC on slow media while an
  // interval timer fires) — retry like the transfer loops do.
  do {
    fd_ = ::open(path_.c_str(), flags, 0644);
  } while (fd_ < 0 && errno == EINTR);
  if (fd_ < 0) {
    const int err = errno;
    detail::release_backend_path(registry_key_);
    throw IoError(classify_errno(err), "FileBackend: cannot open " + path_ +
                                           ": " + std::strerror(err));
  }
  if (preexisting) {
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end > 0) {
      size_.store(static_cast<std::uint64_t>(end),
                  std::memory_order_relaxed);
    }
  }
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
  if (!keep_) ::unlink(path_.c_str());
  detail::release_backend_path(registry_key_);
}

void FileBackend::read(std::uint64_t offset, std::span<std::byte> dst) {
  std::size_t done = 0;
  while (done < dst.size()) {
    const ssize_t got =
        ::pread(fd_, dst.data() + done, dst.size() - done,
                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      throw IoError(classify_errno(err), "FileBackend: read failed on " +
                                             path_ + ": " +
                                             std::strerror(err));
    }
    if (got == 0) {
      // Past EOF: unwritten tracks read as zero.  (Holes inside the file
      // already read as zero through pread itself.)
      std::memset(dst.data() + done, 0, dst.size() - done);
      return;
    }
    done += static_cast<std::size_t>(got);
  }
}

void FileBackend::write(std::uint64_t offset, std::span<const std::byte> src) {
  std::size_t done = 0;
  while (done < src.size()) {
    const ssize_t put =
        ::pwrite(fd_, src.data() + done, src.size() - done,
                 static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      throw IoError(classify_errno(err), "FileBackend: write failed on " +
                                             path_ + ": " +
                                             std::strerror(err));
    }
    done += static_cast<std::size_t>(put);
  }
  const std::uint64_t end = offset + src.size();
  std::uint64_t seen = size_.load(std::memory_order_relaxed);
  while (seen < end &&
         !size_.compare_exchange_weak(seen, end, std::memory_order_relaxed)) {
  }
}

void FileBackend::read_vec(std::uint64_t offset,
                           std::span<const std::span<std::byte>> dsts) {
  std::vector<iovec> iov;
  iov.reserve(dsts.size());
  for (const auto& d : dsts) {
    if (!d.empty()) iov.push_back(iovec{d.data(), d.size()});
  }
  std::size_t idx = 0;  // first iovec not yet fully transferred
  std::uint64_t pos = offset;
  while (idx < iov.size()) {
    const int cnt = static_cast<int>(
        std::min<std::size_t>(iov.size() - idx, std::size_t{IOV_MAX}));
    const ssize_t got =
        ::preadv(fd_, iov.data() + idx, cnt, static_cast<off_t>(pos));
    if (got < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      throw IoError(classify_errno(err), "FileBackend: preadv failed on " +
                                             path_ + ": " +
                                             std::strerror(err));
    }
    if (got == 0) {
      // Past EOF: unwritten tracks read as zero, same as the scalar path.
      for (; idx < iov.size(); ++idx) {
        std::memset(iov[idx].iov_base, 0, iov[idx].iov_len);
      }
      return;
    }
    pos += static_cast<std::uint64_t>(got);
    auto remaining = static_cast<std::size_t>(got);
    while (remaining > 0 && idx < iov.size()) {
      if (remaining >= iov[idx].iov_len) {
        remaining -= iov[idx].iov_len;
        ++idx;
      } else {
        iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + remaining;
        iov[idx].iov_len -= remaining;
        remaining = 0;
      }
    }
  }
}

void FileBackend::write_vec(std::uint64_t offset,
                            std::span<const std::span<const std::byte>> srcs) {
  std::vector<iovec> iov;
  iov.reserve(srcs.size());
  std::uint64_t total = 0;
  for (const auto& s : srcs) {
    total += s.size();
    if (!s.empty()) {
      // pwritev never modifies the buffers; iovec just lacks a const view.
      iov.push_back(iovec{const_cast<std::byte*>(s.data()), s.size()});
    }
  }
  std::size_t idx = 0;
  std::uint64_t pos = offset;
  while (idx < iov.size()) {
    const int cnt = static_cast<int>(
        std::min<std::size_t>(iov.size() - idx, std::size_t{IOV_MAX}));
    const ssize_t put =
        ::pwritev(fd_, iov.data() + idx, cnt, static_cast<off_t>(pos));
    if (put < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      throw IoError(classify_errno(err), "FileBackend: pwritev failed on " +
                                             path_ + ": " +
                                             std::strerror(err));
    }
    pos += static_cast<std::uint64_t>(put);
    auto remaining = static_cast<std::size_t>(put);
    while (remaining > 0 && idx < iov.size()) {
      if (remaining >= iov[idx].iov_len) {
        remaining -= iov[idx].iov_len;
        ++idx;
      } else {
        iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + remaining;
        iov[idx].iov_len -= remaining;
        remaining = 0;
      }
    }
  }
  const std::uint64_t end = offset + total;
  std::uint64_t seen = size_.load(std::memory_order_relaxed);
  while (seen < end &&
         !size_.compare_exchange_weak(seen, end, std::memory_order_relaxed)) {
  }
}

void FileBackend::flush() {
  // fdatasync blocks for the full device flush, making it the likeliest
  // call to take a signal mid-flight; bailing out here would report a
  // durability failure that never happened.
  int rc;
  do {
    rc = ::fdatasync(fd_);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int err = errno;
    throw IoError(classify_errno(err), "FileBackend: fdatasync failed on " +
                                           path_ + ": " + std::strerror(err));
  }
}

std::unique_ptr<Backend> make_memory_backend() {
  return std::make_unique<MemoryBackend>();
}

std::unique_ptr<Backend> make_file_backend(const std::string& path, bool keep,
                                           bool sync_writes) {
  return std::make_unique<FileBackend>(path, keep, sync_writes);
}

}  // namespace embsp::em
