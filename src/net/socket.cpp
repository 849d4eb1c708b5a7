// Unix-domain / TCP socket transport: one worker process per real
// processor, full-mesh stream connections.
//
// Mesh bring-up: rank r binds its own listener (unix "<prefix>.r", or TCP
// port base+r), connects to every lower rank (retrying with backoff while
// the peer is still launching), then accepts every higher rank.  Each
// accepted/established connection starts with a HELLO frame carrying the
// sender's rank.  The connect-to-lower / accept-from-higher split makes
// bring-up deadlock-free: a listener exists as soon as its process starts,
// independent of that process's own connect progress.
//
// Data plane: post() encodes one frame per message — header, then the
// caller's fragments copied back to back — onto the end of the peer's
// contiguous send buffer, so the caller's storage is free the moment post()
// returns and a send() moves many frames at once.  The syscall count
// follows bytes, not posts: progress() does nothing until the unsent
// backlog across links reaches kPumpBytes, then runs one poll() pass.
// exchange() pumps all links from one poll() loop until everything has
// drained, servicing reads and writes simultaneously, and then releases
// the send buffers.  That concurrency is load-bearing, not an
// optimization: in an all-to-all phase every rank is sending at once, so a
// send-then-receive schedule deadlocks as soon as h-relations exceed the
// kernel's socket buffers.  A phase ends on this side when every peer's
// END frame has arrived and every queued frame has drained; bytes that
// arrive after a peer's END (the next phase, from a fast sender) stay
// buffered and are parsed at the next exchange().
//
// Every wait carries a deadline; expiry throws PeerTimeoutError naming the
// laggard ranks.  A dead connection is PeerFailedError, a checksum or
// framing violation CorruptFrameError — all NetError, all classified on
// the em::IoError taxonomy.
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/frame.hpp"
#include "net/link_stats.hpp"
#include "net/transport.hpp"
#include "util/checksum.hpp"

namespace embsp::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Unsent bytes, summed over links, below which progress() makes no
/// syscall: one poll()+send() per 128 or more 512-byte blocks instead of
/// one per post.  A constant, not an option: it trades nothing the caller
/// could tune — exchange() drains whatever is left either way, and 64 KiB
/// still fits in one kernel socket buffer, so a pass that does run drains
/// it without waiting on the peer.
constexpr std::size_t kPumpBytes = 64 * 1024;

[[noreturn]] void throw_errno(const std::string& what, int err) {
  throw NetError(em::classify_errno(err),
                 what + ": " + std::strerror(err) + " (errno " +
                     std::to_string(err) + ")");
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("net: fcntl(O_NONBLOCK)", errno);
  }
}

/// "host:port" with a numeric port → TCP; anything else is a unix path
/// prefix.
bool is_tcp_address(const std::string& addr, std::string& host,
                    std::uint16_t& port) {
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size()) return false;
  const std::string tail = addr.substr(colon + 1);
  if (tail.find_first_not_of("0123456789") != std::string::npos) return false;
  const unsigned long val = std::strtoul(tail.c_str(), nullptr, 10);
  if (val == 0 || val > 65535) return false;
  host = addr.substr(0, colon);
  port = static_cast<std::uint16_t>(val);
  return true;
}

struct Address {
  bool tcp = false;
  std::string host;      // tcp
  std::uint16_t port = 0;  // tcp base port; rank r uses port + r
  std::string prefix;    // unix path prefix; rank r uses "<prefix>.r"

  [[nodiscard]] std::string describe(std::uint32_t rank) const {
    return tcp ? host + ":" + std::to_string(port + rank)
               : prefix + "." + std::to_string(rank);
  }
};

Address parse_address(const std::string& addr) {
  Address a;
  a.tcp = is_tcp_address(addr, a.host, a.port);
  if (!a.tcp) a.prefix = addr;
  return a;
}

int open_tcp_socket(const Address& a, std::uint32_t rank, bool listen_side,
                    sockaddr_in& out) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  if (listen_side) hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(a.port + rank);
  const char* node = a.host.empty() ? nullptr : a.host.c_str();
  if (const int rc = ::getaddrinfo(node, port.c_str(), &hints, &res);
      rc != 0 || res == nullptr) {
    throw NetError(em::IoError::Kind::persistent,
                   "net: cannot resolve " + a.describe(rank) + ": " +
                       ::gai_strerror(rc));
  }
  std::memcpy(&out, res->ai_addr, sizeof(sockaddr_in));
  ::freeaddrinfo(res);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("net: socket", errno);
  return fd;
}

class SocketTransport final : public Transport {
 public:
  SocketTransport(const SocketConfig& cfg)
      : addr_(parse_address(cfg.address)),
        rank_(cfg.rank),
        p_(cfg.peers),
        io_timeout_ms_(cfg.io_timeout_ms),
        peers_(cfg.peers),
        links_(cfg.peers) {
    if (rank_ >= p_) {
      throw NetError(em::IoError::Kind::persistent,
                     "net: rank " + std::to_string(rank_) +
                         " out of range for " + std::to_string(p_) +
                         " peers");
    }
    try {
      connect_mesh(cfg.connect_timeout_ms);
    } catch (...) {
      close_all();
      throw;
    }
  }

  ~SocketTransport() override { close_all(); }

  [[nodiscard]] std::uint32_t rank() const override { return rank_; }
  [[nodiscard]] std::uint32_t size() const override { return p_; }

  void post(std::uint32_t dst,
            std::span<const std::span<const std::byte>> frags) override {
    const std::size_t total = message_size(frags);
    if (dst == rank_) {
      // Self delivery never touches the wire: materialize the gathered
      // fragments exactly as the receive path would.
      Blob blob(total);
      std::size_t off = 0;
      for (const auto& f : frags) {
        std::memcpy(blob.data() + off, f.data(), f.size());
        off += f.size();
      }
      self_ready_.push_back(std::move(blob));
      return;
    }
    FrameHeader h;
    h.kind = FrameKind::data;
    h.src = rank_;
    h.len = static_cast<std::uint32_t>(total);
    queue_frame(dst, h, frags);
    links_[dst].frames_sent += 1;
    links_[dst].send_bytes.record(total);
  }

  void progress() override {
    // One non-blocking pump pass: drain whatever the kernel will take,
    // buffer whatever peers have delivered, return.  poll(0) never sleeps
    // and a zero result is simply "nothing movable right now" — the io
    // deadline belongs to exchange(), not here.  Bytes drained from this
    // path are the overlap the caller bought by interleaving progress()
    // with its compute/disk work.  A backlog under kPumpBytes waits for
    // more posts (or for exchange()).
    if (unsent_bytes_ < kPumpBytes) return;
    progressing_ = true;
    struct Reset {
      bool& flag;
      ~Reset() { flag = false; }
    } reset{progressing_};
    pfds_.clear();
    pfd_rank_.clear();
    for (std::uint32_t q = 0; q < p_; ++q) {
      if (q == rank_) continue;
      Peer& peer = peers_[q];
      if (peer.fd < 0) continue;
      short events = POLLIN;  // early next-phase bytes are parsed and kept
      if (peer.unsent()) events |= POLLOUT;
      pfds_.push_back({peer.fd, events, 0});
      pfd_rank_.push_back(q);
    }
    if (pfds_.empty()) return;
    const int n = ::poll(pfds_.data(), pfds_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) return;
      throw_errno("net: poll", errno);
    }
    if (n == 0) return;
    for (std::size_t i = 0; i < pfds_.size(); ++i) {
      const std::uint32_t q = pfd_rank_[i];
      if (pfds_[i].revents == 0) continue;
      if (pfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        read_some(q);
        parse_frames(q);
      }
      if (pfds_[i].revents & POLLOUT) write_some(q);
    }
  }

  std::vector<std::vector<Blob>> exchange() override {
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::milliseconds(io_timeout_ms_);
    // Phase delimiters: one END frame per peer, after all queued data.
    for (std::uint32_t q = 0; q < p_; ++q) {
      if (q == rank_) continue;
      FrameHeader h;
      h.kind = FrameKind::end;
      h.src = rank_;
      queue_frame(q, h, {});
      // A fast peer may already have delivered next-phase bytes; frames
      // buffered past the previous END are parsed now.
      parse_frames(q);
    }
    pump(deadline);
    std::vector<std::vector<Blob>> out(p_);
    for (std::uint32_t q = 0; q < p_; ++q) {
      if (q == rank_) {
        out[q] = std::move(self_ready_);
        self_ready_.clear();
        continue;
      }
      out[q] = std::move(peers_[q].ready);
      peers_[q].ready.clear();
      peers_[q].end_seen = false;
      // Everything queued has drained: give the phase's send buffer back,
      // so an idle rank holds none.
      peers_[q].outbuf = std::vector<std::byte>();
      peers_[q].out_pos = 0;
      links_[q].inflight_bytes = 0;
    }
    ++exchanges_;
    exchange_wait_ns_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count()));
    return out;
  }

  void abort(const std::string& reason) noexcept override {
    try {
      std::array<std::byte, kFrameHeaderBytes> hdr;
      const auto payload = std::as_bytes(
          std::span<const char>(reason.data(), reason.size()));
      FrameHeader h;
      h.kind = FrameKind::abort;
      h.src = rank_;
      h.len = static_cast<std::uint32_t>(payload.size());
      h.checksum = util::checksum64(payload);
      encode_frame_header(h, hdr);
      for (std::uint32_t q = 0; q < p_; ++q) {
        if (q == rank_ || peers_[q].fd < 0) continue;
        // Best effort with a short budget; an unreachable peer falls back
        // to its own timeout.
        send_blocking(peers_[q].fd, hdr.data(), hdr.size(), 2000);
        send_blocking(peers_[q].fd, payload.data(), payload.size(), 2000);
      }
    } catch (...) {
    }
  }

  void export_metrics(obs::Registry& reg) const override {
    const double ratio =
        total_drained_bytes_ > 0
            ? static_cast<double>(progressed_drained_bytes_) /
                  static_cast<double>(total_drained_bytes_)
            : 0.0;
    export_link_metrics(reg, links_, rank_, exchanges_, exchange_wait_ns_,
                        ratio);
  }

 private:
  struct Peer {
    int fd = -1;
    // --- send side: frames encoded by post(), drained by write_some() ----
    std::vector<std::byte> outbuf;
    std::size_t out_pos = 0;  ///< first unsent byte of outbuf
    [[nodiscard]] bool unsent() const { return out_pos < outbuf.size(); }
    // --- receive side ----------------------------------------------------
    std::vector<std::byte> inbuf;
    std::size_t parse_pos = 0;
    std::vector<Blob> ready;
    bool end_seen = false;
  };

  /// Appends header + payload to the peer's send buffer and checksums the
  /// payload where it landed.
  void queue_frame(std::uint32_t q, FrameHeader h,
                   std::span<const std::span<const std::byte>> frags) {
    auto& buf = peers_[q].outbuf;
    const std::size_t at = buf.size();
    buf.resize(at + kFrameHeaderBytes);
    for (const auto& f : frags) buf.insert(buf.end(), f.begin(), f.end());
    h.checksum = util::checksum64(
        std::span<const std::byte>(buf).subspan(at + kFrameHeaderBytes));
    encode_frame_header(
        h, std::span<std::byte>(buf).subspan(at, kFrameHeaderBytes));
    const std::size_t frame = buf.size() - at;
    unsent_bytes_ += frame;
    auto& l = links_[q];
    l.bytes_sent += frame;
    l.inflight_bytes += frame;
    l.max_inflight_bytes = std::max(l.max_inflight_bytes, l.inflight_bytes);
  }

  /// Drives every link until all sends drained and all ENDs arrived.  The
  /// deadline is refreshed whenever any link makes progress: a peer that
  /// is slow but still flowing never trips the timeout, only one that goes
  /// completely silent for io_timeout_ms does.
  void pump(Clock::time_point deadline) {
    for (;;) {
      pfds_.clear();
      pfd_rank_.clear();
      bool pending = false;
      for (std::uint32_t q = 0; q < p_; ++q) {
        if (q == rank_) continue;
        Peer& peer = peers_[q];
        short events = 0;
        if (peer.unsent()) events |= POLLOUT;
        if (!peer.end_seen) events |= POLLIN;
        if (events == 0) continue;
        pending = true;
        pfds_.push_back({peer.fd, events, 0});
        pfd_rank_.push_back(q);
      }
      if (!pending) return;
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now());
      if (remaining.count() <= 0) throw_timeout();
      const int n = ::poll(pfds_.data(), pfds_.size(),
                           static_cast<int>(remaining.count()));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("net: poll", errno);
      }
      if (n == 0) throw_timeout();
      deadline = Clock::now() + std::chrono::milliseconds(io_timeout_ms_);
      for (std::size_t i = 0; i < pfds_.size(); ++i) {
        const std::uint32_t q = pfd_rank_[i];
        if (pfds_[i].revents == 0) continue;
        if (pfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          read_some(q);
          parse_frames(q);
        }
        if (pfds_[i].revents & POLLOUT) write_some(q);
      }
    }
  }

  [[noreturn]] void throw_timeout() const {
    std::string slow;
    for (std::uint32_t q = 0; q < p_; ++q) {
      if (q == rank_) continue;
      const Peer& peer = peers_[q];
      if (peer.unsent() || !peer.end_seen) {
        if (!slow.empty()) slow += ", ";
        slow += std::to_string(q);
      }
    }
    throw PeerTimeoutError("net: exchange timed out after " +
                           std::to_string(io_timeout_ms_) +
                           "ms waiting on rank(s) " + slow);
  }

  void write_some(std::uint32_t q) {
    Peer& peer = peers_[q];
    while (peer.unsent()) {
      const ssize_t n =
          ::send(peer.fd, peer.outbuf.data() + peer.out_pos,
                 peer.outbuf.size() - peer.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        const int err = errno;
        if (err == EINTR) continue;
        if (err == EAGAIN || err == EWOULDBLOCK) return;
        if (err == EPIPE || err == ECONNRESET) {
          throw PeerFailedError("net: rank " + std::to_string(q) +
                                " closed the connection mid-phase");
        }
        throw_errno("net: send to rank " + std::to_string(q), err);
      }
      const auto drained = static_cast<std::size_t>(n);
      peer.out_pos += drained;
      unsent_bytes_ -= drained;
      links_[q].inflight_bytes -=
          std::min<std::uint64_t>(links_[q].inflight_bytes, drained);
      total_drained_bytes_ += drained;
      if (progressing_) progressed_drained_bytes_ += drained;
    }
    // Fully drained: later posts refill the buffer from the front, so its
    // size tracks the unsent backlog rather than the phase volume.
    peer.outbuf.clear();
    peer.out_pos = 0;
  }

  void read_some(std::uint32_t q) {
    Peer& peer = peers_[q];
    for (;;) {
      const std::size_t old = peer.inbuf.size();
      peer.inbuf.resize(old + 256 * 1024);
      const ssize_t n =
          ::recv(peer.fd, peer.inbuf.data() + old, peer.inbuf.size() - old, 0);
      if (n < 0) {
        peer.inbuf.resize(old);
        const int err = errno;
        if (err == EINTR) continue;
        if (err == EAGAIN || err == EWOULDBLOCK) return;
        throw_errno("net: recv from rank " + std::to_string(q), err);
      }
      if (n == 0) {
        peer.inbuf.resize(old);
        throw PeerFailedError("net: rank " + std::to_string(q) +
                              " closed the connection mid-phase");
      }
      peer.inbuf.resize(old + static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < 256 * 1024) return;  // drained
    }
  }

  /// Consumes complete frames from the peer's buffer, stopping at its END
  /// frame for this phase — later bytes belong to the next phase.
  void parse_frames(std::uint32_t q) {
    Peer& peer = peers_[q];
    while (!peer.end_seen &&
           peer.inbuf.size() - peer.parse_pos >= kFrameHeaderBytes) {
      const std::span<const std::byte> buf(
          peer.inbuf.data() + peer.parse_pos,
          peer.inbuf.size() - peer.parse_pos);
      const FrameHeader h = decode_frame_header(buf);
      if (buf.size() < kFrameHeaderBytes + h.len) break;  // partial payload
      const auto payload = buf.subspan(kFrameHeaderBytes, h.len);
      if (util::checksum64(payload) != h.checksum) {
        throw CorruptFrameError(
            "net: frame from rank " + std::to_string(q) +
            " failed its checksum (" + std::to_string(h.len) + " bytes)");
      }
      if (h.src != q) {
        throw CorruptFrameError("net: frame on link " + std::to_string(q) +
                                " claims src " + std::to_string(h.src));
      }
      peer.parse_pos += kFrameHeaderBytes + h.len;
      links_[q].bytes_received += kFrameHeaderBytes + h.len;
      switch (h.kind) {
        case FrameKind::data:
          peer.ready.emplace_back(payload.begin(), payload.end());
          links_[q].frames_received += 1;
          break;
        case FrameKind::end:
          peer.end_seen = true;
          break;
        case FrameKind::abort:
          throw PeerFailedError(
              "net: rank " + std::to_string(q) + " aborted: " +
              std::string(reinterpret_cast<const char*>(payload.data()),
                          payload.size()));
        case FrameKind::hello:
          throw CorruptFrameError("net: unexpected HELLO from rank " +
                                  std::to_string(q) + " after handshake");
      }
    }
    if (peer.parse_pos == peer.inbuf.size()) {
      peer.inbuf.clear();
      peer.parse_pos = 0;
    } else if (peer.parse_pos >= 1u << 20) {
      peer.inbuf.erase(peer.inbuf.begin(),
                       peer.inbuf.begin() +
                           static_cast<std::ptrdiff_t>(peer.parse_pos));
      peer.parse_pos = 0;
    }
  }

  // --- mesh bring-up ------------------------------------------------------

  void connect_mesh(std::uint64_t connect_timeout_ms) {
    if (p_ == 1) return;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(connect_timeout_ms);
    open_listener();
    for (std::uint32_t q = 0; q < rank_; ++q) connect_to(q, deadline);
    accept_higher(deadline);
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!addr_.tcp) ::unlink(addr_.describe(rank_).c_str());
    for (std::uint32_t q = 0; q < p_; ++q) {
      if (q == rank_) continue;
      set_nonblocking(peers_[q].fd);
      if (addr_.tcp) {
        const int one = 1;
        ::setsockopt(peers_[q].fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
      }
    }
  }

  void open_listener() {
    if (addr_.tcp) {
      sockaddr_in sa{};
      listen_fd_ = open_tcp_socket(addr_, rank_, /*listen_side=*/true, sa);
      const int one = 1;
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) <
          0) {
        throw_errno("net: bind " + addr_.describe(rank_), errno);
      }
    } else {
      const std::string path = addr_.describe(rank_);
      sockaddr_un sa{};
      if (path.size() >= sizeof(sa.sun_path)) {
        throw NetError(em::IoError::Kind::persistent,
                       "net: unix socket path too long: " + path);
      }
      ::unlink(path.c_str());
      listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (listen_fd_ < 0) throw_errno("net: socket", errno);
      sa.sun_family = AF_UNIX;
      std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) <
          0) {
        throw_errno("net: bind " + path, errno);
      }
    }
    if (::listen(listen_fd_, static_cast<int>(p_)) < 0) {
      throw_errno("net: listen", errno);
    }
  }

  void connect_to(std::uint32_t q, Clock::time_point deadline) {
    std::uint64_t backoff_ms = 1;
    for (;;) {
      int fd = -1;
      int err = 0;
      if (addr_.tcp) {
        sockaddr_in sa{};
        fd = open_tcp_socket(addr_, q, /*listen_side=*/false, sa);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) ==
            0) {
          err = -1;  // connected
        } else {
          err = errno;
        }
      } else {
        const std::string path = addr_.describe(q);
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) throw_errno("net: socket", errno);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) ==
            0) {
          err = -1;
        } else {
          err = errno;
        }
      }
      if (err == -1) {
        send_hello(fd, q);
        peers_[q].fd = fd;
        return;
      }
      ::close(fd);
      // The peer may simply not have started yet: retry with backoff on
      // the not-up-yet errnos until the handshake budget runs out.
      if (err != ECONNREFUSED && err != ENOENT && err != ETIMEDOUT &&
          err != EINTR && err != EAGAIN) {
        throw_errno("net: connect to rank " + std::to_string(q) + " at " +
                        addr_.describe(q),
                    err);
      }
      if (Clock::now() + std::chrono::milliseconds(backoff_ms) > deadline) {
        throw PeerTimeoutError("net: rank " + std::to_string(q) + " at " +
                               addr_.describe(q) +
                               " did not come up within the connect budget");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min<std::uint64_t>(backoff_ms * 2, 100);
    }
  }

  void send_hello(int fd, std::uint32_t q) {
    std::array<std::byte, kFrameHeaderBytes> hdr;
    FrameHeader h;
    h.kind = FrameKind::hello;
    h.src = rank_;
    h.checksum = util::checksum64({});
    encode_frame_header(h, hdr);
    if (!send_blocking(fd, hdr.data(), hdr.size(), 5000)) {
      ::close(fd);
      throw PeerFailedError("net: HELLO to rank " + std::to_string(q) +
                            " failed");
    }
  }

  void accept_higher(Clock::time_point deadline) {
    std::uint32_t missing = p_ - rank_ - 1;
    while (missing > 0) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now());
      if (remaining.count() <= 0) {
        throw PeerTimeoutError(
            "net: " + std::to_string(missing) +
            " higher-ranked peer(s) never connected within the handshake "
            "budget");
      }
      const int n = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("net: poll(listen)", errno);
      }
      if (n == 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        throw_errno("net: accept", errno);
      }
      // The HELLO frame tells us which rank this connection is.
      std::array<std::byte, kFrameHeaderBytes> hdr;
      if (!recv_blocking(fd, hdr.data(), hdr.size(), deadline)) {
        ::close(fd);
        continue;
      }
      FrameHeader h;
      try {
        h = decode_frame_header(hdr);
      } catch (const CorruptFrameError&) {
        ::close(fd);
        continue;
      }
      if (h.kind != FrameKind::hello || h.src <= rank_ || h.src >= p_ ||
          peers_[h.src].fd >= 0) {
        ::close(fd);
        continue;
      }
      peers_[h.src].fd = fd;
      --missing;
    }
  }

  static bool send_blocking(int fd, const void* data, std::size_t len,
                            std::uint64_t budget_ms) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
    const auto* p = static_cast<const std::byte*>(data);
    while (len > 0) {
      const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
      if (n > 0) {
        p += n;
        len -= static_cast<std::size_t>(n);
        continue;
      }
      const int err = errno;
      if (err == EINTR) continue;
      if ((err == EAGAIN || err == EWOULDBLOCK) && Clock::now() < deadline) {
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, 50);
        continue;
      }
      return false;
    }
    return true;
  }

  static bool recv_blocking(int fd, void* data, std::size_t len,
                            Clock::time_point deadline) {
    auto* p = static_cast<std::byte*>(data);
    while (len > 0) {
      pollfd pfd{fd, POLLIN, 0};
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now());
      if (remaining.count() <= 0) return false;
      const int pn = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (pn < 0 && errno != EINTR) return false;
      if (pn <= 0) continue;
      const ssize_t n = ::recv(fd, p, len, 0);
      if (n > 0) {
        p += n;
        len -= static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    return true;
  }

  void close_all() noexcept {
    for (auto& peer : peers_) {
      if (peer.fd >= 0) {
        ::close(peer.fd);
        peer.fd = -1;
      }
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      if (!addr_.tcp) ::unlink(addr_.describe(rank_).c_str());
    }
  }

  const Address addr_;
  const std::uint32_t rank_;
  const std::uint32_t p_;
  const std::uint64_t io_timeout_ms_;
  int listen_fd_ = -1;
  std::vector<Peer> peers_;
  std::vector<Blob> self_ready_;
  std::vector<LinkStats> links_;
  std::uint64_t exchanges_ = 0;
  obs::LogHistogram exchange_wait_ns_;
  // Poll scratch, reused by pump() and progress() across every exchange
  // (reallocating these per pump iteration showed up in bench/net_routing
  // at small h-relations).
  std::vector<pollfd> pfds_;
  std::vector<std::uint32_t> pfd_rank_;
  /// Bytes queued in the send buffers and not yet taken by the kernel,
  /// summed over links; progress() compares it with kPumpBytes.
  std::size_t unsent_bytes_ = 0;
  /// True while progress() drives write_some: those drained bytes were
  /// hidden behind the caller's compute/disk work.
  bool progressing_ = false;
  std::uint64_t total_drained_bytes_ = 0;
  std::uint64_t progressed_drained_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Transport> make_socket_transport(const SocketConfig& cfg) {
  return std::make_unique<SocketTransport>(cfg);
}

}  // namespace embsp::net
