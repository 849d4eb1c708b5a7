// Transport-tier tests: unit tests for the loopback and socket backends and
// the wire framing — and the cross-backend parity suite, which pins the
// guarantee of the Algorithm 3 rank loop: same seed, same workload →
// byte-identical final states, SuperstepCosts, IoStats and fault histories
// on
//   ParSimulator (its own deadline-free loopback group)  vs  hand-driven
//   loopback DistSimulator ranks  vs  socket DistSimulator ranks (full wire
//   protocol over unix-domain sockets).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>

#include "net/frame.hpp"
#include "net/transport.hpp"
#include "obs/span.hpp"
#include "sim/dist_simulator.hpp"
#include "sim/par_simulator.hpp"
#include "sim/seq_simulator.hpp"
#include "rank_groups.hpp"
#include "test_programs.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"

namespace embsp::sim {
namespace {

using embsp::testing::BigMessageProgram;
using embsp::testing::IrregularProgram;
using embsp::testing::make_socket_group;
using embsp::testing::PrefixSumProgram;
using embsp::testing::RingProgram;
using embsp::testing::run_ranks;
using embsp::testing::SocketRanks;
using embsp::testing::unix_prefix;

std::vector<std::byte> bytes_of(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

// --- Frame encoding ---------------------------------------------------------

TEST(Frame, HeaderRoundTrip) {
  net::FrameHeader h;
  h.kind = net::FrameKind::data;
  h.src = 3;
  h.len = 4096;
  h.checksum = 0xdeadbeefcafef00dULL;
  std::array<std::byte, net::kFrameHeaderBytes> buf;
  net::encode_frame_header(h, buf);
  const auto got = net::decode_frame_header(buf);
  EXPECT_EQ(got.kind, h.kind);
  EXPECT_EQ(got.src, h.src);
  EXPECT_EQ(got.len, h.len);
  EXPECT_EQ(got.checksum, h.checksum);
}

TEST(Frame, BadMagicIsCorrupt) {
  std::array<std::byte, net::kFrameHeaderBytes> buf{};
  EXPECT_THROW(net::decode_frame_header(buf), net::CorruptFrameError);
}

TEST(Frame, UnknownKindAndOversizedLengthAreCorrupt) {
  net::FrameHeader h;
  std::array<std::byte, net::kFrameHeaderBytes> buf;
  net::encode_frame_header(h, buf);
  buf[4] = static_cast<std::byte>(200);  // kind
  EXPECT_THROW(net::decode_frame_header(buf), net::CorruptFrameError);

  h.len = net::kMaxFramePayload + 1;
  net::encode_frame_header(h, buf);
  EXPECT_THROW(net::decode_frame_header(buf), net::CorruptFrameError);
}

TEST(Frame, NetErrorsClassifyOnTheIoTaxonomy) {
  EXPECT_EQ(net::PeerTimeoutError("x").kind(), em::IoError::Kind::transient);
  EXPECT_EQ(net::PeerFailedError("x").kind(), em::IoError::Kind::persistent);
  EXPECT_EQ(net::CorruptFrameError("x").kind(), em::IoError::Kind::corrupt);
}

// --- Transport behavior (parameterized over backends) -----------------------

void exercise_ordering(std::vector<std::unique_ptr<net::Transport>>& eps) {
  const auto p = static_cast<std::uint32_t>(eps.size());
  run_ranks(eps, [p](std::uint32_t me, net::Transport& tp) {
    ASSERT_EQ(tp.rank(), me);
    ASSERT_EQ(tp.size(), p);
    // Phase 1: rank r sends "r->q #i" to every q (self included), i = 0,1.
    for (std::uint32_t q = 0; q < p; ++q) {
      for (int i = 0; i < 2; ++i) {
        const auto msg = bytes_of(std::to_string(me) + "->" +
                                  std::to_string(q) + " #" +
                                  std::to_string(i));
        tp.post(q, std::span<const std::byte>(msg));
      }
    }
    auto got = tp.exchange();
    ASSERT_EQ(got.size(), p);
    for (std::uint32_t src = 0; src < p; ++src) {
      ASSERT_EQ(got[src].size(), 2u) << "src " << src;
      for (int i = 0; i < 2; ++i) {
        const std::string want = std::to_string(src) + "->" +
                                 std::to_string(me) + " #" + std::to_string(i);
        EXPECT_EQ(got[src][i], bytes_of(want));
      }
    }
    // Phase 2: empty phase — barrier only.
    got = tp.exchange();
    for (std::uint32_t src = 0; src < p; ++src) {
      EXPECT_TRUE(got[src].empty());
    }
    // Phase 3: gathered fragments arrive concatenated.
    const auto a = bytes_of("frag-a|"), b = bytes_of("frag-b");
    const std::span<const std::byte> frags[2] = {a, b};
    tp.post((me + 1) % p, frags);
    got = tp.exchange();
    EXPECT_EQ(got[(me + p - 1) % p].at(0), bytes_of("frag-a|frag-b"));
  });
}

TEST(LoopbackTransport, OrderingBarrierAndFragments) {
  auto eps = net::make_loopback_group(3);
  exercise_ordering(eps);
}

TEST(SocketTransport, OrderingBarrierAndFragments) {
  auto eps = make_socket_group(3, "order");
  exercise_ordering(eps);
}

TEST(SocketTransport, LargePayloadsInterleaveWithoutDeadlock) {
  // All-to-all h-relation far beyond the kernel socket buffers: a transport
  // that sends before reading would deadlock here.
  auto eps = make_socket_group(2, "big");
  run_ranks(eps, [](std::uint32_t me, net::Transport& tp) {
    util::Rng rng(me + 1);
    std::vector<std::byte> big(8u << 20);
    for (auto& b : big) b = static_cast<std::byte>(rng.below(256));
    tp.post(1 - me, std::span<const std::byte>(big));
    auto got = tp.exchange();
    ASSERT_EQ(got[1 - me].size(), 1u);
    util::Rng peer(2 - me);
    const auto& blob = got[1 - me][0];
    ASSERT_EQ(blob.size(), big.size());
    bool ok = true;
    for (const auto& b : blob) {
      ok = ok && b == static_cast<std::byte>(peer.below(256));
    }
    EXPECT_TRUE(ok) << "payload corrupted in flight";
  });
}

TEST(LoopbackTransport, AbortSurfacesAsPeerFailure) {
  auto eps = net::make_loopback_group(2);
  run_ranks(eps, [](std::uint32_t me, net::Transport& tp) {
    if (me == 1) {
      tp.abort("deliberate test failure");
      return;
    }
    EXPECT_THROW(tp.exchange(), net::PeerFailedError);
  });
}

TEST(SocketTransport, AbortSurfacesAsPeerFailure) {
  auto eps = make_socket_group(2, "abort");
  run_ranks(eps, [](std::uint32_t me, net::Transport& tp) {
    if (me == 1) {
      tp.abort("deliberate test failure");
      return;
    }
    try {
      tp.exchange();
      FAIL() << "exchange should have observed the abort";
    } catch (const net::NetError& e) {
      // Abort frame → PeerFailedError carrying the reason; if the peer's
      // close races ahead of the frame, the disconnect is still a typed
      // peer failure, never a hang.
      EXPECT_EQ(e.kind(), em::IoError::Kind::persistent);
    }
  });
}

TEST(LoopbackTransport, MissingPeerTimesOut) {
  auto eps = net::make_loopback_group(2, /*timeout_ms=*/150);
  // Rank 1 never calls exchange().
  EXPECT_THROW(eps[0]->exchange(), net::PeerTimeoutError);
}

TEST(LoopbackTransport, DeadlineFreeGroupWaitsForStraggler) {
  // ParSimulator's group: a straggling rank is slow, never lost.
  auto eps = net::make_loopback_group(2, /*timeout_ms=*/0);
  run_ranks(eps, [](std::uint32_t me, net::Transport& tp) {
    if (me == 1) std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto msg = bytes_of("late");
    tp.post(1 - me, std::span<const std::byte>(msg));
    const auto got = tp.exchange();
    EXPECT_EQ(got[1 - me].at(0), msg);
  });
}

TEST(SocketTransport, MissingPeerEndTimesOut) {
  std::vector<std::unique_ptr<net::Transport>> eps(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      net::SocketConfig cfg;
      cfg.address = unix_prefix("timeout");
      cfg.rank = r;
      cfg.peers = 2;
      cfg.io_timeout_ms = 200;
      eps[r] = net::make_socket_transport(cfg);
    });
  }
  for (auto& t : threads) t.join();
  // Rank 1 stays silent: rank 0's exchange must name it and give up.
  try {
    eps[0]->exchange();
    FAIL() << "exchange should have timed out";
  } catch (const net::PeerTimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("rank(s) 1"), std::string::npos)
        << e.what();
  }
}

TEST(SocketTransport, SlowSuperstepBetweenPostAndExchangeDoesNotTimeOut) {
  // Regression for the deadline clock: it must start at exchange()/complete(),
  // never at post().  Each rank posts, then "computes" for several multiples
  // of io_timeout_ms while pumping progress() (which is deadline-free and
  // must never throw PeerTimeoutError), and only then exchanges.
  std::vector<std::unique_ptr<net::Transport>> eps(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      net::SocketConfig cfg;
      cfg.address = unix_prefix("slow");
      cfg.rank = r;
      cfg.peers = 2;
      cfg.io_timeout_ms = 200;
      eps[r] = net::make_socket_transport(cfg);
    });
  }
  for (auto& t : threads) t.join();
  run_ranks(eps, [](std::uint32_t me, net::Transport& tp) {
    std::vector<std::byte> payload(64u << 10, std::byte{0x5A});
    tp.post(1 - me, std::span<const std::byte>(payload));
    // 3x the timeout elapses between post() and the barrier.
    for (int slice = 0; slice < 12; ++slice) {
      tp.progress();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    auto got = tp.complete();
    ASSERT_EQ(got[1 - me].size(), 1u);
    EXPECT_EQ(got[1 - me][0], payload);
  });
  // The payload fits in the kernel socket buffer, so the progress() pump
  // drained it during the sleep loop: most wire bytes moved outside
  // exchange(), and the in-flight gauge saw the posted frame.
  obs::Recorder rec;
  eps[0]->export_metrics(rec.registry);
  EXPECT_GT(rec.registry.gauge("net.exchange_overlap_ratio"), 0.0);
  EXPECT_LE(rec.registry.gauge("net.exchange_overlap_ratio"), 1.0);
  EXPECT_GT(rec.registry.gauge("net.link.1.max_inflight_bytes"), 0.0);
}

void exercise_copy_on_post(std::vector<std::unique_ptr<net::Transport>>& eps) {
  const auto p = static_cast<std::uint32_t>(eps.size());
  run_ranks(eps, [p](std::uint32_t me, net::Transport& tp) {
    // post() copies: one buffer is refilled for every destination and
    // scribbled over before exchange(), yet each peer gets what was posted.
    std::vector<std::byte> buf;
    for (std::uint32_t q = 0; q < p; ++q) {
      buf = bytes_of(std::to_string(me) + " to " + std::to_string(q));
      tp.post(q, std::span<const std::byte>(buf));
      std::fill(buf.begin(), buf.end(), std::byte{0xEE});
    }
    const auto got = tp.exchange();
    for (std::uint32_t src = 0; src < p; ++src) {
      ASSERT_EQ(got[src].size(), 1u) << "src " << src;
      EXPECT_EQ(got[src][0],
                bytes_of(std::to_string(src) + " to " + std::to_string(me)));
    }
  });
}

TEST(LoopbackTransport, PostCopiesBeforeReturning) {
  auto eps = net::make_loopback_group(3);
  exercise_copy_on_post(eps);
}

TEST(SocketTransport, PostCopiesBeforeReturning) {
  auto eps = make_socket_group(3, "copy");
  exercise_copy_on_post(eps);
}

void expect_oversized_posts_rejected(
    std::vector<std::unique_ptr<net::Transport>>& eps) {
  // One 64 KiB buffer repeated past the cap: no large allocation needed.
  const std::vector<std::byte> chunk(64u << 10, std::byte{0x11});
  run_ranks(eps, [&](std::uint32_t, net::Transport& tp) {
    // Just over the frame cap, and past 4 GiB, where a 32-bit length
    // would wrap.
    for (const std::uint64_t cap :
         {std::uint64_t{net::kMaxFramePayload}, std::uint64_t{4} << 30}) {
      std::vector<std::span<const std::byte>> frags;
      std::uint64_t total = 0;
      while (total <= cap) {
        frags.emplace_back(chunk);
        total += chunk.size();
      }
      for (std::uint32_t dst = 0; dst < tp.size(); ++dst) {
        try {
          tp.post(dst, frags);
          FAIL() << "post of " << total << " bytes was accepted";
        } catch (const net::MessageTooLargeError& e) {
          EXPECT_EQ(e.kind(), em::IoError::Kind::persistent);
          EXPECT_NE(std::string(e.what()).find(std::to_string(total)),
                    std::string::npos)
              << e.what();
        }
      }
    }
    // Nothing was queued: the phase delivers no message and no link
    // counted a frame.
    const auto got = tp.exchange();
    for (const auto& from : got) EXPECT_TRUE(from.empty());
    obs::Recorder rec;
    tp.export_metrics(rec.registry);
    for (std::uint32_t q = 0; q < tp.size(); ++q) {
      EXPECT_EQ(rec.registry.counter("net.link." + std::to_string(q) +
                                     ".frames_sent"),
                0u);
    }
  });
}

TEST(LoopbackTransport, RejectsOversizedPostsAtTheSender) {
  auto eps = net::make_loopback_group(2);
  expect_oversized_posts_rejected(eps);
}

TEST(SocketTransport, RejectsOversizedPostsAtTheSender) {
  auto eps = make_socket_group(2, "oversize");
  expect_oversized_posts_rejected(eps);
}

TEST(SocketTransport, CoalescesSmallFramesUpToThePumpThreshold) {
  // Every rank posts 512-byte frames to both peers with progress() after
  // each post.  Below 64 KiB of backlog progress() sends nothing, so the
  // small phase (2 x 40 frames of 536 wire bytes) drains entirely inside
  // exchange(); the large phase crosses the threshold many times and
  // drains part of its bytes from progress().
  constexpr std::uint32_t kSmall = 40;
  constexpr std::uint32_t kLarge = 3000;
  const auto block = [](std::uint32_t src, std::uint32_t dst,
                        std::uint32_t i) {
    std::vector<std::byte> b(512);
    for (std::size_t k = 0; k < b.size(); ++k) {
      b[k] = static_cast<std::byte>(src * 131 + dst * 17 + i * 7 + k);
    }
    std::memcpy(b.data(), &i, sizeof(i));
    return b;
  };
  auto eps = make_socket_group(3, "pump");
  std::vector<double> small_overlap(eps.size(), -1.0);
  run_ranks(eps, [&](std::uint32_t me, net::Transport& tp) {
    const auto phase = [&](std::uint32_t n) {
      for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t q = 0; q < tp.size(); ++q) {
          if (q == me) continue;
          tp.post(q, std::span<const std::byte>(block(me, q, i)));
          tp.progress();
        }
      }
      const auto got = tp.exchange();
      for (std::uint32_t src = 0; src < tp.size(); ++src) {
        if (src == me) continue;
        ASSERT_EQ(got[src].size(), n) << "src " << src;
        std::uint32_t wrong = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
          wrong += got[src][i] != block(src, me, i) ? 1 : 0;
        }
        EXPECT_EQ(wrong, 0u) << "frames out of order or corrupted from "
                             << src;
      }
    };
    phase(kSmall);
    obs::Recorder rec;
    tp.export_metrics(rec.registry);
    small_overlap[me] = rec.registry.gauge("net.exchange_overlap_ratio");
    phase(kLarge);
  });
  for (std::uint32_t r = 0; r < eps.size(); ++r) {
    EXPECT_EQ(small_overlap[r], 0.0) << "rank " << r;
    obs::Recorder rec;
    eps[r]->export_metrics(rec.registry);
    EXPECT_GT(rec.registry.gauge("net.exchange_overlap_ratio"), 0.0)
        << "rank " << r;
    for (std::uint32_t q = 0; q < eps.size(); ++q) {
      if (q == r) continue;
      EXPECT_EQ(rec.registry.counter("net.link." + std::to_string(q) +
                                     ".frames_sent"),
                kSmall + kLarge)
          << "rank " << r << " link " << q;
    }
  }
}

// --- Cross-backend parity ----------------------------------------------------

SimConfig dist_config(std::uint32_t p, std::uint32_t v, std::size_t D,
                      std::size_t B, std::size_t mu, std::size_t gamma) {
  SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = D;
  cfg.machine.em.B = B;
  cfg.machine.em.M = std::max<std::size_t>(D * B, 8 * (mu + B));
  cfg.mu = mu;
  cfg.gamma = gamma;
  return cfg;
}

/// Turns a config into its overlapped variant: double-buffered per-rank
/// group schedule + incremental wire draining.  Paired with the parallel
/// engine and a 2-wide compute pool so the overlap paths actually run.
SimConfig pipelined(SimConfig cfg) {
  cfg.pipeline = true;
  cfg.io_engine = em::IoEngine::parallel;
  cfg.compute_threads = 2;
  return cfg;
}

template <typename T>
std::vector<std::byte> raw_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

struct DistRun {
  std::vector<SimResult> results;                 ///< one per rank
  std::vector<std::vector<std::byte>> states;     ///< rank 0's collected view
};

template <bsp::Program P>
DistRun run_dist(
    const P& prog, SimConfig cfg,
    std::vector<std::unique_ptr<net::Transport>> eps,
    const std::function<typename P::State(std::uint32_t)>& make_state) {
  using State = typename P::State;
  const auto p = static_cast<std::uint32_t>(eps.size());
  const std::uint32_t v = cfg.machine.bsp.v;
  DistRun out;
  out.results.resize(p);
  // Every rank collects all v outputs; ranks must agree, so keep each
  // rank's view and compare below.
  std::vector<std::vector<std::vector<std::byte>>> views(
      p, std::vector<std::vector<std::byte>>(v));
  run_ranks(eps, [&](std::uint32_t me, net::Transport& tp) {
    DistSimulator sim(cfg, tp);
    out.results[me] =
        sim.run<P>(prog, make_state, [&](std::uint32_t pid, State& s) {
          util::Writer w;
          s.serialize(w);
          views[me][pid] = w.take();
        });
  });
  for (std::uint32_t r = 1; r < p; ++r) {
    EXPECT_EQ(views[r], views[0]) << "rank " << r << " collected a different "
                                  << "view of the final states";
    EXPECT_EQ(raw_bytes(out.results[r].total_io),
              raw_bytes(out.results[0].total_io));
  }
  out.states = std::move(views[0]);
  return out;
}

void expect_same_costs(const bsp::RunCosts& a, const bsp::RunCosts& b) {
  ASSERT_EQ(a.supersteps.size(), b.supersteps.size());
  for (std::size_t i = 0; i < a.supersteps.size(); ++i) {
    EXPECT_EQ(raw_bytes(a.supersteps[i]), raw_bytes(b.supersteps[i]))
        << "superstep " << i;
  }
}

void expect_same_result(const SimResult& par, const SimResult& dist) {
  expect_same_costs(par.costs, dist.costs);
  EXPECT_EQ(raw_bytes(par.total_io), raw_bytes(dist.total_io));
  ASSERT_EQ(par.per_proc_io.size(), dist.per_proc_io.size());
  for (std::size_t i = 0; i < par.per_proc_io.size(); ++i) {
    EXPECT_EQ(raw_bytes(par.per_proc_io[i]), raw_bytes(dist.per_proc_io[i]))
        << "processor " << i;
  }
  EXPECT_EQ(raw_bytes(par.phase_io), raw_bytes(dist.phase_io));
  EXPECT_EQ(raw_bytes(par.routing_stats), raw_bytes(dist.routing_stats));
  EXPECT_EQ(par.group_size, dist.group_size);
  EXPECT_EQ(par.max_tracks_per_disk, dist.max_tracks_per_disk);
  EXPECT_EQ(par.real_comm_bytes, dist.real_comm_bytes);
  EXPECT_EQ(raw_bytes(par.recovery.faults), raw_bytes(dist.recovery.faults));
  EXPECT_EQ(par.recovery.io_retries, dist.recovery.io_retries);
  EXPECT_EQ(par.recovery.io_giveups, dist.recovery.io_giveups);
}

/// The central assertion: ParSimulator, DistSimulator ranks over a
/// loopback group, and DistSimulator ranks over real sockets produce
/// byte-identical everything.
template <bsp::Program P>
void expect_three_way_parity(
    const P& prog, SimConfig cfg,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::string& tag) {
  using State = typename P::State;
  const std::uint32_t v = cfg.machine.bsp.v;
  const std::uint32_t p = cfg.machine.p;

  std::vector<std::vector<std::byte>> par_states(v);
  ParSimulator par(cfg);
  auto par_result =
      par.run<P>(prog, make_state, [&](std::uint32_t pid, State& s) {
        util::Writer w;
        s.serialize(w);
        par_states[pid] = w.take();
      });

  auto loop = run_dist(prog, cfg, net::make_loopback_group(p), make_state);
  EXPECT_EQ(loop.states, par_states) << "loopback states diverged";
  for (std::uint32_t r = 0; r < p; ++r) {
    expect_same_result(par_result, loop.results[r]);
  }

  auto sock = run_dist(prog, cfg, make_socket_group(p, tag), make_state);
  EXPECT_EQ(sock.states, par_states) << "socket states diverged";
  for (std::uint32_t r = 0; r < p; ++r) {
    expect_same_result(par_result, sock.results[r]);
  }
}

TEST(DistParity, PrefixSumFourRanks) {
  PrefixSumProgram prog;
  expect_three_way_parity(prog, dist_config(4, 32, 2, 128, 64, 1400),
                          [](std::uint32_t pid) {
                            PrefixSumProgram::State s;
                            s.value = pid * 5 + 2;
                            return s;
                          },
                          "prefix");
}

TEST(DistParity, RingAcrossRanks) {
  RingProgram prog;
  prog.rounds = 6;
  expect_three_way_parity(prog, dist_config(4, 8, 2, 128, 2048, 4096),
                          [](std::uint32_t pid) {
                            RingProgram::State s;
                            s.data = {pid};
                            return s;
                          },
                          "ring");
}

TEST(DistParity, IrregularTraffic) {
  IrregularProgram prog;
  expect_three_way_parity(
      prog, dist_config(3, 12, 2, 128, 64, 4096),
      [](std::uint32_t) { return IrregularProgram::State{}; }, "irregular");
}

TEST(DistParity, BigMessagesTwoRanks) {
  BigMessageProgram prog;
  prog.words = 1500;
  expect_three_way_parity(
      prog, dist_config(2, 4, 2, 128, 64, 14000),
      [](std::uint32_t) { return BigMessageProgram::State{}; }, "bigmsg");
}

TEST(DistParity, DeterministicRouting) {
  IrregularProgram prog;
  auto cfg = dist_config(4, 16, 2, 128, 64, 4096);
  cfg.routing = RoutingMode::deterministic;
  expect_three_way_parity(
      prog, cfg, [](std::uint32_t) { return IrregularProgram::State{}; },
      "rr");
}

TEST(DistParity, AutomaticRouting) {
  IrregularProgram prog;
  auto cfg = dist_config(2, 8, 2, 128, 64, 4096);
  cfg.routing = RoutingMode::automatic;
  expect_three_way_parity(
      prog, cfg, [](std::uint32_t) { return IrregularProgram::State{}; },
      "auto");
}

TEST(DistParity, FaultScheduleMatchesUnderInjection) {
  // Transient-only injection, absorbed by per-transfer retry: the byte
  // identity extends to the fault history — both simulators key the
  // deterministic schedule by machine-wide drive index and call index, so
  // the same calls draw the same faults.
  IrregularProgram prog;
  auto cfg = dist_config(2, 8, 2, 128, 64, 4096);
  cfg.faults.seed = cfg.seed;
  cfg.faults.read_error_rate = 0.05;
  cfg.faults.write_error_rate = 0.05;
  cfg.block_checksums = true;
  expect_three_way_parity(
      prog, cfg, [](std::uint32_t) { return IrregularProgram::State{}; },
      "faults");
}

TEST(DistParity, PipelinedPrefixSum) {
  // The overlapped schedule (ctx prefetch + write-behind + progress()-pumped
  // wire) changes only timing, never content: the three-way byte identity
  // must hold with pipelining on.
  PrefixSumProgram prog;
  expect_three_way_parity(prog,
                          pipelined(dist_config(4, 32, 2, 128, 64, 1400)),
                          [](std::uint32_t pid) {
                            PrefixSumProgram::State s;
                            s.value = pid * 5 + 2;
                            return s;
                          },
                          "pipeprefix");
}

TEST(DistParity, PipelinedIrregularTraffic) {
  IrregularProgram prog;
  expect_three_way_parity(
      prog, pipelined(dist_config(3, 12, 2, 128, 64, 4096)),
      [](std::uint32_t) { return IrregularProgram::State{}; }, "pipeirr");
}

TEST(DistParity, PipelinedMatchesBlockingSchedule) {
  // Direct blocking-vs-overlapped comparison on the SAME engine: identical
  // final states, costs, IoStats and phase attribution.  (Both runs use the
  // parallel engine so the only varied knob is the schedule itself.)
  IrregularProgram prog;
  auto cfg = dist_config(3, 12, 2, 128, 64, 4096);
  cfg.io_engine = em::IoEngine::parallel;
  auto make = [](std::uint32_t) { return IrregularProgram::State{}; };
  auto plain = run_dist(prog, cfg, net::make_loopback_group(3), make);
  auto piped = run_dist(prog, pipelined(cfg), net::make_loopback_group(3),
                        make);
  EXPECT_EQ(piped.states, plain.states) << "pipelined states diverged";
  for (std::uint32_t r = 0; r < 3; ++r) {
    expect_same_result(plain.results[r], piped.results[r]);
  }
}

TEST(DistParity, PipelinedFaultScheduleMatchesUnderInjection) {
  // Overlap leaves the disk submission order untouched, so the per-drive
  // fault schedule — keyed by submission index — stays aligned across all
  // three backends.
  IrregularProgram prog;
  auto cfg = pipelined(dist_config(2, 8, 2, 128, 64, 4096));
  cfg.faults.seed = cfg.seed;
  cfg.faults.read_error_rate = 0.05;
  cfg.faults.write_error_rate = 0.05;
  cfg.block_checksums = true;
  expect_three_way_parity(
      prog, cfg, [](std::uint32_t) { return IrregularProgram::State{}; },
      "pipefaults");
}

TEST(DistSimulatorConfig, RejectsSharedMemoryOnlyFeatures) {
  // Checkpoints, coordinated recovery and pipelining all run over the
  // transport; only a machine that does not match it is rejected.
  auto eps = net::make_loopback_group(2);
  auto cfg = dist_config(2, 8, 2, 128, 64, 1024);
  {
    auto good = cfg;
    good.checkpoint.dir =
        (std::filesystem::temp_directory_path() / "embsp_net_ckpt").string();
    EXPECT_NO_THROW(DistSimulator(good, *eps[0]));
  }
  {
    auto good = cfg;
    good.superstep_recovery = true;
    EXPECT_NO_THROW(DistSimulator(good, *eps[0]));
  }
  {
    auto good = pipelined(cfg);
    EXPECT_NO_THROW(DistSimulator(good, *eps[0]));
  }
  {
    auto bad = cfg;
    bad.machine.p = 4;  // transport is only 2 wide
    bad.machine.bsp.v = 16;
    EXPECT_THROW(DistSimulator(bad, *eps[0]), std::invalid_argument);
  }
}

TEST(DistSimulator, ExportsTransportMetrics) {
  PrefixSumProgram prog;
  auto cfg = dist_config(2, 8, 2, 128, 64, 1024);
  obs::Recorder recorder;
  auto eps = net::make_loopback_group(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        auto local = cfg;
        if (r == 0) local.recorder = &recorder;
        DistSimulator sim(local, *eps[r]);
        sim.run<PrefixSumProgram>(
            prog,
            [](std::uint32_t pid) {
              PrefixSumProgram::State s;
              s.value = pid;
              return s;
            },
            [](std::uint32_t, PrefixSumProgram::State&) {});
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  auto& reg = recorder.registry;
  EXPECT_GT(reg.counter("net.exchanges"), 0u);
  EXPECT_GT(reg.counter("net.link.1.bytes_sent"), 0u);
  EXPECT_GT(reg.counter("net.link.1.frames_sent"), 0u);
  EXPECT_GT(reg.histogram("net.link.1.send_bytes").count(), 0u);
  EXPECT_GT(reg.histogram("net.exchange_wait_ns").count(), 0u);
}

TEST(DistSimulator, ExportsOverlapMetricsUnderPipeline) {
  // Per-link in-flight gauges and the send-side overlap ratio land in the
  // Registry alongside the existing counters.  On loopback post() IS the
  // transmission, so every wire byte drains before the barrier: ratio 1.0.
  PrefixSumProgram prog;
  auto cfg = pipelined(dist_config(2, 8, 2, 128, 64, 1024));
  obs::Recorder recorder;
  auto eps = net::make_loopback_group(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        auto local = cfg;
        if (r == 0) local.recorder = &recorder;
        DistSimulator sim(local, *eps[r]);
        sim.run<PrefixSumProgram>(
            prog,
            [](std::uint32_t pid) {
              PrefixSumProgram::State s;
              s.value = pid;
              return s;
            },
            [](std::uint32_t, PrefixSumProgram::State&) {});
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  auto& reg = recorder.registry;
  EXPECT_GT(reg.counter("net.exchanges"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("net.exchange_overlap_ratio"), 1.0);
  EXPECT_GT(reg.gauge("net.link.1.max_inflight_bytes"), 0.0);
  EXPECT_GT(reg.histogram("net.link.1.send_bytes").count(), 0u);
  EXPECT_GT(reg.histogram("net.exchange_wait_ns").count(), 0u);
}

// --- Recovery on every rank: one burst at every call of one drive ----------

/// Recovery and checksums on, so a burst that outlasts the retry budget
/// rolls the enclosing unit back instead of failing the run.
SimConfig sweep_config(std::uint32_t p) {
  SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = 16;
  cfg.machine.em.D = 2;
  cfg.machine.em.B = 128;
  cfg.machine.em.M = 64 << 10;
  cfg.mu = 512;
  cfg.gamma = 4096;
  cfg.superstep_recovery = true;
  cfg.block_checksums = true;
  return cfg;
}

template <typename Sim>
std::vector<std::uint64_t> sweep_run(const SimConfig& cfg, SimResult& res) {
  Sim sim(cfg);
  // Appended, so a state handed over twice (a retried collect) or out of
  // order differs from the clean run.
  std::vector<std::uint64_t> sums;
  res = sim.template run<IrregularProgram>(
      IrregularProgram{},
      [](std::uint32_t) { return IrregularProgram::State{}; },
      [&](std::uint32_t vp, IrregularProgram::State& s) {
        sums.push_back(vp);
        sums.push_back(s.checksum);
      });
  return sums;
}

/// Places one burst of retry.max_attempts failures at backend calls
/// first, first + stride, ... of machine-wide drive `drive` until a burst
/// lands past the drive's last call.  Every burst must cost exactly one
/// rollback and leave the clean run's states.  Returns the first position
/// past the end.
template <typename Sim>
std::uint64_t sweep_bursts(std::uint32_t p, std::uint32_t drive,
                           std::uint64_t first, std::uint64_t stride) {
  const auto cfg = sweep_config(p);
  SimResult clean_res;
  const auto clean = sweep_run<Sim>(cfg, clean_res);
  std::uint64_t c = first;
  for (;; c += stride) {
    auto hostile = cfg;
    hostile.faults.seed = 5;
    hostile.faults.bursts.push_back(
        {drive, c, static_cast<std::uint64_t>(cfg.retry.max_attempts)});
    SimResult res;
    std::vector<std::uint64_t> got;
    try {
      got = sweep_run<Sim>(hostile, res);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "burst at call " << c << ": " << e.what();
      continue;
    }
    // Bursts are not in the fault tally; a burst that fired shows as
    // retries and a give-up.
    if (res.recovery.io_retries + res.recovery.io_giveups == 0) return c;
    EXPECT_EQ(got, clean) << "burst at call " << c;
    EXPECT_EQ(res.recovery.io_giveups, 1u) << "burst at call " << c;
    EXPECT_EQ(res.recovery.total_rollbacks(), 1u) << "burst at call " << c;
  }
}

TEST(RecoverySweep, EveryCallOfAWorkerRanksDrive) {
  // Drive 2 is rank 1's drive 0.  Its first calls write initial contexts
  // and its last read final ones: init and collect are recovery units too,
  // and a give-up on rank 1 must be rolled back on every rank.
  EXPECT_GT(sweep_bursts<ParSimulator>(2, 2, 0, 1), 200u);
}

TEST(RecoverySweep, SampledCallsOverASocketMesh) {
  EXPECT_GT(sweep_bursts<SocketRanks>(2, 2, 0, 60), 200u);
}

TEST(RecoverySweep, EveryCallOfTheLoneRanksDrive) {
  EXPECT_GT(sweep_bursts<SeqSimulator>(1, 0, 0, 1), 400u);
}

// --- Messages nobody receives -------------------------------------------------

/// Every virtual processor sends one value and stops at once.
struct LastWordProgram {
  struct State {
    void serialize(util::Writer&) const {}
    void deserialize(util::Reader&) {}
  };
  bool superstep(std::size_t, const bsp::ProcEnv& env, State&,
                 const bsp::Inbox&, bsp::Outbox& out) const {
    out.send_value<std::uint64_t>((env.pid + 1) % env.nprocs, env.pid);
    return false;
  }
};

template <typename Sim>
void expect_undelivered_error(std::uint32_t p) {
  Sim sim(dist_config(p, 16, 2, 128, 64, 4096));
  try {
    sim.template run<LastWordProgram>(
        LastWordProgram{},
        [](std::uint32_t) { return LastWordProgram::State{}; },
        [](std::uint32_t, LastWordProgram::State&) {});
    ADD_FAILURE() << "p=" << p << ": the final superstep's messages vanished";
  } catch (const net::NetError& e) {
    ADD_FAILURE() << "p=" << p << ": root cause lost to an echo: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("never received"), std::string::npos)
        << e.what();
  }
}

TEST(FinalSuperstep, MessagesSentAreNeverSilentlyDropped) {
  expect_undelivered_error<SeqSimulator>(1);
  expect_undelivered_error<ParSimulator>(2);
  expect_undelivered_error<ParSimulator>(4);
  expect_undelivered_error<SocketRanks>(2);
}

}  // namespace
}  // namespace embsp::sim
