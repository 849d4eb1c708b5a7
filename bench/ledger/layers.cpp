// Per-layer metrics of a traced repeat, and the calibration micro-runs that
// set them against hardware ceilings and the paper's cost model
// G·(parallel I/Os) + g·h + L per superstep exchange.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "ledger.hpp"

namespace ledger {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;
/// Each calibration micro-run stops after this much measuring.
constexpr double kMicroRunS = 0.3;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// 4096-aligned scratch buffer, so O_DIRECT transfers need no bounce copy.
struct AlignedBuffer {
  explicit AlignedBuffer(std::size_t bytes)
      : data(static_cast<std::byte*>(std::aligned_alloc(
            4096, (bytes + 4095) / 4096 * 4096))) {
    if (data == nullptr) throw std::bad_alloc();
    std::memset(data, 0x5a, bytes);
  }
  ~AlignedBuffer() { std::free(data); }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  std::byte* data;
};

/// Streaming Backend::write then Backend::read in 1 MiB transfers, on the
/// workload's backend kind.
double ceil_em_mib_per_s(const Workload& w, const std::string& dir) {
  constexpr std::size_t kChunk = 1 << 20;
  constexpr std::uint64_t kMaxBytes = 256ull << 20;
  std::unique_ptr<em::Backend> be;
  if (w.engine == em::IoEngine::uring) {
    em::UringConfig ucfg;
    ucfg.direct = w.direct_io;
    be = em::make_uring_file_backend(dir + "/calib_stream", false, ucfg);
  } else {
    be = em::make_memory_backend();
  }
  AlignedBuffer buf(kChunk);
  const std::span<std::byte> chunk(buf.data, kChunk);
  std::uint64_t written = 0;
  auto t0 = Clock::now();
  while (written < kMaxBytes && seconds_since(t0) < kMicroRunS) {
    be->write(written, chunk);
    written += kChunk;
  }
  const double write_s = seconds_since(t0);
  std::uint64_t read = 0;
  t0 = Clock::now();
  while (read < written && seconds_since(t0) < kMicroRunS) {
    be->read(read, chunk);
    read += kChunk;
  }
  return ratio(static_cast<double>(written + read) / kMiB,
               write_s + seconds_since(t0));
}

/// memcpy between two arrays of four times the last-level cache each.
double ceil_memcpy_gib_per_s() {
  long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32l << 20;
  const std::size_t bytes =
      std::min<std::size_t>(4 * static_cast<std::size_t>(llc), 1ull << 30);
  std::vector<std::byte> src(bytes, std::byte{1});
  std::vector<std::byte> dst(bytes);
  std::uint64_t copied = 0;
  const auto t0 = Clock::now();
  do {
    std::memcpy(dst.data(), src.data(), bytes);
    // Keep the copy: dst is otherwise dead and the store could be elided.
    asm volatile("" : : "r"(dst.data()) : "memory");
    copied += bytes;
  } while (seconds_since(t0) < kMicroRunS);
  return static_cast<double>(copied) / kGiB / seconds_since(t0);
}

/// G: seconds per parallel I/O of make_disk_array on the workload's engine,
/// batched writes then reads over the workload's per-disk track footprint.
double model_G_us(const Workload& w, const std::string& dir,
                  std::uint64_t tracks) {
  constexpr std::uint64_t kCycles = 64;  // parallel I/Os per batch
  std::function<std::unique_ptr<em::Backend>(std::size_t)> factory;
  if (w.engine == em::IoEngine::uring) {
    em::UringConfig ucfg;
    ucfg.direct = w.direct_io;
    factory = em::make_uring_scratch_factory(dir, "calib", ucfg);
  }
  auto disks = em::make_disk_array(w.engine, w.D, w.B, factory);
  tracks = std::max<std::uint64_t>(tracks, kCycles);
  AlignedBuffer buf(kCycles * w.D * w.B);
  std::vector<em::WriteOp> writes;
  std::vector<em::ReadOp> reads;
  for (std::uint64_t c = 0; c < kCycles; ++c) {
    for (std::uint32_t d = 0; d < w.D; ++d) {
      std::byte* b = buf.data + (c * w.D + d) * w.B;
      writes.push_back({d, c, {b, w.B}});
      reads.push_back({d, c, {b, w.B}});
    }
  }
  auto shift = [](auto& ops, std::uint64_t base) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ops[i].track = base + i / (ops.size() / kCycles);
    }
  };
  std::uint64_t cycles = 0;
  std::uint64_t covered = 0;
  auto t0 = Clock::now();
  for (; covered < tracks && seconds_since(t0) < kMicroRunS;
       covered += kCycles) {
    shift(writes, covered);
    disks->parallel_write_batch(writes, kCycles);
    cycles += kCycles;
  }
  double elapsed = seconds_since(t0);
  t0 = Clock::now();
  for (std::uint64_t base = 0; base < covered && seconds_since(t0) < kMicroRunS;
       base += kCycles) {
    shift(reads, base);
    disks->parallel_read_batch(reads, kCycles);
    cycles += kCycles;
  }
  elapsed += seconds_since(t0);
  return ratio(elapsed, static_cast<double>(cycles)) * 1e6;
}

struct NetCalibration {
  double L_us = 0;
  double g_ns_per_kib = 0;
  double mib_per_s = 0;
};

/// Empty exchange rounds give L; rounds carrying the workload's per-exchange
/// volume in messages of its mean size give g and the transport ceiling.
/// Socket workloads calibrate their socket mesh; the others a loopback
/// group of p endpoints (p = 1: a rank exchanging with itself).
NetCalibration calibrate_net(const Workload& w, const Repeat& tr,
                             const std::string& mesh) {
  std::size_t msg = w.B;
  std::uint64_t volume = 1u << 20;
  if (tr.net[0].posts > 0 && tr.net[0].exchanges > 0) {
    msg = std::max<std::size_t>(1, tr.net[0].bytes_posted / tr.net[0].posts);
    volume = std::max<std::uint64_t>(
        msg, tr.net[0].bytes_posted / tr.net[0].exchanges);
  }
  const std::uint64_t posts_per_round = std::max<std::uint64_t>(1, volume / msg);
  const std::uint64_t round_bytes = posts_per_round * msg;
  constexpr int kEmptyRounds = 200;
  const int loaded_rounds = static_cast<int>(
      std::clamp<std::uint64_t>((64u << 20) / round_bytes, 4, 200));
  const bool socket = w.exec == Executor::dist_socket;
  std::vector<std::unique_ptr<net::Transport>> loopback;
  if (!socket) loopback = net::make_loopback_group(w.p);
  std::vector<double> empty_s(w.p);
  std::vector<double> loaded_s(w.p);
  run_ranks(w.p, [&](std::uint32_t r) {
    std::unique_ptr<net::Transport> own;
    if (socket) {
      own = net::make_socket_transport(
          {.address = mesh, .rank = r, .peers = w.p});
    }
    net::Transport& tp = socket ? *own : *loopback[r];
    const std::vector<std::byte> payload(msg, std::byte{0x5a});
    tp.exchange();  // every rank is up before the clock starts
    auto t0 = Clock::now();
    for (int i = 0; i < kEmptyRounds; ++i) tp.exchange();
    empty_s[r] = seconds_since(t0) / kEmptyRounds;
    t0 = Clock::now();
    for (int i = 0; i < loaded_rounds; ++i) {
      for (std::uint64_t j = 0; j < posts_per_round; ++j) {
        tp.post(static_cast<std::uint32_t>((r + 1 + j) % w.p),
                std::span<const std::byte>(payload));
      }
      tp.exchange();
    }
    loaded_s[r] = seconds_since(t0) / loaded_rounds;
  });
  NetCalibration c;
  c.L_us = empty_s[0] * 1e6;
  const double kib = static_cast<double>(round_bytes) / 1024;
  c.g_ns_per_kib = std::max(0.0, loaded_s[0] - empty_s[0]) * 1e9 / kib;
  c.mib_per_s = ratio(static_cast<double>(round_bytes) / kMiB, loaded_s[0]);
  return c;
}

/// p-quantile of a log-bucketed histogram, interpolated linearly inside the
/// power-of-two bucket that holds it.  (LogHistogram::percentile returns
/// the bucket's upper edge, which reads the same on almost every run.)
double quantile(const obs::LogHistogram& h, double q) {
  if (h.empty()) return 0;
  const double rank = q * static_cast<double>(h.count() - 1);
  double seen = 0;
  for (std::size_t i = 0; i < obs::LogHistogram::kBuckets; ++i) {
    const auto c = static_cast<double>(h.bucket_count(i));
    if (seen + c > rank) {
      const auto lo = static_cast<double>(obs::LogHistogram::bucket_lo(i));
      const auto hi = static_cast<double>(obs::LogHistogram::bucket_hi(i));
      const double v = lo + (hi - lo) * (rank - seen + 0.5) / c;
      return std::clamp(v, static_cast<double>(h.min()),
                        static_cast<double>(h.max()));
    }
    seen += c;
  }
  return static_cast<double>(h.max());
}

}  // namespace

Calibration calibrate(const Workload& w, const Repeat& traced,
                      const std::string& dir, const std::string& mesh) {
  Calibration c;
  c.em_mib_per_s = ceil_em_mib_per_s(w, dir);
  c.memcpy_gib_per_s = ceil_memcpy_gib_per_s();
  c.G_us = model_G_us(w, dir, traced.ranks[0].max_tracks);
  const NetCalibration n = calibrate_net(w, traced, mesh);
  c.net_mib_per_s = n.mib_per_s;
  c.g_ns_per_kib = n.g_ns_per_kib;
  c.L_us = n.L_us;
  return c;
}

std::vector<Metric> layer_metrics(const Workload& w, const Repeat& tr,
                                  double untraced_wall_s, double host_ref_s,
                                  const Calibration& cal) {
  const double p = w.p;
  const obs::Registry& reg0 = tr.recorders[0]->registry;
  const sim::SimResult& res = *tr.exec.sim;

  // Times are the mean per real processor.  Transport ranks each carry
  // their own ExecTimes and recorder; the threaded simulator records all p
  // processors into one registry, so its phase sums are divided by p too.
  auto rank_mean = [&](auto field) {
    double s = 0;
    for (const auto& t : tr.ranks) s += field(t);
    return s / static_cast<double>(tr.ranks.size());
  };
  auto net_mean = [&](auto field) {
    double s = 0;
    for (const auto& t : tr.net) s += field(t);
    return s / static_cast<double>(tr.net.size());
  };
  auto merged = [&](const std::string& name) {
    obs::LogHistogram h;
    for (const auto& rec : tr.recorders) h.merge(rec->registry.histogram(name));
    return h;
  };
  auto phase_s = [&](const char* name) {
    return static_cast<double>(
               merged(std::string("phase.") + name + ".wall_ns").sum()) *
           1e-9 / p;
  };
  // Each real processor's engine export: registry and key prefix.
  std::vector<std::pair<const obs::Registry*, std::string>> engines;
  for (std::uint32_t i = 0; i < w.p; ++i) {
    if (w.exec == Executor::seq) {
      engines.emplace_back(&reg0, "engine.");
    } else {
      const auto& rec = w.exec == Executor::par ? *tr.recorders[0]
                                                : *tr.recorders[i];
      engines.emplace_back(&rec.registry,
                           "proc." + std::to_string(i) + ".engine.");
    }
  }
  auto engine_sum = [&](const std::string& leaf) {
    double s = 0;
    for (const auto& [reg, prefix] : engines) {
      s += static_cast<double>(reg->counter(prefix + leaf));
    }
    return s;
  };
  auto disk_sum = [&](const std::string& leaf) {
    double s = 0;
    for (std::size_t d = 0; d < w.D; ++d) {
      s += engine_sum("disk." + std::to_string(d) + "." + leaf);
    }
    return s;
  };
  obs::LogHistogram service;
  obs::LogHistogram completion;
  for (const auto& [reg, prefix] : engines) {
    for (std::size_t d = 0; d < w.D; ++d) {
      service.merge(reg->histogram(prefix + "disk." + std::to_string(d) +
                                   ".service_ns"));
    }
    completion.merge(reg->histogram(prefix + "uring.completion_ns"));
  }
  em::IoStats io = res.total_io;
  if (!res.per_proc_io.empty()) {
    io = {};
    for (const auto& s : res.per_proc_io) io += s;
  }

  const double run_s = rank_mean([](const ExecTimes& t) { return t.run_s; });
  // The spans the simulators record; the pipelined schedule names its
  // overlapped steps prefetch_* and writeback_*.
  static constexpr const char* kPhases[] = {
      "init", "fetch_ctx", "fetch_msg", "prefetch_ctx", "prefetch_msg",
      "compute", "write_ctx", "write_msg", "writeback_ctx", "writeback_msg",
      "reorganize", "collect"};
  double phase_total = 0;
  for (const char* name : kPhases) phase_total += phase_s(name);
  const double compute_s = phase_s("compute");
  const double busy_s = disk_sum("busy_ns") * 1e-9;
  const double net_time = net_mean([](const TransportTimes& t) {
    return t.post_s + t.progress_s + t.exchange_s;
  });
  const double mib_posted = net_mean([](const TransportTimes& t) {
    return static_cast<double>(t.bytes_posted);
  }) / kMiB;
  double overlap = 0;
  for (const auto& rec : tr.recorders) {
    overlap += rec->registry.gauge("net.exchange_overlap_ratio");
  }
  overlap /= static_cast<double>(tr.recorders.size());

  // The model's terms.  Supersteps of the threaded simulator synchronize
  // twice per round (forward, scatter) and once at the boundary, as the
  // transport ranks do; a single processor exchanges nothing.
  const auto parallel_ios = static_cast<double>(tr.ranks[0].parallel_ios);
  const double comm_bytes =
      w.p > 1 ? static_cast<double>(res.costs.total_bytes()) / p : 0;
  double exchanges = static_cast<double>(tr.net[0].exchanges);
  if (w.exec == Executor::par) {
    const double rounds =
        std::ceil(static_cast<double>(w.v) /
                  (p * static_cast<double>(std::max<std::size_t>(
                           1, res.group_size))));
    exchanges = static_cast<double>(res.lambda()) * (2 * rounds + 1);
  }
  const double predicted = cal.G_us * 1e-6 * parallel_ios +
                           cal.g_ns_per_kib * 1e-9 * comm_bytes / 1024 +
                           cal.L_us * 1e-6 * exchanges + compute_s;
  const auto& rs = res.routing_stats;

  std::vector<Metric> m = {
      {"bsp.dry_run_s", rank_mean([](const ExecTimes& t) { return t.dry_run_s; }), "s"},
      {"cgm.sim_runs", static_cast<double>(tr.ranks[0].sim_runs), "count"},
      {"sim.supersteps", static_cast<double>(reg0.counter("sim.supersteps")), "count"},
      {"sim.construct_s", rank_mean([](const ExecTimes& t) { return t.construct_s; }), "s"},
      {"net.setup_s", rank_mean([](const ExecTimes& t) { return t.net_setup_s; }), "s"},
      {"sim.run_s", run_s, "s"},
  };
  for (const char* name : kPhases) {
    m.push_back({std::string("sim.phase.") + name + "_s", phase_s(name), "s"});
  }
  m.insert(m.end(), {
      {"sim.self_s", run_s - phase_total, "s"},
      {"sim.routing.blocks", static_cast<double>(rs.blocks_total), "count"},
      {"sim.routing.cycles",
       static_cast<double>(rs.step1_cycles + rs.step2_cycles +
                           rs.distribute_cycles),
       "count"},
      {"sim.in_memory_routing", reg0.gauge("sim.in_memory_routing"), "flag"},
      {"sim.overlap_ratio", reg0.gauge("sim.overlap_ratio"), "ratio"},
      {"sim.arena_mib", reg0.gauge("sim.arena_bytes") / kMiB, "MiB"},
      {"sim.bytes_copied", static_cast<double>(reg0.counter("sim.bytes_copied")), "bytes"},
      {"sim.comm_mib", static_cast<double>(res.costs.total_bytes()) / kMiB, "MiB"},
      {"em.blocks", static_cast<double>(io.blocks_read + io.blocks_written), "count"},
      {"em.disk.ops", disk_sum("ops"), "count"},
      {"em.disk.ops_per_pio", ratio(disk_sum("ops"), static_cast<double>(io.parallel_ios)), "ratio"},
      {"em.disk.busy_s", busy_s / p, "s"},
      {"em.disk.service_p50_us", quantile(service, 0.50) / 1e3, "us"},
      {"em.disk.service_p99_us", quantile(service, 0.99) / 1e3, "us"},
      {"em.disk.mib_per_s", ratio(disk_sum("bytes") / kMiB, busy_s), "MiB/s"},
      {"em.stall_s", engine_sum("stall_ns") * 1e-9 / p, "s"},
      {"em.coalesced_tracks", engine_sum("coalesced_tracks"), "count"},
      {"em.retries", disk_sum("retries"), "count"},
      {"em.uring.enters", engine_sum("uring.enters"), "count"},
      {"em.uring.sqes", engine_sum("uring.sqes"), "count"},
      {"em.uring.fixed_ops", engine_sum("uring.fixed_ops"), "count"},
      {"em.uring.bounced_mib", engine_sum("uring.bounced_bytes") / kMiB, "MiB"},
      {"em.uring.direct_rings", engine_sum("uring.direct_rings"), "count"},
      {"em.uring.completion_p99_us", quantile(completion, 0.99) / 1e3, "us"},
      {"net.post_s", net_mean([](const TransportTimes& t) { return t.post_s; }), "s"},
      {"net.progress_s", net_mean([](const TransportTimes& t) { return t.progress_s; }), "s"},
      {"net.exchange_s", net_mean([](const TransportTimes& t) { return t.exchange_s; }), "s"},
      {"net.exchanges", static_cast<double>(tr.net[0].exchanges), "count"},
      {"net.posts", net_mean([](const TransportTimes& t) { return static_cast<double>(t.posts); }), "count"},
      {"net.mib_posted", mib_posted, "MiB"},
      {"net.mib_per_s", ratio(mib_posted, net_time), "MiB/s"},
      {"net.exchange_wait_p50_us", quantile(merged("net.exchange_wait_ns"), 0.50) / 1e3, "us"},
      {"net.exchange_wait_p99_us", quantile(merged("net.exchange_wait_ns"), 0.99) / 1e3, "us"},
      {"net.overlap_ratio", overlap, "ratio"},
      {"obs.overhead", ratio(tr.wall_s(), untraced_wall_s) - 1, "ratio"},
      {"host.ref_s", host_ref_s, "s"},
      {"ceil.em.mib_per_s", cal.em_mib_per_s, "MiB/s"},
      {"ceil.memcpy_gib_per_s", cal.memcpy_gib_per_s, "GiB/s"},
      {"ceil.net.mib_per_s", cal.net_mib_per_s, "MiB/s"},
      {"model.G_us", cal.G_us, "us"},
      {"model.g_ns_per_kib", cal.g_ns_per_kib, "ns/KiB"},
      {"model.L_us", cal.L_us, "us"},
      {"model.predicted_s", predicted, "s"},
      {"model.error", 1 - ratio(predicted, run_s), "ratio"},
  });
  return m;
}

}  // namespace ledger
