// The four ledger workloads and the repeat runner: input generation, the
// timed executor adapter, TimedTransport, output verification and digest.
#include <fcntl.h>
#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>

#include "ledger.hpp"

namespace ledger {

namespace cgm = embsp::cgm;
namespace util = embsp::util;
namespace bsp = embsp::bsp;

const std::vector<Workload>& workloads() {
  // Sizes are picked so one repeat takes 1-2 s on a 4-core VM and a
  // 20-second run holds 10 or more repeats.  Why each machine shape was
  // chosen is in README.md.
  static const std::vector<Workload> table = {
      {"sort_seq_uring", Algo::sort, Executor::seq, 2u << 20, 64, 1, 3, 4096,
       1u << 20, 0, sim::RoutingMode::compact, em::IoEngine::uring, true,
       true},
      {"listrank_seq_mem", Algo::list_ranking, Executor::seq, 1u << 18, 64, 1,
       4, 512, 64u << 20, 8, sim::RoutingMode::automatic, em::IoEngine::serial,
       false, false},
      {"dominance_par_mem", Algo::dominance, Executor::par, 1u << 19, 64, 4, 4,
       512, 4u << 20, 0, sim::RoutingMode::compact, em::IoEngine::serial,
       false, false},
      {"permute_dist_socket", Algo::permute, Executor::dist_socket, 4u << 20,
       96, 3, 4, 512, 32u << 20, 0, sim::RoutingMode::compact,
       em::IoEngine::serial, false, false},
  };
  return table;
}

sim::SimConfig sim_config(const Workload& w, std::uint64_t seed,
                          const std::string& disk_dir,
                          const std::atomic<bool>* cancel) {
  sim::SimConfig cfg;
  cfg.machine.p = w.p;
  cfg.machine.em = {w.M, w.D, w.B, 1.0};
  cfg.k = w.k;
  cfg.routing = w.routing;
  cfg.io_engine = w.engine;
  cfg.direct_io = w.direct_io;
  cfg.pipeline = w.pipeline;
  cfg.disk_dir = disk_dir;
  cfg.seed = seed;
  cfg.cancel = cancel;
  return cfg;
}

namespace {


/// The driver's result in one flat vector: sorted keys, list ranks,
/// dominance counts or permuted values.
struct Outcome {
  std::vector<std::uint64_t> values;
  cgm::ExecResult exec;
};

template <class Exec>
Outcome drive(const Workload& w, const Inputs& in, Exec& exec) {
  switch (w.algo) {
    case Algo::sort: {
      auto r = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(exec, in.keys, w.v);
      return {std::move(r.sorted), std::move(r.exec)};
    }
    case Algo::list_ranking: {
      auto r = cgm::cgm_list_ranking(exec, in.keys, w.v);
      return {std::move(r.rank1), std::move(r.exec)};
    }
    case Algo::dominance: {
      auto r = cgm::cgm_dominance_counts(exec, in.points, in.weights, w.v);
      return {std::move(r.counts), std::move(r.exec)};
    }
    case Algo::permute: {
      auto r = cgm::cgm_permute(exec, in.keys, in.perm, w.v);
      return {std::move(r.values), std::move(r.exec)};
    }
  }
  throw std::logic_error("unknown algorithm");
}

/// Bench-side copy of cgm::{Seq,Par,Dist}EmExec::run that times the mu/gamma
/// dry run, the simulator constructor (disk arrays, rings, scratch files)
/// and Simulator::run separately.
template <class Sim>
class TimedExec {
 public:
  TimedExec(sim::SimConfig cfg, ExecTimes& times,
            net::Transport* tp = nullptr)
      : cfg_(std::move(cfg)), times_(&times), tp_(tp) {}

  template <bsp::Program P>
  cgm::ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    const auto t0 = Clock::now();
    const auto cfg = cgm::autoconfigure(cfg_, prog, v, make_state);
    const auto t1 = Clock::now();
    std::optional<Sim> s;
    if constexpr (std::is_same_v<Sim, sim::DistSimulator>) {
      s.emplace(cfg, *tp_);
    } else {
      s.emplace(cfg);
    }
    const auto t2 = Clock::now();
    auto r = s->run(prog, make_state, collect);
    times_->dry_run_s += std::chrono::duration<double>(t1 - t0).count();
    times_->construct_s += std::chrono::duration<double>(t2 - t1).count();
    times_->run_s += seconds_since(t2);
    ++times_->sim_runs;
    std::uint64_t ios = r.total_io.parallel_ios;
    for (const auto& io : r.per_proc_io) ios = std::max(ios, io.parallel_ios);
    times_->parallel_ios += ios;
    times_->max_tracks = std::max(times_->max_tracks, r.max_tracks_per_disk);
    cgm::ExecResult out{r.lambda(), r.costs, std::nullopt};
    out.sim = std::move(r);
    return out;
  }

 private:
  sim::SimConfig cfg_;
  ExecTimes* times_;
  net::Transport* tp_;
};

/// Forwards every Transport call to `inner`, timing post/progress/exchange.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, TransportTimes& times)
      : in_(&inner), t_(&times) {}

  using net::Transport::post;

  [[nodiscard]] std::uint32_t rank() const override { return in_->rank(); }
  [[nodiscard]] std::uint32_t size() const override { return in_->size(); }

  void post(std::uint32_t dst,
            std::span<const std::span<const std::byte>> frags) override {
    const auto t0 = Clock::now();
    in_->post(dst, frags);
    t_->post_s += seconds_since(t0);
    ++t_->posts;
    for (const auto& f : frags) t_->bytes_posted += f.size();
  }

  void progress() override {
    const auto t0 = Clock::now();
    in_->progress();
    t_->progress_s += seconds_since(t0);
  }

  std::vector<std::vector<net::Blob>> exchange() override {
    const auto t0 = Clock::now();
    auto r = in_->exchange();
    t_->exchange_s += seconds_since(t0);
    ++t_->exchanges;
    return r;
  }

  void abort(const std::string& reason) noexcept override {
    in_->abort(reason);
  }

  void export_metrics(obs::Registry& reg) const override {
    in_->export_metrics(reg);
  }

 private:
  net::Transport* in_;
  TransportTimes* t_;
};

template <class Sim>
Outcome run_local(const Workload& w, const Inputs& in, sim::SimConfig cfg,
                  Repeat& rep) {
  if (rep.traced) cfg.recorder = rep.recorders[0].get();
  TimedExec<Sim> exec(std::move(cfg), rep.ranks[0]);
  return drive(w, in, exec);
}

/// p socket ranks as threads of this process, one connection per pair.
Outcome run_socket(const Workload& w, const Inputs& in,
                   const sim::SimConfig& base, const std::string& mesh,
                   Repeat& rep) {
  std::optional<Outcome> out;
  run_ranks(w.p, [&](std::uint32_t r) {
    const auto t0 = Clock::now();
    auto tp = net::make_socket_transport(
        {.address = mesh, .rank = r, .peers = w.p});
    rep.ranks[r].net_setup_s = seconds_since(t0);
    sim::SimConfig cfg = base;
    net::Transport* use = tp.get();
    std::optional<TimedTransport> timed;
    if (rep.traced) {
      use = &timed.emplace(*tp, rep.net[r]);
      cfg.recorder = rep.recorders[r].get();
    }
    TimedExec<sim::DistSimulator> exec(std::move(cfg), rep.ranks[r], use);
    auto o = drive(w, in, exec);
    // Every rank ends with the allgathered result; rank 0's is checked.
    if (r == 0) out = std::move(o);
  });
  return std::move(*out);
}

std::uint64_t digest(const Outcome& o) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto fold = [&](std::uint64_t x) {
    h = util::mix64(h ^ util::mix64(x + 0x9e3779b97f4a7c15ULL));
  };
  auto fold_vec = [&](const auto& v) {
    fold(v.size());
    fold(util::checksum64(std::as_bytes(std::span(v.data(), v.size()))));
  };
  fold_vec(o.values);
  fold(o.exec.lambda);
  fold_vec(o.exec.costs.supersteps);
  if (o.exec.sim.has_value()) {
    fold_vec(std::vector<em::IoStats>{o.exec.sim->total_io});
    fold_vec(o.exec.sim->per_proc_io);
  }
  return h;
}

/// Restarts VmHWM from the current RSS.  False where /proc/self/clear_refs
/// cannot be written: the peak would then carry over from earlier repeats
/// and earlier workloads of the same process.
bool reset_peak_rss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace

void run_ranks(std::uint32_t p,
               const std::function<void(std::uint32_t)>& fn) {
  std::vector<std::exception_ptr> errors(p);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  // The rank that failed first aborted the mesh and its peers unwound with
  // PeerFailedError; surface the root cause, not the echo.
  std::exception_ptr echo;
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const net::PeerFailedError&) {
      if (!echo) echo = e;
    } catch (...) {
      throw;
    }
  }
  if (echo) std::rethrow_exception(echo);
}

namespace {

/// An anonymous mapping outside malloc: the reference must leave the
/// allocator as it found it (freeing a large malloc block raises glibc's
/// mmap threshold, which would change the next repeat's peak RSS).
class Mapping {
 public:
  explicit Mapping(std::size_t bytes)
      : bytes_(bytes),
        p_(::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (p_ == MAP_FAILED) throw std::bad_alloc();
  }
  ~Mapping() { ::munmap(p_, bytes_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  template <class T>
  [[nodiscard]] std::span<T> as() const {
    return {static_cast<T*>(p_), bytes_ / sizeof(T)};
  }

 private:
  std::size_t bytes_;
  void* p_;
};

/// The same fixed integer, memcpy and random-walk work on each of `threads`
/// threads, in rounds that end at a barrier.
double cpu_reference_s(std::uint32_t threads) {
  constexpr std::size_t kWalkBytes = 32u << 20;  // past the LLC
  constexpr std::size_t kWalkWords = kWalkBytes / sizeof(std::uint64_t);
  constexpr std::size_t kCopyBytes = 4u << 20;
  constexpr int kRounds = 10;
  constexpr std::uint64_t kMul = 6364136223846793005ULL;
  const Mapping walk_map(kWalkBytes);
  const auto walk = walk_map.as<std::uint64_t>();
  // Filled, so the walk reads real pages rather than the shared zero page.
  std::fill(walk.begin(), walk.end(), threads);
  // Two copy buffers per thread, mapped here: a thread that failed to
  // allocate would leave the others waiting at the barrier.
  const Mapping copy_map(2 * kCopyBytes * threads);
  const auto copies = copy_map.as<std::byte>();
  std::fill(copies.begin(), copies.end(), std::byte{1});
  std::barrier sync(threads);
  std::vector<std::uint64_t> sinks(threads);
  const auto t0 = Clock::now();
  run_ranks(threads, [&](std::uint32_t t) {
    const auto a = copies.subspan(2 * t * kCopyBytes, kCopyBytes);
    const auto b = copies.subspan((2 * t + 1) * kCopyBytes, kCopyBytes);
    std::uint64_t x = t + 1;
    std::uint64_t at = t;
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < 4'000'000; ++i) x = x * kMul + 1;
      for (int i = 0; i < 4; ++i) {
        std::memcpy(b.data(), a.data(), kCopyBytes);
        asm volatile("" : : "r"(b.data()) : "memory");  // keep every copy
      }
      // Each load's address depends on the previous load: latency-bound.
      for (int i = 0; i < 40'000; ++i) at = at * kMul + walk[at % kWalkWords];
      sync.arrive_and_wait();
    }
    sinks[t] = x + at + std::to_integer<std::uint64_t>(b[t]);
  });
  const double s = seconds_since(t0);
  asm volatile("" : : "r"(sinks.data()) : "memory");
  return s;
}

/// Synchronous 4 KiB O_DIRECT writes, then reads, at scattered offsets of a
/// fresh file in `dir`: the drive's latency right now.  Plain syscalls, so
/// a change to the em layer cannot move it.
double direct_io_reference_s(const std::string& dir) {
  constexpr std::size_t kBlock = 4096;
  constexpr std::uint64_t kSlots = 4096;  // a 16 MiB file
  constexpr std::uint64_t kOps = 3000;
  const Mapping buf_map(kBlock);  // page-aligned, as O_DIRECT needs
  const auto buf = buf_map.as<std::byte>();
  std::fill(buf.begin(), buf.end(), std::byte{0x5a});
  const std::string path = dir + "/host_ref";
  const int fd = ::open(path.c_str(),
                        O_RDWR | O_CREAT | O_TRUNC | O_DIRECT | O_CLOEXEC, 0600);
  if (fd < 0) {
    throw std::runtime_error("cannot open " + path + ": " +
                             std::strerror(errno));
  }
  bool ok = true;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; ok && i < 2 * kOps; ++i) {
    // An odd multiplier permutes the slots: kOps distinct blocks.
    const auto off =
        static_cast<off_t>((i % kOps) * 2654435761u % kSlots * kBlock);
    const ssize_t n = i < kOps ? ::pwrite(fd, buf.data(), kBlock, off)
                               : ::pread(fd, buf.data(), kBlock, off);
    ok = n == static_cast<ssize_t>(kBlock);
  }
  const double s = seconds_since(t0);
  ::close(fd);
  ::unlink(path.c_str());
  if (!ok) throw std::runtime_error("O_DIRECT I/O on " + path + " failed");
  return s;
}

}  // namespace

double reference_s(const Workload& w, const std::string& dir) {
  const double cpu = cpu_reference_s(w.p);
  return w.direct_io ? cpu + direct_io_reference_s(dir) : cpu;
}

double nominal_reference_s(const Workload& w) {
  constexpr double kCpuS = 0.13;
  constexpr double kDirectIoS = 0.16;
  return w.direct_io ? kCpuS + kDirectIoS : kCpuS;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  // The same util::random_* calls as the embsp CLI's workloads.
  Inputs in;
  switch (w.algo) {
    case Algo::sort:
      in.keys = util::random_keys(w.n, seed);
      in.bytes = w.n * sizeof(std::uint64_t);
      break;
    case Algo::list_ranking:
      in.keys = util::random_list(w.n, seed).first;
      in.bytes = w.n * sizeof(std::uint64_t);
      break;
    case Algo::dominance:
      in.points = util::random_points_2d(w.n, seed);
      in.weights.assign(w.n, 1);
      in.bytes = w.n * (sizeof(util::Point2D) + sizeof(std::uint64_t));
      break;
    case Algo::permute:
      in.keys = util::random_keys(w.n, seed);
      in.perm = util::random_permutation(w.n, seed + 1);
      in.bytes = 2 * w.n * sizeof(std::uint64_t);
      break;
  }
  cgm::DirectExec direct;
  in.reference = drive(w, in, direct).values;
  return in;
}

std::string check_preconditions(const Workload& w, const std::string& dir) {
  if (w.engine != em::IoEngine::uring) return {};
  if (!em::uring_supported()) return "io_uring is unavailable";
  if (w.direct_io) {
    em::UringConfig ucfg;
    ucfg.direct = true;
    const em::UringBackend probe(dir + "/direct_probe", /*keep=*/false, ucfg);
    if (!probe.direct_io()) return "the filesystem under " + dir +
                                   " refuses O_DIRECT";
  }
  return {};
}

Repeat run_repeat(const Workload& w, const Inputs& in,
                  const sim::SimConfig& cfg, const std::string& mesh,
                  bool traced) {
  Repeat rep;
  rep.traced = traced;
  const std::uint32_t ranks = w.exec == Executor::dist_socket ? w.p : 1;
  rep.ranks.resize(ranks);
  rep.net.resize(ranks);
  if (traced) {
    for (std::uint32_t r = 0; r < ranks; ++r) {
      rep.recorders.push_back(std::make_unique<obs::Recorder>());
    }
  }
  std::optional<Outcome> out;
  // Return freed heap to the kernel first, so the peak this repeat reports
  // does not depend on what earlier repeats left cached in the allocator.
  ::malloc_trim(0);
  if (!reset_peak_rss()) {
    rep.error = "cannot reset the peak RSS: /proc/self/clear_refs is not "
                "writable";
    return rep;
  }
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  try {
    switch (w.exec) {
      case Executor::seq:
        out = run_local<sim::SeqSimulator>(w, in, cfg, rep);
        break;
      case Executor::par:
        out = run_local<sim::ParSimulator>(w, in, cfg, rep);
        break;
      case Executor::dist_socket:
        out = run_socket(w, in, cfg, mesh, rep);
        break;
    }
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  rep.total_s = seconds_since(t0);
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.peak_rss_mib = peak_rss_mib();
  if (out.has_value()) {
    rep.ok = out->values == in.reference;
    if (!rep.ok) rep.error = "output differs from the DirectExec reference";
    rep.digest = digest(*out);
    rep.exec = std::move(out->exec);
  }
  return rep;
}

}  // namespace ledger
