// embsp — command-line driver for the EM-BSP workloads.
//
// Runs any Table 1 workload on a configurable simulated EM machine and
// prints the cost summary (optionally a per-superstep CSV trace), so
// machine-shape questions ("what does doubling D buy me on list ranking?")
// can be answered without writing code.
//
//   embsp <workload> [options]
//
//   workloads: sort permute transpose maxima dominance closest hull
//              envelope listrank euler cc lca
//   options:
//     --n <count>      problem size                  (default 65536)
//     --v <count>      virtual BSP* processors       (default 64)
//     --p <count>      real processors               (default 1)
//     --D <count>      disks per processor           (default 4)
//     --B <bytes>      block size                    (default 512)
//     --M <bytes>      memory per processor          (default 4194304)
//     --k <count>      group size (0 = auto)         (default 0)
//     --mode <m>       compact | padded | deterministic | auto
//                      (--routing is an alias; auto keeps routing in memory
//                      and skips Algorithm 2 when the staging budget fits,
//                      falling back to compact otherwise)
//     --auto-tune      let the layout planner pick the tuning knobs (group
//                      size, routing mode, compute-pool width)
//                      from the machine parameters, and — when pipelined —
//                      adapt the compute width at superstep boundaries from
//                      the I/O engine's stall fraction.  Results are
//                      byte-identical to the equivalent static config;
//                      the chosen plan is exported as sim.layout.* gauges.
//     --seed <u64>     workload + placement seed     (default 42)
//     --csv <path>     write the per-superstep cost trace (p=1 only)
//     --faults <rate>  inject transient I/O faults at this per-call rate
//                      (plus torn writes and bit flips at rate/2 each);
//                      enables block checksums, retry/backoff and
//                      superstep-granular recovery (a unanimous rollback
//                      of every rank when p > 1).  Results are identical
//                      to a fault-free run; the recovery rows in the
//                      report show what the substrate absorbed.
//     --metrics <path> write a JSON metrics snapshot (per-phase wall/model
//                      cost, per-disk service-time histograms, routing and
//                      recovery counters; schema in src/obs/metrics.hpp)
//     --pipeline       overlap disk I/O with compute: prefetch the next
//                      group's contexts/messages and retire the previous
//                      group's write-backs while the current group runs
//                      (enables the parallel I/O engine; results and disk
//                      image are byte-identical to the serial schedule at
//                      equal k — double buffering halves the context
//                      memory per group, so the auto-picked k may shrink;
//                      pin --k to compare digests).
//                      Composes with --transport: each rank pipelines its
//                      private disks and drains the wire incrementally
//                      while it computes.
//     --compute-threads <count>
//                      with --pipeline: run each group's superstep() calls
//                      on this many threads (default 1; deterministic)
//     --trace-events <path>
//                      write a Chrome trace-event timeline (open in
//                      chrome://tracing or https://ui.perfetto.dev)
//     --io-engine <e>  serial | parallel | uring — how each parallel I/O's
//                      per-disk transfers execute.  uring puts every drive
//                      on a kernel-native io_uring backend over per-drive
//                      scratch files (falls back to file I/O on kernels
//                      without io_uring); results are byte-identical across
//                      engines for a fixed seed.
//     --direct         with --io-engine uring: open the scratch files
//                      O_DIRECT so transfers bypass the page cache
//                      (degrades to buffered I/O on filesystems that
//                      refuse O_DIRECT, e.g. tmpfs)
//     --disk-dir <dir> directory for the uring engine's scratch files
//                      (default: the system temp directory)
//     --checkpoint <dir>
//                      write a durable checkpoint of the run's state to
//                      <dir> at superstep boundaries (crash-consistent:
//                      tmp + fsync + atomic rename; a torn checkpoint is
//                      detected and the previous epoch used instead)
//     --checkpoint-every <N>
//                      with --checkpoint: snapshot every N superstep
//                      boundaries (default 1)
//     --resume <dir>   restore the last committed checkpoint from <dir>
//                      and continue; the finished run is byte-identical
//                      (same results, costs, and fault schedule) to one
//                      that was never interrupted
//     --digest         print a deterministic digest of the workload's
//                      outputs and model costs — two runs agree iff their
//                      results and costs agree (the resume-equivalence
//                      check the crash-restart harness scripts against)
//     --transport <t>  loopback | socket — give every Algorithm 3 rank its
//                      own workload driver over the net/ transport tier.
//                      loopback runs p ranks as threads of this process
//                      (the ranks --p runs); socket runs p real processes
//                      over unix-domain or TCP sockets.  --checkpoint,
//                      --resume and --faults compose with both: rank 0
//                      publishes and loads checkpoints, and a rollback is
//                      agreed by every rank.
//     --workers <p>    worker count for --transport (overrides --p)
//     --listen <addr>  with --transport socket: mesh address — a
//                      unix-socket path prefix, or host:port for TCP
//                      (rank r binds <prefix>.r / port+r).  The
//                      coordinator forks the workers itself; default is a
//                      fresh prefix under the system temp directory.
//     --connect <addr> --rank <r>
//                      join an externally launched mesh at <addr> as rank
//                      r instead of forking workers (one process per rank,
//                      e.g. one per machine); rank 0 prints the report
//
// SIGINT/SIGTERM request graceful shutdown: the run stops at the next
// superstep boundary, publishes a final checkpoint when --checkpoint is
// active, writes any requested --metrics/--trace-events snapshots, and
// exits 130.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <type_traits>
#include <set>
#include <span>
#include <fstream>
#include <iostream>
#include <thread>

#include "embsp/embsp.hpp"
#include "util/parse.hpp"

namespace {

using namespace embsp;

// Set by the SIGINT/SIGTERM handlers; the simulators poll it at superstep
// boundaries (SimConfig::cancel).  A plain atomic store is async-signal-safe.
std::atomic<bool> g_cancel{false};

void request_shutdown(int) { g_cancel.store(true, std::memory_order_relaxed); }

struct Options {
  std::string workload;
  std::uint64_t n = 65536;
  std::uint32_t v = 64;
  std::uint32_t p = 1;
  std::size_t D = 4;
  std::size_t B = 512;
  std::size_t M = 4u << 20;
  std::size_t k = 0;
  sim::RoutingMode mode = sim::RoutingMode::compact;
  std::uint64_t seed = 42;
  std::string csv;
  double faults = 0.0;
  std::string metrics;
  std::string trace;
  bool pipeline = false;
  bool auto_tune = false;
  std::size_t compute_threads = 1;
  std::string io_engine;  // "", "serial", "parallel", "uring"
  bool direct = false;
  std::string disk_dir;
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  bool digest = false;
  std::string transport;  // "", "loopback", "socket"
  std::string listen;
  std::string connect;
  std::uint32_t rank = 0;
  bool rank_set = false;
  /// Internal: set on worker ranks > 0 so only rank 0 reports/digests.
  bool quiet = false;
};

int usage() {
  std::cerr
      << "usage: embsp <workload> [--n N] [--v V] [--p P] [--D D] [--B B]\n"
         "             [--M M] [--k K]\n"
         "             [--mode compact|padded|deterministic|auto]\n"
         "             [--seed S] [--csv PATH] [--faults RATE]\n"
         "             [--metrics PATH] [--trace-events PATH]\n"
         "             [--pipeline] [--compute-threads T] [--auto-tune]\n"
         "             [--io-engine serial|parallel|uring] [--direct]\n"
         "             [--disk-dir DIR]\n"
         "             [--checkpoint DIR] [--checkpoint-every N]\n"
         "             [--resume DIR] [--digest]\n"
         "             [--transport loopback|socket] [--workers P]\n"
         "             [--listen ADDR | --connect ADDR --rank R]\n"
         "workloads: sort permute transpose maxima dominance closest hull\n"
         "           envelope listrank euler cc lca\n";
  return 2;
}

/// Prints the diagnostic the checked parsers feed; always returns false so
/// `parse` call sites read `return bad_value(...)`.
bool bad_value(const std::string& flag, const std::string& val,
               const char* expected) {
  std::cerr << "embsp: invalid value '" << val << "' for " << flag
            << " (expected " << expected << ")\n";
  return false;
}

bool parse_uint_flag(const std::string& flag, const std::string& val,
                     std::uint64_t max, std::uint64_t& out) {
  const auto parsed = util::parse_u64_max(val, max);
  if (!parsed) {
    return bad_value(flag, val,
                     ("an unsigned integer <= " + std::to_string(max)).c_str());
  }
  out = *parsed;
  return true;
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.workload = argv[1];
  for (int i = 2; i < argc;) {
    const std::string flag = argv[i];
    // Flags without a value.
    if (flag == "--pipeline") {
      opt.pipeline = true;
      ++i;
      continue;
    }
    if (flag == "--auto-tune") {
      opt.auto_tune = true;
      ++i;
      continue;
    }
    if (flag == "--direct") {
      opt.direct = true;
      ++i;
      continue;
    }
    if (flag == "--digest") {
      opt.digest = true;
      ++i;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "embsp: " << flag << " requires a value\n";
      return false;
    }
    const std::string val = argv[i + 1];
    i += 2;
    // Checked numeric parsing: a malformed value ("foo", "10x", "-1")
    // prints a diagnostic naming the flag and exits with the usage status,
    // instead of std::stoul aborting the process on an uncaught exception
    // or silently swallowing trailing garbage.
    std::uint64_t num = 0;
    if (flag == "--n") {
      if (!parse_uint_flag(flag, val, UINT64_MAX, num)) return false;
      opt.n = num;
    } else if (flag == "--v") {
      if (!parse_uint_flag(flag, val, UINT32_MAX, num)) return false;
      opt.v = static_cast<std::uint32_t>(num);
    } else if (flag == "--p" || flag == "--workers") {
      if (!parse_uint_flag(flag, val, UINT32_MAX, num)) return false;
      opt.p = static_cast<std::uint32_t>(num);
    } else if (flag == "--D") {
      if (!parse_uint_flag(flag, val, SIZE_MAX, num)) return false;
      opt.D = num;
    } else if (flag == "--B") {
      if (!parse_uint_flag(flag, val, SIZE_MAX, num)) return false;
      opt.B = num;
    } else if (flag == "--M") {
      if (!parse_uint_flag(flag, val, SIZE_MAX, num)) return false;
      opt.M = num;
    } else if (flag == "--k") {
      if (!parse_uint_flag(flag, val, SIZE_MAX, num)) return false;
      opt.k = num;
    } else if (flag == "--seed") {
      if (!parse_uint_flag(flag, val, UINT64_MAX, num)) return false;
      opt.seed = num;
    } else if (flag == "--rank") {
      if (!parse_uint_flag(flag, val, UINT32_MAX, num)) return false;
      opt.rank = static_cast<std::uint32_t>(num);
      opt.rank_set = true;
    } else if (flag == "--csv") {
      opt.csv = val;
    } else if (flag == "--metrics") {
      opt.metrics = val;
    } else if (flag == "--trace-events") {
      opt.trace = val;
    } else if (flag == "--faults") {
      const auto rate = util::parse_f64(val);
      if (!rate || *rate < 0.0 || *rate >= 1.0) {
        return bad_value(flag, val, "a rate in [0, 1)");
      }
      opt.faults = *rate;
    } else if (flag == "--compute-threads") {
      if (!parse_uint_flag(flag, val, SIZE_MAX, num)) return false;
      if (num == 0) return bad_value(flag, val, "a positive thread count");
      opt.compute_threads = num;
    } else if (flag == "--io-engine") {
      if (val != "serial" && val != "parallel" && val != "uring") {
        return bad_value(flag, val, "serial, parallel or uring");
      }
      opt.io_engine = val;
    } else if (flag == "--disk-dir") {
      opt.disk_dir = val;
    } else if (flag == "--checkpoint") {
      opt.checkpoint_dir = val;
    } else if (flag == "--checkpoint-every") {
      if (!parse_uint_flag(flag, val, SIZE_MAX, num)) return false;
      if (num == 0) return bad_value(flag, val, "a positive interval");
      opt.checkpoint_every = num;
    } else if (flag == "--resume") {
      opt.checkpoint_dir = val;
      opt.resume = true;
    } else if (flag == "--transport") {
      if (val != "loopback" && val != "socket") {
        return bad_value(flag, val, "loopback or socket");
      }
      opt.transport = val;
    } else if (flag == "--listen") {
      opt.listen = val;
    } else if (flag == "--connect") {
      opt.connect = val;
    } else if (flag == "--mode" || flag == "--routing") {
      if (val == "compact") {
        opt.mode = sim::RoutingMode::compact;
      } else if (val == "padded") {
        opt.mode = sim::RoutingMode::padded;
      } else if (val == "deterministic") {
        opt.mode = sim::RoutingMode::deterministic;
      } else if (val == "auto" || val == "automatic") {
        opt.mode = sim::RoutingMode::automatic;
      } else {
        return bad_value(flag, val, "compact, padded, deterministic or auto");
      }
    } else {
      std::cerr << "embsp: unknown flag " << flag << "\n";
      return false;
    }
  }
  if (opt.transport.empty()) {
    if (!opt.listen.empty() || !opt.connect.empty() || opt.rank_set) {
      std::cerr << "embsp: --listen/--connect/--rank require "
                   "--transport socket\n";
      return false;
    }
  } else {
    if (opt.transport == "loopback" &&
        (!opt.listen.empty() || !opt.connect.empty())) {
      std::cerr << "embsp: --listen/--connect only apply to "
                   "--transport socket\n";
      return false;
    }
    if (!opt.connect.empty() && !opt.listen.empty()) {
      std::cerr << "embsp: --listen and --connect are mutually exclusive\n";
      return false;
    }
    if (!opt.connect.empty() && !opt.rank_set) {
      std::cerr << "embsp: --connect requires --rank\n";
      return false;
    }
    if (opt.rank_set && opt.rank >= opt.p) {
      std::cerr << "embsp: --rank " << opt.rank
                << " out of range for --workers " << opt.p << "\n";
      return false;
    }
  }
  return true;
}

// --- Output digest (--digest) ----------------------------------------------
// A running hash over the workload's collected outputs plus the model costs.
// Every folded quantity is deterministic for a fixed seed and config, so
// two invocations print the same digest iff they produced the same results
// at the same cost — the equality the crash/restart harness asserts between
// an uninterrupted run and a killed-and-resumed one.

std::uint64_t g_digest = 0x9e3779b97f4a7c15ULL;

void fold_digest(std::uint64_t x) {
  g_digest = util::mix64(g_digest ^ util::mix64(x + 0x9e3779b97f4a7c15ULL));
}

template <typename T>
void fold_digest_vec(const std::vector<T>& v) {
  // Every folded element type is either a scalar or a struct with explicit
  // padding fields, so hashing the raw bytes is well-defined.
  static_assert(std::is_trivially_copyable_v<T>);
  fold_digest(v.size());
  fold_digest(
      util::checksum64(std::as_bytes(std::span<const T>(v.data(), v.size()))));
}

void fold_digest_costs(const cgm::ExecResult& exec) {
  fold_digest(exec.lambda);
  fold_digest_vec(exec.costs.supersteps);
  if (exec.sim.has_value()) {
    const auto& io = exec.sim->total_io;
    fold_digest(io.parallel_ios);
    fold_digest(io.blocks_read);
    fold_digest(io.blocks_written);
    fold_digest(io.bytes_read);
    fold_digest(io.bytes_written);
  }
}

void print_digest() {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(g_digest));
  std::cout << "digest: " << buf << "\n";
}

void report(const Options& opt, const cgm::ExecResult& exec,
            const std::string& note) {
  // Worker ranks of a distributed run compute everything (the collect
  // phase is an allgather, so every rank holds the full result) but only
  // rank 0 speaks.
  if (opt.quiet) return;
  util::Table table({"metric", "value"});
  table.add_row({"workload", opt.workload});
  table.add_row({"machine", "p=" + std::to_string(opt.p) +
                                " D=" + std::to_string(opt.D) +
                                " B=" + std::to_string(opt.B) +
                                " M=" + util::fmt_bytes(opt.M)});
  table.add_row({"virtual processors", std::to_string(opt.v)});
  table.add_row({"supersteps (lambda)", std::to_string(exec.lambda)});
  if (exec.sim.has_value()) {
    const auto& r = *exec.sim;
    std::uint64_t max_ios = r.total_io.parallel_ios;
    for (const auto& io : r.per_proc_io) {
      max_ios = std::max(max_ios, io.parallel_ios);
    }
    table.add_row({"parallel I/Os (max/proc)", util::fmt_count(max_ios)});
    table.add_row(
        {"blocks moved", util::fmt_count(r.total_io.blocks_read +
                                         r.total_io.blocks_written)});
    table.add_row({"disk utilization",
                   util::fmt_double(r.total_io.utilization(opt.D), 3)});
    table.add_row({"I/O time (G=1)",
                   util::fmt_double(r.io_time(1.0), 0)});
    table.add_row({"group size k", std::to_string(r.group_size)});
    table.add_row({"disk tracks used (max)",
                   util::fmt_count(r.max_tracks_per_disk)});
    if (opt.pipeline) {
      table.add_row(
          {"compute/I-O overlap", util::fmt_double(r.overlap_ratio, 3)});
    }
    if (opt.p > 1) {
      table.add_row({"real comm bytes/superstep (max)",
                     util::fmt_bytes(r.real_comm_bytes)});
    }
    if (opt.faults > 0.0) {
      table.add_row({"injected faults",
                     util::fmt_count(r.recovery.faults.total())});
      table.add_row({"I/O retries", util::fmt_count(r.recovery.io_retries)});
      table.add_row({"I/O giveups", util::fmt_count(r.recovery.io_giveups)});
      table.add_row({"superstep rollbacks",
                     util::fmt_count(r.recovery.total_rollbacks())});
    }
  }
  if (!note.empty()) table.add_row({"result", note});
  std::cout << table.render();

  if (opt.digest) {
    fold_digest_costs(exec);
    print_digest();
  }

  if (!opt.csv.empty() && exec.sim.has_value()) {
    std::ofstream out(opt.csv);
    sim::write_cost_csv(out, *exec.sim);
    std::cout << "trace written to " << opt.csv << "\n";
  }
}

/// Options for worker ranks > 0: same simulation inputs, no output.  The
/// digest is rank 0's job (fold order must match a single-process run, and
/// g_digest is file-scope state — loopback worker threads must not touch
/// it concurrently).
Options worker_options(const Options& opt) {
  Options o = opt;
  o.quiet = true;
  o.digest = false;
  o.csv.clear();
  o.metrics.clear();
  o.trace.clear();
  return o;
}

template <typename Fn>
int run_transport_rank(const Options& o, sim::SimConfig cfg,
                       net::Transport& tp, Fn& fn) {
  if (o.quiet) cfg.recorder = nullptr;  // rank 0 owns the metrics snapshot
  cgm::DistEmExec exec(cfg, tp);
  return fn(exec, o);
}

template <typename Fn>
int run_loopback(const Options& opt, const sim::SimConfig& cfg, Fn& fn) {
  const std::uint32_t p = opt.p;
  auto eps = net::make_loopback_group(p);
  std::vector<int> rc(p, 0);
  std::vector<std::exception_ptr> errors(p);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      try {
        rc[r] = run_transport_rank(r == 0 ? opt : worker_options(opt), cfg,
                                   *eps[r], fn);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  // The rank that failed first aborted the group and its peers unwound
  // with PeerFailedError; surface the root cause, not the echo.
  if (const auto e = net::root_cause(errors)) std::rethrow_exception(e);
  int worst = 0;
  for (const int r : rc) worst = std::max(worst, r);
  return worst;
}

template <typename Fn>
int run_socket(const Options& opt, const sim::SimConfig& cfg, Fn& fn) {
  net::SocketConfig scfg;
  scfg.peers = opt.p;
  if (!opt.connect.empty()) {
    // Externally launched mesh: this process is exactly one rank.
    scfg.address = opt.connect;
    scfg.rank = opt.rank;
    auto tp = net::make_socket_transport(scfg);
    return run_transport_rank(opt.rank == 0 ? opt : worker_options(opt), cfg,
                              *tp, fn);
  }
  // Coordinator mode: fork ranks 1..p-1, run rank 0 here.  Forking happens
  // before any transport (or thread) exists; children inherit only the
  // parsed options and flushed stdio.
  const std::string addr =
      !opt.listen.empty()
          ? opt.listen
          : (std::filesystem::temp_directory_path() /
             ("embsp_mesh_" + std::to_string(::getpid())))
                .string();
  std::cout.flush();
  std::cerr.flush();
  std::vector<pid_t> kids;
  for (std::uint32_t r = 1; r < opt.p; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      for (const pid_t k : kids) ::kill(k, SIGTERM);
      throw std::runtime_error(std::string("fork failed: ") +
                               std::strerror(err));
    }
    if (pid == 0) {
      int rc = 1;
      try {
        scfg.address = addr;
        scfg.rank = r;
        auto tp = net::make_socket_transport(scfg);
        rc = run_transport_rank(worker_options(opt), cfg, *tp, fn);
      } catch (const sim::CanceledError&) {
        rc = 130;
      } catch (const std::exception& e) {
        std::cerr << "embsp worker " << r << ": " << e.what() << "\n";
        rc = 1;
      }
      std::_Exit(rc);  // never unwind into the parent's stack/state
    }
    kids.push_back(pid);
  }
  int rc0 = 0;
  std::exception_ptr err;
  try {
    scfg.address = addr;
    scfg.rank = 0;
    auto tp = net::make_socket_transport(scfg);
    rc0 = run_transport_rank(opt, cfg, *tp, fn);
  } catch (...) {
    err = std::current_exception();
  }
  // Reap the workers before surfacing rank 0's outcome: a failed worker
  // turns into a nonzero exit, never a zombie.
  int worst = rc0;
  for (const pid_t k : kids) {
    int status = 0;
    while (::waitpid(k, &status, 0) < 0 && errno == EINTR) {
    }
    worst = std::max(worst, WIFEXITED(status) ? WEXITSTATUS(status) : 1);
  }
  if (err) std::rethrow_exception(err);
  return worst;
}

template <typename Fn>
int run_workload(const Options& opt, Fn fn) {
  sim::SimConfig cfg;
  cfg.machine.p = opt.p;
  cfg.machine.em = {opt.M, opt.D, opt.B, 1.0};
  cfg.k = opt.k;
  cfg.routing = opt.mode;
  cfg.auto_tune = opt.auto_tune;
  cfg.seed = opt.seed;
  if (opt.pipeline) {
    // Pipelining needs a concurrent engine, or submissions block inline.
    cfg.pipeline = true;
    cfg.io_engine = em::IoEngine::parallel;
    cfg.compute_threads = opt.compute_threads;
  }
  // An explicit --io-engine wins over --pipeline's default (uring is also a
  // concurrent engine, so pipelining composes with it).
  if (opt.io_engine == "serial") {
    cfg.io_engine = em::IoEngine::serial;
  } else if (opt.io_engine == "parallel") {
    cfg.io_engine = em::IoEngine::parallel;
  } else if (opt.io_engine == "uring") {
    cfg.io_engine = em::IoEngine::uring;
  }
  cfg.direct_io = opt.direct;
  cfg.disk_dir = opt.disk_dir;
  if (opt.faults > 0.0) {
    cfg.faults.seed = opt.seed;
    cfg.faults.read_error_rate = opt.faults;
    cfg.faults.write_error_rate = opt.faults;
    cfg.faults.torn_write_rate = opt.faults / 2;
    cfg.faults.bit_flip_rate = opt.faults / 2;
    cfg.block_checksums = true;
    // Superstep-granular rollback: the sequential simulator re-executes the
    // failed superstep; the parallel simulator rolls all processors back to
    // the last committed epoch together (coordinated recovery).
    cfg.superstep_recovery = true;
  }
  cfg.checkpoint.dir = opt.checkpoint_dir;
  cfg.checkpoint.every = opt.checkpoint_every;
  cfg.checkpoint.resume = opt.resume;
  cfg.cancel = &g_cancel;
  // The recorder outlives the run; sinks are written only when requested,
  // and a null cfg.recorder keeps the uninstrumented fast path.
  obs::Recorder recorder;
  if (!opt.metrics.empty() || !opt.trace.empty()) {
    recorder.trace_enabled = !opt.trace.empty();
    cfg.recorder = &recorder;
  }
  // Written on every exit path: an aborted or canceled run still leaves a
  // metrics snapshot and trace behind (that is when they matter most).
  auto write_sinks = [&] {
    if (!opt.metrics.empty()) {
      std::ofstream out(opt.metrics);
      recorder.registry.write_json(out);
      std::cout << "metrics written to " << opt.metrics << "\n";
    }
    if (!opt.trace.empty()) {
      std::ofstream out(opt.trace);
      recorder.trace.write_json(out);
      std::cout << "trace events written to " << opt.trace << "\n";
    }
  };
  int rc;
  try {
    if (opt.transport == "loopback") {
      rc = run_loopback(opt, cfg, fn);
    } else if (opt.transport == "socket") {
      rc = run_socket(opt, cfg, fn);
    } else if (opt.p == 1) {
      cgm::SeqEmExec exec(cfg);
      rc = fn(exec, opt);
    } else {
      cgm::ParEmExec exec(cfg);
      rc = fn(exec, opt);
    }
  } catch (const sim::CanceledError& e) {
    std::cerr << "canceled: " << e.what() << "\n";
    write_sinks();
    return 130;
  } catch (...) {
    write_sinks();
    throw;
  }
  write_sinks();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();

  std::signal(SIGINT, request_shutdown);
  std::signal(SIGTERM, request_shutdown);
  em::install_crash_hook_from_env();  // EMBSP_CRASH_AFTER_MS soak harness

  try {
    // The parameter shadows the parsed options on purpose: distributed
    // runs invoke this body once per rank with that rank's (possibly
    // quieted) options.
    return run_workload(opt, [&](auto& exec, const Options& opt) -> int {
      if (opt.workload == "sort") {
        auto keys = util::random_keys(opt.n, opt.seed);
        auto out = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
            exec, keys, opt.v);
        const bool ok = std::is_sorted(out.sorted.begin(), out.sorted.end());
        if (opt.digest) fold_digest_vec(out.sorted);
        report(opt, out.exec, ok ? "sorted" : "NOT SORTED");
        return ok ? 0 : 1;
      }
      if (opt.workload == "permute") {
        auto values = util::random_keys(opt.n, opt.seed);
        auto perm = util::random_permutation(opt.n, opt.seed + 1);
        auto out = cgm::cgm_permute(exec, values, perm, opt.v);
        if (opt.digest) fold_digest_vec(out.values);
        report(opt, out.exec, "permuted " + util::fmt_count(opt.n));
        return 0;
      }
      if (opt.workload == "transpose") {
        std::uint64_t side = 1;
        while ((side * 2) * (side * 2) <= opt.n) side *= 2;
        auto m = util::random_keys(side * side, opt.seed);
        auto out = cgm::cgm_transpose(exec, m, side, side, opt.v);
        if (opt.digest) fold_digest_vec(out.data);
        report(opt, out.exec,
               std::to_string(side) + "x" + std::to_string(side));
        return 0;
      }
      if (opt.workload == "maxima") {
        auto pts = util::random_points_3d(opt.n, opt.seed);
        auto out = cgm::cgm_3d_maxima(exec, pts, opt.v);
        std::uint64_t count = 0;
        for (auto f : out.maximal) count += f;
        if (opt.digest) fold_digest_vec(out.maximal);
        report(opt, out.exec, util::fmt_count(count) + " maxima");
        return 0;
      }
      if (opt.workload == "dominance") {
        auto pts = util::random_points_2d(opt.n, opt.seed);
        std::vector<std::uint64_t> w(opt.n, 1);
        auto out = cgm::cgm_dominance_counts(exec, pts, w, opt.v);
        if (opt.digest) fold_digest_vec(out.counts);
        report(opt, out.exec, "counts computed");
        return 0;
      }
      if (opt.workload == "closest") {
        auto pts = util::random_points_2d(opt.n, opt.seed);
        auto out = cgm::cgm_closest_pair(exec, pts, opt.v);
        if (opt.digest) {
          fold_digest(out.best.tag_a);
          fold_digest(out.best.tag_b);
        }
        report(opt, out.exec,
               "pair (" + std::to_string(out.best.tag_a) + ", " +
                   std::to_string(out.best.tag_b) + ")");
        return 0;
      }
      if (opt.workload == "hull") {
        auto pts = util::random_points_2d(opt.n, opt.seed);
        auto out = cgm::cgm_convex_hull(exec, pts, opt.v);
        if (opt.digest) fold_digest_vec(out.hull_tags);
        report(opt, out.exec,
               std::to_string(out.hull.size()) + " hull vertices");
        return 0;
      }
      if (opt.workload == "envelope") {
        auto segs = util::random_disjoint_segments(opt.n, opt.seed);
        auto out = cgm::cgm_lower_envelope(exec, segs, opt.v);
        if (opt.digest) fold_digest_vec(out.envelope);
        report(opt, out.exec,
               std::to_string(out.envelope.size()) + " envelope pieces");
        return 0;
      }
      if (opt.workload == "listrank") {
        auto [succ, head] = util::random_list(opt.n, opt.seed);
        (void)head;
        auto out = cgm::cgm_list_ranking(exec, succ, opt.v);
        if (opt.digest) {
          fold_digest_vec(out.rank1);
          fold_digest_vec(out.rank2);
        }
        report(opt, out.exec, "ranked " + util::fmt_count(opt.n));
        return 0;
      }
      if (opt.workload == "euler") {
        auto parent = util::random_tree(opt.n, opt.seed);
        auto out = cgm::cgm_euler_tour(exec, parent, opt.v);
        std::uint64_t max_depth = 0;
        for (auto d : out.depth) max_depth = std::max(max_depth, d);
        if (opt.digest) {
          fold_digest_vec(out.depth);
          fold_digest_vec(out.subtree_size);
          fold_digest_vec(out.first_pos);
          fold_digest_vec(out.last_pos);
          fold_digest_costs(out.link_exec);
        }
        report(opt, out.rank_exec,
               "tree height " + std::to_string(max_depth));
        return 0;
      }
      if (opt.workload == "cc") {
        auto [edges, truth] = util::random_components_graph(
            opt.n, std::max<std::uint64_t>(2, opt.n / 1000 + 2), opt.n,
            opt.seed);
        (void)truth;
        auto out = cgm::cgm_connected_components(exec, opt.n, edges, opt.v);
        std::set<std::uint64_t> labels(out.component.begin(),
                                       out.component.end());
        if (opt.digest) {
          fold_digest_vec(out.component);
          fold_digest_vec(out.tree_edges);
        }
        report(opt, out.exec,
               std::to_string(labels.size()) + " components, " +
                   util::fmt_count(out.tree_edges.size()) + " forest edges");
        return 0;
      }
      if (opt.workload == "lca") {
        auto parent = util::random_tree(opt.n, opt.seed);
        util::Rng rng(opt.seed + 2);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> queries;
        for (int i = 0; i < 256; ++i) {
          queries.emplace_back(rng.below(opt.n), rng.below(opt.n));
        }
        auto out = cgm::cgm_batched_lca(exec, parent, queries, opt.v);
        if (opt.digest) fold_digest_vec(out.lca);
        report(opt, out.exec, "256 queries answered");
        return 0;
      }
      usage();
      return 2;
    });
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
