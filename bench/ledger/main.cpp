// ledger — the EM-BSP perf ledger: end-to-end and per-layer metrics of four
// fixed workloads, set against a calibrated G/g/L cost model.
//
//   ledger [--workload NAME] [--seed S] [--out FILE]
//       every workload (or one): 1 warm-up, 5 timed repeats, 1 traced
//       repeat; writes every per-repeat sample to FILE as JSON, and each
//       traced recorder's registry snapshot to FILE.<workload>.rank<r>.json
//   ledger --workload NAME --seed S --seconds T --trace 0|1
//       one workload: 1 warm-up, then timed repeats for T seconds (at least
//       3); --trace 1 adds the traced repeat and calibration.  The last
//       stdout line is one JSON object with the end-to-end (trace 0) or
//       per-layer (trace 1) metrics
//   ledger --smoke
//       every workload at n/16, 1 timed and 1 traced repeat, all checks on
//
// Every metric is printed as "<workload> <metric> <value> <unit>".  The
// end-to-end times are scaled to a reference host speed (reference_s in
// ledger.hpp); the measured ones follow as "measured.<metric>".  Any
// failed repeat (exception, output differing from the DirectExec
// reference, digest differing from the first repeat's) makes the exit
// status non-zero.  SIGINT/SIGTERM stop the run at the next superstep or
// repeat boundary; scratch files are removed and the status is 130.
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "ledger.hpp"
#include "obs/json.hpp"
#include "util/parse.hpp"

namespace {

using namespace ledger;
namespace fs = std::filesystem;

std::atomic<bool> g_cancel{false};

extern "C" void on_signal(int) { g_cancel.store(true); }

void check_cancel() {
  if (g_cancel.load()) throw sim::CanceledError("ledger: interrupted");
}

/// $TMPDIR/embsp_ledger.<pid>/, held under an exclusive flock on
/// $TMPDIR/embsp_ledger.lock so two ledgers never time disks at once.
class Scratch {
 public:
  Scratch() {
    const fs::path base = fs::temp_directory_path();
    const std::string lock = (base / "embsp_ledger.lock").string();
    fd_ = ::open(lock.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      throw std::runtime_error("cannot open " + lock + ": " +
                               std::strerror(errno));
    }
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      std::cerr << "ledger: waiting for the ledger holding " << lock << "\n";
      while (::flock(fd_, LOCK_EX) != 0) {
        if (errno != EINTR || g_cancel.load()) {
          ::close(fd_);
          throw sim::CanceledError("ledger: interrupted waiting for " + lock);
        }
      }
    }
    dir_ = base / ("embsp_ledger." + std::to_string(::getpid()));
    fs::create_directories(dir_);
    // Unix-socket paths are limited to ~108 bytes; name the mesh relative
    // to the working directory when that is shorter.
    const fs::path mesh = dir_ / "mesh";
    const fs::path rel = fs::proximate(mesh);
    mesh_ = (rel.native().size() < mesh.native().size() ? rel : mesh).string();
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    ::close(fd_);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  [[nodiscard]] std::string dir() const { return dir_.string(); }
  [[nodiscard]] const std::string& mesh() const { return mesh_; }

 private:
  int fd_ = -1;
  fs::path dir_;
  std::string mesh_;
};

struct Plan {
  bool warmup = true;
  int min_repeats = 5;
  int max_repeats = 5;
  double seconds = 0;  ///< keep repeating until this much time has passed
  bool traced = true;
  std::uint64_t n_div = 1;
};

struct Options {
  std::string workload;  ///< empty = all
  std::uint64_t seed = 42;
  std::string out;
  bool timed = false;  ///< --seconds given: one workload, result object
  Plan plan;
};

int usage() {
  std::cerr << "usage: ledger [--workload NAME] [--seed S] [--out FILE]\n"
               "       ledger --workload NAME --seed S --seconds T "
               "--trace 0|1\n"
               "       ledger --smoke\n";
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.plan = Plan{false, 1, 1, 0, true, 16};
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      const auto s = embsp::util::parse_u64(val);
      if (!s) return false;
      o.seed = *s;
    } else if (flag == "--seconds") {
      const auto s = embsp::util::parse_f64(val);
      if (!s || *s < 0) return false;
      o.timed = true;
      o.plan.min_repeats = 3;
      o.plan.max_repeats = 1000;
      o.plan.seconds = *s;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      o.plan.traced = val == "1";
    } else if (flag == "--out") {
      o.out = val;
    } else {
      return false;
    }
  }
  return !o.timed || !o.workload.empty();
}

std::string num(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// statistics.quantiles(values, n=4) (the "exclusive" method), so the
/// ledger's spreads match what a Python reader computes from the samples.
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  if (n < 2) return n == 1 ? Quartiles{v[0], v[0], v[0]} : Quartiles{};
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * (n + 1) / 4, 1l, n - 1);
    const long delta = i * (n + 1) - j * 4;
    q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) / 4;
  }
  return {q[0], q[1], q[2]};
}

struct Series {
  const char* name;
  const char* unit;
  bool timed;                    ///< a time: reported at the reference speed
  std::vector<double> measured;  ///< one per timed repeat
  std::vector<double> samples;   ///< as reported
};

struct Result {
  const Workload* w = nullptr;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::optional<std::uint64_t> digest;
  std::vector<double> host_ref;  ///< reference_s before each timed repeat
  std::vector<Series> e2e;
  std::optional<Repeat> traced;
  std::vector<Metric> layers;
};

const char* routing_name(sim::RoutingMode m) {
  switch (m) {
    case sim::RoutingMode::compact: return "compact";
    case sim::RoutingMode::padded: return "padded";
    case sim::RoutingMode::deterministic: return "deterministic";
    case sim::RoutingMode::automatic: return "automatic";
  }
  return "?";
}

const char* engine_name(em::IoEngine e) {
  switch (e) {
    case em::IoEngine::serial: return "serial";
    case em::IoEngine::parallel: return "parallel";
    case em::IoEngine::uring: return "uring";
  }
  return "?";
}

Result run_workload(const Workload& w, const Plan& plan, std::uint64_t seed,
                    const Scratch& scratch) {
  Result res;
  res.w = &w;
  std::cerr << "ledger: " << w.name << ": n=" << w.n << ", seed " << seed
            << "\n";
  if (const auto why = check_preconditions(w, scratch.dir()); !why.empty()) {
    res.attempted = res.failed = 1;
    res.failures.push_back(why);
    return res;
  }
  check_cancel();
  const Inputs in = make_inputs(w, seed);
  const auto cfg = sim_config(w, seed, scratch.dir(), &g_cancel);

  auto attempt = [&](bool traced) {
    check_cancel();
    Repeat rep = run_repeat(w, in, cfg, scratch.mesh(), traced);
    check_cancel();
    ++res.attempted;
    if (rep.ok && traced && w.engine == em::IoEngine::uring &&
        rep.recorders[0]->registry.counter("engine.uring.direct_rings") !=
            (w.direct_io ? w.D : 0)) {
      rep.ok = false;
      rep.error = "not every drive ran an O_DIRECT io_uring ring";
    }
    if (rep.ok && res.digest.has_value() && *res.digest != rep.digest) {
      rep.ok = false;
      rep.error = "digest differs from the first repeat's";
    }
    if (rep.ok && !res.digest.has_value()) res.digest = rep.digest;
    if (!rep.ok) {
      ++res.failed;
      res.failures.push_back(rep.error);
    }
    std::cerr << "ledger: " << w.name << (traced ? " traced" : "")
              << " repeat: wall " << num(rep.wall_s()) << " s, setup "
              << num(rep.setup_s()) << " s"
              << (rep.ok ? "" : ", FAILED: " + rep.error) << "\n";
    return rep;
  };

  if (plan.warmup) attempt(false);
  res.e2e = {{"wall_s", "s", true, {}, {}},
             {"setup_s", "s", true, {}, {}},
             {"cpu_s", "s", true, {}, {}},
             {"peak_rss_mib", "MiB", false, {}, {}},
             {"parallel_ios", "count", false, {}, {}},
             {"space_amp", "ratio", false, {}, {}}};
  const auto t0 = Clock::now();
  for (int i = 0;
       i < plan.min_repeats ||
       (i < plan.max_repeats && seconds_since(t0) < plan.seconds);
       ++i) {
    check_cancel();
    const double ref = reference_s(w, scratch.dir());
    const Repeat rep = attempt(false);
    if (!rep.ok) continue;
    res.host_ref.push_back(ref);
    const double values[] = {
        rep.wall_s(),
        rep.setup_s(),
        rep.cpu_s,
        rep.peak_rss_mib,
        static_cast<double>(rep.ranks[0].parallel_ios),
        static_cast<double>(w.p * w.D * w.B * rep.ranks[0].max_tracks) /
            static_cast<double>(in.bytes),
    };
    for (std::size_t m = 0; m < res.e2e.size(); ++m) {
      res.e2e[m].measured.push_back(values[m]);
    }
  }
  if (res.host_ref.empty()) return res;
  // Times are reported at the reference host speed: see reference_s.
  const double host_ref_s = quartiles(res.host_ref).median;
  for (auto& s : res.e2e) {
    s.samples = s.measured;
    if (!s.timed) continue;
    for (double& v : s.samples) v *= nominal_reference_s(w) / host_ref_s;
  }
  if (plan.traced) {
    res.traced = attempt(true);
    if (res.traced->ok) {
      check_cancel();
      const Calibration cal =
          calibrate(w, *res.traced, scratch.dir(), scratch.mesh());
      res.layers =
          layer_metrics(w, *res.traced, quartiles(res.e2e[0].measured).median,
                        host_ref_s, cal);
    }
  }
  return res;
}

void print_lines(const Result& r) {
  auto line = [&](const std::string& name, double v, const char* unit) {
    std::cout << r.w->name << " " << name << " " << num(v) << " " << unit
              << "\n";
  };
  for (const auto& s : r.e2e) {
    if (s.samples.empty()) continue;
    line(s.name, quartiles(s.samples).median, s.unit);
    if (s.timed) {
      line(std::string("measured.") + s.name, quartiles(s.measured).median,
           s.unit);
    }
  }
  line("failed_runs", r.failed, "count");
  for (const auto& m : r.layers) line(m.name, m.value, m.unit);
  for (const auto& f : r.failures) {
    std::cerr << "ledger: " << r.w->name << ": failure: " << f << "\n";
  }
}

/// The one-line result object: end-to-end medians, or the per-layer
/// metrics of the traced repeat.
void print_result_object(const Result& r, bool per_layer) {
  obs::JsonWriter j(std::cout, /*indent=*/-1);
  j.begin_object();
  j.kv("correct", r.failed == 0);
  j.kv("attempted", r.attempted);
  j.kv("failed", r.failed);
  j.key("metrics");
  j.begin_object();
  auto metric = [&](std::string_view name, double v, const char* unit) {
    j.key(name);
    j.begin_object();
    j.kv("value", v);
    j.kv("unit", unit);
    j.end_object();
  };
  if (per_layer) {
    for (const auto& l : r.layers) metric(l.name, l.value, l.unit);
  } else {
    for (const auto& s : r.e2e) {
      if (!s.samples.empty()) {
        metric(s.name, quartiles(s.samples).median, s.unit);
      }
    }
  }
  j.end_object();
  j.end_object();
  std::cout << "\n";
}

/// Writes each traced recorder's registry snapshot beside `out_path` as
/// <out_path>.<workload>.rank<r>.json and returns the file names.
std::vector<std::string> write_registries(const Result& r,
                                          const std::string& out_path) {
  std::vector<std::string> names;
  if (!r.traced) return names;
  for (std::size_t i = 0; i < r.traced->recorders.size(); ++i) {
    const fs::path path = out_path + "." + r.w->name + ".rank" +
                          std::to_string(i) + ".json";
    std::ofstream out(path);
    r.traced->recorders[i]->registry.write_json(out);
    out << "\n";
    if (!out) throw std::runtime_error("cannot write " + path.string());
    names.push_back(path.filename().string());
  }
  return names;
}

void write_json(const std::string& out_path, const std::vector<Result>& results,
                std::uint64_t seed) {
  std::ofstream out(out_path);
  obs::JsonWriter j(out);
  j.begin_object();
  j.kv("schema_version", 1);
  j.kv("seed", seed);
  j.key("workloads");
  j.begin_object();
  for (const auto& r : results) {
    const Workload& w = *r.w;
    j.key(w.name);
    j.begin_object();
    j.key("config");
    j.begin_object();
    j.kv("n", w.n);
    j.kv("v", std::uint64_t{w.v});
    j.kv("p", std::uint64_t{w.p});
    j.kv("D", w.D);
    j.kv("B", w.B);
    j.kv("M", w.M);
    j.kv("k", w.k);
    j.kv("routing", routing_name(w.routing));
    j.kv("io_engine", engine_name(w.engine));
    j.kv("direct_io", w.direct_io);
    j.kv("pipeline", w.pipeline);
    j.end_object();
    j.kv("runs", r.attempted);
    j.kv("failed_runs", r.failed);
    j.key("failures");
    j.begin_array();
    for (const auto& f : r.failures) j.value(f);
    j.end_array();
    char digest[17] = "";
    if (r.digest) {
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(*r.digest));
    }
    j.kv("digest", digest);
    j.key("end_to_end");
    j.begin_object();
    for (const auto& s : r.e2e) {
      const Quartiles q = quartiles(s.samples);
      j.key(s.name);
      j.begin_object();
      j.kv("unit", s.unit);
      j.kv("median", q.median);
      j.kv("q1", q.q1);
      j.kv("q3", q.q3);
      j.key("samples");
      j.begin_array();
      for (const double v : s.samples) j.value(v);
      j.end_array();
      if (s.timed) {
        j.key("measured");
        j.begin_array();
        for (const double v : s.measured) j.value(v);
        j.end_array();
      }
      j.end_object();
    }
    j.end_object();
    j.key("host_ref_s");
    j.begin_array();
    for (const double v : r.host_ref) j.value(v);
    j.end_array();
    j.key("per_layer");
    j.begin_object();
    for (const auto& m : r.layers) {
      j.key(m.name);
      j.begin_object();
      j.kv("unit", m.unit);
      j.kv("value", m.value);
      j.end_object();
    }
    j.end_object();
    // The traced repeat's raw registry snapshots, one file per recorder.
    j.key("registry");
    j.begin_array();
    for (const auto& name : write_registries(r, out_path)) j.value(name);
    j.end_array();
    j.end_object();
  }
  j.end_object();
  j.end_object();
  out << "\n";
  if (!out) throw std::runtime_error("cannot write " + out_path);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  std::vector<Workload> selected;
  for (const auto& w : workloads()) {
    if (opt.workload.empty() || opt.workload == w.name) {
      selected.push_back(w);
      selected.back().n /= opt.plan.n_div;
    }
  }
  if (selected.empty()) {
    std::cerr << "ledger: unknown workload " << opt.workload << "\n";
    return usage();
  }

  struct sigaction sa {};
  sa.sa_handler = on_signal;  // no SA_RESTART: a blocked flock must wake
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  try {
    const Scratch scratch;
    std::vector<Result> results;
    results.reserve(selected.size());
    int failed = 0;
    // Closed loop: one job at a time, workloads strictly one after another.
    for (const auto& w : selected) {
      results.push_back(run_workload(w, opt.plan, opt.seed, scratch));
      print_lines(results.back());
      failed += results.back().failed;
    }
    if (!opt.out.empty()) write_json(opt.out, results, opt.seed);
    if (opt.timed) print_result_object(results[0], opt.plan.traced);
    return failed == 0 ? 0 : 1;
  } catch (const sim::CanceledError& e) {
    std::cerr << e.what() << "\n";
    return 130;
  } catch (const std::exception& e) {
    std::cerr << "ledger: error: " << e.what() << "\n";
    return 1;
  }
}
