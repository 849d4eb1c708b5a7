// [OP] §7 — the paper's open problem, measured.
//
//   "Note that our technique applies only to BSP-like algorithms for which
//    T_comp is at least lambda*M ... Algorithms which do not fall into this
//    category are typically for problems with sublinear time complexity.
//    An example of such an algorithm is multisearch."
//
// This bench implements CGM batched search (m queries routed through a
// splitter tree to the processor owning their slab of a sorted array, then
// answered by local binary search) and contrasts it with sorting:
//
//   * sorting:      T_comp = Theta(n log n / v) per processor — far above
//                   the context size mu, so the simulation's I/O is o(1)
//                   relative to computation (Observation 2 applies);
//   * multisearch:  T_comp = Theta(m log n / v) with m << n, but every
//                   superstep still parks *all* contexts (the full array)
//                   on disk — I/O ~ lambda * n/(DB) regardless of m, so
//                   the I/O-per-computation ratio explodes as m shrinks.
//
// The measured blow-up of io/comp for multisearch vs sort is the
// quantitative form of the open problem.
#include <iostream>

#include "bench_util.hpp"
#include "cgm/sort.hpp"
#include "util/table.hpp"
#include "util/workloads.hpp"

namespace {

using namespace embsp;
using namespace embsp::bench;

/// Batched search: the sorted array is block-distributed; processor 0
/// holds the slab splitters.  Queries route 0 -> owner -> home in three
/// supersteps; local binary searches are the only computation.
struct MultisearchProgram {
  std::uint64_t n = 0;  ///< array size (defines slabs)
  std::uint64_t m = 0;  ///< number of queries

  struct Query {
    std::uint64_t key;
    std::uint64_t tag;
    std::uint32_t home;
    std::uint32_t pad;
  };
  struct Answer {
    std::uint64_t tag;
    std::uint64_t position;  ///< global rank of the predecessor
  };

  struct State {
    std::vector<std::uint64_t> slab;      ///< sorted array slab
    std::vector<std::uint64_t> queries;   ///< keys homed here
    std::vector<std::uint64_t> answers;   ///< per local query
    void serialize(util::Writer& w) const {
      w.write_vector(slab);
      w.write_vector(queries);
      w.write_vector(answers);
    }
    void deserialize(util::Reader& r) {
      slab = r.read_vector<std::uint64_t>();
      queries = r.read_vector<std::uint64_t>();
      answers = r.read_vector<std::uint64_t>();
    }
  };

  bool superstep(std::size_t step, const bsp::ProcEnv& env, State& s,
                 const bsp::Inbox& in, bsp::Outbox& out) const {
    cgm::BlockDist adist{n, env.nprocs};
    cgm::BlockDist qdist{m, env.nprocs};
    switch (step) {
      case 0: {  // send queries to the splitter holder (processor 0)
        std::vector<Query> qs;
        const auto qf = qdist.first(env.pid);
        for (std::size_t i = 0; i < s.queries.size(); ++i) {
          qs.push_back(Query{s.queries[i], qf + i, env.pid, 0});
        }
        if (!qs.empty()) out.send_vector(0, qs);
        env.charge(s.queries.size() + 1);
        return true;
      }
      case 1: {  // processor 0 routes each query to its slab owner
        if (env.pid == 0) {
          // Slab boundaries are the first keys of each slab — derivable
          // from processor 0's own knowledge of the block distribution
          // plus the sorted order; for the benchmark the array is the
          // sorted [0, n) sequence, so owner = key / chunk.
          std::vector<std::vector<Query>> route(env.nprocs);
          std::uint64_t routed = 0;
          for (std::size_t i = 0; i < in.count(); ++i) {
            for (const auto& q : in.vector<Query>(i)) {
              const auto owner =
                  adist.owner(std::min<std::uint64_t>(q.key, n - 1));
              route[owner].push_back(q);
              ++routed;
            }
          }
          env.charge(routed + 1);
          for (std::uint32_t t = 0; t < env.nprocs; ++t) {
            if (!route[t].empty()) out.send_vector(t, route[t]);
          }
        }
        return true;
      }
      case 2: {  // local binary search; answers go home
        std::vector<std::vector<Answer>> replies(env.nprocs);
        std::uint64_t work = 0;
        for (std::size_t i = 0; i < in.count(); ++i) {
          for (const auto& q : in.vector<Query>(i)) {
            const auto it =
                std::upper_bound(s.slab.begin(), s.slab.end(), q.key);
            const std::uint64_t pos =
                adist.first(env.pid) + (it - s.slab.begin());
            replies[q.home].push_back(Answer{q.tag, pos == 0 ? 0 : pos - 1});
            work += 16;  // ~log2(slab)
          }
        }
        env.charge(work + 1);
        for (std::uint32_t t = 0; t < env.nprocs; ++t) {
          if (!replies[t].empty()) out.send_vector(t, replies[t]);
        }
        return true;
      }
      default: {
        s.answers.assign(s.queries.size(), 0);
        const auto qf = qdist.first(env.pid);
        for (std::size_t i = 0; i < in.count(); ++i) {
          for (const auto& a : in.vector<Answer>(i)) {
            s.answers[a.tag - qf] = a.position;
          }
        }
        env.charge(s.answers.size() + 1);
        return false;
      }
    }
  }
};

}  // namespace

int main() {
  banner("OP", "open problem (§7): multisearch breaks c-optimality");

  constexpr std::uint32_t kV = 32;
  const std::uint64_t n = 1 << 16;

  // Reference point: sorting (T_comp = omega(lambda * mu)).
  double sort_ratio = 0;
  {
    auto keys = util::random_keys(n, 3);
    cgm::SeqEmExec exec(machine(1, 4, 512, 1 << 22));
    auto out = cgm::cgm_sort<std::uint64_t, std::less<std::uint64_t>>(
        exec, keys, kV);
    std::uint64_t comp = 0;
    for (const auto& s : out.exec.costs.supersteps) comp += s.total_work;
    sort_ratio = static_cast<double>(out.exec.sim->total_io.parallel_ios) /
                 static_cast<double>(comp);
  }

  util::Table table({"workload", "queries m", "comp ops", "parallel IOs",
                     "IO/comp", "vs sort's IO/comp"});
  table.add_row({"sort (reference)", "-", "-", "-",
                 util::fmt_double(sort_ratio, 5), "x1.00"});

  bool blows_up = true;
  double prev_ratio = 0;
  for (std::uint64_t m : {4096u, 512u, 64u}) {
    MultisearchProgram prog;
    prog.n = n;
    prog.m = m;
    using State = MultisearchProgram::State;
    cgm::BlockDist adist{n, kV};
    cgm::BlockDist qdist{m, kV};
    auto queries = util::random_keys(m, m);
    for (auto& q : queries) q %= n;

    auto cfg = machine(1, 4, 512, 1 << 22);
    cfg.machine.bsp.v = kV;
    cgm::SeqEmExec exec(cfg);
    auto result = exec.run(
        prog, kV,
        std::function<State(std::uint32_t)>([&](std::uint32_t pid) {
          State s;
          // The sorted array is [0, n): slab = consecutive integers.
          const auto first = adist.first(pid);
          s.slab.resize(adist.count(pid));
          for (std::size_t i = 0; i < s.slab.size(); ++i) {
            s.slab[i] = first + i;
          }
          const auto qf = qdist.first(pid);
          s.queries.assign(queries.begin() + qf,
                           queries.begin() + qf + qdist.count(pid));
          return s;
        }),
        std::function<void(std::uint32_t, State&)>(
            [&](std::uint32_t pid, State& s) {
              const auto qf = qdist.first(pid);
              for (std::size_t i = 0; i < s.answers.size(); ++i) {
                // Predecessor of q in [0, n) is q itself.
                if (s.answers[i] != queries[qf + i]) {
                  std::cerr << "wrong answer!\n";
                  std::exit(1);
                }
              }
            }));
    std::uint64_t comp = 0;
    for (const auto& s : result.costs.supersteps) comp += s.total_work;
    const auto ios = result.sim->total_io.parallel_ios;
    const double ratio =
        static_cast<double>(ios) / static_cast<double>(comp);
    table.add_row({"multisearch", util::fmt_count(m), util::fmt_count(comp),
                   util::fmt_count(ios), util::fmt_double(ratio, 5),
                   util::fmt_ratio(ratio / sort_ratio)});
    blows_up = blows_up && ratio > 10 * sort_ratio && ratio > prev_ratio;
    prev_ratio = ratio;
  }
  std::cout << table.render();
  verdict(blows_up,
          "with sublinear work the simulation's context I/O dominates "
          "computation and worsens as m shrinks — the open problem the "
          "paper leaves for data-structure search");
  return 0;
}
