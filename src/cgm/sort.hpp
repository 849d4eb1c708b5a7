// CGM sorting by deterministic regular sampling (Table 1, Group A).
//
// The classic one-round-of-routing sample sort ([21] in the paper's
// numbering; Goodrich's communication-efficient sorting is its
// asymptotically refined cousin):
//   superstep 0: sort locally, pick v evenly spaced samples, send to proc 0
//   superstep 1: proc 0 sorts the v^2 samples, broadcasts v-1 splitters
//   superstep 2: partition the (locally sorted) data by splitter, route
//                partition i to processor i
//   superstep 3: merge the received sorted runs
// lambda = O(1) supersteps; with regular sampling no processor receives
// more than ~2n/v records.
//
// SortEngine is the embeddable state machine; several Group B/C algorithms
// run it as a sub-phase of their own superstep programs.  Its local sorts
// (supersteps 0 and 1) use an LSD radix sort when the records are unsigned
// integers under std::less; every other (Rec, Less) pair keeps
// std::stable_sort.  Unsigned integers have exactly one ascending order, so
// results and charged costs do not depend on which sort ran.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "bsp/program.hpp"
#include "cgm/runner.hpp"

namespace embsp::cgm {

/// Stable LSD radix sort of unsigned integers into ascending order, one
/// 8-bit digit per pass.  One counting pass fills every digit's histogram;
/// each pass then scatters between `keys` and one temporary of keys.size()
/// records.  A digit that is the same for every key would scatter in place,
/// so its pass is skipped.
template <typename U>
  requires(std::is_unsigned_v<U> && !std::is_same_v<U, bool>)
void radix_sort(std::span<U> keys) {
  constexpr std::size_t kDigits = sizeof(U);
  const std::size_t n = keys.size();
  if (n < 2) return;
  auto digit = [](U key, std::size_t d) -> std::size_t {
    return static_cast<std::size_t>(key >> (8 * d)) & 0xFF;
  };
  std::array<std::array<std::size_t, 256>, kDigits> counts{};
  for (const U key : keys) {
    for (std::size_t d = 0; d < kDigits; ++d) ++counts[d][digit(key, d)];
  }
  auto tmp = std::make_unique_for_overwrite<U[]>(n);
  U* src = keys.data();
  U* dst = tmp.get();
  for (std::size_t d = 0; d < kDigits; ++d) {
    if (counts[d][digit(src[0], d)] == n) continue;
    std::array<std::size_t, 256> next{};
    std::size_t sum = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      next[b] = sum;
      sum += counts[d][b];
    }
    for (std::size_t i = 0; i < n; ++i) dst[next[digit(src[i], d)]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys.data()) std::memcpy(keys.data(), src, n * sizeof(U));
}

/// True when SortEngine<Rec, Less> sorts locally with radix_sort: unsigned
/// integer records under their natural order.
template <typename Rec, typename Less>
inline constexpr bool kRadixSorted =
    std::is_unsigned_v<Rec> && !std::is_same_v<Rec, bool> &&
    (std::is_same_v<Less, std::less<Rec>> ||
     std::is_same_v<Less, std::less<>>);

template <typename Rec, typename Less>
struct SortEngine {
  static constexpr std::size_t kSteps = 4;

  /// One engine step.  `local_step` counts from 0; the engine consumes the
  /// inbox produced by its previous step, so the caller must route steps
  /// 0..3 to four consecutive supersteps.  `data` is sorted in place /
  /// replaced by this processor's slab of the global order.
  static void step(std::size_t local_step, const bsp::ProcEnv& env,
                   std::vector<Rec>& data, const bsp::Inbox& in,
                   bsp::Outbox& out, Less less) {
    const std::uint32_t v = env.nprocs;
    switch (local_step) {
      case 0: {
        local_sort(data, less);
        env.charge(data.size() ? data.size() * 8 : 1);
        std::vector<Rec> samples;
        samples.reserve(v);
        for (std::uint32_t j = 0; j < v && !data.empty(); ++j) {
          samples.push_back(data[j * data.size() / v]);
        }
        out.send_vector(0, samples);
        break;
      }
      case 1: {
        if (env.pid == 0) {
          std::vector<Rec> samples;
          for (std::size_t i = 0; i < in.count(); ++i) {
            auto part = in.vector<Rec>(i);
            samples.insert(samples.end(), part.begin(), part.end());
          }
          local_sort(samples, less);
          env.charge(samples.size() * 8 + 1);
          std::vector<Rec> splitters;
          if (!samples.empty()) {
            for (std::uint32_t i = 1; i < v; ++i) {
              splitters.push_back(
                  samples[std::min(samples.size() - 1,
                                   i * samples.size() / v)]);
            }
          }
          for (std::uint32_t q = 0; q < v; ++q) {
            out.send_vector(q, splitters);
          }
        }
        break;
      }
      case 2: {
        const auto splitters = in.vector<Rec>(0);
        env.charge(data.size() + 1);
        // data is sorted; destination slabs are contiguous runs.
        std::size_t begin = 0;
        for (std::uint32_t q = 0; q < v; ++q) {
          std::size_t end;
          if (q + 1 <= splitters.size()) {
            // records r with less(r, splitters[q]) == false go to later
            // processors; run for q ends at the first r >= splitters[q]...
            // use upper_bound semantics: r goes to the first q such that
            // less(r, splitters[q]).
            end = static_cast<std::size_t>(
                std::lower_bound(data.begin() + begin, data.end(),
                                 splitters[q],
                                 [&](const Rec& r, const Rec& s) {
                                   return !less(s, r);  // r <= s
                                 }) -
                data.begin());
          } else {
            end = data.size();
          }
          if (end > begin) {
            std::vector<Rec> run(data.begin() + begin, data.begin() + end);
            out.send_vector(q, run);
          }
          begin = end;
        }
        data.clear();
        break;
      }
      case 3: {
        // Runs arrive sorted per source and the inbox is (src, seq)-sorted;
        // cascade-merge them.
        data.clear();
        for (std::size_t i = 0; i < in.count(); ++i) {
          auto run = in.vector<Rec>(i);
          const std::size_t mid = data.size();
          data.insert(data.end(), run.begin(), run.end());
          std::inplace_merge(data.begin(), data.begin() + mid, data.end(),
                             less);
        }
        env.charge(data.size() * 4 + 1);
        break;
      }
      default:
        break;
    }
  }

 private:
  static void local_sort(std::vector<Rec>& records, Less less) {
    if constexpr (kRadixSorted<Rec, Less>) {
      radix_sort(std::span<Rec>(records));
    } else {
      std::stable_sort(records.begin(), records.end(), less);
    }
  }
};

/// Standalone sorting program: four supersteps of SortEngine.
template <typename Rec, typename Less>
struct SortProgram {
  Less less{};

  struct State {
    std::vector<Rec> data;
    void serialize(util::Writer& w) const { w.write_vector(data); }
    void deserialize(util::Reader& r) { data = r.read_vector<Rec>(); }
  };

  bool superstep(std::size_t step, const bsp::ProcEnv& env, State& s,
                 const bsp::Inbox& in, bsp::Outbox& out) const {
    SortEngine<Rec, Less>::step(step, env, s.data, in, out, less);
    return step + 1 < SortEngine<Rec, Less>::kSteps;
  }
};

template <typename Rec>
struct SortOutcome {
  std::vector<Rec> sorted;             ///< global order, concatenated slabs
  std::vector<std::uint64_t> slab_sizes;  ///< records per processor
  ExecResult exec;
};

/// Driver: block-distributes `input` over v virtual processors, runs the
/// sort program on `exec`, gathers the slabs in processor order.
template <typename Rec, typename Less, class Exec>
SortOutcome<Rec> cgm_sort(Exec& exec, std::span<const Rec> input,
                          std::uint32_t v, Less less = Less{}) {
  SortProgram<Rec, Less> prog{less};
  using State = typename SortProgram<Rec, Less>::State;
  BlockDist dist{input.size(), v};
  SortOutcome<Rec> outcome;
  std::vector<std::vector<Rec>> slabs(v);
  outcome.exec = exec.run(
      prog, v,
      std::function<State(std::uint32_t)>([&](std::uint32_t pid) {
        State s;
        const auto first = dist.first(pid);
        const auto count = dist.count(pid);
        s.data.assign(input.begin() + first, input.begin() + first + count);
        return s;
      }),
      std::function<void(std::uint32_t, State&)>(
          [&](std::uint32_t pid, State& s) {
            slabs[pid] = std::move(s.data);
          }));
  for (std::uint32_t q = 0; q < v; ++q) {
    outcome.slab_sizes.push_back(slabs[q].size());
    outcome.sorted.insert(outcome.sorted.end(), slabs[q].begin(),
                          slabs[q].end());
  }
  return outcome;
}

}  // namespace embsp::cgm
