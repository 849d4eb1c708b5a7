// Group A algorithms (sort / permutation / transpose) across all three
// executors, with parameterized sweeps over machine shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "cgm/permutation.hpp"
#include "cgm/primitives.hpp"
#include "cgm/sort.hpp"
#include "cgm/transpose.hpp"
#include "sim/trace.hpp"

#include <sstream>
#include "util/rng.hpp"
#include "util/workloads.hpp"

namespace embsp::cgm {
namespace {

struct KeyLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

sim::SimConfig em_config(std::uint32_t p, std::size_t D, std::size_t B) {
  sim::SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.em.D = D;
  cfg.machine.em.B = B;
  cfg.machine.em.M = 1 << 22;
  return cfg;
}

TEST(CgmSort, DirectSmall) {
  auto keys = util::random_keys(500, 1);
  DirectExec exec;
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, 8);
  auto want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(out.sorted, want);
  EXPECT_EQ(out.exec.lambda, 4u);
}

TEST(CgmSort, HandlesDuplicatesAndSortedInputs) {
  DirectExec exec;
  std::vector<std::uint64_t> dup(300, 7);
  for (std::size_t i = 0; i < dup.size(); i += 3) dup[i] = 3;
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, dup, 6);
  auto want = dup;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(out.sorted, want);

  std::vector<std::uint64_t> sorted(256);
  std::iota(sorted.begin(), sorted.end(), 0u);
  EXPECT_EQ((cgm_sort<std::uint64_t, KeyLess>(exec, sorted, 8).sorted), sorted);

  auto reversed = sorted;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ((cgm_sort<std::uint64_t, KeyLess>(exec, reversed, 8).sorted),
            sorted);
}

TEST(CgmSort, SingleProcessorAndTinyInputs) {
  DirectExec exec;
  auto keys = util::random_keys(40, 2);
  auto want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ((cgm_sort<std::uint64_t, KeyLess>(exec, keys, 1).sorted), want);
  // More processors than records.
  auto few = util::random_keys(5, 3);
  auto want_few = few;
  std::sort(want_few.begin(), want_few.end());
  EXPECT_EQ((cgm_sort<std::uint64_t, KeyLess>(exec, few, 8).sorted), want_few);
  // Empty input.
  EXPECT_TRUE((cgm_sort<std::uint64_t, KeyLess>(
                   exec, std::span<const std::uint64_t>{}, 4))
                  .sorted.empty());
}

TEST(CgmSort, RegularSamplingBalances) {
  auto keys = util::random_keys(4096, 4);
  DirectExec exec;
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, 16);
  for (auto sz : out.slab_sizes) {
    EXPECT_LT(sz, 2 * 4096 / 16 + 64);  // regular sampling bound ~2n/v
  }
}

// --- Radix path -------------------------------------------------------------
// SortEngine sorts unsigned keys under std::less with radix_sort and every
// other comparator with std::stable_sort; both must give the same records
// and the same charged costs.

template <typename U>
class RadixSortTest : public ::testing::Test {};
using RadixKeyTypes = ::testing::Types<std::uint8_t, std::uint16_t,
                                       std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(RadixSortTest, RadixKeyTypes);

TYPED_TEST(RadixSortTest, MatchesStableSort) {
  using U = TypeParam;
  constexpr unsigned kBits = 8 * sizeof(U);
  const U low_byte = 0xFF;
  const U high = static_cast<U>(~low_byte & static_cast<U>(0xA5A5A5A5A5A5A5A5));
  for (const std::size_t n : {0, 1, 2, 255, 256, 4097}) {
    util::Rng rng(n * 131 + sizeof(U));
    std::vector<std::pair<std::string, std::vector<U>>> inputs;
    std::vector<U> random(n), shared_high(n), inner(n);
    for (std::size_t i = 0; i < n; ++i) {
      random[i] = static_cast<U>(rng.next());
      // Only the lowest digit varies: every higher pass is skipped.
      shared_high[i] = static_cast<U>(high | (random[i] & low_byte));
      // Only the lowest and highest digits vary: the passes between them
      // are skipped, the last one is not.
      inner[i] = static_cast<U>(
          (random[i] & low_byte) |
          (static_cast<U>(rng.below(4)) << (kBits - 8)) | (high & ~low_byte));
    }
    // One key per digit differs from the rest in that digit alone: no digit
    // is constant, but each is nearly so.
    std::vector<U> outliers(n, high);
    for (std::size_t d = 0; d < sizeof(U) && n > 0; ++d) {
      outliers[(d * 7919 + n / 2) % n] ^= static_cast<U>(U{1} << (8 * d));
    }
    std::vector<U> sorted = random;
    std::sort(sorted.begin(), sorted.end());
    std::vector<U> reversed(sorted.rbegin(), sorted.rend());
    inputs.emplace_back("random", random);
    inputs.emplace_back("shared_high", shared_high);
    inputs.emplace_back("inner", inner);
    inputs.emplace_back("outliers", outliers);
    inputs.emplace_back("all_equal", std::vector<U>(n, high));
    inputs.emplace_back("sorted", sorted);
    inputs.emplace_back("reversed", reversed);
    for (auto& [name, keys] : inputs) {
      auto want = keys;
      std::stable_sort(want.begin(), want.end());
      radix_sort(std::span<U>(keys));
      EXPECT_EQ(keys, want) << name << " n=" << n;
    }
  }
}

template <typename T>
std::vector<std::byte> raw_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

static_assert(kRadixSorted<std::uint64_t, std::less<std::uint64_t>>);
static_assert(!kRadixSorted<std::uint64_t, KeyLess>);

/// Sorts `keys` with std::less (radix path) and with KeyLess (comparison
/// path) on fresh executors from `make_exec`; everything the run reports
/// must agree.
template <typename MakeExec>
void expect_radix_parity(MakeExec make_exec,
                         std::span<const std::uint64_t> keys, std::uint32_t v) {
  SCOPED_TRACE("n=" + std::to_string(keys.size()) + " v=" + std::to_string(v));
  auto radix_exec = make_exec();
  auto cmp_exec = make_exec();
  const auto radix =
      cgm_sort<std::uint64_t, std::less<std::uint64_t>>(radix_exec, keys, v);
  const auto cmp = cgm_sort<std::uint64_t, KeyLess>(cmp_exec, keys, v);
  EXPECT_EQ(radix.sorted, cmp.sorted);
  EXPECT_EQ(radix.slab_sizes, cmp.slab_sizes);
  const auto& rs = radix.exec.costs.supersteps;
  const auto& cs = cmp.exec.costs.supersteps;
  ASSERT_EQ(rs.size(), cs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(raw_bytes(rs[i]), raw_bytes(cs[i])) << "superstep " << i;
  }
  ASSERT_EQ(radix.exec.sim.has_value(), cmp.exec.sim.has_value());
  if (!radix.exec.sim) return;
  EXPECT_EQ(raw_bytes(radix.exec.sim->total_io),
            raw_bytes(cmp.exec.sim->total_io));
  const auto& rp = radix.exec.sim->per_proc_io;
  const auto& cp = cmp.exec.sim->per_proc_io;
  ASSERT_EQ(rp.size(), cp.size());
  for (std::size_t i = 0; i < rp.size(); ++i) {
    EXPECT_EQ(raw_bytes(rp[i]), raw_bytes(cp[i])) << "processor " << i;
  }
}

/// v runs over {p, 8, 64}: v = p is one virtual processor per real one.
template <typename MakeExec>
void radix_parity_sweep(MakeExec make_exec, std::uint32_t p) {
  for (const std::size_t n : {0, 5, 4096, 100000}) {
    const auto keys = util::random_keys(n, 31 + n);
    for (const std::uint32_t v : {p, 8u, 64u}) {
      expect_radix_parity(make_exec, keys, v);
    }
  }
  std::vector<std::uint64_t> dup(300, 7);
  for (std::size_t i = 0; i < dup.size(); i += 3) dup[i] = 3;
  expect_radix_parity(make_exec, dup, 6);
}

TEST(CgmSort, RadixPathMatchesComparisonPathDirect) {
  radix_parity_sweep([] { return DirectExec{}; }, 1);
}

TEST(CgmSort, RadixPathMatchesComparisonPathSeqEm) {
  radix_parity_sweep([] { return SeqEmExec(em_config(1, 2, 512)); }, 1);
}

TEST(CgmSort, RadixPathMatchesComparisonPathParEm) {
  radix_parity_sweep([] { return ParEmExec(em_config(2, 2, 512)); }, 2);
}

struct SortSweepParam {
  std::uint32_t p;
  std::uint32_t v;
  std::size_t D;
  std::size_t B;
  std::size_t n;
};

class CgmSortEmSweep : public ::testing::TestWithParam<SortSweepParam> {};

TEST_P(CgmSortEmSweep, MatchesStdSortOnEmMachines) {
  const auto prm = GetParam();
  auto keys = util::random_keys(prm.n, 17 + prm.n);
  auto want = keys;
  std::stable_sort(want.begin(), want.end());

  if (prm.p == 1) {
    SeqEmExec exec(em_config(1, prm.D, prm.B));
    auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, prm.v);
    EXPECT_EQ(out.sorted, want);
    EXPECT_EQ(out.exec.lambda, 4u);
    ASSERT_TRUE(out.exec.sim.has_value());
    EXPECT_GT(out.exec.sim->total_io.parallel_ios, 0u);
  } else {
    ParEmExec exec(em_config(prm.p, prm.D, prm.B));
    auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, prm.v);
    EXPECT_EQ(out.sorted, want);
    EXPECT_EQ(out.exec.lambda, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MachineShapes, CgmSortEmSweep,
    ::testing::Values(SortSweepParam{1, 8, 1, 128, 1000},
                      SortSweepParam{1, 8, 4, 128, 1000},
                      SortSweepParam{1, 16, 2, 256, 2000},
                      SortSweepParam{1, 4, 8, 64, 500},
                      SortSweepParam{2, 8, 2, 128, 1000},
                      SortSweepParam{4, 16, 2, 128, 2000},
                      SortSweepParam{4, 8, 4, 256, 1500}),
    [](const auto& info) {
      const auto& q = info.param;
      return "p" + std::to_string(q.p) + "v" + std::to_string(q.v) + "D" +
             std::to_string(q.D) + "B" + std::to_string(q.B) + "n" +
             std::to_string(q.n);
    });

TEST(CgmPermutation, AppliesPermutation) {
  const std::size_t n = 1000;
  auto values = util::random_keys(n, 5);
  auto perm = util::random_permutation(n, 6);
  DirectExec exec;
  auto out = cgm_permute(exec, values, perm, 8);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.values[perm[i]], values[i]);
  }
  EXPECT_EQ(out.exec.lambda, 2u);
}

TEST(CgmPermutation, IdentityAndReversal) {
  const std::size_t n = 128;
  auto values = util::random_keys(n, 7);
  std::vector<std::uint64_t> ident(n), rev(n);
  std::iota(ident.begin(), ident.end(), 0u);
  for (std::size_t i = 0; i < n; ++i) rev[i] = n - 1 - i;
  DirectExec exec;
  EXPECT_EQ(cgm_permute(exec, values, ident, 4).values, values);
  auto out = cgm_permute(exec, values, rev, 4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out.values[n - 1 - i],
                                                values[i]);
}

TEST(CgmPermutation, OnEmMachine) {
  const std::size_t n = 2000;
  auto values = util::random_keys(n, 8);
  auto perm = util::random_permutation(n, 9);
  SeqEmExec exec(em_config(1, 4, 128));
  auto out = cgm_permute(exec, values, perm, 16);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.values[perm[i]], values[i]);
  }
}

TEST(CgmPermutation, OnParallelEmMachine) {
  const std::size_t n = 1200;
  auto values = util::random_keys(n, 10);
  auto perm = util::random_permutation(n, 11);
  ParEmExec exec(em_config(4, 2, 128));
  auto out = cgm_permute(exec, values, perm, 16);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.values[perm[i]], values[i]);
  }
}

std::vector<std::uint64_t> reference_transpose(
    std::span<const std::uint64_t> m, std::uint64_t r, std::uint64_t c) {
  std::vector<std::uint64_t> t(r * c);
  for (std::uint64_t i = 0; i < r; ++i) {
    for (std::uint64_t j = 0; j < c; ++j) {
      t[j * r + i] = m[i * c + j];
    }
  }
  return t;
}

TEST(CgmTranspose, SquareMatrix) {
  const std::uint64_t r = 32, c = 32;
  auto m = util::random_keys(r * c, 12);
  DirectExec exec;
  auto out = cgm_transpose(exec, m, r, c, 8);
  EXPECT_EQ(out.data, reference_transpose(m, r, c));
  EXPECT_EQ(out.exec.lambda, 2u);
}

TEST(CgmTranspose, RectangularMatrices) {
  DirectExec exec;
  for (auto [r, c] : {std::pair<std::uint64_t, std::uint64_t>{5, 40},
                      {40, 5},
                      {1, 64},
                      {64, 1},
                      {7, 13}}) {
    auto m = util::random_keys(r * c, 13 + r);
    auto out = cgm_transpose(exec, m, r, c, 4);
    EXPECT_EQ(out.data, reference_transpose(m, r, c)) << r << "x" << c;
  }
}

TEST(CgmTranspose, DoubleTransposeIsIdentity) {
  const std::uint64_t r = 24, c = 56;
  auto m = util::random_keys(r * c, 14);
  DirectExec exec;
  auto once = cgm_transpose(exec, m, r, c, 8);
  auto twice = cgm_transpose(exec, once.data, c, r, 8);
  EXPECT_EQ(twice.data, m);
}

TEST(CgmTranspose, OnEmMachine) {
  const std::uint64_t r = 48, c = 32;
  auto m = util::random_keys(r * c, 15);
  SeqEmExec exec(em_config(1, 4, 128));
  auto out = cgm_transpose(exec, m, r, c, 8);
  EXPECT_EQ(out.data, reference_transpose(m, r, c));
}

TEST(CgmTranspose, OnParallelEmMachine) {
  const std::uint64_t r = 40, c = 30;
  auto m = util::random_keys(r * c, 16);
  ParEmExec exec(em_config(2, 2, 128));
  auto out = cgm_transpose(exec, m, r, c, 8);
  EXPECT_EQ(out.data, reference_transpose(m, r, c));
}

TEST(CostTrace, CsvHasOneRowPerSuperstep) {
  auto keys = util::random_keys(2000, 77);
  SeqEmExec exec(em_config(1, 2, 256));
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, 8);
  std::ostringstream csv;
  sim::write_cost_csv(csv, *out.exec.sim);
  std::size_t lines = 0;
  for (char c : csv.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1 + out.exec.lambda);  // header + one row per superstep
  EXPECT_NE(csv.str().find("parallel_ios"), std::string::npos);
}

TEST(CgmSortStress, LargeInputAcrossExecutors) {
  // A larger integration run: 2^19 keys through the parallel EM simulator.
  const std::size_t n = 1 << 19;
  auto keys = util::random_keys(n, 1234);
  ParEmExec exec(em_config(4, 4, 4096));
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, 64);
  EXPECT_TRUE(std::is_sorted(out.sorted.begin(), out.sorted.end()));
  EXPECT_EQ(out.sorted.size(), n);
  EXPECT_EQ(out.exec.lambda, 4u);
}

TEST(Primitives, FenwickPrefixSums) {
  Fenwick f(10);
  f.add(0, 5);
  f.add(3, 2);
  f.add(9, 7);
  EXPECT_EQ(f.prefix(0), 0u);
  EXPECT_EQ(f.prefix(1), 5u);
  EXPECT_EQ(f.prefix(4), 7u);
  EXPECT_EQ(f.prefix(10), 14u);
}

// A program that never stops.  Each superstep call bumps `calls`; past
// `ceiling` calls it throws on its own, so a dry run that ignores the
// configured superstep limit fails fast instead of running to the direct
// runtime's limit of 1,000,000.
struct RunawayProgram {
  std::atomic<std::uint64_t>* calls = nullptr;
  std::uint64_t ceiling = 0;
  struct State {
    std::uint64_t x = 0;
    void serialize(util::Writer& w) const { w.write(x); }
    void deserialize(util::Reader& r) { x = r.read<std::uint64_t>(); }
  };
  bool superstep(std::size_t, const bsp::ProcEnv&, State&, const bsp::Inbox&,
                 bsp::Outbox&) const {
    if (calls->fetch_add(1) >= ceiling) {
      throw std::runtime_error("runaway program ran past its ceiling");
    }
    return true;
  }
};

TEST(DryRun, StopsAtTheConfiguredSuperstepLimit) {
  constexpr std::uint32_t kV = 8;
  constexpr std::size_t kLimit = 50;
  for (const std::uint32_t p : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "p = " << p);
    std::atomic<std::uint64_t> calls{0};
    const RunawayProgram prog{&calls, 2 * kLimit * kV};
    auto cfg = em_config(p, 2, 128);
    cfg.max_supersteps = kLimit;  // mu = gamma = 0: the executor dry-runs
    const auto make = [](std::uint32_t) { return RunawayProgram::State{}; };
    const auto collect = [](std::uint32_t, RunawayProgram::State&) {};
    std::string error;
    try {
      if (p == 1) {
        SeqEmExec(cfg).run<RunawayProgram>(prog, kV, make, collect);
      } else {
        ParEmExec(cfg).run<RunawayProgram>(prog, kV, make, collect);
      }
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("superstep limit"), std::string::npos) << error;
    EXPECT_LE(calls.load(), kLimit * kV);
  }
}

}  // namespace
}  // namespace embsp::cgm
