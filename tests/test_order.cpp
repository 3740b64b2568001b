/// \file test_order.cpp
/// \brief Acceptance battery of the order-generic scan engine at K >= 4.
///
/// Orders 2 and 3 are cross-checked exhaustively by test_pairwise.cpp and
/// test_core.cpp; this suite pins down the orders that have no dedicated
/// kernels.  The anchor property is *bit identity to brute force*: a
/// per-sample counting loop plus the span scorers must reproduce every
/// engine rung (V1..V5) score-bit-for-score-bit, on every compiled-in ISA,
/// over the full rank space and over arbitrary rank splits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "test_util.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/scoring/contingency.hpp"
#include "trigen/scoring/generic.hpp"

namespace trigen {
namespace {

using combinatorics::Combination;
using combinatorics::for_each_combination;
using combinatorics::n_choose_k;
using core::BasicDetectionResult;
using core::BasicDetector;
using core::BasicDetectorOptions;
using core::CpuVersion;
using core::KernelIsa;
using core::Objective;
using dataset::GenotypeMatrix;
using trigen::test::random_dataset;

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// All 3^K x 2 tables of a brute-force enumeration, scored with the span
/// scorers over per-sample reference counts — no engine code involved in
/// either the counting or the enumeration (four nested index loops).
template <unsigned K>
std::vector<core::ScoredOf<K>> brute_force_all(const GenotypeMatrix& d,
                                               Objective objective) {
  const scoring::LogFactorialTable logfact(d.num_samples() + 1);
  std::vector<core::ScoredOf<K>> all;
  Combination<K> c{};
  for (unsigned i = 0; i < K; ++i) c[i] = i;
  for (;;) {
    const auto t = scoring::reference_contingency_k<K>(d, c);
    double score = 0.0;
    switch (objective) {
      case Objective::kK2:
        score = scoring::k2_score_cells(logfact, t.counts[0], t.counts[1]);
        break;
      case Objective::kMutualInformation:
        score = -scoring::mutual_information_cells(t.counts[0], t.counts[1]);
        break;
      case Objective::kChiSquared:
        score = -scoring::chi_squared_cells(t.counts[0], t.counts[1]);
        break;
    }
    all.push_back(core::make_scored<K>(c, score));
    // Odometer successor of a strictly increasing K-subset of [0, M).
    int i = static_cast<int>(K) - 1;
    while (i >= 0 &&
           c[static_cast<unsigned>(i)] + (K - static_cast<unsigned>(i)) >=
               d.num_snps()) {
      --i;
    }
    if (i < 0) break;
    ++c[static_cast<unsigned>(i)];
    for (unsigned j = static_cast<unsigned>(i) + 1; j < K; ++j) {
      c[j] = c[j - 1] + 1;
    }
  }
  return all;
}

template <unsigned K>
std::vector<core::ScoredOf<K>> brute_force_topk(const GenotypeMatrix& d,
                                                Objective objective,
                                                std::size_t k) {
  auto all = brute_force_all<K>(d, objective);
  std::sort(all.begin(), all.end());
  all.resize(std::min(k, all.size()));
  return all;
}

template <unsigned K>
void expect_same_best(const std::vector<core::ScoredOf<K>>& got,
                      const std::vector<core::ScoredOf<K>>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(core::snps_of<K>(got[i]), core::snps_of<K>(want[i]))
        << label << " rank " << i;
    EXPECT_TRUE(same_bits(got[i].score, want[i].score))
        << label << " rank " << i << ": " << got[i].score << " vs "
        << want[i].score;
  }
}

// --------------------------------------------------------------------------
// Contingency identity
// --------------------------------------------------------------------------

TEST(Order4Contingency, EveryCombinationMatchesReferenceOnEveryIsa) {
  // Sample counts straddling word and padding boundaries (see test_util).
  for (const auto& shape : trigen::test::small_shapes()) {
    const auto d = random_dataset(shape);
    if (d.num_snps() < 4) continue;
    const BasicDetector<4> det(d);
    for_each_combination<4>(
        0, n_choose_k(d.num_snps(), 4), [&](const Combination<4>& c) {
          const auto want = scoring::reference_contingency_k<4>(d, c);
          for (const KernelIsa isa : core::all_kernel_isas()) {
            if (!core::kernel_available(isa)) continue;
            EXPECT_EQ(det.contingency(c, isa), want)
                << core::kernel_isa_name(isa) << " (" << c[0] << "," << c[1]
                << "," << c[2] << "," << c[3] << ")";
          }
        });
  }
}

// --------------------------------------------------------------------------
// Full-scan bit identity to brute force, every rung, every objective
// --------------------------------------------------------------------------

TEST(Order4BruteForce, EveryVersionMatchesBruteForceTopK) {
  const auto d = random_dataset({12, 210, 97});
  const BasicDetector<4> det(d);
  for (const Objective o : {Objective::kK2, Objective::kMutualInformation,
                            Objective::kChiSquared}) {
    const auto want = brute_force_topk<4>(d, o, 15);
    for (const CpuVersion v :
         {CpuVersion::kV1Naive, CpuVersion::kV2Split, CpuVersion::kV3Blocked,
          CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
      BasicDetectorOptions<4> opt;
      opt.version = v;
      opt.objective = o;
      opt.top_k = 15;
      const auto r = det.run(opt);
      EXPECT_EQ(r.combinations_evaluated, n_choose_k(12, 4));
      expect_same_best<4>(r.best, want,
                          std::string(core::cpu_version_name(v)) + "/" +
                              core::objective_name(o));
    }
  }
}

TEST(Order5BruteForce, BlockedEnginesMatchBruteForceTopK) {
  const auto d = random_dataset({10, 150, 31});
  const BasicDetector<5> det(d);
  const auto want = brute_force_topk<5>(d, Objective::kK2, 10);
  for (const CpuVersion v : {CpuVersion::kV1Naive, CpuVersion::kV4Vector,
                             CpuVersion::kV5PairCache}) {
    BasicDetectorOptions<5> opt;
    opt.version = v;
    opt.top_k = 10;
    const auto r = det.run(opt);
    EXPECT_EQ(r.combinations_evaluated, n_choose_k(10, 5));
    expect_same_best<5>(r.best, want, core::cpu_version_name(v));
  }
}

// --------------------------------------------------------------------------
// Every compiled-in ISA, full scans and random rank splits
// --------------------------------------------------------------------------

TEST(Order4Isa, FullScanBitIdenticalAcrossIsas) {
  const auto d = random_dataset({14, 321, 13});
  const BasicDetector<4> det(d);
  const auto want = brute_force_topk<4>(d, Objective::kK2, 12);
  for (const CpuVersion v :
       {CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
    for (const KernelIsa isa : core::all_kernel_isas()) {
      if (!core::kernel_available(isa)) continue;
      BasicDetectorOptions<4> opt;
      opt.version = v;
      opt.isa = isa;
      opt.isa_auto = false;
      opt.top_k = 12;
      opt.tiling = {3, 16};  // deliberately unaligned with the dataset
      const auto r = det.run(opt);
      EXPECT_EQ(r.isa_used, isa);
      expect_same_best<4>(r.best, want,
                          std::string(core::cpu_version_name(v)) + "/" +
                              core::kernel_isa_name(isa));
    }
  }
}

TEST(Order4Isa, RandomRankSplitsReproduceTheFullTopKOnEveryIsa) {
  // The sharding property one order up from the V5 acceptance test: the
  // union of partial-range scans over ANY full-coverage split reproduces
  // the full-scan top-k bit-for-bit, blocks and ranks unaligned.
  const auto d = random_dataset({13, 180, 59});
  const BasicDetector<4> det(d);
  const std::uint64_t total = n_choose_k(13, 4);
  const auto want = brute_force_topk<4>(d, Objective::kK2, 10);

  Xoshiro256 rng(4242);
  for (const KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    for (int round = 0; round < 3; ++round) {
      std::vector<std::uint64_t> cuts = {0, total};
      for (int c = 0; c < 3 + round; ++c) {
        cuts.push_back(1 + rng.bounded(total - 1));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

      core::BasicTopK<core::ScoredOf<4>> merged(10);
      std::uint64_t covered = 0;
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        BasicDetectorOptions<4> opt;
        // Alternate the cached and direct blocked paths across shards.
        opt.version = i % 2 == 0 ? CpuVersion::kV5PairCache
                                 : CpuVersion::kV4Vector;
        opt.isa = isa;
        opt.isa_auto = false;
        opt.top_k = 10;
        opt.tiling = {5, 8};
        opt.range = {cuts[i], cuts[i + 1]};
        const auto r = det.run(opt);
        covered += r.combinations_evaluated;
        for (const auto& s : r.best) merged.push(s);
      }
      ASSERT_EQ(covered, total);
      expect_same_best<4>(merged.sorted(), want,
                          std::string(core::kernel_isa_name(isa)) +
                              " round " + std::to_string(round));
    }
  }
}

// --------------------------------------------------------------------------
// The analytic tile at K >= 4 (no explicit tiling): the V5 ladder runs at
// B_S = 3 and the two-plane B_P, on every order, ISA, split and thread count
// --------------------------------------------------------------------------

template <typename Order>
class LadderTilingTest : public ::testing::Test {};

using HighOrders = ::testing::Types<std::integral_constant<unsigned, 4>,
                                    std::integral_constant<unsigned, 5>,
                                    std::integral_constant<unsigned, 6>>;

struct OrderName {
  template <typename Order>
  static std::string GetName(int) {
    return "K" + std::to_string(Order::value);
  }
};

TYPED_TEST_SUITE(LadderTilingTest, HighOrders, OrderName);

TYPED_TEST(LadderTilingTest, DefaultTilingIsTheAnalyticPick) {
  constexpr unsigned K = TypeParam::value;
  const auto d = random_dataset({K + 4, 300, 71});
  const BasicDetector<K> det(d);
  for (const CpuVersion v :
       {CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
    BasicDetectorOptions<K> opt;
    opt.version = v;
    const auto r = det.run(opt);
    const core::TilingParams want = core::autotune_tiling(
        core::detect_l1_config(), core::kernel_vector_words(r.isa_used), K,
        v == CpuVersion::kV5PairCache);
    EXPECT_EQ(r.tiling_used.bs, want.bs) << core::cpu_version_name(v);
    EXPECT_EQ(r.tiling_used.bp_words, want.bp_words)
        << core::cpu_version_name(v);
    if (v == CpuVersion::kV5PairCache) {
      EXPECT_GE(r.tiling_used.bs, 2u);
    }
  }
}

TYPED_TEST(LadderTilingTest, ExplicitTilingOverridesTheAnalyticPick) {
  // An explicit tile is the only override of the model; B_S = 1 (one
  // combination per block tuple) stays runnable when asked for.
  constexpr unsigned K = TypeParam::value;
  const auto d = random_dataset({K + 5, 230, 89});
  const BasicDetector<K> det(d);
  const auto want = brute_force_topk<K>(d, Objective::kK2, 8);
  for (const core::TilingParams pin :
       {core::TilingParams{1, 16}, core::TilingParams{2, 8},
        core::TilingParams{4, 48}}) {
    BasicDetectorOptions<K> opt;
    opt.tiling = pin;
    opt.top_k = 8;
    const auto r = det.run(opt);
    EXPECT_EQ(r.tiling_used.bs, pin.bs);
    EXPECT_EQ(r.tiling_used.bp_words, pin.bp_words);
    expect_same_best<K>(r.best, want,
                        "pin (" + std::to_string(pin.bs) + ", " +
                            std::to_string(pin.bp_words) + ")");
  }
}

TYPED_TEST(LadderTilingTest, MatchesBruteForceAcrossChunkBoundariesOnEveryIsa) {
  // Four chunks' worth of samples (two per class), plus a ragged tail, so
  // every per-prefix rung is rebuilt across chunk boundaries.
  constexpr unsigned K = TypeParam::value;
  const core::TilingParams pick =
      core::autotune_tiling(core::detect_l1_config(), 16, K, true);
  const std::size_t samples = 4 * pick.bp_words * 32 + 77;
  const auto d = random_dataset({K + 3, samples, 83});
  const BasicDetector<K> det(d);
  const auto want = brute_force_topk<K>(d, Objective::kK2, 10);
  for (const CpuVersion v :
       {CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
    for (const KernelIsa isa : core::all_kernel_isas()) {
      if (!core::kernel_available(isa)) continue;
      BasicDetectorOptions<K> opt;
      opt.version = v;
      opt.isa = isa;
      opt.isa_auto = false;
      opt.top_k = 10;
      const auto r = det.run(opt);
      EXPECT_EQ(r.combinations_evaluated, n_choose_k(K + 3, K));
      expect_same_best<K>(r.best, want,
                          std::string(core::cpu_version_name(v)) + "/" +
                              core::kernel_isa_name(isa));
    }
  }
}

TYPED_TEST(LadderTilingTest, RandomRankSplitsReproduceTheFullTopK) {
  constexpr unsigned K = TypeParam::value;
  const auto d = random_dataset({K + 6, 260, 97});
  const BasicDetector<K> det(d);
  const std::uint64_t total = n_choose_k(K + 6, K);
  const auto want = brute_force_topk<K>(d, Objective::kK2, 10);
  Xoshiro256 rng(5150 + K);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint64_t> cuts = {0, total};
    for (int c = 0; c < 2 + 2 * round; ++c) {
      cuts.push_back(1 + rng.bounded(total - 1));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    core::BasicTopK<core::ScoredOf<K>> merged(10);
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      BasicDetectorOptions<K> opt;
      opt.top_k = 10;
      opt.range = {cuts[i], cuts[i + 1]};
      const auto r = det.run(opt);
      covered += r.combinations_evaluated;
      for (const auto& s : r.best) merged.push(s);
    }
    ASSERT_EQ(covered, total);
    expect_same_best<K>(merged.sorted(), want,
                        "round " + std::to_string(round));
  }
}

TYPED_TEST(LadderTilingTest, ThreadCountDoesNotChangeTheTopK) {
  constexpr unsigned K = TypeParam::value;
  const auto d = random_dataset({K + 7, 400, 101});
  const BasicDetector<K> det(d);
  const auto want = brute_force_topk<K>(d, Objective::kK2, 12);
  for (const unsigned threads : {1u, 2u, 3u}) {
    for (const std::uint64_t chunk : {std::uint64_t{0}, std::uint64_t{1}}) {
      BasicDetectorOptions<K> opt;
      opt.threads = threads;
      opt.chunk_size = chunk;
      opt.top_k = 12;
      const auto r = det.run(opt);
      EXPECT_EQ(r.threads_used, threads);
      expect_same_best<K>(r.best, want,
                          std::to_string(threads) + " threads, chunk " +
                              std::to_string(chunk));
    }
  }
}

// --------------------------------------------------------------------------
// Option validation at K = 4
// --------------------------------------------------------------------------

TEST(Order4Options, RejectsTinyDatasetsAndBadRanges) {
  EXPECT_THROW(BasicDetector<4>(random_dataset({3, 30, 1})),
               std::invalid_argument);
  const BasicDetector<4> det(random_dataset({8, 50, 1}));
  BasicDetectorOptions<4> opt;
  opt.range = {0, n_choose_k(8, 4) + 1};
  EXPECT_THROW(det.run(opt), std::invalid_argument);
  opt = {};
  opt.top_k = 0;
  EXPECT_THROW(det.run(opt), std::invalid_argument);
}

TEST(Order4Options, BadContingencyIndicesAreRejected) {
  const auto d = random_dataset({8, 50, 3});
  const BasicDetector<4> det(d);
  EXPECT_THROW(det.contingency({1, 1, 2, 3}, KernelIsa::kScalar),
               std::out_of_range);
  EXPECT_THROW(det.contingency({0, 2, 1, 3}, KernelIsa::kScalar),
               std::out_of_range);
  EXPECT_THROW(det.contingency({0, 1, 2, 8}, KernelIsa::kScalar),
               std::out_of_range);
}

}  // namespace
}  // namespace trigen
