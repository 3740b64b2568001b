#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "test_util.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/scoring/contingency.hpp"
#include "trigen/scoring/generic.hpp"

namespace trigen::scoring {
namespace {

using trigen::test::random_dataset;
using trigen::test::small_shapes;

ContingencyTable random_table(std::uint64_t seed, std::uint32_t max_count) {
  Xoshiro256 rng(seed);
  ContingencyTable t;
  for (int c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < ContingencyTable::kNumCells; ++i) {
      t.counts[static_cast<std::size_t>(c)][i] =
          static_cast<std::uint32_t>(rng.bounded(max_count + 1));
    }
  }
  return t;
}

/// The three objectives over a table's control and case rows.
template <unsigned K>
double k2(const BasicContingencyTable<K>& t, std::uint32_t num_samples) {
  return k2_score_cells(LogFactorialTable(num_samples + 1), t.counts[0],
                        t.counts[1]);
}
template <unsigned K>
double mi(const BasicContingencyTable<K>& t) {
  return mutual_information_cells(t.counts[0], t.counts[1]);
}
template <unsigned K>
double chi(const BasicContingencyTable<K>& t) {
  return chi_squared_cells(t.counts[0], t.counts[1]);
}

// --------------------------------------------------------------------------
// ContingencyTable basics
// --------------------------------------------------------------------------

TEST(Contingency, CellIndexBijective) {
  bool seen[27] = {};
  for (int gx = 0; gx < 3; ++gx) {
    for (int gy = 0; gy < 3; ++gy) {
      for (int gz = 0; gz < 3; ++gz) {
        const int i = cell_index(gx, gy, gz);
        ASSERT_GE(i, 0);
        ASSERT_LT(i, 27);
        ASSERT_FALSE(seen[i]);
        seen[i] = true;
      }
    }
  }
}

TEST(Contingency, TotalsSum) {
  ContingencyTable t;
  t.counts[0][0] = 5;
  t.counts[1][26] = 7;
  EXPECT_EQ(t.class_total(0), 5u);
  EXPECT_EQ(t.class_total(1), 7u);
  EXPECT_EQ(t.total(), 12u);
}

TEST(Contingency, ReferenceCountsEverySampleOnce) {
  for (const auto& shape : small_shapes()) {
    const auto d = random_dataset(shape);
    if (d.num_snps() < 3) continue;
    const ContingencyTable t = reference_contingency_k<3>(d, {0, 1, 2});
    EXPECT_EQ(t.total(), d.num_samples());
    EXPECT_EQ(t.class_total(0), d.class_count(0));
    EXPECT_EQ(t.class_total(1), d.class_count(1));
  }
}

TEST(Contingency, ReferenceMatchesHandComputedExample) {
  // 4 samples: genotypes chosen so each lands in a known cell.
  dataset::GenotypeMatrix d(3, 4);
  // sample 0: (0,1,2) control; sample 1: (0,1,2) case;
  // sample 2: (2,2,2) case; sample 3: (1,0,0) control.
  d.set(0, 0, 0); d.set(1, 0, 1); d.set(2, 0, 2);
  d.set(0, 1, 0); d.set(1, 1, 1); d.set(2, 1, 2);
  d.set(0, 2, 2); d.set(1, 2, 2); d.set(2, 2, 2);
  d.set(0, 3, 1); d.set(1, 3, 0); d.set(2, 3, 0);
  d.set_phenotype(1, 1);
  d.set_phenotype(2, 1);
  const ContingencyTable t = reference_contingency_k<3>(d, {0, 1, 2});
  EXPECT_EQ(t.at(0, 1, 2, 0), 1u);
  EXPECT_EQ(t.at(0, 1, 2, 1), 1u);
  EXPECT_EQ(t.at(2, 2, 2, 1), 1u);
  EXPECT_EQ(t.at(1, 0, 0, 0), 1u);
  EXPECT_EQ(t.total(), 4u);
}

TEST(Contingency, ReferenceOutOfRangeThrows) {
  const auto d = random_dataset({4, 10, 1});
  EXPECT_THROW(reference_contingency_k<3>(d, {0, 1, 4}), std::out_of_range);
}

// --------------------------------------------------------------------------
// Log-factorial table
// --------------------------------------------------------------------------

TEST(LogFactorial, MatchesLgamma) {
  const LogFactorialTable t(1000);
  for (std::uint32_t n : {0u, 1u, 2u, 5u, 10u, 100u, 999u, 1000u}) {
    EXPECT_NEAR(t(n), std::lgamma(static_cast<double>(n) + 1.0), 1e-9 * (n + 1))
        << n;
  }
}

TEST(LogFactorial, SmallValuesExact) {
  const LogFactorialTable t(10);
  EXPECT_DOUBLE_EQ(t(0), 0.0);
  EXPECT_DOUBLE_EQ(t(1), 0.0);
  EXPECT_NEAR(t(2), std::log(2.0), 1e-12);
  EXPECT_NEAR(t(3), std::log(6.0), 1e-12);
  EXPECT_NEAR(t(4), std::log(24.0), 1e-12);
}

TEST(LogFactorial, FallbackBeyondTable) {
  const LogFactorialTable t(10);
  EXPECT_NEAR(t(50), std::lgamma(51.0), 1e-8);
}

TEST(LogFactorial, Monotone) {
  const LogFactorialTable t(500);
  for (std::uint32_t n = 2; n <= 500; ++n) {
    ASSERT_GT(t(n), t(n - 1));
  }
}

// --------------------------------------------------------------------------
// K2 score
// --------------------------------------------------------------------------

double k2_direct(const ContingencyTable& t) {
  // Literal evaluation of Eq. 1 with lgamma.
  double score = 0.0;
  for (std::size_t i = 0; i < ContingencyTable::kNumCells; ++i) {
    const double r0 = t.counts[0][i];
    const double r1 = t.counts[1][i];
    score += std::lgamma(r0 + r1 + 2.0) - std::lgamma(r0 + 1.0) -
             std::lgamma(r1 + 1.0);
  }
  return score;
}

TEST(K2, MatchesDirectFormula) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ContingencyTable t = random_table(seed, 150);
    EXPECT_NEAR(k2(t, 4096), k2_direct(t), 1e-7) << "seed=" << seed;
  }
}

TEST(K2, EmptyTableScoresZero) {
  EXPECT_NEAR(k2(ContingencyTable{}, 16), 0.0, 1e-12);
}

TEST(K2, SeparatedClassesScoreLowerThanMixed) {
  // A cell with (10, 10) costs more than cells with (20, 0): separation
  // (association) lowers K2.
  ContingencyTable mixed, separated;
  mixed.counts[0][0] = 10;
  mixed.counts[1][0] = 10;
  separated.counts[0][0] = 20;
  separated.counts[1][0] = 0;
  EXPECT_LT(k2(separated, 64), k2(mixed, 64));
}

TEST(K2, PermutationInvariantAcrossCells) {
  // K2 sums per-cell terms, so shuffling which cell holds which counts
  // does not change the score.
  ContingencyTable a, b;
  a.counts[0][0] = 8; a.counts[1][0] = 3;
  a.counts[0][5] = 1; a.counts[1][5] = 9;
  b.counts[0][20] = 8; b.counts[1][20] = 3;
  b.counts[0][13] = 1; b.counts[1][13] = 9;
  EXPECT_DOUBLE_EQ(k2(a, 32), k2(b, 32));
}

// --------------------------------------------------------------------------
// Mutual information
// --------------------------------------------------------------------------

TEST(MutualInformation, EmptyTableIsZero) {
  EXPECT_DOUBLE_EQ(mi(ContingencyTable{}), 0.0);
}

TEST(MutualInformation, IndependentIsZero) {
  // Identical class distributions across cells => MI == 0.
  ContingencyTable t;
  for (int i = 0; i < 4; ++i) {
    t.counts[0][static_cast<std::size_t>(i)] = 10;
    t.counts[1][static_cast<std::size_t>(i)] = 10;
  }
  EXPECT_NEAR(mi(t), 0.0, 1e-12);
}

TEST(MutualInformation, PerfectlyPredictiveEqualsClassEntropy) {
  // Cell 0 holds all controls, cell 1 all cases, balanced.
  ContingencyTable t;
  t.counts[0][0] = 50;
  t.counts[1][1] = 50;
  EXPECT_NEAR(mi(t), std::log(2.0), 1e-12);
}

TEST(MutualInformation, NonNegativeAndBounded) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const ContingencyTable t = random_table(seed, 60);
    const double v = mi(t);
    ASSERT_GE(v, -1e-12) << seed;
    ASSERT_LE(v, std::log(2.0) + 1e-12) << seed;  // <= H(C) <= ln 2
  }
}

// --------------------------------------------------------------------------
// Chi-squared
// --------------------------------------------------------------------------

TEST(ChiSquared, EmptyTableIsZero) {
  EXPECT_DOUBLE_EQ(chi(ContingencyTable{}), 0.0);
}

TEST(ChiSquared, NoAssociationIsZero) {
  ContingencyTable t;
  for (int i = 0; i < 6; ++i) {
    t.counts[0][static_cast<std::size_t>(i)] = 7;
    t.counts[1][static_cast<std::size_t>(i)] = 7;
  }
  EXPECT_NEAR(chi(t), 0.0, 1e-12);
}

TEST(ChiSquared, KnownTwoByTwoValue) {
  // Cells 0 and 1 only: [[30, 10], [10, 30]] has X^2 = 20 * 80^2 / ...
  // Compute directly: n=80, rows 40/40, cols 40/40; expected 20 each;
  // X^2 = 4 * (10^2 / 20) = 20.
  ContingencyTable t;
  t.counts[0][0] = 30;
  t.counts[1][0] = 10;
  t.counts[0][1] = 10;
  t.counts[1][1] = 30;
  EXPECT_NEAR(chi(t), 20.0, 1e-9);
}

TEST(ChiSquared, NonNegative) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    ASSERT_GE(chi(random_table(seed, 40)), -1e-12);
  }
}

TEST(ChiSquared, StrongerAssociationScoresHigher) {
  ContingencyTable weak, strong;
  weak.counts[0][0] = 25; weak.counts[1][0] = 15;
  weak.counts[0][1] = 15; weak.counts[1][1] = 25;
  strong.counts[0][0] = 35; strong.counts[1][0] = 5;
  strong.counts[0][1] = 5;  strong.counts[1][1] = 35;
  EXPECT_GT(chi(strong), chi(weak));
}

// --------------------------------------------------------------------------
// Cross-score sanity on real tables
// --------------------------------------------------------------------------

TEST(Scores, AgreeOnPlantedSignalDirection) {
  // On a dataset with a strong planted interaction, the planted triple must
  // beat a random triple under all three objectives.
  const auto d = trigen::test::planted_dataset(8, 2000, 3);
  const ContingencyTable planted = reference_contingency_k<3>(d, {1, 3, 5});
  const ContingencyTable random = reference_contingency_k<3>(d, {0, 2, 6});

  EXPECT_LT(k2(planted, 2000), k2(random, 2000));
  EXPECT_GT(mi(planted), mi(random));
  EXPECT_GT(chi(planted), chi(random));
}

/// The fixed tables the pinned scores below are computed on: empty, one
/// class only, every sample in one cell, and a mixed table.
template <unsigned K>
std::array<BasicContingencyTable<K>, 4> pinned_tables() {
  constexpr std::size_t kC = num_cells(K);
  std::array<BasicContingencyTable<K>, 4> v{};
  for (std::size_t i = 0; i < kC; ++i) {
    v[1].counts[0][i] = static_cast<std::uint32_t>((i * 7) % 5 + 1);
  }
  v[2].counts[0][kC / 2] = 40;
  v[2].counts[1][kC / 2] = 60;
  for (std::size_t i = 0; i < kC; ++i) {
    v[3].counts[0][i] = static_cast<std::uint32_t>((i * 37 + 11) % 23);
    v[3].counts[1][i] = static_cast<std::uint32_t>((i * 53 + 5) % 19);
  }
  return v;
}

/// Pins every objective bit-for-bit, {K2, MI, X^2} per pinned table, both
/// raw and through the engines' normalized scorer (K2 as-is, MI and X^2
/// negated), each sized for the table's own sample count.
template <unsigned K>
void expect_pinned(const std::array<std::array<double, 3>, 4>& want) {
  const auto tables = pinned_tables<K>();
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const auto& t = tables[i];
    const std::uint32_t n = t.total();
    EXPECT_EQ(k2(t, n), want[i][0]) << "K=" << K << " table " << i;
    EXPECT_EQ(mi(t), want[i][1]) << "K=" << K << " table " << i;
    EXPECT_EQ(chi(t), want[i][2]) << "K=" << K << " table " << i;
    const auto score = [&](core::Objective o) {
      return core::make_normalized_scorer_of<K>(o, n)(t);
    };
    EXPECT_EQ(score(core::Objective::kK2), want[i][0]);
    EXPECT_EQ(score(core::Objective::kMutualInformation), -want[i][1]);
    EXPECT_EQ(score(core::Objective::kChiSquared), -want[i][2]);
  }
}

TEST(Scores, PinnedTripletTableValues) {
  expect_pinned<3>({{{0x0p+0, 0x0p+0, 0x0p+0},
                     {0x1.17ce3a8b51bd5p+5, 0x0p+0, 0x0p+0},
                     {0x1.159f6b58d7e2ep+6, 0x0p+0, 0x0p+0},
                     {0x1.54113abada326p+8, 0x1.c4086c29cdbap-4,
                      0x1.8ff6ed7613bb9p+6}}});
}

TEST(Scores, PinnedPairTableValues) {
  expect_pinned<2>({{{0x0p+0, 0x0p+0, 0x0p+0},
                     {0x1.7191efbd15023p+3, 0x0p+0, 0x0p+0},
                     {0x1.159f6b58d7e2ep+6, 0x0p+0, 0x0p+0},
                     {0x1.de0ce45a7c2ap+6, 0x1.71a44a3e1914p-5,
                      0x1.bdd34c0a13b6ep+3}}});
}

}  // namespace
}  // namespace trigen::scoring
