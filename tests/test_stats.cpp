#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"
#include "trigen/stats/permutation.hpp"

namespace trigen::stats {
namespace {

using trigen::test::planted_dataset;
using trigen::test::random_dataset;

TEST(ShufflePhenotypes, PreservesClassCountsAndGenotypes) {
  const auto d = random_dataset({8, 200, 91});
  const auto s = shuffle_phenotypes(d, 5);
  EXPECT_EQ(s.class_count(0), d.class_count(0));
  EXPECT_EQ(s.class_count(1), d.class_count(1));
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    for (std::size_t j = 0; j < d.num_samples(); ++j) {
      ASSERT_EQ(s.at(m, j), d.at(m, j));
    }
  }
}

TEST(ShufflePhenotypes, DeterministicInSeed) {
  const auto d = random_dataset({5, 150, 93});
  EXPECT_EQ(shuffle_phenotypes(d, 11), shuffle_phenotypes(d, 11));
  EXPECT_NE(shuffle_phenotypes(d, 11), shuffle_phenotypes(d, 12));
}

TEST(ShufflePhenotypes, ActuallyPermutes) {
  const auto d = random_dataset({5, 400, 95});
  const auto s = shuffle_phenotypes(d, 17);
  std::size_t moved = 0;
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    moved += s.phenotype(j) != d.phenotype(j) ? 1 : 0;
  }
  EXPECT_GT(moved, d.num_samples() / 8);
}

TEST(PermutationTest, RejectsZeroPermutations) {
  const auto d = random_dataset({6, 80, 97});
  BasicPermutationTestOptions<3> opt;
  opt.permutations = 0;
  EXPECT_THROW(permutation_test_of<3>(d, opt), std::invalid_argument);
}

TEST(PermutationTest, PlantedInteractionIsSignificant) {
  const auto d = planted_dataset(10, 1500, 99);
  BasicPermutationTestOptions<3> opt;
  opt.permutations = 19;  // minimum for p = 0.05 resolution
  opt.seed = 101;
  const auto r = permutation_test_of<3>(d, opt);
  EXPECT_EQ(r.observed.snps, (combinatorics::Combination<3>{1, 3, 5}));
  EXPECT_EQ(r.null_scores.size(), 19u);
  // A strong planted signal beats every label permutation.
  EXPECT_DOUBLE_EQ(r.p_value, 1.0 / 20.0);
  EXPECT_TRUE(r.significant_at(0.05));
}

TEST(PermutationTest, NullDatasetIsNotSignificant) {
  // Pure-noise dataset: the observed best score comes from the same
  // distribution as the null scores, so p must not be extreme.  (p is
  // uniform on {1/20..20/20} under the null; this fixed seed draws 0.45 —
  // dataset seed 103, for example, legitimately draws the 1-in-20 p=0.05.)
  const auto d = random_dataset({10, 400, 104});
  BasicPermutationTestOptions<3> opt;
  opt.permutations = 19;
  opt.seed = 107;
  const auto r = permutation_test_of<3>(d, opt);
  EXPECT_GT(r.p_value, 0.05);
}

TEST(PermutationTest, PValueBounds) {
  const auto d = random_dataset({8, 120, 109});
  BasicPermutationTestOptions<3> opt;
  opt.permutations = 9;
  const auto r = permutation_test_of<3>(d, opt);
  EXPECT_GE(r.p_value, 1.0 / 10.0);
  EXPECT_LE(r.p_value, 1.0);
}

TEST(PermutationTest, BlockedV4MultiThreadMatchesDefault) {
  // The null scans reuse the shared scan driver with the config resolved
  // on the observed scan; version/threads must not change any score.
  const auto d = planted_dataset(9, 500, 121);
  BasicPermutationTestOptions<3> a_opt;
  a_opt.permutations = 5;
  a_opt.seed = 77;
  const auto a = permutation_test_of<3>(d, a_opt);

  BasicPermutationTestOptions<3> b_opt = a_opt;
  b_opt.detector.version = core::CpuVersion::kV4Vector;
  b_opt.detector.threads = 4;
  const auto b = permutation_test_of<3>(d, b_opt);

  EXPECT_EQ(a.observed.snps, b.observed.snps);
  ASSERT_EQ(a.null_scores.size(), b.null_scores.size());
  for (std::size_t i = 0; i < a.null_scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.null_scores[i], b.null_scores[i]) << i;
  }
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
}

TEST(PermutationTest, DeterministicInSeed) {
  const auto d = random_dataset({8, 150, 113});
  BasicPermutationTestOptions<3> opt;
  opt.permutations = 5;
  opt.seed = 31;
  const auto a = permutation_test_of<3>(d, opt);
  const auto b = permutation_test_of<3>(d, opt);
  EXPECT_EQ(a.null_scores, b.null_scores);
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
}

// --------------------------------------------------------------------------
// Pairwise permutation testing (order 2 through the same harness)
// --------------------------------------------------------------------------

dataset::GenotypeMatrix planted_pair_dataset(std::uint64_t seed) {
  dataset::SyntheticSpec spec;
  spec.num_snps = 12;
  spec.num_samples = 2000;
  spec.seed = seed;
  spec.maf_min = 0.3;
  spec.maf_max = 0.5;
  spec.prevalence = 0.2;
  dataset::PlantedInteraction planted;
  planted.snps = {2, 6, 11};  // third SNP is ignored by the pair table
  planted.penetrance = dataset::make_penetrance_pairwise(
      dataset::InteractionModel::kXor3, 0.05, 0.8);
  spec.interaction = planted;
  return dataset::generate(spec);
}

TEST(PairPermutationTest, RejectsZeroPermutations) {
  const auto d = random_dataset({6, 80, 131});
  BasicPermutationTestOptions<2> opt;
  opt.permutations = 0;
  EXPECT_THROW(permutation_test_of<2>(d, opt), std::invalid_argument);
}

TEST(PairPermutationTest, PlantedPairIsSignificant) {
  const auto d = planted_pair_dataset(133);
  BasicPermutationTestOptions<2> opt;
  opt.permutations = 19;
  opt.seed = 101;
  const auto r = permutation_test_of<2>(d, opt);
  EXPECT_EQ(r.observed.snps[0], 2u);
  EXPECT_EQ(r.observed.snps[1], 6u);
  EXPECT_EQ(r.null_scores.size(), 19u);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0 / 20.0);
  EXPECT_TRUE(r.significant_at(0.05));
}

TEST(PairPermutationTest, NullDatasetIsNotSignificant) {
  const auto d = random_dataset({10, 400, 137});
  BasicPermutationTestOptions<2> opt;
  opt.permutations = 19;
  opt.seed = 107;
  const auto r = permutation_test_of<2>(d, opt);
  EXPECT_GT(r.p_value, 0.05);
}

TEST(PairPermutationTest, VersionAndThreadsDoNotChangeScores) {
  // Null scans run through the pinned config of the observed scan; an
  // explicitly blocked multi-thread configuration must reproduce the same
  // null distribution bit for bit.
  const auto d = planted_pair_dataset(139);
  BasicPermutationTestOptions<2> a_opt;
  a_opt.permutations = 5;
  a_opt.seed = 77;
  const auto a = permutation_test_of<2>(d, a_opt);

  BasicPermutationTestOptions<2> b_opt = a_opt;
  b_opt.detector.version = core::CpuVersion::kV2Split;
  b_opt.detector.threads = 4;
  const auto b = permutation_test_of<2>(d, b_opt);

  EXPECT_EQ(a.observed.snps[0], b.observed.snps[0]);
  EXPECT_EQ(a.observed.snps[1], b.observed.snps[1]);
  ASSERT_EQ(a.null_scores.size(), b.null_scores.size());
  for (std::size_t i = 0; i < a.null_scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.null_scores[i], b.null_scores[i]) << i;
  }
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
}

TEST(PairPermutationTest, DeterministicInSeed) {
  const auto d = random_dataset({8, 150, 149});
  BasicPermutationTestOptions<2> opt;
  opt.permutations = 5;
  opt.seed = 31;
  const auto a = permutation_test_of<2>(d, opt);
  const auto b = permutation_test_of<2>(d, opt);
  EXPECT_EQ(a.null_scores, b.null_scores);
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
}

TEST(PermutationTest, NullScoresComeFromNullDistribution) {
  // Every null score must be >= the planted observed score (strict
  // dominance of the real signal), and they should not all be equal.
  const auto d = planted_dataset(10, 1200, 117);
  BasicPermutationTestOptions<3> opt;
  opt.permutations = 10;
  const auto r = permutation_test_of<3>(d, opt);
  for (const double s : r.null_scores) EXPECT_GT(s, r.observed.score);
  const auto [mn, mx] =
      std::minmax_element(r.null_scores.begin(), r.null_scores.end());
  EXPECT_NE(*mn, *mx);
}

}  // namespace
}  // namespace trigen::stats
