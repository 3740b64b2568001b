#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/dataset/genotype_matrix.hpp"
#include "trigen/dataset/io.hpp"
#include "trigen/dataset/synthetic.hpp"

namespace trigen::dataset {
namespace {

using trigen::test::Shape;
using trigen::test::random_dataset;
using trigen::test::small_shapes;

bool get_bit(const Word* plane, std::size_t pos) {
  return (plane[pos / kWordBits] >> (pos % kWordBits)) & 1u;
}

// --------------------------------------------------------------------------
// GenotypeMatrix
// --------------------------------------------------------------------------

TEST(GenotypeMatrix, ZeroShapeThrows) {
  EXPECT_THROW(GenotypeMatrix(0, 10), std::invalid_argument);
  EXPECT_THROW(GenotypeMatrix(10, 0), std::invalid_argument);
}

TEST(GenotypeMatrix, DefaultsToZeros) {
  GenotypeMatrix d(3, 5);
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(d.at(m, j), 0);
  }
  for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(d.phenotype(j), 0);
}

TEST(GenotypeMatrix, SetGetRoundTrip) {
  GenotypeMatrix d(2, 3);
  d.set(1, 2, 2);
  d.set(0, 0, 1);
  d.set_phenotype(1, 1);
  EXPECT_EQ(d.at(1, 2), 2);
  EXPECT_EQ(d.at(0, 0), 1);
  EXPECT_EQ(d.phenotype(1), 1);
}

TEST(GenotypeMatrix, OutOfRangeThrows) {
  GenotypeMatrix d(2, 3);
  EXPECT_THROW(d.set(2, 0, 0), std::out_of_range);
  EXPECT_THROW(d.set(0, 3, 0), std::out_of_range);
  EXPECT_THROW(d.set_phenotype(3, 0), std::out_of_range);
}

TEST(GenotypeMatrix, InvalidValuesThrow) {
  GenotypeMatrix d(2, 3);
  EXPECT_THROW(d.set(0, 0, 3), std::invalid_argument);
  EXPECT_THROW(d.set_phenotype(0, 2), std::invalid_argument);
}

TEST(GenotypeMatrix, SetRowIsCheckedLikeSet) {
  GenotypeMatrix d(2, 3);
  const std::vector<Genotype> row = {2, 0, 1};
  d.set_row(1, row);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(d.at(1, j), row[j]);
  EXPECT_THROW(d.set_row(2, row), std::out_of_range);
  EXPECT_THROW(d.set_row(0, std::vector<Genotype>{0, 1}), std::out_of_range);
  EXPECT_THROW(d.set_row(0, std::vector<Genotype>{0, 3, 1}),
               std::invalid_argument);
  EXPECT_EQ(d.at(0, 1), 0);  // a rejected row writes nothing
  EXPECT_TRUE(d.valid());
}

TEST(GenotypeMatrix, ClassCountsSumToN) {
  const GenotypeMatrix d = random_dataset({8, 100, 42});
  EXPECT_EQ(d.class_count(0) + d.class_count(1), d.num_samples());
}

TEST(GenotypeMatrix, SnpRowView) {
  GenotypeMatrix d(2, 4);
  d.set(1, 3, 2);
  const auto row = d.snp_row(1);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[3], 2);
}

TEST(GenotypeMatrix, EqualityAndValidity) {
  const GenotypeMatrix a = random_dataset({4, 50, 1});
  const GenotypeMatrix b = random_dataset({4, 50, 1});
  const GenotypeMatrix c = random_dataset({4, 50, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(a.valid());
}

// --------------------------------------------------------------------------
// Bit-plane layouts (parameterized over shapes)
// --------------------------------------------------------------------------

class LayoutTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, LayoutTest,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(LayoutTest, V1PlanesMatchMatrix) {
  const GenotypeMatrix d = random_dataset(GetParam());
  const BitPlanesV1 p = BitPlanesV1::build(d);
  ASSERT_EQ(p.num_snps(), d.num_snps());
  ASSERT_EQ(p.num_samples(), d.num_samples());
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    for (std::size_t j = 0; j < d.num_samples(); ++j) {
      for (int g = 0; g < 3; ++g) {
        EXPECT_EQ(get_bit(p.plane(m, g), j), d.at(m, j) == g)
            << "snp=" << m << " sample=" << j << " g=" << g;
      }
    }
  }
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    EXPECT_EQ(get_bit(p.phenotype_plane(), j), d.phenotype(j) == 1);
  }
}

TEST_P(LayoutTest, V1PaddingBitsAreZero) {
  const GenotypeMatrix d = random_dataset(GetParam());
  const BitPlanesV1 p = BitPlanesV1::build(d);
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    for (int g = 0; g < 3; ++g) {
      for (std::size_t pos = d.num_samples(); pos < p.words() * kWordBits;
           ++pos) {
        ASSERT_FALSE(get_bit(p.plane(m, g), pos));
      }
    }
  }
}

TEST_P(LayoutTest, V1ExactlyOneGenotypePerSample) {
  const GenotypeMatrix d = random_dataset(GetParam());
  const BitPlanesV1 p = BitPlanesV1::build(d);
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    for (std::size_t j = 0; j < d.num_samples(); ++j) {
      int set = 0;
      for (int g = 0; g < 3; ++g) set += get_bit(p.plane(m, g), j) ? 1 : 0;
      ASSERT_EQ(set, 1);
    }
  }
}

TEST_P(LayoutTest, PhenoSplitMatchesMatrix) {
  const GenotypeMatrix d = random_dataset(GetParam());
  const PhenoSplitPlanes p = PhenoSplitPlanes::build(d);
  ASSERT_EQ(p.samples(0) + p.samples(1), d.num_samples());

  // Reconstruct per-class sample order: controls/cases keep relative order.
  std::array<std::vector<std::size_t>, 2> members;
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    members[d.phenotype(j)].push_back(j);
  }
  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(p.samples(c), members[static_cast<std::size_t>(c)].size());
    for (std::size_t m = 0; m < d.num_snps(); ++m) {
      for (std::size_t i = 0; i < p.samples(c); ++i) {
        const int geno = d.at(m, members[static_cast<std::size_t>(c)][i]);
        EXPECT_EQ(get_bit(p.plane(c, m, 0), i), geno == 0);
        EXPECT_EQ(get_bit(p.plane(c, m, 1), i), geno == 1);
        // Genotype 2 is implicit: NOR of the two planes.
        const bool g2 =
            !get_bit(p.plane(c, m, 0), i) && !get_bit(p.plane(c, m, 1), i);
        EXPECT_EQ(g2, geno == 2);
      }
    }
  }
}

TEST_P(LayoutTest, PhenoSplitGenotypeCountsMatchMatrix) {
  const GenotypeMatrix d = random_dataset(GetParam());
  const PhenoSplitPlanes p = PhenoSplitPlanes::build(d);
  const PhenoSplitPlanes all = PhenoSplitPlanes::build_combined(d);
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    std::array<std::array<std::uint32_t, 2>, 2> want{};
    for (std::size_t j = 0; j < d.num_samples(); ++j) {
      if (d.at(m, j) <= 1) ++want[d.phenotype(j)][d.at(m, j)];
    }
    for (int c = 0; c < 2; ++c) {
      for (int g = 0; g < 2; ++g) {
        const auto cs = static_cast<std::size_t>(c);
        const auto gs = static_cast<std::size_t>(g);
        EXPECT_EQ(p.genotype_count(c, m, g), want[cs][gs])
            << "snp=" << m << " class=" << c << " g=" << g;
      }
    }
    for (int g = 0; g < 2; ++g) {
      const auto gs = static_cast<std::size_t>(g);
      EXPECT_EQ(all.genotype_count(0, m, g), want[0][gs] + want[1][gs]);
    }
  }
}

TEST_P(LayoutTest, CombinedMatchesMatrix) {
  const GenotypeMatrix d = random_dataset(GetParam());
  const PhenoSplitPlanes p = PhenoSplitPlanes::build_combined(d);
  ASSERT_EQ(p.samples(0), d.num_samples());
  ASSERT_EQ(p.samples(1), 0u);
  ASSERT_EQ(p.words(0), padded_words_for(d.num_samples()));
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    for (std::size_t j = 0; j < p.words(0) * kWordBits; ++j) {
      const int geno = j < d.num_samples() ? d.at(m, j) : 2;
      EXPECT_EQ(get_bit(p.plane(0, m, 0), j), geno == 0)
          << "snp=" << m << " sample=" << j;
      EXPECT_EQ(get_bit(p.plane(0, m, 1), j), geno == 1)
          << "snp=" << m << " sample=" << j;
    }
  }
}

TEST(Layout, ReadBackRejectsPhenotypesThatDoNotMatchTheSplit) {
  const GenotypeMatrix d = random_dataset({6, 40, 3});
  const PhenoSplitPlanes split = PhenoSplitPlanes::build(d);
  std::vector<Phenotype> flipped(d.phenotypes().begin(),
                                 d.phenotypes().end());
  flipped[0] = static_cast<Phenotype>(1 - flipped[0]);
  EXPECT_THROW(BitPlanesV1::build(split, flipped), std::invalid_argument);
  EXPECT_THROW(PhenoSplitPlanes::build_combined(split, flipped),
               std::invalid_argument);
  const std::vector<Phenotype> shorter(d.phenotypes().begin(),
                                       d.phenotypes().end() - 1);
  EXPECT_THROW(BitPlanesV1::build(split, shorter), std::invalid_argument);
  std::vector<Phenotype> bad(d.phenotypes().begin(), d.phenotypes().end());
  bad[1] = 2;
  EXPECT_THROW(BitPlanesV1::build(split, bad), std::invalid_argument);
}

TEST_P(LayoutTest, PhenoSplitPadBitsFormula) {
  const GenotypeMatrix d = random_dataset(GetParam());
  const PhenoSplitPlanes p = PhenoSplitPlanes::build(d);
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(p.pad_bits(c), p.words(c) * kWordBits - p.samples(c));
    EXPECT_LT(p.pad_bits(c), p.words(c) * kWordBits);  // sanity
  }
}

TEST_P(LayoutTest, TransposedMatchesPhenoSplit) {
  const GenotypeMatrix d = random_dataset(GetParam());
  const PhenoSplitPlanes split = PhenoSplitPlanes::build(d);
  const TransposedPlanes trans = TransposedPlanes::build(d);
  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(split.words(c), trans.words(c));
    for (std::size_t m = 0; m < d.num_snps(); ++m) {
      for (std::size_t w = 0; w < split.words(c); ++w) {
        for (int g = 0; g < 2; ++g) {
          ASSERT_EQ(trans.word(c, w, m, g), split.plane(c, m, g)[w])
              << "c=" << c << " m=" << m << " w=" << w << " g=" << g;
        }
      }
    }
  }
}

TEST_P(LayoutTest, TiledMatchesPhenoSplitForSeveralTiles) {
  const GenotypeMatrix d = random_dataset(GetParam());
  const PhenoSplitPlanes split = PhenoSplitPlanes::build(d);
  for (std::size_t tile : {1u, 3u, 4u, 32u}) {
    const TiledPlanes tiled = TiledPlanes::build(d, tile);
    EXPECT_EQ(tiled.padded_snps() % tile, 0u);
    EXPECT_GE(tiled.padded_snps(), d.num_snps());
    for (int c = 0; c < 2; ++c) {
      for (std::size_t m = 0; m < d.num_snps(); ++m) {
        for (std::size_t w = 0; w < split.words(c); ++w) {
          for (int g = 0; g < 2; ++g) {
            ASSERT_EQ(tiled.word(c, w, m, g), split.plane(c, m, g)[w])
                << "tile=" << tile << " c=" << c << " m=" << m << " w=" << w;
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Byte identity against a per-sample reference on the edge shapes
// --------------------------------------------------------------------------

/// Every layout word, built one sample at a time from `d.at()`: the
/// class-split planes and counts, the V1 planes and the combined planes.
struct ReferenceLayouts {
  std::array<std::vector<Word>, 2> split;   // [snp][g(2)][word] per class
  std::array<std::vector<std::uint32_t>, 2> counts;  // [snp][g(2)]
  std::array<std::size_t, 2> samples{};
  std::vector<Word> v1;        // [snp][g(3)][word]
  std::vector<Word> v1_pheno;  // [word]
  std::vector<Word> combined;  // [snp][g(2)][word]

  explicit ReferenceLayouts(const GenotypeMatrix& d) {
    const std::size_t n = d.num_samples();
    const std::size_t snps = d.num_snps();
    std::array<std::vector<std::size_t>, 2> members;
    for (std::size_t j = 0; j < n; ++j) members[d.phenotype(j)].push_back(j);
    auto put = [](std::vector<Word>& planes, std::size_t plane,
                  std::size_t words, std::size_t bit) {
      planes[plane * words + bit / kWordBits] |= Word{1} << (bit % kWordBits);
    };
    for (std::size_t c = 0; c < 2; ++c) {
      samples[c] = members[c].size();
      const std::size_t words = padded_words_for(samples[c]);
      split[c].assign(snps * 2 * words, 0);
      counts[c].assign(snps * 2, 0);
      for (std::size_t m = 0; m < snps; ++m) {
        for (std::size_t p = 0; p < members[c].size(); ++p) {
          const Genotype g = d.at(m, members[c][p]);
          if (g > 1) continue;
          put(split[c], m * 2 + g, words, p);
          ++counts[c][m * 2 + g];
        }
      }
    }
    const std::size_t words = padded_words_for(n);
    v1.assign(snps * 3 * words, 0);
    v1_pheno.assign(words, 0);
    combined.assign(snps * 2 * words, 0);
    for (std::size_t j = 0; j < n; ++j) {
      if (d.phenotype(j) == 1) put(v1_pheno, 0, words, j);
      for (std::size_t m = 0; m < snps; ++m) {
        const Genotype g = d.at(m, j);
        put(v1, m * 3 + g, words, j);
        if (g <= 1) put(combined, m * 2 + g, words, j);
      }
    }
  }
};

/// The `words`-word planes of `snps` SNPs x `per_snp` genotypes of a layout
/// whose plane (m, g) starts at `plane(m, g)`, copied out in order.
template <typename PlaneFn>
std::vector<Word> words_of(std::size_t snps, int per_snp, std::size_t words,
                           PlaneFn&& plane) {
  std::vector<Word> out;
  for (std::size_t m = 0; m < snps; ++m) {
    for (int g = 0; g < per_snp; ++g) {
      const Word* p = plane(m, g);
      out.insert(out.end(), p, p + words);
    }
  }
  return out;
}

void expect_layouts_match_reference(const GenotypeMatrix& d) {
  const ReferenceLayouts ref(d);
  const std::size_t snps = d.num_snps();
  const PhenoSplitPlanes split = PhenoSplitPlanes::build(d);
  ASSERT_EQ(split.num_snps(), snps);
  for (int c = 0; c < 2; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    ASSERT_EQ(split.samples(c), ref.samples[cs]) << "class " << c;
    ASSERT_EQ(split.words(c), padded_words_for(ref.samples[cs]));
    EXPECT_EQ(split.pad_bits(c),
              split.words(c) * kWordBits - ref.samples[cs]);
    EXPECT_EQ(words_of(snps, 2, split.words(c),
                       [&](std::size_t m, int g) {
                         return split.plane(c, m, g);
                       }),
              ref.split[cs])
        << "class " << c;
    for (std::size_t m = 0; m < snps; ++m) {
      for (int g = 0; g < 2; ++g) {
        EXPECT_EQ(split.genotype_count(c, m, g),
                  ref.counts[cs][m * 2 + static_cast<std::size_t>(g)])
            << "class " << c << " snp " << m << " g " << g;
      }
    }
  }

  const std::size_t words = padded_words_for(d.num_samples());
  const BitPlanesV1 v1 = BitPlanesV1::build(split, d.phenotypes());
  ASSERT_EQ(v1.words(), words);
  EXPECT_EQ(words_of(snps, 3, words,
                     [&](std::size_t m, int g) { return v1.plane(m, g); }),
            ref.v1);
  EXPECT_EQ(std::vector<Word>(v1.phenotype_plane(),
                              v1.phenotype_plane() + words),
            ref.v1_pheno);

  const PhenoSplitPlanes all =
      PhenoSplitPlanes::build_combined(split, d.phenotypes());
  ASSERT_EQ(all.samples(0), d.num_samples());
  ASSERT_EQ(all.samples(1), 0u);
  ASSERT_EQ(all.words(0), words);
  EXPECT_EQ(all.pad_bits(0), words * kWordBits - d.num_samples());
  EXPECT_EQ(words_of(snps, 2, words,
                     [&](std::size_t m, int g) { return all.plane(0, m, g); }),
            ref.combined);
  for (std::size_t m = 0; m < snps; ++m) {
    for (int g = 0; g < 2; ++g) {
      const std::size_t row = m * 2 + static_cast<std::size_t>(g);
      EXPECT_EQ(all.genotype_count(0, m, g),
                ref.counts[0][row] + ref.counts[1][row]);
      EXPECT_EQ(all.genotype_count(1, m, g), 0u);
    }
  }
}

TEST(LayoutIdentity, EdgeClassSizesMatchThePerSampleReference) {
  std::uint64_t seed = 100;
  for (const auto& sizes : trigen::test::edge_class_sizes()) {
    SCOPED_TRACE(std::to_string(sizes.controls) + " controls, " +
                 std::to_string(sizes.cases) + " cases");
    expect_layouts_match_reference(trigen::test::edge_dataset(sizes, ++seed));
  }
}

TEST(LayoutIdentity, OddSampleCountsMatchThePerSampleReference) {
  for (const std::size_t n : {1u, 31u, 32u, 33u, 63u, 65u, 1057u}) {
    SCOPED_TRACE(std::to_string(n) + " samples");
    expect_layouts_match_reference(random_dataset({7, n, 200 + n}));
    expect_layouts_match_reference(random_dataset({7, n, 300 + n}, 0.1));
  }
}

TEST(Layouts, TiledZeroTileThrows) {
  const GenotypeMatrix d = random_dataset({4, 16, 9});
  EXPECT_THROW(TiledPlanes::build(d, 0), std::invalid_argument);
}

TEST(Layouts, PaddedWordsMultipleOfVector) {
  for (std::size_t n : {1u, 31u, 32u, 33u, 511u, 512u, 513u}) {
    EXPECT_EQ(padded_words_for(n) % kWordsPerVector, 0u) << n;
    EXPECT_GE(padded_words_for(n) * kWordBits, n);
  }
}

// --------------------------------------------------------------------------
// Synthetic generation
// --------------------------------------------------------------------------

TEST(Synthetic, Deterministic) {
  const GenotypeMatrix a = random_dataset({10, 128, 77});
  const GenotypeMatrix b = random_dataset({10, 128, 77});
  EXPECT_EQ(a, b);
}

TEST(Synthetic, SeedChangesData) {
  const GenotypeMatrix a = random_dataset({10, 128, 1});
  const GenotypeMatrix b = random_dataset({10, 128, 2});
  EXPECT_NE(a, b);
}

TEST(Synthetic, InvalidSpecsThrow) {
  SyntheticSpec s;
  s.num_snps = 0;
  s.num_samples = 10;
  EXPECT_THROW(generate(s), std::invalid_argument);
  s.num_snps = 10;
  s.maf_min = 0.6;  // > 0.5
  s.maf_max = 0.7;
  EXPECT_THROW(generate(s), std::invalid_argument);
  s.maf_min = 0.1;
  s.maf_max = 0.05;  // min > max
  EXPECT_THROW(generate(s), std::invalid_argument);
  s.maf_max = 0.5;
  s.prevalence = 1.5;
  EXPECT_THROW(generate(s), std::invalid_argument);
}

TEST(Synthetic, PlantedSnpsValidation) {
  SyntheticSpec s;
  s.num_snps = 10;
  s.num_samples = 50;
  PlantedInteraction pl;
  pl.penetrance = make_penetrance(InteractionModel::kThreshold, 0.1, 0.5);
  pl.snps = {3, 3, 5};  // not strictly increasing
  s.interaction = pl;
  EXPECT_THROW(generate(s), std::invalid_argument);
  pl.snps = {3, 5, 10};  // out of range
  s.interaction = pl;
  EXPECT_THROW(generate(s), std::invalid_argument);
}

TEST(Synthetic, PrevalenceControlsCaseRate) {
  SyntheticSpec s;
  s.num_snps = 2;
  s.num_samples = 20000;
  s.prevalence = 0.2;
  s.seed = 5;
  const GenotypeMatrix d = generate(s);
  const double rate =
      static_cast<double>(d.class_count(1)) / d.num_samples();
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(Synthetic, LowMafProducesFewMinorAlleles) {
  SyntheticSpec s;
  s.num_snps = 4;
  s.num_samples = 10000;
  s.maf_min = 0.01;
  s.maf_max = 0.05;
  s.seed = 6;
  const GenotypeMatrix d = generate(s);
  std::size_t minor = 0;
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    for (std::size_t j = 0; j < d.num_samples(); ++j) minor += d.at(m, j);
  }
  // Expected minor allele fraction <= 2 * 0.05.
  EXPECT_LT(static_cast<double>(minor) / (2.0 * 4 * 10000), 0.08);
}

TEST(Synthetic, PenetranceModels) {
  const PenetranceTable thr =
      make_penetrance(InteractionModel::kThreshold, 0.1, 0.6);
  EXPECT_TRUE(thr.valid());
  EXPECT_DOUBLE_EQ(thr.at(0, 0, 0), 0.1);
  EXPECT_DOUBLE_EQ(thr.at(1, 1, 1), 0.7);  // 3 minor alleles
  EXPECT_DOUBLE_EQ(thr.at(0, 1, 1), 0.1);  // only 2

  const PenetranceTable xo = make_penetrance(InteractionModel::kXor3, 0.1, 0.6);
  EXPECT_DOUBLE_EQ(xo.at(0, 0, 1), 0.7);  // odd count
  EXPECT_DOUBLE_EQ(xo.at(0, 1, 1), 0.1);  // even count

  const PenetranceTable mult =
      make_penetrance(InteractionModel::kMultiplicative, 0.05, 0.5);
  EXPECT_DOUBLE_EQ(mult.at(0, 0, 0), 0.05);
  EXPECT_NEAR(mult.at(1, 0, 0), 0.075, 1e-12);
  EXPECT_LE(mult.at(2, 2, 2), 0.95);  // clamped
}

TEST(Synthetic, BalancedGeneratorIsExactlyBalanced) {
  for (std::size_t n : {10u, 11u, 100u, 333u}) {
    const GenotypeMatrix d = generate_balanced(5, n, 99);
    EXPECT_EQ(d.class_count(1), n / 2) << n;
    EXPECT_EQ(d.class_count(0), n - n / 2) << n;
  }
}

TEST(Synthetic, BalancedDeterministic) {
  const GenotypeMatrix a = generate_balanced(6, 100, 7);
  const GenotypeMatrix b = generate_balanced(6, 100, 7);
  EXPECT_EQ(a, b);
}

// --------------------------------------------------------------------------
// I/O
// --------------------------------------------------------------------------

class IoRoundTrip : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, IoRoundTrip,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(IoRoundTrip, Text) {
  const GenotypeMatrix d = random_dataset(GetParam());
  std::stringstream ss;
  write_text(ss, d);
  const GenotypeMatrix back = read_text(ss);
  EXPECT_EQ(d, back);
}

TEST_P(IoRoundTrip, Binary) {
  const GenotypeMatrix d = random_dataset(GetParam());
  std::stringstream ss;
  write_binary(ss, d);
  const GenotypeMatrix back = read_binary(ss);
  EXPECT_EQ(d, back);
}

TEST(Io, TextRejectsBadMagic) {
  std::stringstream ss("NOTRIGEN 2 2\n00\n00\n00\n");
  EXPECT_THROW(read_text(ss), std::runtime_error);
}

TEST(Io, TextRejectsBadGenotype) {
  std::stringstream ss("TRIGEN1 1 3\n019\n000\n");
  EXPECT_THROW(read_text(ss), std::runtime_error);
}

TEST(Io, TextRejectsShortLine) {
  std::stringstream ss("TRIGEN1 1 3\n01\n000\n");
  EXPECT_THROW(read_text(ss), std::runtime_error);
}

TEST(Io, TextRejectsMissingPhenotype) {
  std::stringstream ss("TRIGEN1 1 3\n012\n");
  EXPECT_THROW(read_text(ss), std::runtime_error);
}

TEST(Io, TextRejectsBadPhenotype) {
  std::stringstream ss("TRIGEN1 1 3\n012\n002\n");
  EXPECT_THROW(read_text(ss), std::runtime_error);
}

TEST(Io, TextRejectsZeroShape) {
  std::stringstream ss("TRIGEN1 0 3\n");
  EXPECT_THROW(read_text(ss), std::runtime_error);
}

TEST(Io, BinaryRejectsBadMagic) {
  std::stringstream ss("XXXXXX\n........");
  EXPECT_THROW(read_binary(ss), std::runtime_error);
}

TEST(Io, BinaryRejectsTruncation) {
  const GenotypeMatrix d = random_dataset({4, 16, 3});
  std::stringstream ss;
  write_binary(ss, d);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() - 5));
  EXPECT_THROW(read_binary(cut), std::runtime_error);
}

// --------------------------------------------------------------------------
// TGBIN1 corruption battery: every section must fail with a precise error
// (mirrors the strictness battery of the shard formats)
// --------------------------------------------------------------------------

/// Runs the reader on `bytes`, expecting a throw; returns the message.
std::string binary_error_of(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    read_binary(ss);
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected read_binary to reject the payload";
  return {};
}

void expect_message_contains(const std::string& msg,
                             const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "message '" << msg << "' lacks '" << needle << "'";
}

/// A serialized TGBIN1 file: 7-byte magic, two u64 shape fields, snps
/// genotype rows of `samples` bytes, one phenotype row.
std::string serialized_binary(const GenotypeMatrix& d) {
  std::stringstream ss;
  write_binary(ss, d);
  return ss.str();
}

TEST(IoBinaryStrictness, BadMagicNamesTheProblem) {
  std::string bytes = serialized_binary(random_dataset({3, 16, 5}));
  bytes[0] = 'X';
  expect_message_contains(binary_error_of(bytes), "bad binary magic");
}

TEST(IoBinaryStrictness, TruncatedMagicAndHeader) {
  const std::string bytes = serialized_binary(random_dataset({3, 16, 5}));
  // Inside the 7-byte magic: reported as a magic failure.
  expect_message_contains(binary_error_of(bytes.substr(0, 4)),
                          "bad binary magic");
  // Inside the two 8-byte shape fields (bytes 7..22): a header truncation.
  expect_message_contains(binary_error_of(bytes.substr(0, 7 + 3)),
                          "truncated binary header");
  expect_message_contains(binary_error_of(bytes.substr(0, 7 + 8 + 2)),
                          "truncated binary header");
}

TEST(IoBinaryStrictness, TruncatedGenotypeSection) {
  const GenotypeMatrix d = random_dataset({4, 16, 7});
  const std::string bytes = serialized_binary(d);
  const std::size_t header = 7 + 16;
  // Cut inside the first genotype row and inside the last one.
  expect_message_contains(binary_error_of(bytes.substr(0, header + 5)),
                          "truncated genotype payload");
  expect_message_contains(
      binary_error_of(bytes.substr(0, header + 4 * 16 - 1)),
      "truncated genotype payload");
}

TEST(IoBinaryStrictness, TruncatedPhenotypeSection) {
  const GenotypeMatrix d = random_dataset({4, 16, 9});
  const std::string bytes = serialized_binary(d);
  const std::size_t before_pheno = 7 + 16 + 4 * 16;
  // The genotype payload is complete; the phenotype row is cut short (or
  // missing entirely).
  expect_message_contains(
      binary_error_of(bytes.substr(0, before_pheno + 7)),
      "truncated phenotype payload");
  expect_message_contains(binary_error_of(bytes.substr(0, before_pheno)),
                          "truncated phenotype payload");
}

TEST(IoBinaryStrictness, InvalidGenotypeAndPhenotypeBytes) {
  const GenotypeMatrix d = random_dataset({4, 16, 11});
  const std::size_t header = 7 + 16;

  std::string bad_geno = serialized_binary(d);
  bad_geno[header + 3] = 7;  // genotypes are 0..2
  expect_message_contains(binary_error_of(bad_geno),
                          "invalid genotype byte");

  std::string bad_pheno = serialized_binary(d);
  bad_pheno[header + 4 * 16 + 3] = 2;  // phenotypes are 0..1
  expect_message_contains(binary_error_of(bad_pheno),
                          "invalid phenotype byte");
}

TEST(IoBinaryStrictness, ImplausibleHeaderShapesAreParseErrors) {
  // A corrupted header must fail fast, not attempt a huge allocation.
  std::stringstream ss;
  ss.write("TGBIN1\n", 7);
  for (const std::uint64_t v : {std::uint64_t{1} << 40, std::uint64_t{16}}) {
    for (int i = 0; i < 8; ++i) {
      const char byte = static_cast<char>((v >> (8 * i)) & 0xff);
      ss.write(&byte, 1);
    }
  }
  expect_message_contains(binary_error_of(ss.str()),
                          "implausible dataset shape");

  std::stringstream zero;
  zero.write("TGBIN1\n", 7);
  for (int i = 0; i < 16; ++i) zero.write("\0", 1);
  expect_message_contains(binary_error_of(zero.str()),
                          "zero-sized dataset");
}

// --------------------------------------------------------------------------
// TRIGEN1 text corruption battery: each case fails with its exact message
// --------------------------------------------------------------------------

/// Runs the text reader on `text`, expecting a throw; returns the message.
std::string text_error_of(const std::string& text) {
  std::stringstream ss(text);
  try {
    read_text(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected read_text to reject the text";
  return {};
}

std::string io_error(const std::string& what) {
  return "trigen dataset I/O: " + what;
}

TEST(IoTextStrictness, BadMagicAndMalformedHeader) {
  EXPECT_EQ(text_error_of("TRIGEN2 1 4\n0120\n0101\n"),
            io_error("bad magic, expected TRIGEN1"));
  EXPECT_EQ(text_error_of("TRIGEN1 one 4\n0120\n0101\n"),
            io_error("malformed text header"));
  EXPECT_EQ(text_error_of("TRIGEN1 1"), io_error("malformed text header"));
}

TEST(IoTextStrictness, ImplausibleAndZeroShapes) {
  EXPECT_EQ(text_error_of("TRIGEN1 5000000 4\n"),
            io_error("implausible dataset shape in header (5000000 x 4)"));
  EXPECT_EQ(text_error_of("TRIGEN1 4096 262144\n"),
            io_error("implausible dataset shape in header (4096 x 262144)"));
  EXPECT_EQ(text_error_of("TRIGEN1 0 4\n"),
            io_error("zero-sized dataset in header"));
}

TEST(IoTextStrictness, TruncatedAtSnpLine) {
  EXPECT_EQ(text_error_of("TRIGEN1 3 4"), io_error("truncated at SNP line 1"));
  EXPECT_EQ(text_error_of("TRIGEN1 3 4\n"),
            io_error("truncated at SNP line 1"));
  EXPECT_EQ(text_error_of("TRIGEN1 3 4\n0120\n"),
            io_error("truncated at SNP line 2"));
  // A full-length last line without its newline still counts as a line.
  EXPECT_EQ(text_error_of("TRIGEN1 3 4\n0120\n2101"),
            io_error("truncated at SNP line 3"));
}

TEST(IoTextStrictness, ShortAndLongLinesReportTheirRealLength) {
  EXPECT_EQ(text_error_of("TRIGEN1 2 4\n0120\n012\n0101\n"),
            io_error("SNP line 2 has 3 chars, expected 4"));
  EXPECT_EQ(text_error_of("TRIGEN1 2 4\n\n0120\n0101\n"),
            io_error("SNP line 1 has 0 chars, expected 4"));
  EXPECT_EQ(text_error_of("TRIGEN1 2 4\n0120\n01"),
            io_error("SNP line 2 has 2 chars, expected 4"));
  EXPECT_EQ(text_error_of("TRIGEN1 2 4\n0120\n01201\n0101\n"),
            io_error("SNP line 2 has 5 chars, expected 4"));
  EXPECT_EQ(text_error_of("TRIGEN1 2 4\n01201201201\n0120\n0101\n"),
            io_error("SNP line 1 has 11 chars, expected 4"));
  EXPECT_EQ(text_error_of("TRIGEN1 2 4\n0120\n012012"),
            io_error("SNP line 2 has 6 chars, expected 4"));
  // The length is checked before the characters.
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n01x\n0101\n"),
            io_error("SNP line 1 has 3 chars, expected 4"));
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n" + std::string(70, '1') + "x\n"),
            io_error("SNP line 1 has 71 chars, expected 4"));
}

TEST(IoTextStrictness, InvalidGenotypeNamesTheFirstBadCharAndItsLine) {
  EXPECT_EQ(text_error_of("TRIGEN1 2 4\n0120\n0130\n0101\n"),
            io_error("invalid genotype '3' at SNP line 2"));
  EXPECT_EQ(text_error_of("TRIGEN1 2 4\n0120\n0x/9\n0101\n"),
            io_error("invalid genotype 'x' at SNP line 2"));
  // Past the first 16-byte block of a wider row, and in its tail.
  std::string row(40, '2');
  row[37] = ' ';
  EXPECT_EQ(text_error_of("TRIGEN1 1 40\n" + row + "\n"),
            io_error("invalid genotype ' ' at SNP line 1"));
  row = std::string(40, '0');
  row[20] = '/';
  row[39] = '3';
  EXPECT_EQ(text_error_of("TRIGEN1 1 40\n" + row + "\n"),
            io_error("invalid genotype '/' at SNP line 1"));
}

TEST(IoTextStrictness, CrLfLinesAreOneCharTooLong) {
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\r\n0120\r\n0101\r\n"),
            io_error("SNP line 1 has 5 chars, expected 4"));
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n0120\n0101\r\n"),
            io_error("phenotype line length mismatch"));
}

TEST(IoTextStrictness, MissingOrShortPhenotypeLine) {
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n0120\n"),
            io_error("missing phenotype line"));
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n0120"),
            io_error("missing phenotype line"));
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n0120\n010\n"),
            io_error("phenotype line length mismatch"));
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n0120\n\n0101\n"),
            io_error("phenotype line length mismatch"));
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n0120\n01011\n"),
            io_error("phenotype line length mismatch"));
}

TEST(IoTextStrictness, InvalidPhenotype) {
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n0120\n0121\n"),
            io_error("invalid phenotype '2'"));
  EXPECT_EQ(text_error_of("TRIGEN1 1 4\n0120\n01 1\n"),
            io_error("invalid phenotype ' '"));
}

TEST(IoTextStrictness, UnterminatedPhenotypeLineAndTrailingBytesAreAccepted) {
  GenotypeMatrix want(2, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    want.set(0, j, static_cast<Genotype>(j % 3));
    want.set(1, j, static_cast<Genotype>(2 - j % 3));
    want.set_phenotype(j, static_cast<Phenotype>(j == 1 || j == 2));
  }
  for (const char* text :
       {"TRIGEN1 2 4\n0120\n2102\n0110\n", "TRIGEN1 2 4\n0120\n2102\n0110",
        "TRIGEN1 2 4\n0120\n2102\n0110\ntrailing bytes\n\n9",
        "TRIGEN1 2 4 header remarks\n0120\n2102\n0110\n",
        "TRIGEN1\n2\n4\n0120\n2102\n0110\n"}) {
    SCOPED_TRACE(text);
    std::stringstream ss(text);
    EXPECT_EQ(read_text(ss), want);
  }
}

TEST(Io, FileRoundTrip) {
  const GenotypeMatrix d = random_dataset({6, 40, 12});
  const std::string txt = testing::TempDir() + "/trigen_io_test.tg";
  const std::string bin = testing::TempDir() + "/trigen_io_test.tgb";
  write_text_file(txt, d);
  write_binary_file(bin, d);
  EXPECT_EQ(read_text_file(txt), d);
  EXPECT_EQ(read_binary_file(bin), d);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_text_file("/nonexistent/path/x.tg"), std::runtime_error);
  EXPECT_THROW(read_binary_file("/nonexistent/path/x.tgb"), std::runtime_error);
}

}  // namespace
}  // namespace trigen::dataset
