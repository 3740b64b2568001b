#pragma once
/// Shared helpers for the trigen test suite.

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>
#include <ostream>
#include <tuple>

#include "trigen/common/rng.hpp"
#include "trigen/dataset/genotype_matrix.hpp"
#include "trigen/dataset/synthetic.hpp"

namespace trigen::test {

/// Dataset shape used in parameterized suites: (snps, samples, seed).
/// Sample counts straddle the 32-bit word boundary and the 512-bit padding
/// boundary so every padding path is exercised.
using Shape = std::tuple<std::size_t, std::size_t, std::uint64_t>;

inline const std::vector<Shape>& small_shapes() {
  static const std::vector<Shape> shapes = {
      {4, 7, 1},     // tiny, single partial word
      {5, 32, 2},    // exactly one word
      {6, 33, 3},    // one word + 1 bit
      {8, 100, 4},   // partial second word
      {10, 512, 5},  // exactly one padded plane (16 words)
      {12, 513, 6},  // padded plane + 1 bit
      {16, 200, 7},  // mid-size
      {20, 64, 8},   // two exact words
  };
  return shapes;
}

/// Unbalanced and balanced random datasets for a shape.
inline dataset::GenotypeMatrix random_dataset(const Shape& s,
                                              double prevalence = 0.5) {
  dataset::SyntheticSpec spec;
  spec.num_snps = std::get<0>(s);
  spec.num_samples = std::get<1>(s);
  spec.seed = std::get<2>(s);
  spec.prevalence = prevalence;
  return dataset::generate(spec);
}

/// Dataset with a strongly detectable planted triple at (1, 3, 5).
inline dataset::GenotypeMatrix planted_dataset(std::size_t snps,
                                               std::size_t samples,
                                               std::uint64_t seed) {
  dataset::SyntheticSpec spec;
  spec.num_snps = snps;
  spec.num_samples = samples;
  spec.seed = seed;
  spec.maf_min = 0.3;
  spec.maf_max = 0.5;
  spec.prevalence = 0.25;
  dataset::PlantedInteraction planted;
  planted.snps = {1, 3, 5};
  planted.penetrance = dataset::make_penetrance(
      dataset::InteractionModel::kXor3, 0.05, 0.85);
  spec.interaction = planted;
  return dataset::generate(spec);
}

/// Class sizes straddling the 32-bit word and the 512-bit plane boundaries,
/// plus one-sample classes on either side.
struct ClassSizes {
  std::size_t controls;
  std::size_t cases;
};

inline const std::vector<ClassSizes>& edge_class_sizes() {
  static const std::vector<ClassSizes> sizes = {
      {1, 40},    {40, 1},    {31, 31},   {32, 33},
      {33, 32},   {511, 513}, {512, 511}, {513, 512},
  };
  return sizes;
}

/// Nine SNPs: SNPs 0, 1 and 2 are monomorphic (all genotype 0, 1 and 2),
/// the rest uniform; cases are scattered at random among the samples.
inline dataset::GenotypeMatrix edge_dataset(const ClassSizes& s,
                                            std::uint64_t seed) {
  constexpr std::size_t kSnps = 9;
  const std::size_t n = s.controls + s.cases;
  std::mt19937_64 rng(seed);
  std::vector<dataset::Phenotype> pheno(n, 0);
  std::fill(pheno.begin(), pheno.begin() + static_cast<std::ptrdiff_t>(s.cases),
            dataset::Phenotype{1});
  std::shuffle(pheno.begin(), pheno.end(), rng);
  dataset::GenotypeMatrix d(kSnps, n);
  std::uniform_int_distribution<int> geno(0, 2);
  for (std::size_t j = 0; j < n; ++j) {
    d.set_phenotype(j, pheno[j]);
    for (std::size_t m = 0; m < kSnps; ++m) {
      d.set(m, j, static_cast<dataset::Genotype>(m < 3 ? m : geno(rng)));
    }
  }
  return d;
}

}  // namespace trigen::test
