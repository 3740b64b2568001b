#pragma once
/// \file permutation.hpp
/// \brief Permutation-based significance testing for detected interactions.
///
/// Exhaustive search always returns *some* best triplet; whether it means
/// anything requires a null distribution.  The standard GWAS procedure —
/// used by the BOOST/MPI3SNP tool family the paper builds on — is phenotype
/// permutation: shuffle the case/control labels (destroying any genotype-
/// phenotype association while preserving genotype LD structure), re-run
/// the full scan, and record the best null score.  The empirical p-value
/// of the observed best score is
///
///     p = (1 + #{null best <= observed}) / (permutations + 1)
///
/// (normalized lower-is-better scores; the +1 terms give the standard
/// unbiased estimator).

#include <cstdint>
#include <vector>

#include "trigen/core/detector.hpp"

namespace trigen::stats {

/// Options of the order-K permutation test.
template <unsigned K>
struct BasicPermutationTestOptions {
  unsigned permutations = 50;  ///< null scans (each is a full exhaustive run)
  std::uint64_t seed = 7;      ///< shuffle seed (deterministic)
  /// Partitions scored per batched scan.  0 (the default) scores observed +
  /// every null in ONE batched pass — the genotype streaming and
  /// prefix-plane ladder are amortized across all of them, making the test
  /// ~P× cheaper than sequential re-scans; at order 2 on the scalar
  /// strategy, where batching saves only the detector builds, it runs
  /// the sequential path instead.  1 selects the legacy
  /// sequential path (one scan per permutation; the cross-check target and
  /// the low-memory fallback).  Values >= 2 chunk the batched pass, capping
  /// the live per-thread tables when permutations is very large.  Every
  /// setting is bit-identical: same seeds, same integer tables, same
  /// observed top-k and p-value.
  unsigned batch = 0;
  core::BasicDetectorOptions<K> detector;  ///< configuration for every scan
};

/// Result of the order-K permutation test.
template <unsigned K>
struct BasicPermutationTestResult {
  core::ScoredOf<K> observed;        ///< best combination on the real labels
  std::vector<double> null_scores;   ///< best normalized score per permutation
  double p_value = 1.0;

  /// True when the observed association is stronger than every null scan.
  bool significant_at(double alpha) const { return p_value <= alpha; }
};

/// Runs the full order-K permutation test.  Cost: (permutations + 1)
/// exhaustive scans; use the V4/V5 kernels and multiple threads for real
/// datasets.  Every order shares one implementation — the observed scan
/// pins the resolved ISA/threads/tiling and one normalized scorer is
/// shared across every null scan.  Throws std::invalid_argument for zero
/// permutations.
template <unsigned K>
BasicPermutationTestResult<K> permutation_test_of(
    const dataset::GenotypeMatrix& d,
    const BasicPermutationTestOptions<K>& options);

extern template BasicPermutationTestResult<2> permutation_test_of<2>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<2>&);
extern template BasicPermutationTestResult<3> permutation_test_of<3>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<3>&);
extern template BasicPermutationTestResult<4> permutation_test_of<4>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<4>&);
extern template BasicPermutationTestResult<5> permutation_test_of<5>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<5>&);
extern template BasicPermutationTestResult<6> permutation_test_of<6>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<6>&);

/// Shuffled label vector of `d` (Fisher-Yates, deterministic in `seed`) —
/// the label-plane-only shuffle both test paths are built on: no genotype
/// plane is copied per permutation.
std::vector<dataset::Phenotype> shuffled_labels(
    const dataset::GenotypeMatrix& d, std::uint64_t seed);

/// Phenotype-shuffled copy of `d` (Fisher-Yates, deterministic in `seed`);
/// exposed for tests and custom pipelines.  Identical shuffle stream as
/// shuffled_labels(d, seed) — callers that only need the labels should
/// prefer it and skip the genotype copy.
dataset::GenotypeMatrix shuffle_phenotypes(const dataset::GenotypeMatrix& d,
                                           std::uint64_t seed);

}  // namespace trigen::stats
