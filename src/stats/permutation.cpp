#include "trigen/stats/permutation.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "trigen/common/rng.hpp"
#include "trigen/dataset/bitplanes.hpp"

namespace trigen::stats {

std::vector<dataset::Phenotype> shuffled_labels(
    const dataset::GenotypeMatrix& d, std::uint64_t seed) {
  std::vector<dataset::Phenotype> labels(d.num_samples());
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    labels[j] = d.phenotype(j);
  }
  Xoshiro256 rng(seed);
  for (std::size_t j = labels.size(); j > 1; --j) {  // Fisher-Yates
    std::swap(labels[j - 1], labels[rng.bounded(j)]);
  }
  return labels;
}

dataset::GenotypeMatrix shuffle_phenotypes(const dataset::GenotypeMatrix& d,
                                           std::uint64_t seed) {
  dataset::GenotypeMatrix out = d;
  const std::vector<dataset::Phenotype> labels = shuffled_labels(d, seed);
  for (std::size_t j = 0; j < labels.size(); ++j) {
    out.set_phenotype(j, labels[j]);
  }
  return out;
}

namespace {

/// Legacy sequential body: one full scan per permutation.  Kept as the
/// cross-check target for the batched path and as the low-memory fallback.
/// One working matrix is reused across all permutations — only the label
/// byte per sample changes, never the genotype payload.
template <unsigned K>
BasicPermutationTestResult<K> permutation_test_sequential(
    const dataset::GenotypeMatrix& d, unsigned permutations,
    std::uint64_t seed, core::BasicDetectorOptions<K> dopt) {
  using Detector = core::BasicDetector<K>;
  BasicPermutationTestResult<K> result;
  {
    const Detector det(d);
    const auto observed = det.run(dopt);
    result.observed = observed.best.front();
    // Pin the auto-resolved execution config so the null scans reuse it
    // through the shared driver instead of re-detecting ISA, L1 geometry
    // and tiling once per permutation.
    dopt.isa = observed.isa_used;
    dopt.isa_auto = false;
    dopt.threads = observed.threads_used;
    if (observed.tiling_used.valid()) dopt.tiling = observed.tiling_used;
  }

  result.null_scores.reserve(permutations);
  SplitMix64 seeds(seed);
  dataset::GenotypeMatrix working = d;  // single copy, relabeled per null
  unsigned as_good = 0;
  for (unsigned p = 0; p < permutations; ++p) {
    const std::vector<dataset::Phenotype> labels =
        shuffled_labels(d, seeds.next());
    for (std::size_t j = 0; j < labels.size(); ++j) {
      working.set_phenotype(j, labels[j]);
    }
    const Detector det(working);
    const double best = det.run(dopt).best.front().score;
    result.null_scores.push_back(best);
    if (best <= result.observed.score) ++as_good;
  }
  result.p_value = static_cast<double>(1 + as_good) /
                   static_cast<double>(permutations + 1);
  return result;
}

/// Batched body: observed + all nulls become partitions of one (or a few)
/// multi-phenotype scans — the genotype streaming and prefix-plane ladder
/// are paid once per chunk instead of once per permutation.  Seed stream,
/// integer tables and the deterministic merge match the sequential path
/// exactly, so results are bit-identical.
template <unsigned K>
BasicPermutationTestResult<K> permutation_test_batched(
    const dataset::GenotypeMatrix& d, unsigned permutations,
    std::uint64_t seed, unsigned batch, core::BasicDetectorOptions<K> dopt) {
  using Detector = core::BasicDetector<K>;
  BasicPermutationTestResult<K> result;
  result.null_scores.resize(permutations);

  // Partition 0 is the observed labeling; the same SplitMix64 stream as the
  // sequential path seeds each null's Fisher-Yates shuffle.
  std::vector<std::vector<dataset::Phenotype>> parts;
  parts.reserve(permutations + 1);
  {
    std::vector<dataset::Phenotype> observed(d.num_samples());
    for (std::size_t j = 0; j < d.num_samples(); ++j) {
      observed[j] = d.phenotype(j);
    }
    parts.push_back(std::move(observed));
  }
  SplitMix64 seeds(seed);
  for (unsigned p = 0; p < permutations; ++p) {
    parts.push_back(shuffled_labels(d, seeds.next()));
  }

  const Detector det(d);
  const std::size_t total = parts.size();
  const std::size_t chunk = batch == 0 ? total : batch;
  bool pinned = false;
  for (std::size_t first = 0; first < total; first += chunk) {
    const std::size_t count = std::min(chunk, total - first);
    std::vector<std::vector<dataset::Phenotype>> chunk_parts(
        std::make_move_iterator(parts.begin() +
                                static_cast<std::ptrdiff_t>(first)),
        std::make_move_iterator(parts.begin() +
                                static_cast<std::ptrdiff_t>(first + count)));
    const dataset::PhenotypeBatch labels =
        dataset::PhenotypeBatch::build(d.num_samples(), chunk_parts);
    const auto res = det.run_batched(labels, dopt);
    if (!pinned) {
      // Pin the auto-resolved config for the remaining chunks.
      dopt.isa = res.isa_used;
      dopt.isa_auto = false;
      dopt.threads = res.threads_used;
      if (res.tiling_used.valid()) dopt.tiling = res.tiling_used;
      pinned = true;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t slot = first + i;
      if (slot == 0) {
        result.observed = res.best[i].front();
      } else {
        result.null_scores[slot - 1] = res.best[i].front().score;
      }
    }
  }

  unsigned as_good = 0;
  for (const double s : result.null_scores) {
    if (s <= result.observed.score) ++as_good;
  }
  result.p_value = static_cast<double>(1 + as_good) /
                   static_cast<double>(permutations + 1);
  return result;
}

}  // namespace

template <unsigned K>
BasicPermutationTestResult<K> permutation_test_of(
    const dataset::GenotypeMatrix& d,
    const BasicPermutationTestOptions<K>& options) {
  if (options.permutations == 0) {
    throw std::invalid_argument("permutation_test_of: need >= 1 permutation");
  }
  // Every scan of the test shares one normalized scorer (the K2
  // log-factorial table depends only on the sample count, which
  // permutation preserves).
  core::BasicDetectorOptions<K> dopt = options.detector;
  dopt.top_k = 1;
  core::ensure_default_scorer(dopt, d.num_samples());
  // On the scalar strategy the batched order-2 pass saves only the detector
  // builds: each partition still costs its own AND + POPCNT per word and
  // pair, and the partition bookkeeping costs more than the builds it saves
  // (one core, 200 x 4096, 19 permutations, median of 11 alternating runs:
  // 804 ms batched against 766 ms sequential).  So the default batch runs
  // the sequential body there.
  const bool scalar_pairs = K == 2 && options.batch == 0 &&
                            core::scan_isa(dopt, true) ==
                                core::KernelIsa::kScalar;
  if (options.batch == 1 || scalar_pairs) {
    return permutation_test_sequential<K>(d, options.permutations,
                                          options.seed, std::move(dopt));
  }
  return permutation_test_batched<K>(d, options.permutations, options.seed,
                                     options.batch, std::move(dopt));
}

template BasicPermutationTestResult<2> permutation_test_of<2>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<2>&);
template BasicPermutationTestResult<3> permutation_test_of<3>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<3>&);
template BasicPermutationTestResult<4> permutation_test_of<4>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<4>&);
template BasicPermutationTestResult<5> permutation_test_of<5>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<5>&);
template BasicPermutationTestResult<6> permutation_test_of<6>(
    const dataset::GenotypeMatrix&, const BasicPermutationTestOptions<6>&);

}  // namespace trigen::stats
