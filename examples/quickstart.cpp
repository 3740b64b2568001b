/// \file quickstart.cpp
/// \brief Smallest possible end-to-end use of the trigen public API:
/// generate a case-control dataset with a planted three-way interaction,
/// run the detector, and print the top hits.
///
///   $ ./quickstart
///
/// Everything fits in ~30 lines: the library defaults (V5 rung, widest
/// host ISA, K2 score, L1-derived tiling) are production settings.

#include <cstdio>

#include "trigen/core/detector.hpp"
#include "trigen/dataset/synthetic.hpp"

int main() {
  using namespace trigen;

  // 1. A synthetic GWAS: 64 SNPs x 2000 samples with SNPs (7, 21, 40)
  //    interacting epistatically (XOR-like penetrance).
  dataset::SyntheticSpec spec;
  spec.num_snps = 64;
  spec.num_samples = 2000;
  spec.seed = 1234;
  spec.prevalence = 0.2;
  dataset::PlantedInteraction planted;
  planted.snps = {7, 21, 40};
  planted.penetrance =
      dataset::make_penetrance(dataset::InteractionModel::kXor3, 0.05, 0.8);
  spec.interaction = planted;
  const dataset::GenotypeMatrix data = dataset::generate(spec);

  // 2. Exhaustive three-way detection with library defaults.
  core::Detector detector(data);
  core::DetectorOptions options;
  options.top_k = 5;
  const core::DetectionResult result = detector.run(options);

  // 3. Report.
  std::printf("scanned %llu triplets (%llu elements) in %.3f s — %.2f Giga "
              "elements/s\nkernel: %s, tiling <BS=%zu, BP=%zu>\n\n",
              static_cast<unsigned long long>(result.combinations_evaluated),
              static_cast<unsigned long long>(result.elements), result.seconds,
              result.elements_per_second() / 1e9,
              core::kernel_isa_name(result.isa_used).c_str(),
              result.tiling_used.bs, result.tiling_used.bp_words);
  std::printf("top %zu triplets by K2 score (lower = more likely epistatic):\n",
              result.best.size());
  for (const auto& hit : result.best) {
    std::printf("  (%2u, %2u, %2u)  K2 = %.3f%s\n", hit.snps[0],
                hit.snps[1], hit.snps[2], hit.score,
                hit.snps[0] == 7 && hit.snps[1] == 21 && hit.snps[2] == 40
                    ? "   <-- planted interaction"
                    : "");
  }
  return 0;
}
