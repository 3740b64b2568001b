/// \file crohns_pairwise.cpp
/// \brief Second-order scenario from the paper's introduction: "some
/// diseases, such as Crohn's disease, are related to an interaction
/// between two SNPs" (§I, ref [3]).
///
/// Simulates a Crohn's-like study with a planted *pairwise* interaction,
/// runs the 2-way detector (`core::BasicDetector<2>`), then shows why order
/// matters: the 3-way detector also flags triplets containing the causal
/// pair, but the 2-way scan finds the signal with C(M,2) ~ M/3 x fewer
/// evaluations.

#include <cstdio>

#include "trigen/core/detector.hpp"
#include "trigen/dataset/synthetic.hpp"

int main() {
  using namespace trigen;

  // Crohn's-like candidate panel: a pair (9, 33) drives risk.
  dataset::SyntheticSpec spec;
  spec.num_snps = 64;
  spec.num_samples = 3000;
  spec.seed = 3407;
  spec.maf_min = 0.2;
  spec.maf_max = 0.5;
  spec.prevalence = 0.12;
  dataset::PlantedInteraction planted;
  planted.snps = {9, 33, 63};  // third index unused by the pairwise table
  planted.penetrance = dataset::make_penetrance_pairwise(
      dataset::InteractionModel::kThreshold, 0.06, 0.5);
  spec.interaction = planted;
  const auto data = dataset::generate(spec);
  std::printf("study: %zu SNPs x %zu samples, planted pair (9, 33)\n\n",
              data.num_snps(), data.num_samples());

  // Pairwise scan.
  core::BasicDetector<2> pairs(data);
  core::BasicDetectorOptions<2> popt;
  popt.top_k = 5;
  const auto pr = pairs.run(popt);
  std::printf("2-way scan: %llu pairs in %.3f s\n",
              static_cast<unsigned long long>(pr.combinations_evaluated), pr.seconds);
  for (std::size_t i = 0; i < pr.best.size(); ++i) {
    const auto& p = pr.best[i].snps;
    std::printf("  #%zu (%2u, %2u)  K2 = %.3f%s\n", i + 1, p[0], p[1],
                pr.best[i].score,
                p[0] == 9 && p[1] == 33 ? "  <-- planted" : "");
  }

  // 3-way scan on the same data: triplets containing (9, 33) dominate.
  core::Detector triples(data);
  core::DetectorOptions topt;
  topt.top_k = 5;
  const auto tr = triples.run(topt);
  std::printf("\n3-way scan: %llu triplets in %.3f s\n",
              static_cast<unsigned long long>(tr.combinations_evaluated),
              tr.seconds);
  int containing = 0;
  for (std::size_t i = 0; i < tr.best.size(); ++i) {
    const auto& t = tr.best[i].snps;
    const bool has_pair = (t[0] == 9 && t[1] == 33) ||
                          (t[0] == 9 && t[2] == 33) ||
                          (t[1] == 9 && t[2] == 33);
    containing += has_pair ? 1 : 0;
    std::printf("  #%zu (%2u, %2u, %2u)  K2 = %.3f%s\n", i + 1, t[0], t[1],
                t[2], tr.best[i].score,
                has_pair ? "  <-- contains the pair" : "");
  }
  std::printf("\n%d of the top-5 triplets contain the causal pair; the "
              "pairwise scan needed %.1fx\nfewer combination evaluations.\n",
              containing,
              static_cast<double>(tr.combinations_evaluated) /
                  static_cast<double>(pr.combinations_evaluated));
  return 0;
}
