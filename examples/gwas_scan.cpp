/// \file gwas_scan.cpp
/// \brief Realistic GWAS workflow: load a dataset from disk (or generate a
/// demo one), run exhaustive three-way detection with a chosen objective,
/// and write ranked results as CSV.
///
///   $ ./gwas_scan [dataset.tg] [--objective k2|mi|chi2] [--top N]
///                 [--threads T] [--csv out.csv]
///
/// Without a dataset argument, a demo study (simulating the paper's intro
/// scenario: a disease driven by a third-order interaction among
/// candidate-gene SNPs) is generated, scanned and verified.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "trigen/core/detector.hpp"
#include "trigen/dataset/io.hpp"
#include "trigen/dataset/synthetic.hpp"

namespace {

using namespace trigen;

const char* arg_value(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

core::Objective parse_objective(const std::string& name) {
  if (const auto o = core::objective_from_name(name)) return *o;
  std::fprintf(stderr, "unknown objective '%s', using k2\n", name.c_str());
  return core::Objective::kK2;
}

dataset::GenotypeMatrix demo_study() {
  // Candidate-gene panel: 128 SNPs, 4000 patients, balanced-ish, one
  // planted third-order risk interaction at (12, 57, 99).
  dataset::SyntheticSpec spec;
  spec.num_snps = 128;
  spec.num_samples = 4000;
  spec.seed = 20220126;  // the paper's arXiv date
  spec.maf_min = 0.1;
  spec.maf_max = 0.5;
  spec.prevalence = 0.15;
  dataset::PlantedInteraction planted;
  planted.snps = {12, 57, 99};
  planted.penetrance = dataset::make_penetrance(
      dataset::InteractionModel::kThreshold, 0.08, 0.55);
  spec.interaction = planted;
  return dataset::generate(spec);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1 && argv[1][0] != '-') path = argv[1];
  const core::Objective objective =
      parse_objective(arg_value(argc, argv, "--objective", "k2"));
  const std::size_t top_k =
      static_cast<std::size_t>(std::atoi(arg_value(argc, argv, "--top", "10")));
  const unsigned threads =
      static_cast<unsigned>(std::atoi(arg_value(argc, argv, "--threads", "1")));
  const std::string csv_path = arg_value(argc, argv, "--csv", "");

  const dataset::GenotypeMatrix data =
      path.empty() ? demo_study() : dataset::read_text_file(path);
  std::printf("dataset: %zu SNPs x %zu samples (%zu controls / %zu cases)\n",
              data.num_snps(), data.num_samples(), data.class_count(0),
              data.class_count(1));

  core::Detector detector(data);
  core::DetectorOptions options;
  options.objective = objective;
  options.top_k = top_k == 0 ? 10 : top_k;
  options.threads = threads == 0 ? 1 : threads;
  const core::DetectionResult result = detector.run(options);

  std::printf("scan: %llu triplets in %.3f s (%.2f Gel/s) using %s / %u "
              "thread(s)\n\nrank, snp_x, snp_y, snp_z, score\n",
              static_cast<unsigned long long>(result.combinations_evaluated),
              result.seconds, result.elements_per_second() / 1e9,
              core::kernel_isa_name(result.isa_used).c_str(),
              result.threads_used);
  for (std::size_t i = 0; i < result.best.size(); ++i) {
    const auto& hit = result.best[i];
    std::printf("%4zu, %5u, %5u, %5u, %.4f\n", i + 1, hit.snps[0],
                hit.snps[1], hit.snps[2], hit.score);
  }

  if (!csv_path.empty()) {
    std::ofstream os(csv_path);
    os << "rank,snp_x,snp_y,snp_z,score\n";
    for (std::size_t i = 0; i < result.best.size(); ++i) {
      const auto& hit = result.best[i];
      os << i + 1 << ',' << hit.snps[0] << ',' << hit.snps[1] << ','
         << hit.snps[2] << ',' << hit.score << '\n';
    }
    std::printf("\nwrote %s\n", csv_path.c_str());
  }

  if (path.empty()) {
    const auto& top = result.best.front().snps;
    std::printf("\ndemo verification: planted interaction (12, 57, 99) %s\n",
                top[0] == 12 && top[1] == 57 && top[2] == 99
                    ? "recovered at rank 1"
                    : "NOT at rank 1 (unexpected)");
  }
  return 0;
}
