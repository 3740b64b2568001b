#include "trigen/dataset/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "trigen/common/rng.hpp"

namespace trigen::dataset {
namespace {

/// The penetrance table of `model` over the minor alleles (a genotype
/// value is its minor allele count) of the first `snps` planted SNPs, with
/// every probability clamped to [0, 0.95]; the threshold model steps up at
/// `snps` alleles.
PenetranceTable table_of(InteractionModel model, double baseline,
                         double effect, int snps) {
  PenetranceTable t;
  for (int cell = 0; cell < 27; ++cell) {  // cell = gx * 9 + gy * 3 + gz
    const int alleles = cell / 9 + cell / 3 % 3 + (snps == 3 ? cell % 3 : 0);
    const bool raised = model == InteractionModel::kThreshold
                            ? alleles >= snps
                            : alleles % 2 == 1;  // kXor3
    const double p = model == InteractionModel::kMultiplicative
                         ? baseline * std::pow(1.0 + effect, alleles)
                         : (raised ? baseline + effect : baseline);
    t.p[static_cast<std::size_t>(cell)] = std::clamp(p, 0.0, 0.95);
  }
  return t;
}

/// Draws one genotype under Hardy-Weinberg equilibrium for MAF `q`:
/// P(0) = (1-q)^2, P(1) = 2q(1-q), P(2) = q^2.
Genotype sample_genotype(Xoshiro256& rng, double q) {
  const double u = rng.uniform();
  const double p0 = (1.0 - q) * (1.0 - q);
  const double p1 = p0 + 2.0 * q * (1.0 - q);
  if (u < p0) return 0;
  if (u < p1) return 1;
  return 2;
}

void validate(const SyntheticSpec& spec) {
  if (spec.num_snps == 0 || spec.num_samples == 0) {
    throw std::invalid_argument("SyntheticSpec: shape must be non-zero");
  }
  if (!(spec.maf_min >= 0.0 && spec.maf_min <= spec.maf_max &&
        spec.maf_max <= 0.5)) {
    throw std::invalid_argument("SyntheticSpec: need 0 <= maf_min <= maf_max <= 0.5");
  }
  if (spec.prevalence < 0.0 || spec.prevalence > 1.0) {
    throw std::invalid_argument("SyntheticSpec: prevalence must be in [0,1]");
  }
  if (spec.interaction) {
    const auto& s = spec.interaction->snps;
    if (!(s[0] < s[1] && s[1] < s[2] && s[2] < spec.num_snps)) {
      throw std::invalid_argument(
          "SyntheticSpec: planted SNPs must be strictly increasing and in range");
    }
    if (!spec.interaction->penetrance.valid()) {
      throw std::invalid_argument("SyntheticSpec: penetrance out of [0,1]");
    }
  }
}

}  // namespace

bool PenetranceTable::valid() const {
  return std::all_of(p.begin(), p.end(),
                     [](double v) { return v >= 0.0 && v <= 1.0; });
}

PenetranceTable make_penetrance(InteractionModel model, double baseline,
                                double effect) {
  return table_of(model, baseline, effect, 3);
}

PenetranceTable make_penetrance_pairwise(InteractionModel model,
                                         double baseline, double effect) {
  return table_of(model, baseline, effect, 2);
}

GenotypeMatrix generate(const SyntheticSpec& spec) {
  validate(spec);
  Xoshiro256 rng(spec.seed);
  GenotypeMatrix d(spec.num_snps, spec.num_samples);

  // Per-SNP minor allele frequencies.
  std::vector<double> maf(spec.num_snps);
  for (auto& q : maf) {
    q = spec.maf_min + (spec.maf_max - spec.maf_min) * rng.uniform();
  }

  for (std::size_t m = 0; m < spec.num_snps; ++m) {
    for (std::size_t j = 0; j < spec.num_samples; ++j) {
      d.set(m, j, sample_genotype(rng, maf[m]));
    }
  }

  for (std::size_t j = 0; j < spec.num_samples; ++j) {
    double p_case = spec.prevalence;
    if (spec.interaction) {
      const auto& pl = *spec.interaction;
      p_case = pl.penetrance.at(d.at(pl.snps[0], j), d.at(pl.snps[1], j),
                                d.at(pl.snps[2], j));
    }
    d.set_phenotype(j, rng.bernoulli(p_case) ? 1 : 0);
  }
  return d;
}

GenotypeMatrix generate_balanced(std::size_t num_snps, std::size_t num_samples,
                                 std::uint64_t seed, double maf_min,
                                 double maf_max) {
  SyntheticSpec spec;
  spec.num_snps = num_snps;
  spec.num_samples = num_samples;
  spec.maf_min = maf_min;
  spec.maf_max = maf_max;
  spec.seed = seed;
  GenotypeMatrix d = generate(spec);
  // Overwrite phenotypes with an exactly balanced, deterministic shuffle.
  Xoshiro256 rng(seed ^ 0xB5EFB5EFB5EFB5EFull);
  std::vector<std::size_t> order(num_samples);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t j = num_samples; j > 1; --j) {  // Fisher-Yates
    std::swap(order[j - 1], order[rng.bounded(j)]);
  }
  for (std::size_t j = 0; j < num_samples; ++j) {
    d.set_phenotype(order[j], j < num_samples / 2 ? 1 : 0);
  }
  return d;
}

}  // namespace trigen::dataset
