#include "trigen/dataset/genotype_matrix.hpp"

#include <algorithm>

namespace trigen::dataset {
namespace {

/// The largest byte of `v`; a branch-free reduction the compiler vectorizes.
std::uint8_t max_of(std::span<const std::uint8_t> v) {
  std::uint8_t top = 0;
  for (const std::uint8_t x : v) top = std::max(top, x);
  return top;
}

}  // namespace

GenotypeMatrix::GenotypeMatrix(std::size_t num_snps, std::size_t num_samples)
    : num_snps_(num_snps),
      num_samples_(num_samples),
      geno_(num_snps * num_samples, 0),
      pheno_(num_samples, 0) {
  if (num_snps == 0 || num_samples == 0) {
    throw std::invalid_argument("GenotypeMatrix: shape must be non-zero");
  }
}

void GenotypeMatrix::set(std::size_t snp, std::size_t sample, Genotype g) {
  if (snp >= num_snps_ || sample >= num_samples_) {
    throw std::out_of_range("GenotypeMatrix::set: index out of range");
  }
  if (g > 2) {
    throw std::invalid_argument("GenotypeMatrix::set: genotype must be 0..2");
  }
  geno_[snp * num_samples_ + sample] = g;
}

void GenotypeMatrix::set_row(std::size_t snp, std::span<const Genotype> row) {
  if (snp >= num_snps_ || row.size() != num_samples_) {
    throw std::out_of_range("GenotypeMatrix::set_row: index out of range");
  }
  if (max_of(row) > 2) {
    throw std::invalid_argument("GenotypeMatrix: genotype must be 0..2");
  }
  std::copy(row.begin(), row.end(), &geno_[snp * num_samples_]);
}

void GenotypeMatrix::set_phenotype(std::size_t sample, Phenotype p) {
  if (sample >= num_samples_) {
    throw std::out_of_range("GenotypeMatrix::set_phenotype: out of range");
  }
  if (p > 1) {
    throw std::invalid_argument("GenotypeMatrix: phenotype must be 0 or 1");
  }
  pheno_[sample] = p;
}

std::size_t GenotypeMatrix::class_count(Phenotype c) const {
  return static_cast<std::size_t>(
      std::count(pheno_.begin(), pheno_.end(), c));
}

bool GenotypeMatrix::valid() const {
  return max_of(geno_) <= 2 && max_of(pheno_) <= 1;
}

}  // namespace trigen::dataset
