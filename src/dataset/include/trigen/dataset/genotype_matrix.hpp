#pragma once
/// \file genotype_matrix.hpp
/// \brief Raw case-control SNP dataset (problem formulation, paper §III).
///
/// A dataset D has N samples and M SNPs.  D[i,j] is the genotype of SNP i
/// for sample j, taking values 0 (homozygous major allele), 1 (heterozygous)
/// or 2 (homozygous minor allele).  Each sample additionally carries a
/// phenotype: 0 (control) or 1 (case).

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace trigen::dataset {

/// Genotype value: 0, 1 or 2.
using Genotype = std::uint8_t;
/// Phenotype class: 0 = control, 1 = case.
using Phenotype = std::uint8_t;

/// Dense SNP-major genotype matrix with a per-sample phenotype vector.
///
/// This is the *unencoded* representation; the kernels never touch it
/// directly — they consume the bit-plane layouts built from it (see
/// bitplanes.hpp).  It is, however, the ground truth every kernel's
/// contingency tables are verified against.
class GenotypeMatrix {
 public:
  GenotypeMatrix() = default;

  /// Creates an all-zero dataset of the given shape.
  GenotypeMatrix(std::size_t num_snps, std::size_t num_samples);

  std::size_t num_snps() const { return num_snps_; }
  std::size_t num_samples() const { return num_samples_; }

  /// Genotype of SNP `snp` for sample `sample` (unchecked in release).
  Genotype at(std::size_t snp, std::size_t sample) const {
    return geno_[snp * num_samples_ + sample];
  }

  /// Sets a genotype; throws std::out_of_range / invalid_argument on misuse.
  void set(std::size_t snp, std::size_t sample, Genotype g);
  /// Sets all of SNP `snp`'s genotypes, checked like `set` (a `row` of
  /// other than `num_samples()` values is out of range).
  void set_row(std::size_t snp, std::span<const Genotype> row);

  Phenotype phenotype(std::size_t sample) const { return pheno_[sample]; }
  void set_phenotype(std::size_t sample, Phenotype p);

  /// Row view over one SNP's genotypes (all samples).
  std::span<const Genotype> snp_row(std::size_t snp) const {
    return {geno_.data() + snp * num_samples_, num_samples_};
  }

  std::span<const Phenotype> phenotypes() const { return pheno_; }

  /// Number of samples in phenotype class `c`.
  std::size_t class_count(Phenotype c) const;

  /// True when every genotype is in {0,1,2} and every phenotype in {0,1}.
  bool valid() const;

  friend bool operator==(const GenotypeMatrix&, const GenotypeMatrix&) = default;

 private:
  std::size_t num_snps_ = 0;
  std::size_t num_samples_ = 0;
  std::vector<Genotype> geno_;   // SNP-major: geno_[snp * N + sample]
  std::vector<Phenotype> pheno_;  // one entry per sample
};

}  // namespace trigen::dataset
