#pragma once
/// \file bitplanes.hpp
/// \brief Binarized dataset layouts for every kernel version (paper §III/IV).
///
/// The paper's optimization ladder is driven by data layout:
///
///  * `BitPlanesV1`    — Fig. 1: three genotype bit-planes per SNP plus a
///                       phenotype bit-plane.  Used by the naive V1 kernels.
///  * `PhenoSplitPlanes` — §IV-A second method: the dataset is split into a
///                       control plane-set and a case plane-set, and only
///                       genotypes 0 and 1 are stored (genotype 2 is
///                       reconstructed with a NOR).  Used by CPU V2-V5
///                       and GPU V2.
///  * `TransposedPlanes` — §IV-B third method: SNP-minor (sample-word-major)
///                       layout so that consecutive GPU threads touch
///                       consecutive words (coalesced loads).  GPU V3.
///  * `TiledPlanes`    — §IV-B fourth method: SNPs grouped in tiles of BS,
///                       with the BS words of one sample-word adjacent.
///                       GPU V4.
///
/// All layouts use 32-bit words ("all approaches use 32-bit integers to
/// compress the input data set", §IV) and zero-padded tail bits.  For the
/// layouts that *infer* genotype 2 via NOR, the zero padding masquerades as
/// genotype 2; the padding bit counts are exposed so kernels can subtract
/// the constant from the all-genotype-2 contingency cell instead of masking
/// inside the hot loop (see `pad_bits`).  `PhenoSplitPlanes` also records
/// each SNP's per-class genotype counts, from which the pair engine derives
/// every genotype-2 cell without touching a genotype-2 plane at all.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "trigen/common/aligned.hpp"
#include "trigen/dataset/genotype_matrix.hpp"

namespace trigen::dataset {

/// Machine word carrying one bit per sample.
using Word = std::uint32_t;
inline constexpr std::size_t kWordBits = 32;

/// Number of words needed for `n` samples (no alignment padding).
constexpr std::size_t words_for(std::size_t n) {
  return (n + kWordBits - 1) / kWordBits;
}

/// Words per 64-byte vector register / cache line.
inline constexpr std::size_t kWordsPerVector = trigen::kVectorAlign / sizeof(Word);

/// `words_for(n)` rounded up so every plane is a whole number of AVX-512
/// registers; guarantees aligned vector loads never read across planes.
constexpr std::size_t padded_words_for(std::size_t n) {
  const std::size_t w = words_for(n);
  return (w + kWordsPerVector - 1) / kWordsPerVector * kWordsPerVector;
}

// ---------------------------------------------------------------------------
// V1: three genotype planes + phenotype plane (Fig. 1)
// ---------------------------------------------------------------------------

class PhenoSplitPlanes;

/// Naive binarized layout: for each SNP, one bit-plane per genotype value,
/// plus a single shared phenotype plane (bit set = case).
class BitPlanesV1 {
 public:
  /// Same as `build(PhenoSplitPlanes::build(d), d.phenotypes())`.
  static BitPlanesV1 build(const GenotypeMatrix& d);
  /// The layout read back from class-split planes and the per-sample
  /// phenotypes they were split by, so a holder of the split planes needs
  /// no genotype matrix to build it later.  Throws std::invalid_argument
  /// when `phenotypes` does not match the planes' class sizes.
  static BitPlanesV1 build(const PhenoSplitPlanes& split,
                           std::span<const Phenotype> phenotypes);

  std::size_t num_snps() const { return num_snps_; }
  std::size_t num_samples() const { return num_samples_; }
  /// Padded words per plane.
  std::size_t words() const { return words_; }

  /// Plane of genotype `g` (0..2) for SNP `snp`; `words()` words long.
  const Word* plane(std::size_t snp, int g) const {
    return planes_.data() + (snp * 3 + static_cast<std::size_t>(g)) * words_;
  }
  /// Phenotype plane: bit set when the sample is a case.
  const Word* phenotype_plane() const { return pheno_.data(); }

 private:
  std::size_t num_snps_ = 0;
  std::size_t num_samples_ = 0;
  std::size_t words_ = 0;
  aligned_vector<Word> planes_;  // [snp][genotype][word]
  aligned_vector<Word> pheno_;   // [word]
};

// ---------------------------------------------------------------------------
// V2: phenotype-split, genotype-2 inferred (CPU V2-V5, GPU V2)
// ---------------------------------------------------------------------------

/// Class-split layout: one plane-set per phenotype class, storing only
/// genotypes 0 and 1.  Genotype 2 is reconstructed as NOR(g0, g1), which
/// cuts memory traffic to 2/3 and removes the phenotype plane entirely.
class PhenoSplitPlanes {
 public:
  static PhenoSplitPlanes build(const GenotypeMatrix& d);

  /// Phenotype-agnostic variant for batched multi-phenotype scans: class 0
  /// holds ALL samples in original column order (class 1 stays empty).  The
  /// case/control split is applied afterwards per partition by ANDing the
  /// cell planes against a PhenotypeBatch's packed label planes, so one set
  /// of genotype planes serves every partition of the same samples.  Same
  /// as `build_combined(build(d), d.phenotypes())`.
  static PhenoSplitPlanes build_combined(const GenotypeMatrix& d);
  /// The combined layout read back from class-split planes and the
  /// per-sample phenotypes they were split by (see BitPlanesV1's overload).
  static PhenoSplitPlanes build_combined(const PhenoSplitPlanes& split,
                                         std::span<const Phenotype> phenotypes);

  std::size_t num_snps() const { return num_snps_; }
  /// Samples in class `c` (0 = controls, 1 = cases).
  std::size_t samples(int c) const { return samples_[static_cast<std::size_t>(c)]; }
  /// Padded words per plane of class `c`.
  std::size_t words(int c) const { return words_[static_cast<std::size_t>(c)]; }

  /// Zero-padding tail bits of class `c`.  NOR-based genotype-2 inference
  /// turns each of these into a phantom all-genotype-2 observation; the
  /// engines that infer genotype 2 by NOR (k >= 3, and the batched pair
  /// path) subtract this constant from that cell once per evaluated
  /// combination.  The sequential pair path never forms a genotype-2 plane,
  /// so it needs no correction (see `genotype_count`).
  std::size_t pad_bits(int c) const {
    return words(c) * kWordBits - samples(c);
  }

  /// Samples of class `c` whose genotype at `snp` is `g` (0..1 only; the
  /// genotype-2 count is samples(c) minus both).  Counted while the planes
  /// are built.  A SNP's three genotype planes partition the class, so a
  /// pair table's genotype-2 cells follow exactly from its four {0,1} x
  /// {0,1} cells and these counts (core::complete_pair_row).
  std::uint32_t genotype_count(int c, std::size_t snp, int g) const {
    return counts_[static_cast<std::size_t>(c)]
                  [snp * 2 + static_cast<std::size_t>(g)];
  }

  /// Plane of genotype `g` (0..1 only) for SNP `snp` in class `c`.
  const Word* plane(int c, std::size_t snp, int g) const {
    return planes_[static_cast<std::size_t>(c)].data() +
           (snp * 2 + static_cast<std::size_t>(g)) * words_[static_cast<std::size_t>(c)];
  }

 private:
  std::size_t num_snps_ = 0;
  std::array<std::size_t, 2> samples_{};
  std::array<std::size_t, 2> words_{};
  std::array<aligned_vector<Word>, 2> planes_;  // [snp][genotype(2)][word]
  std::array<std::vector<std::uint32_t>, 2> counts_;  // [snp][genotype(2)]
};

// ---------------------------------------------------------------------------
// Batched multi-phenotype label planes
// ---------------------------------------------------------------------------

/// P packed phenotype partitions of one sample set, in the word-interleaved
/// layout the batched kernels consume: `word_labels()[w * stride() + p]` is
/// word `w` of partition `p`'s *case* plane (bit j set = sample w*32+j is a
/// case under partition p).  Interleaving puts the P lanes of one sample
/// word contiguously, so a kernel broadcasts a genotype word once and ANDs
/// it against 8 (AVX2) or 16 (AVX-512) partitions per instruction.
///
/// `stride()` is P rounded up to `kWordsPerVector`, keeping each word-row
/// vector-aligned; surplus lanes and the tail bits beyond `num_samples()`
/// are zero, so case cells never need pad correction — only control cells
/// (derived as totals − case) inherit the combined planes' phantom
/// genotype-2 padding, exposed via `pad_bits()`.
class PhenotypeBatch {
 public:
  /// Packs `partitions` (each a per-sample 0/1 label vector of length
  /// `num_samples`) into label planes.  Throws std::invalid_argument on an
  /// empty batch, a size mismatch, or a label > 1.
  static PhenotypeBatch build(
      std::size_t num_samples,
      const std::vector<std::vector<Phenotype>>& partitions);

  /// Number of partitions P.
  std::size_t size() const { return cases_.size(); }
  std::size_t num_samples() const { return num_samples_; }
  /// Padded words per label plane (matches the combined planes' row length).
  std::size_t words() const { return words_; }
  /// Lane stride between consecutive sample words of one partition.
  std::size_t stride() const { return stride_; }
  /// Word-interleaved label planes: word `w` of partition `p` is at
  /// `word_labels()[w * stride() + p]`.
  const Word* word_labels() const { return labels_.data(); }
  /// Case count of partition `p` (its per-partition sample split).
  std::size_t cases(std::size_t p) const { return cases_[p]; }
  /// Zero-padding tail bits shared by every partition's sample space.
  std::size_t pad_bits() const { return words_ * kWordBits - num_samples_; }

 private:
  std::size_t num_samples_ = 0;
  std::size_t words_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::size_t> cases_;
  aligned_vector<Word> labels_;  // [word][partition lane]
};

// ---------------------------------------------------------------------------
// V3 (GPU): transposed layout for coalesced loads
// ---------------------------------------------------------------------------

/// Sample-word-major layout: for a fixed sample word, the planes of all
/// SNPs are adjacent, so consecutive GPU threads (which own consecutive SNP
/// triplets) load consecutive memory — the coalescing condition of §IV-B.
class TransposedPlanes {
 public:
  static TransposedPlanes build(const GenotypeMatrix& d);

  std::size_t num_snps() const { return num_snps_; }
  std::size_t samples(int c) const { return samples_[static_cast<std::size_t>(c)]; }
  std::size_t words(int c) const { return words_[static_cast<std::size_t>(c)]; }
  std::size_t pad_bits(int c) const {
    return words(c) * kWordBits - samples(c);
  }

  /// Word `w` of the genotype-`g` plane of `snp` in class `c`.
  Word word(int c, std::size_t w, std::size_t snp, int g) const {
    return planes_[static_cast<std::size_t>(c)]
                  [(w * num_snps_ + snp) * 2 + static_cast<std::size_t>(g)];
  }

  /// Base pointer for cost-model / stride analysis.
  const Word* data(int c) const {
    return planes_[static_cast<std::size_t>(c)].data();
  }
  /// Distance in words between the same plane of SNP m and SNP m+1 for a
  /// fixed sample word (the coalescing stride).
  std::size_t snp_stride() const { return 2; }

 private:
  std::size_t num_snps_ = 0;
  std::array<std::size_t, 2> samples_{};
  std::array<std::size_t, 2> words_{};
  std::array<aligned_vector<Word>, 2> planes_;  // [word][snp][genotype(2)]
};

// ---------------------------------------------------------------------------
// V4 (GPU): SNP-tiled layout
// ---------------------------------------------------------------------------

/// Tiled layout: SNPs are grouped in tiles of `tile` SNPs; within a tile the
/// `tile` words belonging to one sample word are adjacent.  This bounds the
/// stride between consecutive sample words of the same SNP to `tile` words,
/// improving cache-line reuse inside a thread group of size `tile` (§IV-B).
class TiledPlanes {
 public:
  /// `tile` is the paper's BS; "for most architectures a multiple of 32/64".
  static TiledPlanes build(const GenotypeMatrix& d, std::size_t tile);

  std::size_t num_snps() const { return num_snps_; }
  std::size_t tile() const { return tile_; }
  /// SNP count rounded up to a whole number of tiles.
  std::size_t padded_snps() const { return padded_snps_; }
  std::size_t samples(int c) const { return samples_[static_cast<std::size_t>(c)]; }
  std::size_t words(int c) const { return words_[static_cast<std::size_t>(c)]; }
  std::size_t pad_bits(int c) const {
    return words(c) * kWordBits - samples(c);
  }

  Word word(int c, std::size_t w, std::size_t snp, int g) const {
    const std::size_t tile_idx = snp / tile_;
    const std::size_t in_tile = snp % tile_;
    return planes_[static_cast<std::size_t>(c)]
                  [(((tile_idx * words_[static_cast<std::size_t>(c)]) + w) * tile_ +
                    in_tile) * 2 + static_cast<std::size_t>(g)];
  }

  const Word* data(int c) const {
    return planes_[static_cast<std::size_t>(c)].data();
  }

 private:
  std::size_t num_snps_ = 0;
  std::size_t padded_snps_ = 0;
  std::size_t tile_ = 0;
  std::array<std::size_t, 2> samples_{};
  std::array<std::size_t, 2> words_{};
  std::array<aligned_vector<Word>, 2> planes_;  // [tile][word][snp-in-tile][g]
};

}  // namespace trigen::dataset
