#include "trigen/dataset/bitplanes.hpp"

#include <bit>
#include <stdexcept>

namespace trigen::dataset {
namespace {

/// Per-class sample index: maps sample j to its position inside the class
/// plane (controls keep their relative order, as do cases).
struct ClassIndex {
  std::array<std::vector<std::size_t>, 2> members;

  explicit ClassIndex(std::span<const Phenotype> phenotypes) {
    for (std::size_t j = 0; j < phenotypes.size(); ++j) {
      members[phenotypes[j]].push_back(j);
    }
  }
};

void set_bit(Word* plane, std::size_t pos) {
  plane[pos / kWordBits] |= Word{1} << (pos % kWordBits);
}

/// The class index of `split`'s samples, given the per-sample phenotypes
/// the planes were split by; throws when they cannot be those phenotypes.
ClassIndex split_class_index(const PhenoSplitPlanes& split,
                             std::span<const Phenotype> phenotypes) {
  for (const Phenotype p : phenotypes) {
    if (p > 1) throw std::invalid_argument("bitplanes: phenotype out of range");
  }
  ClassIndex idx(phenotypes);
  if (idx.members[0].size() != split.samples(0) ||
      idx.members[1].size() != split.samples(1)) {
    throw std::invalid_argument(
        "bitplanes: phenotypes do not match the split planes' classes");
  }
  return idx;
}

/// Calls `fn(m, g, j)` for every sample j whose genotype at SNP m is g in
/// {0, 1}, read back from the class-split planes' set bits.
template <typename Fn>
void for_each_stored_genotype(const PhenoSplitPlanes& split,
                              const ClassIndex& idx, Fn&& fn) {
  for (std::size_t m = 0; m < split.num_snps(); ++m) {
    for (int c = 0; c < 2; ++c) {
      const auto& members = idx.members[static_cast<std::size_t>(c)];
      for (int g = 0; g < 2; ++g) {
        const Word* plane = split.plane(c, m, g);
        for (std::size_t w = 0; w < words_for(members.size()); ++w) {
          for (Word bits = plane[w]; bits != 0; bits &= bits - 1) {
            fn(m, g, members[w * kWordBits +
                             static_cast<std::size_t>(std::countr_zero(bits))]);
          }
        }
      }
    }
  }
}

}  // namespace

BitPlanesV1 BitPlanesV1::build(const GenotypeMatrix& d) {
  return build(PhenoSplitPlanes::build(d), d.phenotypes());
}

BitPlanesV1 BitPlanesV1::build(const PhenoSplitPlanes& split,
                               std::span<const Phenotype> phenotypes) {
  const ClassIndex idx = split_class_index(split, phenotypes);
  BitPlanesV1 out;
  out.num_snps_ = split.num_snps();
  out.num_samples_ = phenotypes.size();
  out.words_ = padded_words_for(out.num_samples_);
  out.planes_.assign(out.num_snps_ * 3 * out.words_, 0);
  out.pheno_.assign(out.words_, 0);
  for (const std::size_t j : idx.members[1]) set_bit(out.pheno_.data(), j);
  for_each_stored_genotype(split, idx, [&](std::size_t m, int g,
                                           std::size_t j) {
    set_bit(out.planes_.data() + (m * 3 + static_cast<std::size_t>(g)) *
                                     out.words_,
            j);
  });
  // Genotype 2: every real sample that neither stored plane holds; the
  // tail bits past the last sample stay zero.
  const std::size_t used = words_for(out.num_samples_);
  const std::size_t tail = out.num_samples_ % kWordBits;
  for (std::size_t m = 0; m < out.num_snps_; ++m) {
    Word* g = out.planes_.data() + m * 3 * out.words_;
    for (std::size_t w = 0; w < used; ++w) {
      const Word real = w + 1 == used && tail != 0
                            ? (Word{1} << tail) - 1
                            : ~Word{0};
      g[2 * out.words_ + w] = ~(g[w] | g[out.words_ + w]) & real;
    }
  }
  return out;
}

PhenoSplitPlanes PhenoSplitPlanes::build(const GenotypeMatrix& d) {
  PhenoSplitPlanes out;
  out.num_snps_ = d.num_snps();
  const ClassIndex idx(d.phenotypes());
  for (int c = 0; c < 2; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    out.samples_[cs] = idx.members[cs].size();
    out.words_[cs] = padded_words_for(out.samples_[cs]);
    out.planes_[cs].assign(out.num_snps_ * 2 * out.words_[cs], 0);
    out.counts_[cs].assign(out.num_snps_ * 2, 0);
  }
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    for (int c = 0; c < 2; ++c) {
      const auto cs = static_cast<std::size_t>(c);
      for (std::size_t p = 0; p < idx.members[cs].size(); ++p) {
        const int g = d.at(m, idx.members[cs][p]);
        if (g <= 1) {  // genotype 2 is implicit: NOR(plane0, plane1)
          const std::size_t row = m * 2 + static_cast<std::size_t>(g);
          set_bit(out.planes_[cs].data() + row * out.words_[cs], p);
          ++out.counts_[cs][row];
        }
      }
    }
  }
  return out;
}

PhenoSplitPlanes PhenoSplitPlanes::build_combined(const GenotypeMatrix& d) {
  return build_combined(build(d), d.phenotypes());
}

PhenoSplitPlanes PhenoSplitPlanes::build_combined(
    const PhenoSplitPlanes& split, std::span<const Phenotype> phenotypes) {
  const ClassIndex idx = split_class_index(split, phenotypes);
  // Class 0 holds all samples in their original order; class 1 stays
  // empty (the batched engines split per partition via label planes
  // instead of a baked-in phenotype).
  PhenoSplitPlanes out;
  out.num_snps_ = split.num_snps();
  out.samples_[0] = phenotypes.size();
  out.words_[0] = padded_words_for(out.samples_[0]);
  out.planes_[0].assign(out.num_snps_ * 2 * out.words_[0], 0);
  for (auto& counts : out.counts_) counts.assign(out.num_snps_ * 2, 0);
  for_each_stored_genotype(split, idx, [&](std::size_t m, int g,
                                           std::size_t j) {
    const std::size_t row = m * 2 + static_cast<std::size_t>(g);
    set_bit(out.planes_[0].data() + row * out.words_[0], j);
  });
  for (std::size_t row = 0; row < split.num_snps() * 2; ++row) {
    out.counts_[0][row] = split.counts_[0][row] + split.counts_[1][row];
  }
  return out;
}

PhenotypeBatch PhenotypeBatch::build(
    std::size_t num_samples,
    const std::vector<std::vector<Phenotype>>& partitions) {
  if (partitions.empty())
    throw std::invalid_argument("PhenotypeBatch: empty batch");
  PhenotypeBatch out;
  out.num_samples_ = num_samples;
  out.words_ = padded_words_for(num_samples);
  // Round the lane count to a full vector so every word-row is aligned and
  // a kernel's widest label load never crosses into the next row.
  out.stride_ =
      (partitions.size() + kWordsPerVector - 1) / kWordsPerVector *
      kWordsPerVector;
  out.cases_.resize(partitions.size());
  out.labels_.assign(out.words_ * out.stride_, 0);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const auto& labels = partitions[p];
    if (labels.size() != num_samples)
      throw std::invalid_argument("PhenotypeBatch: partition size mismatch");
    std::size_t cases = 0;
    for (std::size_t j = 0; j < num_samples; ++j) {
      if (labels[j] > 1)
        throw std::invalid_argument("PhenotypeBatch: label out of range");
      if (labels[j] == 1) {
        out.labels_[(j / kWordBits) * out.stride_ + p] |=
            Word{1} << (j % kWordBits);
        ++cases;
      }
    }
    out.cases_[p] = cases;
  }
  return out;
}

TransposedPlanes TransposedPlanes::build(const GenotypeMatrix& d) {
  TransposedPlanes out;
  out.num_snps_ = d.num_snps();
  const ClassIndex idx(d.phenotypes());
  for (int c = 0; c < 2; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    out.samples_[cs] = idx.members[cs].size();
    out.words_[cs] = padded_words_for(out.samples_[cs]);
    out.planes_[cs].assign(out.words_[cs] * out.num_snps_ * 2, 0);
  }
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    for (int c = 0; c < 2; ++c) {
      const auto cs = static_cast<std::size_t>(c);
      for (std::size_t p = 0; p < idx.members[cs].size(); ++p) {
        const int g = d.at(m, idx.members[cs][p]);
        if (g <= 1) {
          const std::size_t w = p / kWordBits;
          const std::size_t bit = p % kWordBits;
          out.planes_[cs][(w * out.num_snps_ + m) * 2 +
                          static_cast<std::size_t>(g)] |= Word{1} << bit;
        }
      }
    }
  }
  return out;
}

TiledPlanes TiledPlanes::build(const GenotypeMatrix& d, std::size_t tile) {
  if (tile == 0) {
    throw std::invalid_argument("TiledPlanes: tile size must be non-zero");
  }
  TiledPlanes out;
  out.num_snps_ = d.num_snps();
  out.tile_ = tile;
  out.padded_snps_ = (d.num_snps() + tile - 1) / tile * tile;
  const ClassIndex idx(d.phenotypes());
  for (int c = 0; c < 2; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    out.samples_[cs] = idx.members[cs].size();
    out.words_[cs] = padded_words_for(out.samples_[cs]);
    out.planes_[cs].assign(
        (out.padded_snps_ / tile) * out.words_[cs] * tile * 2, 0);
  }
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    const std::size_t tile_idx = m / tile;
    const std::size_t in_tile = m % tile;
    for (int c = 0; c < 2; ++c) {
      const auto cs = static_cast<std::size_t>(c);
      for (std::size_t p = 0; p < idx.members[cs].size(); ++p) {
        const int g = d.at(m, idx.members[cs][p]);
        if (g <= 1) {
          const std::size_t w = p / kWordBits;
          const std::size_t bit = p % kWordBits;
          const std::size_t index =
              (((tile_idx * out.words_[cs]) + w) * tile + in_tile) * 2 +
              static_cast<std::size_t>(g);
          out.planes_[cs][index] |= Word{1} << bit;
        }
      }
    }
  }
  return out;
}

}  // namespace trigen::dataset
