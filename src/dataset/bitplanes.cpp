#include "trigen/dataset/bitplanes.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace trigen::dataset {
namespace {

/// The samples in class order, controls then cases, each class in its
/// original order: class c's plane bit p is sample `order[offset(c) + p]`.
struct ClassOrder {
  std::array<std::size_t, 2> samples{};
  std::vector<std::size_t> order;

  explicit ClassOrder(std::span<const Phenotype> phenotypes)
      : order(phenotypes.size()) {
    for (const Phenotype p : phenotypes) {
      if (p > 1) {
        throw std::invalid_argument("bitplanes: phenotype out of range");
      }
      ++samples[p];
    }
    std::array<std::size_t, 2> next{0, samples[0]};
    for (std::size_t j = 0; j < order.size(); ++j) {
      order[next[phenotypes[j]]++] = j;
    }
  }
  std::size_t offset(std::size_t c) const { return c == 0 ? 0 : samples[0]; }
};

/// Bit b set where byte b of the 32 at `bytes` equals `v`.
Word match_mask(const std::uint8_t* bytes, std::uint8_t v) {
#if defined(__SSE2__)
  const __m128i want = _mm_set1_epi8(static_cast<char>(v));
  const auto half = [&](std::size_t at) {
    const __m128i x = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(bytes + at));
    return static_cast<Word>(_mm_movemask_epi8(_mm_cmpeq_epi8(x, want)));
  };
  return half(0) | half(16) << 16;
#else
  Word w = 0;
  for (std::size_t b = 0; b < kWordBits; ++b) w |= Word{bytes[b] == v} << b;
  return w;
#endif
}

/// Packs the `n` bytes at `row` into one plane per value v < P: bit b of
/// word w of `planes[v]` is set when byte 32w + b is v.  The last, partial
/// word is packed from a copy padded with a byte that matches no value.
/// Returns each plane's set bits: a SNP's genotype counts.
template <std::size_t P>
std::array<std::uint32_t, P> pack_row(const std::uint8_t* row, std::size_t n,
                                      const std::array<Word*, P>& planes) {
  std::array<std::uint32_t, P> counts{};
  for (std::size_t w = 0; w < words_for(n); ++w) {
    const std::uint8_t* bytes = row + w * kWordBits;
    std::array<std::uint8_t, kWordBits> tail;
    if (n - w * kWordBits < kWordBits) {
      tail.fill(0xff);
      std::copy(bytes, row + n, tail.begin());
      bytes = tail.data();
    }
    for (std::size_t v = 0; v < P; ++v) {
      planes[v][w] = match_mask(bytes, static_cast<std::uint8_t>(v));
      counts[v] += static_cast<std::uint32_t>(std::popcount(planes[v][w]));
    }
  }
  return counts;
}

/// `kSpread[x]` holds bit i of `x` in byte i: 8 plane bits as 8 bytes.
constexpr auto kSpread = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::size_t x = 0; x < 256; ++x) {
    std::array<std::uint8_t, 8> bytes{};
    for (std::size_t i = 0; i < 8; ++i) bytes[i] = x >> i & 1;
    table[x] = std::bit_cast<std::uint64_t>(bytes);
  }
  return table;
}();

/// Calls `fn(m, row)` with each SNP's genotypes in original sample order,
/// read back from the split planes (2 where neither plane is set): each
/// class's words are spread to bytes, 8 at a time, then scattered to their
/// samples.  Throws unless `phenotypes` are the ones `split` was split by.
template <typename Fn>
void for_each_unsplit_row(const PhenoSplitPlanes& split,
                          std::span<const Phenotype> phenotypes, Fn&& fn) {
  const ClassOrder co(phenotypes);
  if (co.samples[0] != split.samples(0) || co.samples[1] != split.samples(1)) {
    throw std::invalid_argument(
        "bitplanes: phenotypes do not match the split planes' classes");
  }
  // Whole words are spread: class 1 overwrites class 0's tail word, and
  // class 1's tail word needs one word of slack.
  std::vector<std::uint8_t> cls(phenotypes.size() + kWordBits);
  std::vector<std::uint8_t> row(phenotypes.size());
  for (std::size_t m = 0; m < split.num_snps(); ++m) {
    for (int c = 0; c < 2; ++c) {
      const Word* g0 = split.plane(c, m, 0);
      const Word* g1 = split.plane(c, m, 1);
      for (std::size_t w = 0; w < words_for(split.samples(c)); ++w) {
        for (std::size_t i = 0; i < sizeof(Word); ++i) {
          const std::uint64_t bytes = 2 * kSpread[0xff] -
                                      2 * kSpread[g0[w] >> (8 * i) & 0xff] -
                                      kSpread[g1[w] >> (8 * i) & 0xff];
          std::memcpy(&cls[co.offset(c) + w * kWordBits + 8 * i], &bytes, 8);
        }
      }
    }
    for (std::size_t q = 0; q < co.order.size(); ++q) row[co.order[q]] = cls[q];
    fn(m, row.data());
  }
}

}  // namespace

BitPlanesV1 BitPlanesV1::build(const GenotypeMatrix& d) {
  return build(PhenoSplitPlanes::build(d), d.phenotypes());
}

BitPlanesV1 BitPlanesV1::build(const PhenoSplitPlanes& split,
                               std::span<const Phenotype> phenotypes) {
  BitPlanesV1 out;
  out.num_snps_ = split.num_snps();
  out.num_samples_ = phenotypes.size();
  out.words_ = padded_words_for(out.num_samples_);
  out.planes_.assign(out.num_snps_ * 3 * out.words_, 0);
  out.pheno_.assign(out.words_, 0);
  for_each_unsplit_row(split, phenotypes, [&](std::size_t m,
                                              const std::uint8_t* row) {
    Word* g = out.planes_.data() + m * 3 * out.words_;
    pack_row<3>(row, out.num_samples_, {g, g + out.words_, g + 2 * out.words_});
  });
  std::vector<Word> controls(out.words_);
  pack_row<2>(phenotypes.data(), out.num_samples_,
              {controls.data(), out.pheno_.data()});
  return out;
}

PhenoSplitPlanes PhenoSplitPlanes::build(const GenotypeMatrix& d) {
  const ClassOrder co(d.phenotypes());
  PhenoSplitPlanes out;
  out.num_snps_ = d.num_snps();
  out.samples_ = co.samples;
  for (std::size_t c = 0; c < 2; ++c) {
    out.words_[c] = padded_words_for(out.samples_[c]);
    out.planes_[c].assign(out.num_snps_ * 2 * out.words_[c], 0);
    out.counts_[c].assign(out.num_snps_ * 2, 0);
  }
  std::vector<std::uint8_t> cls(d.num_samples());
  for (std::size_t m = 0; m < out.num_snps_; ++m) {
    const Genotype* row = d.snp_row(m).data();
    for (std::size_t q = 0; q < co.order.size(); ++q) cls[q] = row[co.order[q]];
    for (std::size_t c = 0; c < 2; ++c) {  // genotype 2 is NOR(g0, g1)
      Word* g = out.planes_[c].data() + m * 2 * out.words_[c];
      const auto counts = pack_row<2>(cls.data() + co.offset(c),
                                      out.samples_[c], {g, g + out.words_[c]});
      std::copy(counts.begin(), counts.end(), out.counts_[c].begin() + 2 * m);
    }
  }
  return out;
}

PhenoSplitPlanes PhenoSplitPlanes::build_combined(const GenotypeMatrix& d) {
  return build_combined(build(d), d.phenotypes());
}

PhenoSplitPlanes PhenoSplitPlanes::build_combined(
    const PhenoSplitPlanes& split, std::span<const Phenotype> phenotypes) {
  // Class 0 holds all samples in their original order; class 1 stays
  // empty (the batched engines split per partition via label planes
  // instead of a baked-in phenotype).
  PhenoSplitPlanes out;
  out.num_snps_ = split.num_snps();
  out.samples_[0] = phenotypes.size();
  out.words_[0] = padded_words_for(out.samples_[0]);
  out.planes_[0].assign(out.num_snps_ * 2 * out.words_[0], 0);
  for (auto& counts : out.counts_) counts.assign(out.num_snps_ * 2, 0);
  for_each_unsplit_row(split, phenotypes, [&](std::size_t m,
                                              const std::uint8_t* row) {
    Word* g = out.planes_[0].data() + m * 2 * out.words_[0];
    const auto counts =
        pack_row<2>(row, out.samples_[0], {g, g + out.words_[0]});
    std::copy(counts.begin(), counts.end(), out.counts_[0].begin() + 2 * m);
  });
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
  out.planes_.assign(out.words_ * partitions.size(), 0);
  std::vector<Word> controls(out.words_);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const auto& labels = partitions[p];
    if (labels.size() != num_samples)
      throw std::invalid_argument("PhenotypeBatch: partition size mismatch");
    Word* cases = out.planes_.data() + p * out.words_;
    const auto counts =
        pack_row<2>(labels.data(), num_samples, {controls.data(), cases});
    if (counts[0] + counts[1] != num_samples)
      throw std::invalid_argument("PhenotypeBatch: label out of range");
    out.cases_[p] = counts[1];
    for (std::size_t w = 0; w < out.words_; ++w) {
      out.labels_[w * out.stride_ + p] = cases[w];
    }
  }
  return out;
}

TiledPlanes TiledPlanes::build(const GenotypeMatrix& d, std::size_t tile) {
  if (tile == 0) {
    throw std::invalid_argument("TiledPlanes: tile size must be non-zero");
  }
  const PhenoSplitPlanes split = PhenoSplitPlanes::build(d);
  TiledPlanes out;
  out.num_snps_ = split.num_snps();
  out.tile_ = tile;
  out.padded_snps_ = (out.num_snps_ + tile - 1) / tile * tile;
  // Word moves: word w of plane (m, g) of class c goes to its slot in
  // SNP m's tile; the SNPs that pad the last tile stay zero.
  for (int c = 0; c < 2; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    const std::size_t words = out.words_[cs] = split.words(c);
    out.samples_[cs] = split.samples(c);
    out.planes_[cs].assign(out.padded_snps_ * words * 2, 0);
    for (std::size_t m = 0; m < out.num_snps_; ++m) {
      for (int g = 0; g < 2; ++g) {
        for (std::size_t w = 0; w < words; ++w) {
          out.planes_[cs][((m / tile * words + w) * tile + m % tile) * 2 +
                          static_cast<std::size_t>(g)] =
              split.plane(c, m, g)[w];
        }
      }
    }
  }
  return out;
}

TransposedPlanes TransposedPlanes::build(const GenotypeMatrix& d) {
  TransposedPlanes out;
  static_cast<TiledPlanes&>(out) =
      TiledPlanes::build(d, std::max<std::size_t>(d.num_snps(), 1));
  return out;
}

}  // namespace trigen::dataset
