#pragma once
/// \file contingency.hpp
/// \brief The 3^k x 2 frequency table at the heart of k-way epistasis
/// (Fig. 1).
///
/// For an evaluated SNP combination, cell (i, j) holds the number of samples
/// of phenotype class j (0 = control, 1 = case) whose genotype combination
/// is i = sum g_l * 3^(k-1-l).  Every kernel in the repository — CPU V1-V5,
/// the GPU-simulator kernels, and the MPI3SNP-style baseline — produces this
/// exact structure, which is what makes them cross-checkable bit-for-bit.
/// Every order instantiates one template; `ContingencyTable` names the
/// paper's 27x2 triplet table.

#include <array>
#include <cstdint>
#include <stdexcept>

#include "trigen/dataset/genotype_matrix.hpp"

namespace trigen::scoring {

/// Number of genotype combinations at interaction order `k`: 3^k.
constexpr std::size_t num_cells(unsigned k) {
  std::size_t v = 1;
  for (unsigned i = 0; i < k; ++i) v *= 3;
  return v;
}

/// Cell index for a triplet genotype combination.
constexpr int cell_index(int gx, int gy, int gz) {
  return gx * 9 + gy * 3 + gz;
}

/// 3^K x 2 frequency table of one order-K SNP combination.
template <unsigned K>
struct BasicContingencyTable {
  static constexpr std::size_t kNumCells = num_cells(K);

  /// counts[j][i]: samples of class j with genotype combination i.
  std::array<std::array<std::uint32_t, kNumCells>, 2> counts{};

  /// at(g_0, ..., g_{K-1}, cls): count of class `cls` samples whose
  /// genotype combination is (g_0, ..., g_{K-1}).
  template <typename... A>
    requires(sizeof...(A) == K + 1)
  std::uint32_t at(A... args) const {
    const std::array<int, K + 1> a{static_cast<int>(args)...};
    std::size_t cell = 0;
    for (unsigned i = 0; i < K; ++i) {
      cell = cell * 3 + static_cast<std::size_t>(a[i]);
    }
    return counts[static_cast<std::size_t>(a[K])][cell];
  }

  /// Total samples of class `cls` accounted for.
  std::uint32_t class_total(int cls) const {
    std::uint32_t t = 0;
    for (const auto v : counts[static_cast<std::size_t>(cls)]) t += v;
    return t;
  }

  /// Total samples accounted for (both classes).
  std::uint32_t total() const { return class_total(0) + class_total(1); }

  friend bool operator==(const BasicContingencyTable&,
                         const BasicContingencyTable&) = default;
};

/// 27x2 frequency table of a SNP triplet.
using ContingencyTable = BasicContingencyTable<3>;

/// Ground-truth builder: counts genotype combinations directly from the
/// unencoded dataset with a per-sample loop over the SNPs `snps`.  O(N * k)
/// per combination — used only by tests and examples, never by the
/// kernels.  Throws std::out_of_range for an index past the dataset.
template <unsigned K>
BasicContingencyTable<K> reference_contingency_k(
    const dataset::GenotypeMatrix& d, const std::array<std::uint32_t, K>& snps) {
  for (const std::uint32_t s : snps) {
    if (s >= d.num_snps()) {
      throw std::out_of_range(
          "reference_contingency_k: SNP index out of range");
    }
  }
  BasicContingencyTable<K> t;
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    std::size_t cell = 0;
    for (unsigned i = 0; i < K; ++i) {
      cell = cell * 3 + static_cast<std::size_t>(d.at(snps[i], j));
    }
    ++t.counts[d.phenotype(j)][cell];
  }
  return t;
}

}  // namespace trigen::scoring
