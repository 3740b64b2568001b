#include <array>
#include <bit>
#include <stdexcept>

#include "kernels_detail.hpp"
#include "trigen/core/kernels.hpp"

namespace trigen::core {

namespace detail {

void triple_block_scalar(const Word* TRIGEN_RESTRICT x0,
                         const Word* TRIGEN_RESTRICT x1,
                         const Word* TRIGEN_RESTRICT y0,
                         const Word* TRIGEN_RESTRICT y1,
                         const Word* TRIGEN_RESTRICT z0,
                         const Word* TRIGEN_RESTRICT z1,
                         std::size_t w_begin, std::size_t w_end,
                         std::uint32_t* TRIGEN_RESTRICT ft27) {
  for (std::size_t w = w_begin; w < w_end; ++w) {
    const Word xg[3] = {x0[w], x1[w], static_cast<Word>(~(x0[w] | x1[w]))};
    const Word yg[3] = {y0[w], y1[w], static_cast<Word>(~(y0[w] | y1[w]))};
    const Word zg[3] = {z0[w], z1[w], static_cast<Word>(~(z0[w] | z1[w]))};
    int cell = 0;
    for (int gx = 0; gx < 3; ++gx) {
      for (int gy = 0; gy < 3; ++gy) {
        const Word xy = xg[gx] & yg[gy];
        for (int gz = 0; gz < 3; ++gz) {
          ft27[cell++] += static_cast<std::uint32_t>(std::popcount(xy & zg[gz]));
        }
      }
    }
  }
}

void pair_plane_build_scalar(const Word* TRIGEN_RESTRICT x0,
                             const Word* TRIGEN_RESTRICT x1,
                             const Word* TRIGEN_RESTRICT y0,
                             const Word* TRIGEN_RESTRICT y1,
                             std::size_t w_begin, std::size_t w_end,
                             Word* TRIGEN_RESTRICT xy, std::size_t stride,
                             std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  for (std::size_t w = w_begin; w < w_end; ++w) {
    const Word xg[3] = {x0[w], x1[w], static_cast<Word>(~(x0[w] | x1[w]))};
    const Word yg[3] = {y0[w], y1[w], static_cast<Word>(~(y0[w] | y1[w]))};
    const std::size_t rel = w - w_begin;
    for (int p = 0; p < 9; ++p) {
      const Word v = xg[p / 3] & yg[p % 3];
      xy[static_cast<std::size_t>(p) * stride + rel] = v;
      xy_pop9[p] += static_cast<std::uint32_t>(std::popcount(v));
    }
  }
}

void pair_plane_count_scalar(const Word* TRIGEN_RESTRICT x0,
                             const Word* TRIGEN_RESTRICT x1,
                             const Word* TRIGEN_RESTRICT y0,
                             const Word* TRIGEN_RESTRICT y1,
                             std::size_t w_begin, std::size_t w_end,
                             std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  std::uint32_t c00 = 0, c01 = 0, c10 = 0, c11 = 0;
  for (std::size_t w = w_begin; w < w_end; ++w) {
    c00 += static_cast<std::uint32_t>(std::popcount(x0[w] & y0[w]));
    c01 += static_cast<std::uint32_t>(std::popcount(x0[w] & y1[w]));
    c10 += static_cast<std::uint32_t>(std::popcount(x1[w] & y0[w]));
    c11 += static_cast<std::uint32_t>(std::popcount(x1[w] & y1[w]));
  }
  xy_pop9[0] += c00;
  xy_pop9[1] += c01;
  xy_pop9[3] += c10;
  xy_pop9[4] += c11;
}

void triple_block_cached_scalar(const Word* TRIGEN_RESTRICT xy,
                                std::size_t stride,
                                const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
                                const Word* TRIGEN_RESTRICT z0,
                                const Word* TRIGEN_RESTRICT z1,
                                std::size_t w_begin, std::size_t w_end,
                                std::uint32_t* TRIGEN_RESTRICT ft27) {
  const std::size_t n = w_end - w_begin;
  for (int p = 0; p < 9; ++p) {
    const Word* TRIGEN_RESTRICT xyp =
        xy + static_cast<std::size_t>(p) * stride;
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const Word v = xyp[r];
      c0 += static_cast<std::uint32_t>(std::popcount(v & z0[w_begin + r]));
      c1 += static_cast<std::uint32_t>(std::popcount(v & z1[w_begin + r]));
    }
    const int cell = (p / 3) * 9 + (p % 3) * 3;
    ft27[cell] += c0;
    ft27[cell + 1] += c1;
    ft27[cell + 2] += xy_pop9[p] - c0 - c1;
  }
}

void prefix_extend_scalar(const Word* TRIGEN_RESTRICT prefix,
                          std::size_t count, std::size_t stride,
                          const Word* TRIGEN_RESTRICT s0,
                          const Word* TRIGEN_RESTRICT s1, std::size_t w_begin,
                          std::size_t w_end, Word* TRIGEN_RESTRICT out,
                          std::size_t out_stride,
                          std::uint32_t* TRIGEN_RESTRICT out_pops) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    Word* TRIGEN_RESTRICT o0 = out + (t * 3 + 0) * out_stride;
    Word* TRIGEN_RESTRICT o1 = out + (t * 3 + 1) * out_stride;
    Word* TRIGEN_RESTRICT o2 = out + (t * 3 + 2) * out_stride;
    std::uint32_t c0 = 0, c1 = 0, c2 = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const Word p = pt[r];
      const Word a = p & s0[w_begin + r];
      const Word b = p & s1[w_begin + r];
      // Partition identity: a and b are disjoint subsets of p, so the
      // genotype-2 child (padding included, like the NOR planes) is the
      // XOR remainder.
      const Word c = p ^ a ^ b;
      o0[r] = a;
      o1[r] = b;
      o2[r] = c;
      c0 += static_cast<std::uint32_t>(std::popcount(a));
      c1 += static_cast<std::uint32_t>(std::popcount(b));
      c2 += static_cast<std::uint32_t>(std::popcount(c));
    }
    if (out_pops != nullptr) {
      out_pops[t * 3 + 0] += c0;
      out_pops[t * 3 + 1] += c1;
      out_pops[t * 3 + 2] += c2;
    }
  }
}

void prefix_extend01_scalar(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT s0, const Word* TRIGEN_RESTRICT s1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT out,
    std::size_t out_stride, std::uint32_t* TRIGEN_RESTRICT out_pops) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    Word* TRIGEN_RESTRICT o0 = out + (t * 2 + 0) * out_stride;
    Word* TRIGEN_RESTRICT o1 = out + (t * 2 + 1) * out_stride;
    std::uint32_t c0 = 0, c1 = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const Word a = pt[r] & s0[w_begin + r];
      const Word b = pt[r] & s1[w_begin + r];
      o0[r] = a;
      o1[r] = b;
      c0 += static_cast<std::uint32_t>(std::popcount(a));
      c1 += static_cast<std::uint32_t>(std::popcount(b));
    }
    if (out_pops != nullptr) {
      out_pops[t * 2 + 0] += c0;
      out_pops[t * 2 + 1] += c1;
    }
  }
}

void prefix_final_scalar(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                         std::size_t stride,
                         const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                         const Word* TRIGEN_RESTRICT z0,
                         const Word* TRIGEN_RESTRICT z1, std::size_t w_begin,
                         std::size_t w_end,
                         std::uint32_t* TRIGEN_RESTRICT ft) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const Word v = pt[r];
      c0 += static_cast<std::uint32_t>(std::popcount(v & z0[w_begin + r]));
      c1 += static_cast<std::uint32_t>(std::popcount(v & z1[w_begin + r]));
    }
    ft[t * 3 + 0] += c0;
    ft[t * 3 + 1] += c1;
    ft[t * 3 + 2] += prefix_pops[t] - c0 - c1;
  }
}

void tuple_block_scalar(const Word* const* TRIGEN_RESTRICT g0,
                        const Word* const* TRIGEN_RESTRICT g1, unsigned k,
                        std::size_t w_begin, std::size_t w_end,
                        std::uint32_t* TRIGEN_RESTRICT ft) {
  Word g[combinatorics::kMaxOrder][3];
  for (std::size_t w = w_begin; w < w_end; ++w) {
    for (unsigned i = 0; i < k; ++i) {
      g[i][0] = g0[i][w];
      g[i][1] = g1[i][w];
      g[i][2] = static_cast<Word>(~(g[i][0] | g[i][1]));
    }
    // Depth-first product over the k genotype axes, reusing each partial
    // AND across its three children; cell = sum g_j * 3^(k-1-j).
    const auto descend = [&](const auto& self, unsigned i, Word acc,
                             std::size_t cell) -> void {
      if (i == k) {
        ft[cell] += static_cast<std::uint32_t>(std::popcount(acc));
        return;
      }
      for (int gi = 0; gi < 3; ++gi) {
        self(self, i + 1, acc & g[i][gi], cell * 3 + static_cast<std::size_t>(gi));
      }
    };
    descend(descend, 0, ~Word{0}, 0);
  }
}

void batch_label_pops_scalar(const Word* TRIGEN_RESTRICT prefix,
                             std::size_t count, std::size_t stride,
                             const Word* TRIGEN_RESTRICT labels,
                             std::size_t num_labels, std::size_t lstride,
                             std::size_t w_begin, std::size_t w_end,
                             std::uint32_t* TRIGEN_RESTRICT label_pops) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    for (std::size_t r = 0; r < n; ++r) {
      const Word v = pt[r];
      if (v == 0) continue;  // prefix planes thin out at deeper rungs
      const Word* TRIGEN_RESTRICT row = labels + (w_begin + r) * lstride;
      for (std::size_t p = 0; p < num_labels; ++p) {
        label_pops[t * lstride + p] +=
            static_cast<std::uint32_t>(std::popcount(v & row[p]));
      }
    }
  }
}

void batch_final_scalar(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                        std::size_t stride,
                        const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                        const std::uint32_t* TRIGEN_RESTRICT label_pops,
                        const Word* TRIGEN_RESTRICT z0,
                        const Word* TRIGEN_RESTRICT z1,
                        const Word* TRIGEN_RESTRICT labels,
                        std::size_t num_labels, std::size_t lstride,
                        std::size_t w_begin, std::size_t w_end,
                        std::uint32_t* TRIGEN_RESTRICT ft,
                        std::size_t ft_stride) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    for (std::size_t r = 0; r < n; ++r) {
      c0 += static_cast<std::uint32_t>(std::popcount(pt[r] & z0[w_begin + r]));
      c1 += static_cast<std::uint32_t>(std::popcount(pt[r] & z1[w_begin + r]));
    }
    ft[t * 3 + 0] += c0;
    ft[t * 3 + 1] += c1;
    ft[t * 3 + 2] += prefix_pops[t] - c0 - c1;
    // Partition identity per label lane: the genotype-2 case cell is the
    // chunk's |prefix ∩ L_p| minus the two counted case cells, so each
    // partition costs two AND+POPCNT streams instead of a third pass.
    for (std::size_t p = 0; p < num_labels; ++p) {
      std::uint32_t a0 = 0;
      std::uint32_t a1 = 0;
      for (std::size_t r = 0; r < n; ++r) {
        const Word v = pt[r];
        if (v == 0) continue;
        const Word l = labels[(w_begin + r) * lstride + p];
        a0 +=
            static_cast<std::uint32_t>(std::popcount(v & z0[w_begin + r] & l));
        a1 +=
            static_cast<std::uint32_t>(std::popcount(v & z1[w_begin + r] & l));
      }
      std::uint32_t* TRIGEN_RESTRICT ftp = ft + (1 + p) * ft_stride + t * 3;
      ftp[0] += a0;
      ftp[1] += a1;
      ftp[2] += label_pops[t * lstride + p] - a0 - a1;
    }
  }
}

}  // namespace detail

template <unsigned K>
scoring::BasicContingencyTable<K> contingency_v1(
    const dataset::BitPlanesV1& p, const combinatorics::Combination<K>& snps) {
  scoring::BasicContingencyTable<K> t;
  const Word* pheno = p.phenotype_plane();
  for (std::size_t cell = 0; cell < scoring::num_cells(K); ++cell) {
    std::array<const Word*, K> g;
    std::size_t rem = cell;
    for (unsigned i = K; i-- > 0;) {
      g[i] = p.plane(snps[i], static_cast<int>(rem % 3));
      rem /= 3;
    }
    std::uint32_t ctrl = 0;
    std::uint32_t cases = 0;
    for (std::size_t w = 0; w < p.words(); ++w) {
      Word v = g[0][w];
      for (unsigned i = 1; i < K; ++i) v &= g[i][w];
      cases += static_cast<std::uint32_t>(std::popcount(v & pheno[w]));
      ctrl += static_cast<std::uint32_t>(std::popcount(v & ~pheno[w]));
    }
    t.counts[0][cell] = ctrl;
    t.counts[1][cell] = cases;
  }
  return t;
}

template <unsigned K>
scoring::BasicContingencyTable<K> contingency_split(
    const dataset::PhenoSplitPlanes& p,
    const combinatorics::Combination<K>& snps, KernelIsa isa) {
  const DirectKernel<K> kernel = get_direct_kernel<K>(isa);
  scoring::BasicContingencyTable<K> t;
  std::array<const Word*, K> g0;
  std::array<const Word*, K> g1;
  for (int c = 0; c < 2; ++c) {
    for (unsigned i = 0; i < K; ++i) {
      g0[i] = p.plane(c, snps[i], 0);
      g1[i] = p.plane(c, snps[i], 1);
    }
    std::uint32_t* row = t.counts[static_cast<std::size_t>(c)].data();
    kernel(g0.data(), g1.data(), 0, p.words(c), row);
    complete_direct_row<K>(p, c, snps, row);
  }
  return t;
}

#define TRIGEN_CONTINGENCY_INSTANTIATE(K)                                    \
  template scoring::BasicContingencyTable<K> contingency_v1<K>(             \
      const dataset::BitPlanesV1&, const combinatorics::Combination<K>&);   \
  template scoring::BasicContingencyTable<K> contingency_split<K>(          \
      const dataset::PhenoSplitPlanes&, const combinatorics::Combination<K>&, \
      KernelIsa);
TRIGEN_CONTINGENCY_INSTANTIATE(2)
TRIGEN_CONTINGENCY_INSTANTIATE(3)
TRIGEN_CONTINGENCY_INSTANTIATE(4)
TRIGEN_CONTINGENCY_INSTANTIATE(5)
TRIGEN_CONTINGENCY_INSTANTIATE(6)
#undef TRIGEN_CONTINGENCY_INSTANTIATE

}  // namespace trigen::core
