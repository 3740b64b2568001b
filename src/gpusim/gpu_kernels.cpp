#include "trigen/gpusim/gpu_kernels.hpp"

#include <bit>

#include "trigen/core/kernels.hpp"

namespace trigen::gpusim {

using dataset::Word;

std::string gpu_version_name(GpuVersion v) {
  switch (v) {
    case GpuVersion::kV1Naive: return "V1-naive";
    case GpuVersion::kV2Split: return "V2-split";
    case GpuVersion::kV3Transposed: return "V3-transposed";
    case GpuVersion::kV4Tiled: return "V4-tiled";
  }
  return "unknown";
}

scoring::ContingencyTable gpu_thread_v1(const dataset::BitPlanesV1& p,
                                        std::size_t x, std::size_t y,
                                        std::size_t z) {
  // Identical arithmetic to the CPU V1 kernel; on the GPU this is executed
  // by one thread with strided (gather-like) loads.
  return core::contingency_v1<3>(p, {static_cast<std::uint32_t>(x),
                                     static_cast<std::uint32_t>(y),
                                     static_cast<std::uint32_t>(z)});
}

scoring::ContingencyTable gpu_thread_v2(const dataset::PhenoSplitPlanes& p,
                                        std::size_t x, std::size_t y,
                                        std::size_t z) {
  return core::contingency_split<3>(p, {static_cast<std::uint32_t>(x),
                                        static_cast<std::uint32_t>(y),
                                        static_cast<std::uint32_t>(z)});
}

namespace {

/// Algorithm 2 body over a layout with a `word(c, w, snp, g)` accessor.
template <typename Layout>
scoring::ContingencyTable algorithm2(const Layout& p, std::size_t x,
                                     std::size_t y, std::size_t z) {
  scoring::ContingencyTable t;
  for (int c = 0; c < 2; ++c) {
    auto& row = t.counts[static_cast<std::size_t>(c)];
    for (std::size_t w = 0; w < p.words(c); ++w) {
      Word xg[3], yg[3], zg[3];
      xg[0] = p.word(c, w, x, 0);
      xg[1] = p.word(c, w, x, 1);
      xg[2] = ~(xg[0] | xg[1]);
      yg[0] = p.word(c, w, y, 0);
      yg[1] = p.word(c, w, y, 1);
      yg[2] = ~(yg[0] | yg[1]);
      zg[0] = p.word(c, w, z, 0);
      zg[1] = p.word(c, w, z, 1);
      zg[2] = ~(zg[0] | zg[1]);
      int cell = 0;
      for (int gx = 0; gx < 3; ++gx) {
        for (int gy = 0; gy < 3; ++gy) {
          const Word xy = xg[gx] & yg[gy];
          for (int gz = 0; gz < 3; ++gz) {
            row[static_cast<std::size_t>(cell++)] +=
                static_cast<std::uint32_t>(std::popcount(xy & zg[gz]));
          }
        }
      }
    }
    row[26] -= static_cast<std::uint32_t>(p.pad_bits(c));
  }
  return t;
}

}  // namespace

scoring::ContingencyTable gpu_thread_v3(const dataset::TransposedPlanes& p,
                                        std::size_t x, std::size_t y,
                                        std::size_t z) {
  return algorithm2(p, x, y, z);
}

scoring::ContingencyTable gpu_thread_v4(const dataset::TiledPlanes& p,
                                        std::size_t x, std::size_t y,
                                        std::size_t z) {
  return algorithm2(p, x, y, z);
}

}  // namespace trigen::gpusim
