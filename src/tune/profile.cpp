#include "trigen/tune/profile.hpp"

#include "trigen/common/cpuid.hpp"
#include "trigen/common/durable.hpp"
#include "trigen/common/numa.hpp"
#include "trigen/core/tiling.hpp"

namespace trigen::tune {

std::uint64_t HostFingerprint::digest() const {
  std::uint64_t h = kFnv1aBasis;
  h = fnv1a64(h, cpu_brand.data(), cpu_brand.size());
  h = fnv1a64_u64(h, feature_mask);
  h = fnv1a64_u64(h, l1_size_bytes);
  h = fnv1a64_u64(h, l1_ways);
  h = fnv1a64_u64(h, numa_nodes);
  return h;
}

const HostFingerprint& this_host_fingerprint() {
  static const HostFingerprint fp = [] {
    HostFingerprint f;
    f.cpu_brand = cpu_brand_string();
    const CpuFeatures& feats = cpu_features();
    f.feature_mask = (feats.sse42 ? 1u : 0u) | (feats.avx2 ? 2u : 0u) |
                     (feats.avx512f ? 4u : 0u) | (feats.avx512bw ? 8u : 0u) |
                     (feats.avx512vl ? 16u : 0u) |
                     (feats.avx512vpopcntdq ? 32u : 0u);
    const core::L1Config l1 = core::detect_l1_config();
    f.l1_size_bytes = l1.size_bytes;
    f.l1_ways = l1.ways;
    f.numa_nodes = numa_topology().nodes();
    return f;
  }();
  return fp;
}

}  // namespace trigen::tune
