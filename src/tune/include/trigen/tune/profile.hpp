#pragma once
/// \file profile.hpp
/// \brief The host fingerprint: what makes a performance measurement
/// transferable between two runs.
///
/// All that is left of the retired empirical autotuner.  The benchmark
/// (perfbench) stamps this fingerprint into every report so results from
/// different machines are never compared as if they came from one; it
/// links `trigen::tune` and includes this header for that alone.

#include <cstddef>
#include <cstdint>
#include <string>

namespace trigen::tune {

/// Same CPU, same compiled feature set, same L1 geometry, same node count.
struct HostFingerprint {
  std::string cpu_brand;
  std::uint32_t feature_mask = 0;  ///< CpuFeatures bits, see profile.cpp
  std::size_t l1_size_bytes = 0;
  unsigned l1_ways = 0;
  unsigned numa_nodes = 1;

  bool operator==(const HostFingerprint&) const = default;

  /// FNV-1a 64 over every field.
  std::uint64_t digest() const;
};

/// Fingerprint of the executing host (cached after the first call).
const HostFingerprint& this_host_fingerprint();

}  // namespace trigen::tune
