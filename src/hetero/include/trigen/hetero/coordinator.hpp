#pragma once
/// \file coordinator.hpp
/// \brief Heterogeneous CPU+GPU detection (paper §V-D, ref [30] style).
///
/// Splits the triplet rank space between the host CPU detector and a
/// (simulated) GPU in proportion to their throughputs, so both finish
/// together.  §V-D observes this only pays off when the CPU is within a
/// small factor of the GPU (e.g. CI3 at ~1100 Gcs/s next to a Titan RTX at
/// ~2200 adds 50%; a desktop CPU adds ~2%) — `estimate_hetero` quantifies
/// exactly that, and the projected CI3+GN1 pairing reproduces the paper's
/// "up to 3300 Giga combs x samples / s" figure.

#include <cstdint>
#include <memory>
#include <vector>

#include "trigen/core/detector.hpp"
#include "trigen/gpusim/simulator.hpp"

namespace trigen::hetero {

/// Pure-throughput composition estimate.
struct HeteroEstimate {
  double cpu_eps = 0;       ///< CPU elements/s
  double gpu_eps = 0;       ///< GPU elements/s
  double combined_eps = 0;  ///< cpu + gpu (perfect overlap)
  double cpu_share = 0;     ///< optimal fraction of ranks given to the CPU
  double speedup_vs_gpu = 1;  ///< combined / gpu-only
};

/// Optimal static split and resulting throughput for perfectly overlapped
/// devices.
HeteroEstimate estimate_hetero(double cpu_eps, double gpu_eps);

/// Options for a functional co-run.
struct HeteroOptions {
  core::Objective objective = core::Objective::kK2;
  /// Engine for the CPU share.  Defaults to the fastest rung, the
  /// pair-plane-cached blocked V5; must be a blocked version (V3/V4/V5) so
  /// the partial-range scan runs at full speed.
  core::CpuVersion cpu_version = core::CpuVersion::kV5PairCache;
  unsigned cpu_threads = 1;
  /// Fraction of the rank space handled by the CPU; negative = derive the
  /// optimal share from a calibration sample plus the GPU cost model.
  double cpu_share = -1.0;
  std::size_t top_k = 1;
  gpusim::GpuVersion gpu_version = gpusim::GpuVersion::kV4Tiled;
  gpusim::LaunchConfig launch{};
  /// Optional empirical-tuning lookup for the CPU side (see
  /// core/kernel_config.hpp).  Consulted once before calibration so probe
  /// and production scan share one pinned (ISA, tiling); a miss or unset
  /// resolver keeps the analytic model.
  core::ConfigResolver config{};
};

/// Outcome of a co-run.
struct HeteroResult {
  std::vector<core::ScoredOf<3>> best;  ///< merged, best-first
  std::uint64_t cpu_triplets = 0;
  std::uint64_t gpu_triplets = 0;
  double cpu_share = 0;
  double cpu_seconds = 0;      ///< measured host time of the CPU part
  double gpu_sim_seconds = 0;  ///< modelled device time of the GPU part
  /// Simulated wall time under perfect overlap: max of the two sides.
  double overlap_seconds = 0;
  /// Engine the CPU side ran (or would run, when its share is zero): the
  /// range-partitioned blocked engine from `HeteroOptions::cpu_version`
  /// (default V5 pair-plane-cached) with the widest kernel the host
  /// supports.
  core::CpuVersion cpu_version = core::CpuVersion::kV5PairCache;
  core::KernelIsa cpu_isa_used = core::KernelIsa::kScalar;
  /// CPU elements/s measured during calibration (0 when `cpu_share` was
  /// given explicitly).
  double cpu_calibrated_eps = 0;
};

/// Coordinator bound to one dataset and one modelled GPU.
class HeteroCoordinator {
 public:
  HeteroCoordinator(const dataset::GenotypeMatrix& d,
                    gpusim::GpuDeviceSpec gpu);
  ~HeteroCoordinator();

  HeteroCoordinator(const HeteroCoordinator&) = delete;
  HeteroCoordinator& operator=(const HeteroCoordinator&) = delete;

  /// Functional co-run: CPU detector (blocked engine on a partial rank
  /// range, widest vector kernel, V5 pair-plane-cached by default) on
  /// [0, s), simulated GPU on [s, total).  Every triplet is evaluated
  /// exactly once across the two devices.
  HeteroResult run(const HeteroOptions& options = {}) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace trigen::hetero
