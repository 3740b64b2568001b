#pragma once
/// \file simulator.hpp
/// \brief GPU execution simulator: functional run + performance estimate.
///
/// Substitution for the paper's physical GPUs (see DESIGN.md §2).  A
/// `GpuSimulator` owns the data layouts each GPU version would allocate on
/// the device, executes the per-thread work of Algorithm 2 on the host
/// (bit-exact), and attaches a roofline cost estimate for the modelled
/// device.  Launch semantics follow §IV-B: the combination space is cut in
/// B_Sched^3-combination enqueues; each thread keeps a running best score
/// and the final reduction happens on the host side.

#include <cstdint>
#include <memory>
#include <vector>

#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/topk.hpp"
#include "trigen/dataset/genotype_matrix.hpp"
#include "trigen/gpusim/cost_model.hpp"
#include "trigen/gpusim/device_spec.hpp"
#include "trigen/gpusim/gpu_kernels.hpp"

namespace trigen::gpusim {

/// Options for one simulated scan.
struct GpuRunOptions {
  GpuVersion version = GpuVersion::kV4Tiled;
  core::Objective objective = core::Objective::kK2;
  LaunchConfig launch{};
  std::size_t top_k = 1;
  /// Restrict to a rank sub-range (used by the heterogeneous scheduler);
  /// empty means the full combination space.
  combinatorics::RankRange range{0, 0};
};

/// Outcome of a simulated scan.
struct GpuRunResult {
  std::vector<core::ScoredOf<3>> best;  ///< best-first, normalized scores
  std::uint64_t triplets = 0;
  std::uint64_t elements = 0;   ///< triplets x samples
  std::uint64_t launches = 0;   ///< kernel enqueues (B_Sched^3 each)
  double host_seconds = 0;      ///< wall time of the functional execution
  CostEstimate cost;            ///< simulated device performance
};

/// Simulator instance bound to one device model and one dataset.
class GpuSimulator {
 public:
  GpuSimulator(GpuDeviceSpec spec, const dataset::GenotypeMatrix& d);
  ~GpuSimulator();

  GpuSimulator(const GpuSimulator&) = delete;
  GpuSimulator& operator=(const GpuSimulator&) = delete;

  /// Functionally executes the scan and estimates device time.
  GpuRunResult run(const GpuRunOptions& options = {}) const;

  const GpuDeviceSpec& spec() const;
  std::size_t num_snps() const;
  std::size_t num_samples() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace trigen::gpusim
