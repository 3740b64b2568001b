#pragma once
/// \file characterize.hpp
/// \brief CARM characterization of the detection kernels (paper Fig. 2).
///
/// A kernel is one point (AI, performance): AI comes from the analytic
/// per-word operation/byte accounting of §IV-A (see gpusim/cost_model.hpp),
/// performance is ops/time with the time measured (CPU) or modelled (GPU).
/// `roofline_chart` renders the classic log-log roofline as ASCII so each
/// bench binary reproduces Fig. 2a/2b in the terminal and as CSV.

#include <string>
#include <vector>

#include "trigen/carm/roofs.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/dataset/genotype_matrix.hpp"
#include "trigen/gpusim/cost_model.hpp"
#include "trigen/gpusim/device_spec.hpp"

namespace trigen::carm {

/// One kernel's position in the CARM plane.
struct KernelPoint {
  std::string name;       ///< e.g. "V3-blocked"
  double ai = 0;          ///< [intop/byte]
  double gintops = 0;     ///< [G intop/s]
  double seconds = 0;     ///< run / modelled time
  double elements_per_second = 0;  ///< paper's combs x samples metric
};

/// Op-count accounting for a CPU ladder version (maps V1 to the naive mix
/// and V2..V4 to the phenotype-split mix).  V5's mix is its own: the 8
/// AND + 8 POPCNT per triplet word of the 2^k-cell order-3 path, plus the
/// prefix rung's 4 AND + 4 POPCNT per word amortized over `bs` (B_S, the
/// last-axis SNPs of a block; 5 is the paper's tile).
gpusim::OpMix cpu_op_mix(
    core::CpuVersion v,
    gpusim::OpCountModel model = gpusim::OpCountModel::kExact,
    std::size_t bs = 5);

/// Runs one CPU version and characterizes it.
KernelPoint characterize_cpu_version(
    const core::Detector& det, core::CpuVersion v, unsigned threads = 1,
    gpusim::OpCountModel model = gpusim::OpCountModel::kExact);

/// Runs the whole CPU ladder (V1..V4) on `d`.
std::vector<KernelPoint> characterize_cpu_ladder(
    const dataset::GenotypeMatrix& d, unsigned threads = 1,
    gpusim::OpCountModel model = gpusim::OpCountModel::kExact);

/// Characterizes the GPU ladder on a modelled device via the cost model
/// (no functional execution, so it works at any workload scale).
std::vector<KernelPoint> characterize_gpu_ladder(
    const gpusim::GpuDeviceSpec& dev, std::size_t num_snps,
    std::size_t num_samples,
    gpusim::OpCountModel model = gpusim::OpCountModel::kExact);

/// Renders an ASCII log2-log2 roofline chart with the kernel points
/// labelled 1..9 in order.
std::string roofline_chart(const CarmRoofs& roofs,
                           const std::vector<KernelPoint>& points,
                           int width = 72, int height = 22);

/// CSV rendering: name, ai, gintops, seconds, elements/s.
std::string points_csv(const std::vector<KernelPoint>& points);

}  // namespace trigen::carm
