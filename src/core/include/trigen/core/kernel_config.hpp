#pragma once
/// \file kernel_config.hpp
/// \brief The kernel family that dominates a scan configuration.
///
/// `KernelFamily` and `scan_kernel_family` (detector.hpp) stay only because
/// the benchmark's traced probes (perfbench/src/probes.cpp) switch over
/// them to name the kernel a workload's default scan runs.  Nothing in the
/// library branches on a family: every scan takes its ISA from
/// best_kernel_isa() or an explicit pin, and its tiles from an explicit pin
/// or the analytic autotune_tiling model (tiling.hpp).

namespace trigen::core {

/// The kernel family a scan configuration's hot loop is dominated by: one
/// per (order band, ladder rung), plus the V5 build phase on its own.
enum class KernelFamily {
  kPairCount,          ///< order 2, counts-only pair kernel (V3–V5)
  kTripleBlock,        ///< order 3, direct triple-block kernel (V4)
  kTripleBlockCached,  ///< order 3, pair-plane-cached two-phase V5
  kPairPlaneBuild,     ///< V5 phase 1 in isolation (nine-plane build)
  kTupleBlock,         ///< order >= 4, direct order-generic kernel (V4)
  kPrefixLadder,       ///< order >= 4, prefix-extend + finalize ladder (V5)
  kFinalizeBatched,    ///< batched multi-phenotype finalize (run_batched)
};

}  // namespace trigen::core
