#include "trigen/hetero/coordinator.hpp"

#include <algorithm>
#include <stdexcept>

#include "trigen/common/stopwatch.hpp"
#include "trigen/core/tiling.hpp"

namespace trigen::hetero {

HeteroEstimate estimate_hetero(double cpu_eps, double gpu_eps) {
  HeteroEstimate e;
  e.cpu_eps = cpu_eps;
  e.gpu_eps = gpu_eps;
  e.combined_eps = cpu_eps + gpu_eps;
  e.cpu_share = e.combined_eps > 0 ? cpu_eps / e.combined_eps : 0.0;
  e.speedup_vs_gpu = gpu_eps > 0 ? e.combined_eps / gpu_eps : 1.0;
  return e;
}

struct HeteroCoordinator::Impl {
  core::Detector detector;
  gpusim::GpuSimulator gpu;
  std::size_t num_snps;
  std::size_t num_samples;

  Impl(const dataset::GenotypeMatrix& d, gpusim::GpuDeviceSpec spec)
      : detector(d), gpu(std::move(spec), d), num_snps(d.num_snps()),
        num_samples(d.num_samples()) {}
};

HeteroCoordinator::HeteroCoordinator(const dataset::GenotypeMatrix& d,
                                     gpusim::GpuDeviceSpec gpu)
    : impl_(std::make_unique<Impl>(d, std::move(gpu))) {}

HeteroCoordinator::~HeteroCoordinator() = default;

HeteroResult HeteroCoordinator::run(const HeteroOptions& options) const {
  if (options.cpu_share > 1.0) {
    throw std::invalid_argument("HeteroOptions::cpu_share must be <= 1");
  }
  const std::uint64_t total = combinatorics::n_choose_k(impl_->num_snps, 3);

  // The CPU side runs at full blocked speed on a partial rank range — the
  // range-aware blocked engine is what makes the co-run competitive (§V-D
  // only pays off when the CPU is within a small factor of the GPU).  The
  // engine defaults to the pair-plane-cached V5 rung; its autotuned tiling
  // budgets L1 for the cache.
  core::DetectorOptions cpu_base;
  cpu_base.version = options.cpu_version;
  // Resolve (ISA, tiling) once and pin it, so the calibration probe below
  // measures exactly the configuration the real partial scan runs.
  cpu_base.isa = core::best_kernel_isa();
  cpu_base.isa_auto = false;
  cpu_base.objective = options.objective;
  cpu_base.threads = options.cpu_threads;
  cpu_base.tiling = core::autotune_tiling(
      core::detect_l1_config(), core::kernel_vector_words(cpu_base.isa), 3,
      cpu_base.version == core::CpuVersion::kV5PairCache);

  HeteroResult result;
  result.cpu_version = cpu_base.version;
  result.cpu_isa_used = cpu_base.isa;

  double share = options.cpu_share;
  if (share < 0.0) {
    // Calibrate: measure the CPU on a small prefix, model the GPU, and
    // split so both sides finish together.  The prefix is z-aligned to the
    // tiling: [0, C(z*,3)) with z* a multiple of B_S is an exact union of
    // whole block triples, so the blocked probe spends no kernel work on
    // out-of-range triplets and elements/s reflects true V4 throughput.
    const std::uint64_t target =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(total / 10, 2000));
    const std::uint64_t bs = cpu_base.tiling.bs;
    std::uint64_t z_star = 3;
    while (combinatorics::n_choose_k(z_star, 3) < target) ++z_star;
    z_star = std::min<std::uint64_t>((z_star + bs - 1) / bs * bs,
                                     impl_->num_snps);
    const std::uint64_t sample = std::max<std::uint64_t>(
        1, std::min(combinatorics::n_choose_k(z_star, 3), total));
    core::DetectorOptions probe = cpu_base;
    probe.range = {0, sample};
    const double cpu_eps =
        impl_->detector.run(probe).elements_per_second();
    result.cpu_calibrated_eps = cpu_eps;

    gpusim::GpuRunOptions gprobe;
    gprobe.version = options.gpu_version;
    gprobe.launch = options.launch;
    gprobe.range = {0, std::max<std::uint64_t>(1, total / 10)};
    const double gpu_eps =
        impl_->gpu.run(gprobe).cost.elements_per_second;
    share = estimate_hetero(cpu_eps, gpu_eps).cpu_share;
  }

  const auto cpu_count = static_cast<std::uint64_t>(
      static_cast<double>(total) * std::clamp(share, 0.0, 1.0));

  result.cpu_share = share;
  result.cpu_triplets = cpu_count;
  result.gpu_triplets = total - cpu_count;

  core::BasicTopK<core::ScoredOf<3>> merged(options.top_k);

  if (cpu_count > 0) {
    core::DetectorOptions copt = cpu_base;
    copt.top_k = options.top_k;
    copt.range = {0, cpu_count};
    const core::DetectionResult r = impl_->detector.run(copt);
    result.cpu_seconds = r.seconds;
    result.cpu_isa_used = r.isa_used;
    for (const auto& s : r.best) merged.push(s);
  }
  if (cpu_count < total) {
    gpusim::GpuRunOptions gopt;
    gopt.version = options.gpu_version;
    gopt.objective = options.objective;
    gopt.launch = options.launch;
    gopt.top_k = options.top_k;
    gopt.range = {cpu_count, total};
    const gpusim::GpuRunResult r = impl_->gpu.run(gopt);
    result.gpu_sim_seconds = r.cost.seconds;
    for (const auto& s : r.best) merged.push(s);
  }
  result.overlap_seconds = std::max(result.cpu_seconds, result.gpu_sim_seconds);
  result.best = merged.sorted();
  return result;
}

}  // namespace trigen::hetero
