#include "trigen/gpusim/simulator.hpp"

#include <stdexcept>

#include "trigen/common/stopwatch.hpp"

namespace trigen::gpusim {

using scoring::ContingencyTable;

struct GpuSimulator::Impl {
  GpuDeviceSpec spec;
  std::size_t num_snps;
  std::size_t num_samples;
  std::uint64_t words_total;
  dataset::BitPlanesV1 v1;
  dataset::PhenoSplitPlanes split;
  dataset::TransposedPlanes transposed;
  dataset::TiledPlanes tiled;
};

GpuSimulator::GpuSimulator(GpuDeviceSpec spec,
                           const dataset::GenotypeMatrix& d) {
  if (d.num_snps() < 3) {
    throw std::invalid_argument("GpuSimulator: need at least 3 SNPs");
  }
  // Tile width: 64 for most devices (a multiple of 32/64, §IV-B); built
  // once here with the default and rebuilt lazily is unnecessary since the
  // tiled accessor is tile-size agnostic functionally.
  constexpr std::size_t kTile = 64;
  auto split = dataset::PhenoSplitPlanes::build(d);
  const std::uint64_t words_total = split.words(0) + split.words(1);
  impl_ = std::make_unique<Impl>(Impl{
      std::move(spec),
      d.num_snps(),
      d.num_samples(),
      words_total,
      dataset::BitPlanesV1::build(d),
      std::move(split),
      dataset::TransposedPlanes::build(d),
      dataset::TiledPlanes::build(d, kTile),
  });
}

GpuSimulator::~GpuSimulator() = default;

const GpuDeviceSpec& GpuSimulator::spec() const { return impl_->spec; }
std::size_t GpuSimulator::num_snps() const { return impl_->num_snps; }
std::size_t GpuSimulator::num_samples() const { return impl_->num_samples; }

GpuRunResult GpuSimulator::run(const GpuRunOptions& options) const {
  if (options.top_k == 0) {
    throw std::invalid_argument("GpuRunOptions::top_k must be >= 1");
  }
  if (options.launch.bsched == 0 || options.launch.bs == 0) {
    throw std::invalid_argument("GpuRunOptions: launch parameters must be non-zero");
  }
  const std::uint64_t total = combinatorics::n_choose_k(impl_->num_snps, 3);
  combinatorics::RankRange range = options.range;
  if (range.empty()) range = {0, total};
  if (range.last > total) {
    throw std::invalid_argument("GpuRunOptions: rank range exceeds space");
  }

  GpuRunResult result;
  result.triplets = range.size();
  result.elements = range.size() * impl_->num_samples;

  // One enqueue covers B_Sched^3 combinations (§IV-B).
  const std::uint64_t per_launch =
      static_cast<std::uint64_t>(options.launch.bsched) *
      options.launch.bsched * options.launch.bsched;
  result.launches = (range.size() + per_launch - 1) / per_launch;

  const auto scorer = core::make_normalized_scorer_of<3>(
      options.objective, static_cast<std::uint32_t>(impl_->num_samples));

  core::BasicTopK<core::ScoredOf<3>> top(options.top_k);
  Stopwatch sw;
  // Functional execution: per-thread work of Algorithm 2, one thread per
  // combination, in launch order.
  combinatorics::for_each_combination<3>(
      range.first, range.last, [&](const combinatorics::Combination<3>& t) {
        ContingencyTable table;
        switch (options.version) {
          case GpuVersion::kV1Naive:
            table = gpu_thread_v1(impl_->v1, t[0], t[1], t[2]);
            break;
          case GpuVersion::kV2Split:
            table = gpu_thread_v2(impl_->split, t[0], t[1], t[2]);
            break;
          case GpuVersion::kV3Transposed:
            table = gpu_thread_v3(impl_->transposed, t[0], t[1], t[2]);
            break;
          case GpuVersion::kV4Tiled:
            table = gpu_thread_v4(impl_->tiled, t[0], t[1], t[2]);
            break;
        }
        top.push({t, scorer(table)});
      });
  result.host_seconds = sw.seconds();
  result.best = top.sorted();

  WorkloadShape shape{range.size(), impl_->num_samples, impl_->words_total};
  result.cost = estimate_gpu_cost(impl_->spec, options.version, shape,
                                  options.launch);
  return result;
}

}  // namespace trigen::gpusim
