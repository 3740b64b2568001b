/// \file bench_ablation_layout.cpp
/// \brief Ablation: GPU data layout (SNP-major vs transposed vs tiled).
///
/// Two views:
///  1. host-side functional kernels (google-benchmark): the access-pattern
///     cost of each layout as seen by one thread;
///  2. the device cost model's DRAM-traffic view: coalescing efficiency
///     and launch-level reuse per layout (what actually separates GPU
///     V2/V3/V4 in Fig. 2b).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/table.hpp"
#include "trigen/dataset/synthetic.hpp"
#include "trigen/gpusim/cost_model.hpp"
#include "trigen/gpusim/device_spec.hpp"
#include "trigen/gpusim/gpu_kernels.hpp"

namespace {

using namespace trigen;

const dataset::GenotypeMatrix& data() {
  static const auto d = dataset::generate_balanced(64, 4096, 11);
  return d;
}

void bench_v2(benchmark::State& state) {
  const auto planes = dataset::PhenoSplitPlanes::build(data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::gpu_thread_v2(planes, 3, 17, 42));
  }
}
BENCHMARK(bench_v2)->Name("gpu_thread/v2_snp_major");

void bench_v3(benchmark::State& state) {
  const auto planes = dataset::TransposedPlanes::build(data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::gpu_thread_v3(planes, 3, 17, 42));
  }
}
BENCHMARK(bench_v3)->Name("gpu_thread/v3_transposed");

void bench_v4(benchmark::State& state) {
  const auto planes = dataset::TiledPlanes::build(data(), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::gpu_thread_v4(planes, 3, 17, 42));
  }
}
BENCHMARK(bench_v4)->Name("gpu_thread/v4_tiled");

void print_cost_view() {
  std::printf("\nDevice cost-model view (GN3 model, 2048 SNPs x 16384 "
              "samples):\n");
  gpusim::WorkloadShape w;
  w.triplets = combinatorics::n_choose_k(2048, 3);
  w.samples = 16384;
  w.words_total = dataset::padded_words_for(8192) * 2;
  TextTable t({"version", "bound", "t_mem [s]", "t_popcnt [s]", "Gel/s"});
  for (const auto v :
       {gpusim::GpuVersion::kV2Split, gpusim::GpuVersion::kV3Transposed,
        gpusim::GpuVersion::kV4Tiled}) {
    const auto e =
        gpusim::estimate_gpu_cost(gpusim::gpu_device("GN3"), v, w);
    t.add_row({gpusim::gpu_version_name(v), gpusim::bound_by_name(e.bound),
               TextTable::fmt(e.t_memory, 2), TextTable::fmt(e.t_popcnt, 2),
               TextTable::fmt(e.elements_per_second / 1e9, 1)});
  }
  std::printf("%s", t.to_ascii().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_cost_view();
  return 0;
}
