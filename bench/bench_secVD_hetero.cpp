/// \file bench_secVD_hetero.cpp
/// \brief Reproduces the §V-D analyses: CPU-vs-GPU comparison, energy
/// efficiency (elements per joule), and the heterogeneous CPU+GPU
/// projection (CI3 + Titan Xp ~3300 Gcs/s).

#include <cstdio>

#include "bench_util.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/table.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/gpusim/cost_model.hpp"
#include "trigen/gpusim/device_spec.hpp"
#include "trigen/hetero/coordinator.hpp"

namespace {

using namespace trigen;

double gpu_eps(const std::string& id) {
  gpusim::WorkloadShape w;
  w.triplets = combinatorics::n_choose_k(2048, 3);
  w.samples = 16384;
  w.words_total = dataset::padded_words_for(8192) * 2;
  return gpusim::estimate_gpu_cost(gpusim::gpu_device(id),
                                   gpusim::GpuVersion::kV4Tiled, w)
      .elements_per_second;
}

}  // namespace

int main() {
  bench::print_header("§V-D — energy efficiency (elements per joule at TDP)");
  TextTable et({"device", "Gel/s", "TDP [W]", "Gel/J"});
  for (const auto& dev : gpusim::gpu_device_db()) {
    const double eps = gpu_eps(dev.id);
    et.add_row({dev.id + " " + dev.name, TextTable::fmt(eps / 1e9, 1),
                TextTable::fmt(dev.tdp_w, 0),
                TextTable::fmt(gpusim::elements_per_joule(dev, eps) / 1e9, 2)});
  }
  std::printf("%s", et.to_ascii().c_str());
  std::printf("paper: GI2 ~11.3 Gel/J vs Titan RTX ~7.9 Gel/J — the "
              "efficiency argument for\npersonalized (known-SNP) screening "
              "on integrated GPUs.\n");

  bench::print_header("§V-D — heterogeneous CPU+GPU projections");
  TextTable ht({"pairing", "CPU Gel/s", "GPU Gel/s", "combined Gel/s",
                "CPU share", "speedup vs GPU"});
  struct Pairing {
    const char* cpu;
    const char* gpu;
  };
  for (const Pairing p : {Pairing{"CI3", "GN1"}, Pairing{"CI3", "GN3"},
                          Pairing{"CI1", "GN3"}, Pairing{"CA1", "GN3"}}) {
    const double ceps =
        gpusim::project_cpu_elements_per_sec(gpusim::cpu_device(p.cpu), true);
    const double geps = gpu_eps(p.gpu);
    const auto e = hetero::estimate_hetero(ceps, geps);
    ht.add_row({std::string(p.cpu) + "+" + p.gpu,
                TextTable::fmt(ceps / 1e9, 1), TextTable::fmt(geps / 1e9, 1),
                TextTable::fmt(e.combined_eps / 1e9, 1),
                TextTable::fmt(e.cpu_share, 3),
                TextTable::fmt(e.speedup_vs_gpu, 2)});
  }
  std::printf("%s", ht.to_ascii().c_str());
  std::printf("paper: CI3+GN1 'expected to achieve up to 3300 Giga combs x "
              "samples / s';\ndesktop CPUs contribute only a few percent "
              "next to a datacenter GPU.\n");

  bench::print_header(
      "§V-D — CPU-share engine: per-triplet V2 vs range-partitioned "
      "blocked V4");
  const auto d = bench::paper_style_dataset(96, 2048);
  const core::Detector det(d);
  const std::uint64_t total = combinatorics::n_choose_k(d.num_snps(), 3);
  // The same partial range a co-run would hand the CPU side: the blocked
  // V4 path used to be unavailable here (it rejected partial ranges),
  // forcing the coordinator onto the per-triplet V2 path.
  const combinatorics::RankRange cpu_slice{0, total / 2};
  TextTable ct({"engine", "kernel", "seconds", "Gel/s", "vs V2"});
  double v2_eps = 0.0;
  for (const auto v :
       {core::CpuVersion::kV2Split, core::CpuVersion::kV4Vector}) {
    core::DetectorOptions opt;
    opt.version = v;
    opt.isa = core::best_kernel_isa();
    opt.isa_auto = false;
    opt.threads = 0;  // all cores, like a real co-run CPU side
    opt.range = cpu_slice;
    const auto r = det.run(opt);
    const double eps = r.elements_per_second();
    if (v == core::CpuVersion::kV2Split) v2_eps = eps;
    ct.add_row({core::cpu_version_name(v),
                core::kernel_isa_name(r.isa_used),
                TextTable::fmt(r.seconds, 3), TextTable::fmt(eps / 1e9, 2),
                TextTable::fmt(v2_eps > 0 ? eps / v2_eps : 1.0, 2) + "x"});
  }
  std::printf("%s", ct.to_ascii().c_str());
  std::printf("the co-run CPU share below now runs the V4 row, not the V2 "
              "row.\n");

  bench::print_header("§V-D — functional co-run on the host (laptop scale)");
  const hetero::HeteroCoordinator coord(d, gpusim::gpu_device("GN1"));
  const auto r = coord.run({});
  std::printf("calibrated CPU share: %.4f; cpu %.3fs measured, gpu %.4fs "
              "modelled; overlap %.3fs\n"
              "cpu engine: %s / %s (%.2f Gel/s calibrated)\n"
              "best triplet: (%u,%u,%u) score %.3f\n",
              r.cpu_share, r.cpu_seconds, r.gpu_sim_seconds,
              r.overlap_seconds,
              core::cpu_version_name(r.cpu_version).c_str(),
              core::kernel_isa_name(r.cpu_isa_used).c_str(),
              r.cpu_calibrated_eps / 1e9, r.best[0].snps[0],
              r.best[0].snps[1], r.best[0].snps[2], r.best[0].score);
  return 0;
}
