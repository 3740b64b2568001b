/// \file bench_fig4_gpu.cpp
/// \brief Reproduces paper Fig. 4 (a/b/c): GPU performance across the nine
/// Table-II devices and three data sizes, via the device cost model.
///
/// Expected shape (paper §V-C):
///  * 4a (Gel/s/CU): GN1 (Titan Xp) leads — 32 POPCNT/CU/cycle; e.g. ~2x
///    GN2 and ~1.9x GN4 at 2048 SNPs.
///  * 4b (el/cyc/CU): frequency isolated — GN2/GN3/GN4 converge; AMD
///    GA1/GA2 above GA3 (POPCNT/CU 12 vs 10).
///  * 4c (el/cyc/stream core): Intel/NVIDIA ~0.23-0.27, AMD ~0.175-0.21.
///
/// Launch configs follow the paper's tuned <B_Sched, B_S> per device.

#include <cstdio>

#include "bench_util.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/table.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/gpusim/cost_model.hpp"
#include "trigen/gpusim/device_spec.hpp"

namespace {

using namespace trigen;

/// Paper §V-C launch configurations.
gpusim::LaunchConfig paper_launch(const std::string& id) {
  if (id == "GN1" || id == "GA3") return {256, 32};
  if (id == "GA1" || id == "GA2") return {128, 64};
  return {256, 64};  // GI1, GI2, GN2, GN3, GN4
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::has_flag(argc, argv, "--paper-scale");
  (void)paper;  // the cost model is analytic; paper sizes are the default
  const std::vector<std::uint64_t> snp_sizes = {2048, 4096, 8192};
  const std::uint64_t samples = 16384;

  bench::print_header("Fig. 4 — GPU performance evaluation (device models)");

  TextTable t({"SNPs", "device", "arch", "Gel/s/CU (4a)", "el/cyc/CU (4b)",
               "el/cyc/stream-core (4c)", "total Gel/s", "bound"});
  for (const std::uint64_t snps : snp_sizes) {
    gpusim::WorkloadShape w;
    w.triplets = combinatorics::n_choose_k(snps, 3);
    w.samples = samples;
    w.words_total = dataset::padded_words_for(samples / 2) * 2;
    for (const auto& dev : gpusim::gpu_device_db()) {
      const auto e = gpusim::estimate_gpu_cost(
          dev, gpusim::GpuVersion::kV4Tiled, w, paper_launch(dev.id));
      const double per_cu = e.elements_per_second / dev.compute_units;
      const double per_cu_cyc = per_cu / (dev.boost_ghz * 1e9);
      const double per_core_cyc =
          e.elements_per_second / (dev.boost_ghz * 1e9) / dev.stream_cores;
      t.add_row({std::to_string(snps), dev.id, dev.arch,
                 TextTable::fmt(per_cu / 1e9, 2),
                 TextTable::fmt(per_cu_cyc, 2),
                 TextTable::fmt(per_core_cyc, 3),
                 TextTable::fmt(e.elements_per_second / 1e9, 1),
                 gpusim::bound_by_name(e.bound)});
    }
  }
  std::printf("%s", t.to_ascii().c_str());

  std::printf(
      "\nPaper shape check (Fig. 4): GN1 leads 4a (32 POPCNT/CU/cyc); "
      "GA1/GA2 above GA3 in 4b;\nIntel/NVIDIA ~0.23-0.27 and AMD "
      "~0.175-0.21 in 4c; A100 best overall.\n");
  return 0;
}
