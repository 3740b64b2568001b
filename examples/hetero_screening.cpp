/// \file hetero_screening.cpp
/// \brief Heterogeneous screening scenario (§V-D): a clinic box pairing the
/// host CPU with an accelerator splits one exhaustive scan between them.
///
/// Shows calibration (small probe on each side), the derived static split,
/// the overlapped co-run, and the §V-D conclusion that pairing only pays
/// when the CPU is within a small factor of the GPU.

#include <cstdio>

#include "trigen/common/table.hpp"
#include "trigen/dataset/synthetic.hpp"
#include "trigen/gpusim/device_spec.hpp"
#include "trigen/hetero/coordinator.hpp"

int main() {
  using namespace trigen;

  const auto data = dataset::generate_balanced(96, 2048, 777);
  std::printf("screening workload: %zu SNPs x %zu samples\n\n",
              data.num_snps(), data.num_samples());

  TextTable t({"paired GPU model", "CPU share", "cpu time [s]",
               "gpu time [s] (model)", "overlap [s]", "best triplet"});
  for (const char* id : {"GI2", "GN1", "GN4"}) {
    const hetero::HeteroCoordinator coord(data, gpusim::gpu_device(id));
    const auto r = coord.run({});
    char triplet[48];
    std::snprintf(triplet, sizeof triplet, "(%u,%u,%u)", r.best[0].snps[0],
                  r.best[0].snps[1], r.best[0].snps[2]);
    t.add_row({id, TextTable::fmt(r.cpu_share, 4),
               TextTable::fmt(r.cpu_seconds, 3),
               TextTable::fmt(r.gpu_sim_seconds, 4),
               TextTable::fmt(r.overlap_seconds, 3), triplet});
  }
  std::printf("%s", t.to_ascii().c_str());

  std::printf("\n§V-D projections for datacenter pairings:\n");
  const double ci3 =
      gpusim::project_cpu_elements_per_sec(gpusim::cpu_device("CI3"), true);
  const auto est = hetero::estimate_hetero(ci3, 2200e9);
  std::printf("CI3 (+AVX512 VPOPCNT, %.0f Gel/s) + Titan RTX (2200 Gel/s) "
              "=> %.0f Gel/s combined (%.2fx)\n",
              ci3 / 1e9, est.combined_eps / 1e9, est.speedup_vs_gpu);
  return 0;
}
