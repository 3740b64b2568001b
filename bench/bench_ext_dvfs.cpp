/// \file bench_ext_dvfs.cpp
/// \brief Extension: DVFS sweep — the paper's stated future work
/// ("inclusion of DVFS techniques to further improve the efficiency of
/// bioinformatics applications", §VI).
///
/// Model: the tuned kernel is compute bound, so throughput scales linearly
/// with core clock; board power follows the classic static + dynamic
/// split, P(f) = TDP x (s + (1 - s) (f / f0)^3) with s = 0.3 static share.
/// Sweeping f/f0 then exposes the throughput/efficiency trade-off and the
/// efficiency-optimal operating point per device.

#include <cstdio>

#include "bench_util.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/table.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/gpusim/cost_model.hpp"
#include "trigen/gpusim/device_spec.hpp"

namespace {

using namespace trigen;

constexpr double kStaticShare = 0.3;

double power_at(double tdp, double rel_freq) {
  return tdp * (kStaticShare + (1.0 - kStaticShare) * rel_freq * rel_freq *
                                   rel_freq);
}

}  // namespace

int main() {
  bench::print_header("Extension — DVFS sweep (compute-bound roofline + cubic power)");

  gpusim::WorkloadShape w;
  w.triplets = combinatorics::n_choose_k(2048, 3);
  w.samples = 16384;
  w.words_total = dataset::padded_words_for(8192) * 2;

  TextTable t({"device", "f/f0", "Gel/s", "power [W]", "Gel/J"});
  for (const char* id : {"GI2", "GN3", "GN4", "GA2"}) {
    gpusim::GpuDeviceSpec dev = gpusim::gpu_device(id);
    const double f0 = dev.boost_ghz;
    double best_eff = 0.0, best_rel = 1.0;
    for (const double rel : {0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}) {
      dev.boost_ghz = f0 * rel;
      const auto e =
          gpusim::estimate_gpu_cost(dev, gpusim::GpuVersion::kV4Tiled, w);
      const double power = power_at(dev.tdp_w, rel);
      const double eff = e.elements_per_second / power;
      if (eff > best_eff) {
        best_eff = eff;
        best_rel = rel;
      }
      t.add_row({id, TextTable::fmt(rel, 1),
                 TextTable::fmt(e.elements_per_second / 1e9, 1),
                 TextTable::fmt(power, 0), TextTable::fmt(eff / 1e9, 2)});
    }
    dev.boost_ghz = f0;
    std::printf("%s efficiency-optimal point: f/f0 = %.1f (%.2f Gel/J)\n",
                id, best_rel, best_eff / 1e9);
  }
  std::printf("%s", t.to_ascii().c_str());
  std::printf(
      "\nWith a compute-bound kernel and cubic dynamic power, efficiency "
      "rises monotonically\nas frequency drops (until memory or static "
      "power dominates) — under-clocking trades\n~linear throughput for "
      "super-linear energy savings, the §VI future-work hypothesis.\n");
  return 0;
}
