/// \file bench_tables_devices.cpp
/// \brief Reproduces paper Tables I and II: the device inventory, plus the
/// host CPU's own row (ISA features, L1D geometry, derived tiling).

#include <cstdio>

#include "bench_util.hpp"
#include "trigen/common/cpuid.hpp"
#include "trigen/common/table.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/gpusim/device_spec.hpp"

int main() {
  using namespace trigen;

  bench::print_header("Table I — CPU devices");
  TextTable ct({"system", "device", "arch", "base GHz", "cores",
                "vector width", "vector POPCNT", "L1D", "tiling <BS,BP>"});
  for (const auto& dev : gpusim::cpu_device_db()) {
    const core::L1Config l1{
        dev.l1d_bytes, dev.l1d_ways,
        7u, dev.l1d_ways >= 12 ? dev.l1d_ways - 8 : 1u};
    const auto tiling = core::autotune_tiling(
        l1, dev.vector_popcnt || dev.vector_bits >= 512 ? 16 : 8, 3, false);
    ct.add_row({dev.id, dev.name, dev.arch, TextTable::fmt(dev.base_ghz, 1),
                std::to_string(dev.cores),
                std::to_string(dev.vector_bits) + "-bit",
                dev.vector_popcnt ? "yes" : "no",
                std::to_string(dev.l1d_bytes / 1024) + "kB/" +
                    std::to_string(dev.l1d_ways) + "w",
                std::string("<")  // appended: see -Wrestrict in gcc 12
                    .append(std::to_string(tiling.bs))
                    .append(",")
                    .append(std::to_string(tiling.bp_words))
                    .append(">")});
  }
  std::printf("%s", ct.to_ascii().c_str());

  bench::print_header("Table II — GPU devices");
  TextTable gt({"system", "device", "arch", "boost GHz", "CUs",
                "stream cores", "POPCNT/CU/cyc", "mem BW [GB/s]", "TDP [W]"});
  for (const auto& dev : gpusim::gpu_device_db()) {
    gt.add_row({dev.id, dev.name, dev.arch, TextTable::fmt(dev.boost_ghz, 3),
                std::to_string(dev.compute_units),
                std::to_string(dev.stream_cores),
                TextTable::fmt(dev.popcnt_per_cu_cycle, 0),
                TextTable::fmt(dev.mem_bw_gbs, 1),
                TextTable::fmt(dev.tdp_w, 0)});
  }
  std::printf("%s", gt.to_ascii().c_str());

  bench::print_header("Host CPU (this machine)");
  std::printf("brand: %s\nfeatures: %s\nbest kernel ISA: %s\n",
              cpu_brand_string().c_str(),
              cpu_features().to_string().c_str(),
              core::kernel_isa_name(core::best_kernel_isa()).c_str());
  const auto l1 = core::detect_l1_config();
  const auto tiling = core::autotune_tiling(
      l1, core::kernel_vector_words(core::best_kernel_isa()), 3, false);
  std::printf("L1D: %zu kB, %u-way; derived tiling <BS=%zu, BP=%zu words>\n",
              l1.size_bytes / 1024, l1.ways, tiling.bs, tiling.bp_words);
  return 0;
}
