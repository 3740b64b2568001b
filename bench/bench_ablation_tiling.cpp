/// \file bench_ablation_tiling.cpp
/// \brief Ablation: sweep of the <B_S, B_P> tiling parameters around the
/// paper's L1-derived sizing (§IV-A).
///
/// The paper derives B_S and B_P from the L1D capacity split (7 ways of
/// frequency tables, the rest for the streamed block).  This sweep shows
/// the performance surface around the derived point: too-large B_S spills
/// the table array out of L1; too-small B_S wastes reuse; B_P has a broad
/// plateau once it covers a few vector iterations.

#include <cstdio>

#include "bench_util.hpp"
#include "trigen/common/table.hpp"
#include "trigen/core/detector.hpp"

int main(int argc, char** argv) {
  using namespace trigen;
  const bool paper = bench::has_flag(argc, argv, "--paper-scale");
  const std::size_t snps = paper ? 1024 : 160;
  const std::size_t samples = paper ? 16384 : 4096;

  bench::print_header("Ablation — tiling parameter sweep (V4 kernel)");
  const auto d = bench::paper_style_dataset(snps, samples);
  const core::Detector det(d);

  const auto l1 = core::detect_l1_config();
  const auto derived = core::autotune_tiling(
      l1, core::kernel_vector_words(core::best_kernel_isa()), 3, false);
  std::printf("workload: %zu SNPs x %zu samples; derived <BS=%zu, BP=%zu>\n",
              snps, samples, derived.bs, derived.bp_words);

  TextTable t({"BS", "BP [words]", "tables [kB]", "time [s]", "Gel/s",
               "vs derived"});
  core::DetectorOptions base;
  base.version = core::CpuVersion::kV4Vector;
  base.tiling = derived;
  const double derived_eps = det.run(base).elements_per_second();

  for (const std::size_t bs : {1u, 2u, 3u, 5u, 8u, 12u}) {
    for (const std::size_t bp : {64u, 400u, 4096u}) {
      core::DetectorOptions opt;
      opt.version = core::CpuVersion::kV4Vector;
      opt.tiling = {bs, bp};
      const auto r = det.run(opt);
      t.add_row({std::to_string(bs), std::to_string(bp),
                 TextTable::fmt(core::tables_bytes(bs) / 1024.0, 1),
                 TextTable::fmt(r.seconds, 3),
                 TextTable::fmt(r.elements_per_second() / 1e9, 2),
                 TextTable::fmt(r.elements_per_second() / derived_eps, 2)});
    }
  }
  std::printf("%s", t.to_ascii().c_str());
  std::printf("derived point performance: %.2f Gel/s\n", derived_eps / 1e9);
  return 0;
}
