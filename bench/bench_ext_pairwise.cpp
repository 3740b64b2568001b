/// \file bench_ext_pairwise.cpp
/// \brief Extension: pairwise (2-way) vs three-way scan cost on the host,
/// plus the pairwise optimization-ladder payoff.
///
/// Pair scans run `core::BasicDetector<2>`: the blocked engine with the
/// counts-only pair kernel (4 ANDs + 4 POPCNTs per word, the other five
/// cells from per-SNP genotype counts), while the combination count drops
/// from C(M,3) to C(M,2) — this harness quantifies both effects per ISA.
/// It also pits the per-pair unrank loop (the V2 rung) against the
/// blocked V4 engine and V5 (the same direct engine at k = 2, since the
/// prefix-plane ladder has no rungs below order 3), so the payoff of each
/// k=2 rung is captured in the bench trajectory.

#include <cstdio>

#include "bench_util.hpp"
#include "trigen/common/table.hpp"
#include "trigen/core/detector.hpp"

int main(int argc, char** argv) {
  using namespace trigen;
  const bool paper = bench::has_flag(argc, argv, "--paper-scale");
  const std::size_t snps = paper ? 1024 : 160;
  const std::size_t samples = paper ? 16384 : 8192;

  bench::print_header("Extension — pairwise vs three-way scan");
  const auto d = bench::paper_style_dataset(snps, samples);
  std::printf("workload: %zu SNPs x %zu samples; C(M,2) = %llu, C(M,3) = %llu\n",
              snps, samples,
              static_cast<unsigned long long>(combinatorics::num_pairs(snps)),
              static_cast<unsigned long long>(
                  combinatorics::num_triplets(snps)));

  TextTable t({"scan", "ISA", "combinations", "time [s]", "Gel/s"});
  const core::BasicDetector<2> pairs(d);
  const core::Detector triples(d);
  double best_loop_eps = 0.0, best_blocked_eps = 0.0, best_cached_eps = 0.0;
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;

    // The pre-refactor pairwise engine: one kernel invocation per pair
    // over the full sample range (V2-split per-pair loop).
    core::BasicDetectorOptions<2> loop_opt;
    loop_opt.version = core::CpuVersion::kV2Split;
    loop_opt.isa = isa;
    loop_opt.isa_auto = false;
    const auto lr = pairs.run(loop_opt);
    best_loop_eps = std::max(best_loop_eps, lr.elements_per_second());
    t.add_row({"2-way per-pair", core::kernel_isa_name(isa),
               std::to_string(lr.combinations_evaluated),
               TextTable::fmt(lr.seconds, 3),
               TextTable::fmt(lr.elements_per_second() / 1e9, 2)});

    // The blocked/tiled pairwise engine (V4 on this ISA).
    core::BasicDetectorOptions<2> popt;
    popt.version = core::CpuVersion::kV4Vector;
    popt.isa = isa;
    popt.isa_auto = false;
    const auto pr = pairs.run(popt);
    best_blocked_eps = std::max(best_blocked_eps, pr.elements_per_second());
    t.add_row({"2-way blocked", core::kernel_isa_name(isa),
               std::to_string(pr.combinations_evaluated),
               TextTable::fmt(pr.seconds, 3),
               TextTable::fmt(pr.elements_per_second() / 1e9, 2)});

    // V5: at k = 2 the same direct engine as V4.
    core::BasicDetectorOptions<2> copt;
    copt.version = core::CpuVersion::kV5PairCache;
    copt.isa = isa;
    copt.isa_auto = false;
    const auto cr = pairs.run(copt);
    best_cached_eps = std::max(best_cached_eps, cr.elements_per_second());
    t.add_row({"2-way cached", core::kernel_isa_name(isa),
               std::to_string(cr.combinations_evaluated),
               TextTable::fmt(cr.seconds, 3),
               TextTable::fmt(cr.elements_per_second() / 1e9, 2)});

    core::DetectorOptions topt;
    topt.version = core::CpuVersion::kV4Vector;
    topt.isa = isa;
    topt.isa_auto = false;
    const auto tr = triples.run(topt);
    t.add_row({"3-way blocked", core::kernel_isa_name(isa),
               std::to_string(tr.combinations_evaluated),
               TextTable::fmt(tr.seconds, 3),
               TextTable::fmt(tr.elements_per_second() / 1e9, 2)});
  }
  std::printf("%s", t.to_ascii().c_str());
  if (best_loop_eps > 0.0) {
    std::printf(
        "blocked pairwise engine vs per-pair loop (best ISA each): %.2fx\n",
        best_blocked_eps / best_loop_eps);
  }
  if (best_blocked_eps > 0.0) {
    std::printf(
        "V5 pairwise engine vs blocked V4 (best ISA each): "
        "%.2fx\n",
        best_cached_eps / best_blocked_eps);
  }
  return 0;
}
