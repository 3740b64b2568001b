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
/// k=2 rung is captured in the bench trajectory.  Every row is timed at the
/// host's thread count and at one thread, each as the median of runs that
/// add up to at least 0.2 s.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "trigen/common/table.hpp"
#include "trigen/core/detector.hpp"

namespace {

using namespace trigen;

/// Median of `scan()`'s reported scan seconds over runs that add up to at
/// least 0.2 s: one 2-3 ms pair scan is too short to time a fork/join
/// fairly, while a long 3-way scan runs once.
template <typename Scan>
double median_seconds(const Scan& scan) {
  std::vector<double> runs;
  double total = 0.0;
  while (total < 0.2) {
    runs.push_back(scan());
    total += runs.back();
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::has_flag(argc, argv, "--paper-scale");
  const std::size_t snps = paper ? 1024 : 160;
  const std::size_t samples = paper ? 16384 : 8192;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());

  bench::print_header("Extension — pairwise vs three-way scan");
  const auto d = bench::paper_style_dataset(snps, samples);
  std::printf("workload: %zu SNPs x %zu samples; C(M,2) = %llu, C(M,3) = %llu\n",
              snps, samples,
              static_cast<unsigned long long>(
                  combinatorics::n_choose_k(snps, 2)),
              static_cast<unsigned long long>(
                  combinatorics::n_choose_k(snps, 3)));
  std::printf("each time is the median over >= 0.2 s of scans, at %u "
              "threads and at one thread\n",
              threads);

  const std::string nt = std::to_string(threads) + "T";
  TextTable t({"scan", "ISA", "combinations", "time " + nt + " [s]",
               "Gel/s " + nt, "time 1T [s]", "Gel/s 1T"});
  const core::BasicDetector<2> pairs(d);
  const core::Detector triples(d);
  // Best elements/s per pair rung, at [0] all threads and [1] one thread.
  double best_loop[2] = {}, best_blocked[2] = {}, best_cached[2] = {};
  // One row: `run(opt)` at every thread count, timed by median_seconds.
  const auto row = [&](const char* scan, core::KernelIsa isa, auto opt,
                       const auto& run, double* best) {
    opt.isa = isa;
    opt.isa_auto = false;
    std::vector<std::string> cells = {scan, core::kernel_isa_name(isa), ""};
    for (int i = 0; i < 2; ++i) {
      opt.threads = i == 0 ? threads : 1;
      std::uint64_t combinations = 0;
      const double s = median_seconds([&] {
        const auto r = run(opt);
        combinations = r.combinations_evaluated;
        return r.seconds;
      });
      const double eps = static_cast<double>(combinations) *
                         static_cast<double>(samples) / s;
      if (best != nullptr) best[i] = std::max(best[i], eps);
      cells[2] = std::to_string(combinations);
      cells.push_back(TextTable::fmt(s, 4));
      cells.push_back(TextTable::fmt(eps / 1e9, 2));
    }
    t.add_row(cells);
  };
  const auto run_pairs = [&](const core::BasicDetectorOptions<2>& o) {
    return pairs.run(o);
  };
  const auto run_triples = [&](const core::DetectorOptions& o) {
    return triples.run(o);
  };
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    core::BasicDetectorOptions<2> popt;
    // The pre-refactor pairwise engine: one kernel invocation per pair
    // over the full sample range (V2-split per-pair loop).
    popt.version = core::CpuVersion::kV2Split;
    row("2-way per-pair", isa, popt, run_pairs, best_loop);
    // The blocked/tiled pairwise engine (V4 on this ISA).
    popt.version = core::CpuVersion::kV4Vector;
    row("2-way blocked", isa, popt, run_pairs, best_blocked);
    // V5: at k = 2 the same direct engine as V4.
    popt.version = core::CpuVersion::kV5PairCache;
    row("2-way cached", isa, popt, run_pairs, best_cached);
    core::DetectorOptions topt;
    topt.version = core::CpuVersion::kV4Vector;
    row("3-way blocked", isa, topt, run_triples, nullptr);
  }
  std::printf("%s", t.to_ascii().c_str());
  for (int i = 0; i < 2; ++i) {
    const std::string at = i == 0 ? nt : "1T";
    if (best_loop[i] > 0.0) {
      std::printf(
          "blocked pairwise engine vs per-pair loop (best ISA each, %s): "
          "%.2fx\n",
          at.c_str(), best_blocked[i] / best_loop[i]);
    }
    if (best_blocked[i] > 0.0) {
      std::printf("V5 pairwise engine vs blocked V4 (best ISA each, %s): "
                  "%.2fx\n",
                  at.c_str(), best_cached[i] / best_blocked[i]);
    }
  }
  return 0;
}
