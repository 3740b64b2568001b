/// \file bench_fig3_cpu.cpp
/// \brief Reproduces paper Fig. 3 (a/b/c): CPU performance across devices
/// and data sizes, extended with the repo's V5 pair-plane-cached engine.
///
/// Three ingredients (DESIGN.md §2):
///  1. **Host measurements**: the blocked kernel is run with every
///     vectorization strategy the host supports (scalar,
///     AVX2+scalar-POPCNT, AVX-512+extract, AVX-512+VPOPCNTDQ), one
///     thread, for each dataset size — these are real silicon numbers for
///     the per-ISA rates the figure isolates.  Both the paper's V4 and the
///     V5 pair-plane-cached rung are measured, and the V5-vs-V4 speedup is
///     reported per ISA.
///  2. **Table-I projection**: each paper CPU is assigned the host-measured
///     V4 elements/cycle/core rate of its strategy class and scaled by its
///     core count and frequency — reproducing the figure's cross-device
///     comparison without the hardware.
///  3. **JSON trajectory**: `--json FILE` appends every measurement as
///     `bench name -> {ns_per_op, triplets_per_s}` so scripts/run_benches.sh
///     can maintain BENCH_cpu.json at the repo root; `--quick` shrinks the
///     dataset grid for CI.
///
/// Expected shape (paper §V-B): AVX-512+VPOPCNTDQ dominates per core and
/// per cycle (~3.8x); all scalar-POPCNT variants land near the same
/// elements/cycle/core; AVX-512-without-vector-POPCNT is the *worst* per
/// cycle (double-extract overhead); per (cycle x vector width), narrow
/// vectors look best (CA1) alongside VPOPCNTDQ.  V5 should beat V4 on
/// every ISA whose popcount path dominates (at k = 3 it retires 8 POPCNTs
/// + 8 ANDs per word against V4's 27 + 42).  The generic engine is then
/// measured at k = 4, 5 and 6, V4 (direct kernels) against V5 (the
/// prefix-plane ladder), since V5 is the default rung at every order.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/table.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/gpusim/cost_model.hpp"
#include "trigen/gpusim/device_spec.hpp"
#include "trigen/stats/permutation.hpp"

namespace {

using namespace trigen;

unsigned lanes_for(core::KernelIsa isa) {
  switch (isa) {
    case core::KernelIsa::kScalar: return 1;
    case core::KernelIsa::kAvx2:
    case core::KernelIsa::kAvx2HarleySeal: return 8;
    case core::KernelIsa::kAvx512Extract:
    case core::KernelIsa::kAvx512Vpopcnt: return 16;
  }
  return 1;
}

/// Value following `flag` in argv, or `fallback`.
const char* get_arg(int argc, char** argv, const char* flag,
                    const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

struct Measurement {
  std::string name;         ///< e.g. "fig3_cpu/V5-paircache/avx2/snps=160"
  double ns_per_op = 0;     ///< nanoseconds per evaluated triplet
  double triplets_per_s = 0;
  double elements_per_s = 0;
};

/// V4 (direct kernels) vs V5 (prefix-plane ladder) of the generic engine at
/// order K on `snps` x `samples`, every available ISA, one core.  Logs
/// `fig3_cpu/order<K>-<version>/<isa>/snps=<M>` plus the per-ISA V5/V4
/// speedup `fig3_cpu/order<K>_speedup_v5_vs_v4/<isa>`.
template <unsigned K>
void bench_generic_order(std::size_t snps, std::size_t samples,
                         const std::vector<core::CpuVersion>& versions,
                         std::vector<Measurement>& log) {
  const auto d = bench::paper_style_dataset(snps, samples);
  const core::BasicDetector<K> det(d);
  const std::string order = "order" + std::to_string(K);
  TextTable table({"SNPs", "version", "strategy", "Gel/s/core", "Mtuples/s",
                   "V5/V4"});
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    std::map<core::CpuVersion, double> eps_of;
    for (const core::CpuVersion version : versions) {
      core::BasicDetectorOptions<K> opt;
      opt.version = version;
      opt.isa = isa;
      opt.isa_auto = false;
      opt.threads = 1;
      const auto r = det.run(opt);
      const double eps = r.elements_per_second();
      const double tps =
          r.seconds > 0.0
              ? static_cast<double>(r.combinations_evaluated) / r.seconds
              : 0.0;
      eps_of[version] = eps;
      table.add_row(
          {std::to_string(snps), core::cpu_version_name(version),
           core::kernel_isa_name(isa), TextTable::fmt(eps / 1e9, 2),
           TextTable::fmt(tps / 1e6, 3),
           version == core::CpuVersion::kV5PairCache &&
                   eps_of[core::CpuVersion::kV4Vector] > 0.0
               ? TextTable::fmt(eps / eps_of[core::CpuVersion::kV4Vector], 2)
               : "-"});
      log.push_back({"fig3_cpu/" + order + "-" +
                         core::cpu_version_name(version) + "/" +
                         core::kernel_isa_name(isa) +
                         "/snps=" + std::to_string(snps),
                     tps > 0.0 ? 1e9 / tps : 0.0, tps, eps});
    }
    const double v4 = eps_of[core::CpuVersion::kV4Vector];
    const double v5 = eps_of[core::CpuVersion::kV5PairCache];
    if (v4 > 0.0 && v5 > 0.0) {
      log.push_back({"fig3_cpu/" + order + "_speedup_v5_vs_v4/" +
                         core::kernel_isa_name(isa),
                     0.0, 0.0, v5 / v4});
    }
  }
  std::printf(
      "\nk=%u generic engine (prefix-plane ladder vs direct kernels), "
      "%zu SNPs, one core:\n%s",
      K, snps, table.to_ascii().c_str());
}

/// One batched-vs-sequential permutation-test measurement at order K: both
/// paths run the identical seeded test (sequential = one full scan per
/// permutation, batched = ONE scan scoring observed + all nulls as label
/// partitions), their results are cross-checked bit-for-bit, and the
/// wall-clock ratio is logged as the trajectory speedup entry.
template <unsigned K>
void bench_permutation(const dataset::GenotypeMatrix& d, unsigned perms,
                       std::size_t samples, TextTable& table,
                       std::vector<Measurement>& log) {
  stats::BasicPermutationTestOptions<K> opt;
  opt.permutations = perms;
  opt.seed = 21;
  opt.detector.threads = 1;
  const auto timed = [&](unsigned batch) {
    auto o = opt;
    o.batch = batch;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = stats::permutation_test_of<K>(d, o);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return std::make_pair(std::move(r), s);
  };
  const auto [seq, seq_s] = timed(1);
  const auto [bat, bat_s] = timed(0);
  const bool identical = seq.p_value == bat.p_value &&
                         seq.observed.score == bat.observed.score &&
                         seq.null_scores == bat.null_scores;
  // Tables scored across the whole test: every combination for observed +
  // each null partition.
  const double tables =
      static_cast<double>(combinatorics::n_choose_k(d.num_snps(), K)) *
      (1.0 + perms);
  const double speed = bat_s > 0.0 ? seq_s / bat_s : 0.0;
  table.add_row({std::to_string(K), TextTable::fmt(seq_s, 2),
                 TextTable::fmt(bat_s, 2), TextTable::fmt(speed, 2),
                 identical ? "yes" : "MISMATCH"});
  const std::string suffix = "/order=" + std::to_string(K);
  log.push_back({"fig3_cpu/perm_sequential" + suffix,
                 seq_s * 1e9 / tables, tables / seq_s,
                 tables / seq_s * static_cast<double>(samples)});
  log.push_back({"fig3_cpu/perm_batched" + suffix, bat_s * 1e9 / tables,
                 tables / bat_s,
                 tables / bat_s * static_cast<double>(samples)});
  log.push_back(
      {"fig3_cpu/perm_batched_speedup" + suffix, 0.0, 0.0, speed});
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::has_flag(argc, argv, "--paper-scale");
  const bool quick = bench::has_flag(argc, argv, "--quick");
  const std::string json_path = get_arg(argc, argv, "--json", "");
  // Keep the paper's sample count (the vector kernels need long plane
  // streams to amortize per-call overhead) and scale the SNP axis down;
  // --quick shrinks both for the CI trajectory run.
  const std::vector<std::size_t> snp_sizes =
      paper ? std::vector<std::size_t>{2048, 4096, 8192}
      : quick ? std::vector<std::size_t>{64, 96}
              : std::vector<std::size_t>{96, 128, 160};
  const std::size_t samples = quick ? 8192 : 16384;
  const double freq = bench::host_frequency_hz();

  bench::print_header("Fig. 3 — CPU performance evaluation");
  std::printf("host frequency estimate: %.2f GHz; samples: %zu\n", freq / 1e9,
              samples);

  const std::vector<core::CpuVersion> versions = {
      core::CpuVersion::kV4Vector, core::CpuVersion::kV5PairCache};

  // ---- host measurements per ISA, version and size ----------------------
  TextTable host({"SNPs", "version", "strategy", "Gel/s/core (3a)",
                  "el/cyc/core (3b)", "el/cyc/(core x lanes) (3c)"});
  // Host-measured elements/cycle/core per strategy, from the largest size.
  std::map<core::KernelIsa, double> measured_rate_v4;
  // elements/s per (version, isa) at the largest size, for the speedup
  // report.
  std::map<std::pair<core::CpuVersion, core::KernelIsa>, double> largest_eps;
  std::vector<Measurement> log;
  for (const std::size_t snps : snp_sizes) {
    const auto d = bench::paper_style_dataset(snps, samples);
    const core::Detector det(d);
    for (const core::KernelIsa isa : core::all_kernel_isas()) {
      if (!core::kernel_available(isa)) continue;
      for (const core::CpuVersion version : versions) {
        core::DetectorOptions opt;
        opt.version = version;
        opt.isa = isa;
        opt.isa_auto = false;
        opt.threads = 1;
        const auto r = det.run(opt);
        const double eps = r.elements_per_second();
        const double per_cyc = eps / freq;
        const double tps =
            r.seconds > 0.0
                ? static_cast<double>(r.combinations_evaluated) / r.seconds
                : 0.0;
        if (version == core::CpuVersion::kV4Vector) {
          measured_rate_v4[isa] = per_cyc;
        }
        largest_eps[{version, isa}] = eps;
        host.add_row({std::to_string(snps), core::cpu_version_name(version),
                      core::kernel_isa_name(isa),
                      TextTable::fmt(eps / 1e9, 2),
                      TextTable::fmt(per_cyc, 2),
                      TextTable::fmt(per_cyc / lanes_for(isa), 3)});
        log.push_back({"fig3_cpu/" + core::cpu_version_name(version) + "/" +
                           core::kernel_isa_name(isa) +
                           "/snps=" + std::to_string(snps),
                       tps > 0.0 ? 1e9 / tps : 0.0, tps, eps});
      }
    }
  }
  std::printf(
      "\nHost-measured blocked engine, one core, every available ISA:\n%s",
      host.to_ascii().c_str());

  // ---- V5-vs-V4 speedup per ISA (largest size) --------------------------
  TextTable speedup({"strategy", "V4 Gel/s", "V5 Gel/s", "V5/V4"});
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    const double v4 = largest_eps[{core::CpuVersion::kV4Vector, isa}];
    const double v5 = largest_eps[{core::CpuVersion::kV5PairCache, isa}];
    if (v4 <= 0.0 || v5 <= 0.0) continue;
    speedup.add_row({core::kernel_isa_name(isa), TextTable::fmt(v4 / 1e9, 2),
                     TextTable::fmt(v5 / 1e9, 2),
                     TextTable::fmt(v5 / v4, 2)});
    log.push_back({"fig3_cpu/speedup_v5_vs_v4/" + core::kernel_isa_name(isa),
                   0.0, 0.0, v5 / v4});
  }
  std::printf(
      "\nV5 pair-plane cache vs V4, largest size (%zu SNPs), one core:\n%s",
      snp_sizes.back(), speedup.to_ascii().c_str());

  // ---- k >= 4 generic engine: prefix-plane cached vs direct -------------
  // One size per order and mode (the order-k space grows as M^k/k!); both
  // blocked rungs of the generic engine, every ISA, one core.  This is the
  // trajectory anchor for the K >= 4 engine: V5's ladder must not lose to
  // the direct kernels at any order it is the default for.
  bench_generic_order<4>(quick ? 40 : 64, samples, versions, log);
  bench_generic_order<5>(quick ? 18 : 22, samples, versions, log);
  bench_generic_order<6>(quick ? 14 : 16, samples, versions, log);

  // ---- permutation testing: batched partitions vs sequential re-scans ----
  // 64 seeded permutations at orders 2 and 3, one core: the sequential path
  // re-runs the full detector per null (rebuilding planes and pair cache
  // every time); the batched path scores observed + all 64 nulls as label
  // partitions of ONE scan.  Results are bit-identical by construction —
  // the row cross-checks that — and the wall-clock ratio is the trajectory
  // number the README quotes.
  {
    const std::size_t snps_p = 64;
    const unsigned perms = 64;
    const auto dp = bench::paper_style_dataset(snps_p, samples);
    TextTable perm({"order", "sequential s", "batched s", "speedup",
                    "bit-identical"});
    bench_permutation<2>(dp, perms, samples, perm, log);
    bench_permutation<3>(dp, perms, samples, perm, log);
    std::printf(
        "\nPermutation test (%u permutations, %zu SNPs, %zu samples), "
        "batched vs sequential, one core:\n%s",
        perms, snps_p, samples, perm.to_ascii().c_str());
  }

  // ---- Table-I device projection -----------------------------------------
  gpusim::CpuIsaRates rates;  // paper-derived defaults
  // Substitute host-measured V4 rates where the host can execute the class.
  if (measured_rate_v4.count(core::KernelIsa::kAvx2)) {
    rates.avx256 = measured_rate_v4[core::KernelIsa::kAvx2];
    rates.avx128 =
        measured_rate_v4[core::KernelIsa::kAvx2];  // scalar-POPCNT bound
  }
  if (measured_rate_v4.count(core::KernelIsa::kAvx512Extract)) {
    rates.avx512_extract = measured_rate_v4[core::KernelIsa::kAvx512Extract];
  }
  if (measured_rate_v4.count(core::KernelIsa::kAvx512Vpopcnt)) {
    rates.avx512_vpopcnt = measured_rate_v4[core::KernelIsa::kAvx512Vpopcnt];
  }

  TextTable proj({"device", "variant", "Gel/s/core (3a)", "el/cyc/core (3b)",
                  "el/cyc/(core x lanes) (3c)", "total Gel/s"});
  for (const auto& dev : gpusim::cpu_device_db()) {
    for (const bool avx512 : {true, false}) {
      if (!avx512 && dev.vector_bits < 512) continue;  // AVX row only for AVX-512 parts
      const auto cls = gpusim::cpu_strategy(dev, avx512);
      const double eps = gpusim::project_cpu_elements_per_sec(dev, avx512, rates);
      const double per_core = eps / dev.cores;
      const double per_cyc = per_core / (dev.base_ghz * 1e9);
      const unsigned lanes = avx512 ? dev.vector_lanes()
                                    : std::min(dev.vector_lanes(), 8u);
      proj.add_row({dev.id, gpusim::cpu_strategy_name(cls),
                    TextTable::fmt(per_core / 1e9, 2),
                    TextTable::fmt(per_cyc, 2),
                    TextTable::fmt(per_cyc / lanes, 3),
                    TextTable::fmt(eps / 1e9, 1)});
    }
  }
  std::printf("\nTable-I devices projected with host-measured per-ISA rates:\n%s",
              proj.to_ascii().c_str());

  std::printf(
      "\nPaper shape check (Fig. 3): CI3+AVX512 dominates 3a/3b; CI2+AVX512 "
      "is slowest per core\n(extract overhead); AVX rows cluster in 3b; CA1 "
      "and CI3 lead 3c (~0.4).\n");

  // ---- JSON trajectory ---------------------------------------------------
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < log.size(); ++i) {
      const Measurement& e = log[i];
      if (e.name.find("speedup") != std::string::npos) {
        std::fprintf(f, "  \"%s\": {\"speedup\": %.4f}%s\n", e.name.c_str(),
                     e.elements_per_s, i + 1 < log.size() ? "," : "");
      } else {
        std::fprintf(f,
                     "  \"%s\": {\"ns_per_op\": %.3f, \"triplets_per_s\": "
                     "%.1f, \"elements_per_s\": %.0f}%s\n",
                     e.name.c_str(), e.ns_per_op, e.triplets_per_s,
                     e.elements_per_s, i + 1 < log.size() ? "," : "");
      }
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries)\n", json_path.c_str(), log.size());
  }
  return 0;
}
