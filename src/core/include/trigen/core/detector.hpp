#pragma once
/// \file detector.hpp
/// \brief Public façade: exhaustive k-way epistasis detection on CPU.
///
/// Usage:
/// \code
///   using namespace trigen;
///   dataset::GenotypeMatrix d = dataset::read_text_file("study.tg");
///   core::Detector det(d);                     // = BasicDetector<3>
///   core::DetectorOptions opt;                 // defaults: V4, K2, auto ISA
///   core::DetectionResult r = det.run(opt);
///   // r.best.front().triplet is the most likely epistatic triplet.
/// \endcode
///
/// `BasicDetector<K>` runs the same stack at any interaction order
/// K in [2, combinatorics::kMaxOrder]: `Detector` (K = 3) and the pairwise
/// module's `PairDetector` (K = 2) are aliases of it.  The five
/// `CpuVersion`s implement the paper's optimization ladder plus the
/// prefix-plane-cached V5 extension; all produce identical results, they
/// only differ in speed (and are cross-checked against each other in the
/// test suite).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/core/blocked_engine.hpp"
#include "trigen/core/kernel_config.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/scan_driver.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/core/topk.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/dataset/genotype_matrix.hpp"

namespace trigen::core {

/// Which rung of the paper's CPU optimization ladder to run.
enum class CpuVersion {
  kV1Naive,      ///< Fig.-1 layout, phenotype ANDs (memory bound, §IV-A)
  kV2Split,      ///< phenotype-split planes, genotype-2 inferred via NOR
  kV3Blocked,    ///< + loop tiling to L1 (Algorithm 1)
  kV4Vector,     ///< + vector intrinsics (per-ISA POPCNT strategy)
  kV5PairCache,  ///< + the prefix-plane ladder: the 3^j intersection planes
                 ///< of every j-SNP prefix (j = 2..k-1) are built once per
                 ///< (prefix, sample-chunk) and shared by all B_S last-axis
                 ///< SNPs, cutting the hot loop to two ANDs + two POPCNTs
                 ///< per cached plane and word (same per-ISA strategies,
                 ///< bit-identical results).  At k = 2 the counts-only pair
                 ///< path makes this identical to V4.
};

std::string cpu_version_name(CpuVersion v);

/// The kernel family that dominates an order-`order` scan at `version`
/// (`batched` overrides both: run_batched always ends in the batched
/// finalize).  This is the family a detector asks its ConfigResolver about.
KernelFamily scan_kernel_family(unsigned order, CpuVersion version,
                                bool batched);

/// Objective function for ranking combinations.
enum class Objective {
  kK2,                 ///< Bayesian K2 score (paper Eq. 1; lower is better)
  kMutualInformation,  ///< MPI3SNP's objective (higher is better)
  kChiSquared,         ///< Pearson X^2 (higher is better)
};

std::string objective_name(Objective o);

/// Scorer for `o` normalized to lower-is-better (MI and X^2 are negated),
/// sized for datasets of `num_samples`.  Shared by the CPU detector, the
/// GPU simulator and the baseline engine so scores are comparable.
std::function<double(const scoring::ContingencyTable&)> make_normalized_scorer(
    Objective o, std::uint32_t num_samples);

/// Order-generic scorer factory: the 3^K-cell counterpart of
/// make_normalized_scorer (which it delegates to at K = 3), normalized to
/// lower-is-better and sized for datasets of `num_samples`.
template <unsigned K>
std::function<double(const scoring::BasicContingencyTable<K>&)>
make_normalized_scorer_of(Objective o, std::uint32_t num_samples);

/// Scan parameters shared by every interaction order.  Zero-valued fields
/// mean "auto".
struct ScanOptionsBase {
  /// Default stays V4 until the fig3 benchmarks justify flipping; opt into
  /// the prefix-plane-cached engine with kV5PairCache (CLI: --version 5).
  CpuVersion version = CpuVersion::kV4Vector;
  /// Vector strategy for V4/V5 (ignored by V1/V3, which are scalar by
  /// definition).  Defaults to the widest the host supports.
  KernelIsa isa = KernelIsa::kScalar;
  bool isa_auto = true;  ///< when true, `isa` is replaced by best_kernel_isa()
  Objective objective = Objective::kK2;
  unsigned threads = 1;       ///< 0 = hardware_concurrency
  std::uint64_t chunk_size = 0;  ///< scheduler chunk; 0 = auto
  TilingParams tiling{0, 0};  ///< {0,0} = autotune from the host L1D
  std::size_t top_k = 1;      ///< how many best combinations to report
  /// Restrict the scan to a combination-rank sub-range (heterogeneous
  /// CPU+GPU splits, sharded/multi-node scans).  Empty means the full
  /// space.  All five versions accept any sub-range: the per-combination
  /// versions (V1/V2) iterate it directly, the blocked versions (V3/V4/V5)
  /// map it to block tuples and give every prefix its exact in-range
  /// last-axis window, so a sub-range costs only its own combinations (a
  /// full scan pays nothing for the window) and a union of partial scans
  /// over any full-coverage split reproduces the full scan
  /// combination-for-combination.  For
  /// production-scale range orchestration — planning shards,
  /// checkpoint/resume, portable result files and the exact merge — use
  /// `trigen::shard` (src/shard/) instead of driving this field by hand.
  combinatorics::RankRange range{0, 0};
  /// Optional progress callback, reported in combinations scanned out of
  /// `range.size()` (serialized, monotone; runs on worker threads).
  ProgressFn progress{};
  /// Optional empirical-tuning lookup (see kernel_config.hpp; trigen::tune
  /// provides one from a per-host TRIGEN-TUNE profile).  Consulted by the
  /// vector versions (V4/V5) and run_batched only when `isa_auto` is set
  /// AND `tiling` is invalid — an explicit pin of either field keeps the
  /// whole configuration explicit/analytic.  A miss, an unset resolver, or
  /// a choice whose ISA this host cannot execute falls back to
  /// best_kernel_isa() and the analytic autotune_tiling model.  Results
  /// are bit-identical either way; only speed differs.
  ConfigResolver config{};
};

/// Detection parameters for the order-K scan.
template <unsigned K>
struct BasicDetectorOptions : ScanOptionsBase {
  /// Optional pre-built scorer overriding `objective` (must be normalized
  /// to lower-is-better, e.g. from make_normalized_scorer_of<K>).  Lets
  /// repeated scans — permutation testing above all — share one
  /// log-factorial table instead of rebuilding scorer state per run.
  std::function<double(const scoring::BasicContingencyTable<K>&)> scorer{};
};

/// Detection parameters for the 3-way scan.
using DetectorOptions = BasicDetectorOptions<3>;

/// Injects the default normalized scorer for `objective` when none is set
/// — the shared prelude of every repeated-scan harness (shard runner,
/// permutation tests), order-generic.
template <unsigned K>
void ensure_default_scorer(BasicDetectorOptions<K>& opt,
                           std::size_t num_samples) {
  if (!opt.scorer) {
    opt.scorer = make_normalized_scorer_of<K>(
        opt.objective, static_cast<std::uint32_t>(num_samples));
  }
}

/// Execution statistics shared by every scan result, independent of order.
struct ScanStats {
  /// The paper's "elements" metric: combinations x samples.
  std::uint64_t elements = 0;
  double seconds = 0.0;
  /// Effective configuration after auto-resolution.
  KernelIsa isa_used = KernelIsa::kScalar;
  TilingParams tiling_used{0, 0};
  unsigned threads_used = 1;

  /// Elements per second (the paper's headline performance metric).
  double elements_per_second() const {
    return seconds > 0.0 ? static_cast<double>(elements) / seconds : 0.0;
  }
};

/// Outcome of an order-K detection run.
template <unsigned K>
struct BasicDetectionResult : ScanStats {
  /// Best combinations, best-first.  Scores are normalized to
  /// lower-is-better (MI and X^2 are negated; K2 is reported as-is).
  std::vector<ScoredOf<K>> best;
  std::uint64_t combinations_evaluated = 0;
};

/// Outcome of a 3-way detection run.
using DetectionResult = BasicDetectionResult<3>;

/// Outcome of a batched multi-phenotype run: one independent top-k ranking
/// per partition of the batch, from a single pass over the genotype data.
template <unsigned K>
struct BasicBatchDetectionResult : ScanStats {
  /// `best[p]` is the best-first ranking of partition p, identical to what
  /// a dedicated run() over that partition's phenotype would report.
  std::vector<std::vector<ScoredOf<K>>> best;
  /// Combinations evaluated (counted once, not per partition).
  std::uint64_t combinations_evaluated = 0;
};

/// Exhaustive order-K detector over one dataset.  Thread-safe for
/// concurrent run() and run_batched() calls.  Construction builds the
/// class-split planes every V2-V5 scan reads; the V1 and combined
/// (batched) layouts are read back from them once, on first use.
template <unsigned K>
class BasicDetector {
  static_assert(K >= 2 && K <= combinatorics::kMaxOrder);

 public:
  explicit BasicDetector(const dataset::GenotypeMatrix& d);
  ~BasicDetector();

  BasicDetector(const BasicDetector&) = delete;
  BasicDetector& operator=(const BasicDetector&) = delete;

  /// Runs exhaustive detection; throws std::invalid_argument for
  /// inconsistent options and std::runtime_error for unavailable ISAs.
  /// All five versions produce bit-identical results for any rank range
  /// (cross-checked in the test suite); they differ only in speed.
  BasicDetectionResult<K> run(const BasicDetectorOptions<K>& options = {}) const;

  /// Scores every combination against ALL partitions of `batch` in one
  /// pass: the genotype streaming and prefix-plane ladder are built once
  /// per (prefix, chunk) and amortized across partitions, so P partitions
  /// cost far less than P runs.  Each partition's ranking is bit-identical
  /// to a dedicated run() with that partition as the phenotype (same
  /// integer tables, same scorer, same deterministic merge).  Always runs
  /// the cached blocked engine; `options.version` is ignored.  This is the
  /// engine under permutation testing (observed + shuffled nulls = one
  /// batch) and multi-trait scans.
  BasicBatchDetectionResult<K> run_batched(
      const dataset::PhenotypeBatch& batch,
      const BasicDetectorOptions<K>& options = {}) const;

  /// Reference per-combination evaluation through the bitwise kernels over
  /// the full sample range — the cross-check the blocked paths are
  /// validated against (and the V2 per-combination scan path).
  scoring::BasicContingencyTable<K> contingency(
      const combinatorics::Combination<K>& snps,
      KernelIsa isa = KernelIsa::kScalar) const;

  /// Pairwise-API compatibility form of contingency().
  scoring::PairContingencyTable contingency(
      std::size_t x, std::size_t y,
      KernelIsa isa = KernelIsa::kScalar) const
    requires(K == 2)
  {
    return contingency(
        combinatorics::Combination<2>{static_cast<std::uint32_t>(x),
                                      static_cast<std::uint32_t>(y)},
        isa);
  }

  std::size_t num_snps() const;
  std::size_t num_samples() const;

  /// Layout accessors (used by benches and the CARM characterization).
  /// The first planes_v1() call builds the V1 layout.
  const dataset::BitPlanesV1& planes_v1() const;
  const dataset::PhenoSplitPlanes& planes_split() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Exhaustive 3-way detector: the order the paper (and this repo) grew up
/// with.
using Detector = BasicDetector<3>;

extern template class BasicDetector<2>;
extern template class BasicDetector<3>;
extern template class BasicDetector<4>;
extern template class BasicDetector<5>;
extern template class BasicDetector<6>;

extern template std::function<double(const scoring::BasicContingencyTable<2>&)>
make_normalized_scorer_of<2>(Objective, std::uint32_t);
extern template std::function<double(const scoring::BasicContingencyTable<3>&)>
make_normalized_scorer_of<3>(Objective, std::uint32_t);
extern template std::function<double(const scoring::BasicContingencyTable<4>&)>
make_normalized_scorer_of<4>(Objective, std::uint32_t);
extern template std::function<double(const scoring::BasicContingencyTable<5>&)>
make_normalized_scorer_of<5>(Objective, std::uint32_t);
extern template std::function<double(const scoring::BasicContingencyTable<6>&)>
make_normalized_scorer_of<6>(Objective, std::uint32_t);

}  // namespace trigen::core
