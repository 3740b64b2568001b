#include "trigen/core/detector.hpp"

#include <functional>
#include <mutex>
#include <stdexcept>

#include "trigen/combinatorics/block_partition.hpp"
#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/common/stopwatch.hpp"
#include "trigen/core/scan_driver.hpp"
#include "trigen/scoring/generic.hpp"

namespace trigen::core {

using combinatorics::Combination;
using combinatorics::RankRange;

std::string cpu_version_name(CpuVersion v) {
  switch (v) {
    case CpuVersion::kV1Naive: return "V1-naive";
    case CpuVersion::kV2Split: return "V2-split";
    case CpuVersion::kV3Blocked: return "V3-blocked";
    case CpuVersion::kV4Vector: return "V4-vector";
    case CpuVersion::kV5PairCache: return "V5-paircache";
  }
  return "unknown";
}

unsigned cpu_version_number(CpuVersion v) {
  return static_cast<unsigned>(v) + 1;
}

std::optional<CpuVersion> cpu_version_from_number(std::uint64_t n) {
  if (n < 1 || n > 5) return std::nullopt;
  return static_cast<CpuVersion>(n - 1);
}

KernelFamily scan_kernel_family(unsigned order, CpuVersion version,
                                bool batched) {
  if (batched) return KernelFamily::kFinalizeBatched;
  if (order == 2) return KernelFamily::kPairCount;
  const bool cached = version == CpuVersion::kV5PairCache;
  if (order == 3) {
    return cached ? KernelFamily::kTripleBlockCached
                  : KernelFamily::kTripleBlock;
  }
  return cached ? KernelFamily::kPrefixLadder : KernelFamily::kTupleBlock;
}

std::string objective_name(Objective o) {
  switch (o) {
    case Objective::kK2: return "k2";
    case Objective::kMutualInformation: return "mutual-information";
    case Objective::kChiSquared: return "chi-squared";
  }
  return "unknown";
}

std::optional<Objective> objective_from_name(std::string_view name) {
  for (const Objective o : {Objective::kK2, Objective::kMutualInformation,
                            Objective::kChiSquared}) {
    if (name == objective_name(o)) return o;
  }
  if (name == "mi") return Objective::kMutualInformation;
  if (name == "chi2") return Objective::kChiSquared;
  return std::nullopt;
}

template <unsigned K>
struct BasicDetector<K>::Impl {
  explicit Impl(const dataset::GenotypeMatrix& d)
      : num_snps(d.num_snps()),
        num_samples(d.num_samples()),
        phenotypes(d.phenotypes().begin(), d.phenotypes().end()),
        split(dataset::PhenoSplitPlanes::build(d)) {}

  /// Fig.-1 layout, read back from `split` on first use: only V1 scans and
  /// planes_v1() need it.
  const dataset::BitPlanesV1& v1() const {
    std::call_once(v1_once_, [this] {
      v1_ = dataset::BitPlanesV1::build(split, phenotypes);
    });
    return v1_;
  }

  /// Phenotype-agnostic layout (class 0 = all samples, original order) for
  /// run_batched, read back from `split` on first use; the per-partition
  /// split happens against PhenotypeBatch label planes instead of a
  /// baked-in phenotype.
  const dataset::PhenoSplitPlanes& combined() const {
    std::call_once(combined_once_, [this] {
      combined_ = dataset::PhenoSplitPlanes::build_combined(split, phenotypes);
    });
    return combined_;
  }

  std::size_t num_snps;
  std::size_t num_samples;
  std::vector<dataset::Phenotype> phenotypes;
  dataset::PhenoSplitPlanes split;

 private:
  mutable std::once_flag v1_once_;
  mutable std::once_flag combined_once_;
  mutable dataset::BitPlanesV1 v1_;
  mutable dataset::PhenoSplitPlanes combined_;
};

template <unsigned K>
BasicDetector<K>::BasicDetector(const dataset::GenotypeMatrix& d) {
  if (d.num_snps() < K) {
    throw std::invalid_argument("Detector: need at least " +
                                std::to_string(K) + " SNPs");
  }
  if (!d.valid()) {
    throw std::invalid_argument("Detector: dataset contains invalid values");
  }
  impl_ = std::make_unique<Impl>(d);
}

template <unsigned K>
BasicDetector<K>::~BasicDetector() = default;

template <unsigned K>
std::size_t BasicDetector<K>::num_snps() const { return impl_->num_snps; }
template <unsigned K>
std::size_t BasicDetector<K>::num_samples() const {
  return impl_->num_samples;
}
template <unsigned K>
const dataset::BitPlanesV1& BasicDetector<K>::planes_v1() const {
  return impl_->v1();
}
template <unsigned K>
const dataset::PhenoSplitPlanes& BasicDetector<K>::planes_split() const {
  return impl_->split;
}

template <unsigned K>
std::function<double(const scoring::BasicContingencyTable<K>&)>
make_normalized_scorer_of(Objective o, std::uint32_t num_samples) {
  using Table = scoring::BasicContingencyTable<K>;
  switch (o) {
    case Objective::kK2: {
      auto logfact =
          std::make_shared<scoring::LogFactorialTable>(num_samples + 1);
      return [logfact](const Table& t) {
        return scoring::k2_score_cells(*logfact, t.counts[0], t.counts[1]);
      };
    }
    case Objective::kMutualInformation:
      return [](const Table& t) {
        return -scoring::mutual_information_cells(t.counts[0], t.counts[1]);
      };
    case Objective::kChiSquared:
      return [](const Table& t) {
        return -scoring::chi_squared_cells(t.counts[0], t.counts[1]);
      };
  }
  throw std::invalid_argument("unknown objective");
}

namespace {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

template <unsigned K>
scoring::BasicContingencyTable<K> BasicDetector<K>::contingency(
    const Combination<K>& snps, KernelIsa isa) const {
  for (unsigned i = 0; i < K; ++i) {
    if (snps[i] >= impl_->num_snps || (i > 0 && snps[i] <= snps[i - 1])) {
      throw std::out_of_range("Detector::contingency: bad SNP indices");
    }
  }
  return contingency_split<K>(impl_->split, snps, isa);
}

template <unsigned K>
BasicDetectionResult<K> BasicDetector<K>::run(
    const BasicDetectorOptions<K>& options) const {
  using Scored = ScoredOf<K>;
  BasicDetectionResult<K> result;
  result.threads_used = resolve_threads(options.threads);
  const bool cached = options.version == CpuVersion::kV5PairCache;
  const bool vector_version =
      options.version == CpuVersion::kV4Vector || cached;
  // V1 and V3 are scalar by definition; V4/V5 default to the widest
  // available strategy.  V2 honors an explicitly requested ISA (the
  // heterogeneous coordinator pairs the per-combination path with a vector
  // kernel).
  result.isa_used = KernelIsa::kScalar;
  if (vector_version) {
    result.isa_used = options.isa_auto ? best_kernel_isa() : options.isa;
  } else if (options.version == CpuVersion::kV2Split && !options.isa_auto) {
    result.isa_used = options.isa;
  }
  if (!kernel_available(result.isa_used)) {
    throw std::runtime_error("requested kernel ISA not available: " +
                             kernel_isa_name(result.isa_used));
  }
  if (options.top_k == 0) {
    throw std::invalid_argument("DetectorOptions::top_k must be >= 1");
  }

  const std::size_t m = impl_->num_snps;
  const std::uint64_t total = combinatorics::n_choose_k(m, K);
  RankRange range = options.range;
  if (range.empty()) range = {0, total};
  if (range.last > total) {
    throw std::invalid_argument("DetectorOptions::range exceeds the space");
  }
  const bool partial = range.first != 0 || range.last != total;
  result.combinations_evaluated = range.size();
  result.elements = range.size() * impl_->num_samples;

  const auto scorer =
      options.scorer
          ? options.scorer
          : make_normalized_scorer_of<K>(
                options.objective,
                static_cast<std::uint32_t>(impl_->num_samples));

  // One shared driver runs every version: it owns the fork/join, the
  // per-thread top-k accumulators, the throttled progress callback and the
  // deterministic rank-ordered merge.  The versions only differ in how a
  // scheduled work unit maps to combinations.
  ScanConfig cfg;
  cfg.threads = result.threads_used;
  cfg.chunk_size = options.chunk_size;
  cfg.progress = options.progress;
  cfg.progress_total = range.size();

  Stopwatch sw;
  BasicTopK<Scored> merged(options.top_k);
  const bool blocked =
      options.version == CpuVersion::kV3Blocked || vector_version;
  if (!blocked) {
    // V1/V2: work unit = one combination rank inside `range`.
    const bool naive = options.version == CpuVersion::kV1Naive;
    const dataset::BitPlanesV1* const v1 =
        naive ? &impl_->v1() : nullptr;
    const KernelIsa isa = result.isa_used;
    merged = scan_best<Scored>(
        range.size(), cfg, options.top_k,
        [&](unsigned, RankRange r, BasicTopK<Scored>& top) -> std::uint64_t {
          combinatorics::for_each_combination<K>(
              range.first + r.first, range.first + r.last,
              [&](const Combination<K>& c) {
                const scoring::BasicContingencyTable<K> table =
                    naive ? contingency_v1<K>(*v1, c)
                          : contingency(c, isa);
                top.push(make_scored<K>(c, scorer(table)));
              });
          return r.size();
        });
    result.tiling_used = TilingParams{0, 0};
  } else {
    // V3/V4/V5: work unit = one block tuple of the partition covering
    // `range`; a partial range is clipped by the exact per-prefix
    // last-axis window, so only in-range combinations are computed.  The
    // analytic tiling model sizes V5's ladder apart from the direct engine.
    TilingParams tiling = options.tiling;
    if (!tiling.valid()) {
      tiling = autotune_tiling(detect_l1_config(),
                               kernel_vector_words(result.isa_used), K,
                               cached);
    }
    result.tiling_used = tiling;
    const combinatorics::BlockGrid grid{m, tiling.bs};
    const combinatorics::BlockPartition part =
        combinatorics::partition_block_tuples<K>(grid, range);
    const LastAxisWindow<K> clip(partial ? range : kFullRange);
    // Per-thread scratch is constructed lazily by the worker that owns it,
    // not here on the submitting thread: the constructor's zero-fill is the
    // first touch of the table and prefix-plane-cache pages, so on NUMA
    // hosts they land on the scanning thread's node.
    std::vector<std::unique_ptr<TupleBlockScratch<K>>> scratch(cfg.threads);
    const auto thread_scratch = [&](unsigned tid) -> TupleBlockScratch<K>& {
      auto& sc = scratch[tid];
      if (!sc) sc = std::make_unique<TupleBlockScratch<K>>(tiling.bs);
      return *sc;
    };
    const auto scan_blocks = [&](auto&& run_block) {
      return scan_best<Scored>(
          part.block_ranks.size(), cfg, options.top_k,
          [&](unsigned tid, RankRange r,
              BasicTopK<Scored>& top) -> std::uint64_t {
            std::uint64_t emitted = 0;
            const auto on_comb = [&](const Combination<K>& c, double score) {
              ++emitted;
              top.push(make_scored<K>(c, score));
            };
            BlockTuple<K> bt =
                unrank_block_tuple<K>(part.block_ranks.first + r.first);
            for (std::uint64_t b = r.first; b < r.last; ++b) {
              run_block(tid, bt, on_comb);
              combinatorics::next_block_tuple<K>(bt);
            }
            return emitted;
          });
    };
    const auto on_table = [&](const auto& on_comb) {
      return [&scorer, on_comb](const Combination<K>& c,
                                const scoring::BasicContingencyTable<K>& tb) {
        on_comb(c, scorer(tb));
      };
    };
    if (K >= 3 && cached) {
      if constexpr (K >= 3) {
        // The prefix-plane ladder; at K = 3 it counts 8 of the 27 cells and
        // completes the rest from pair tables.
        const CachedKernelSet ck = get_cached_kernels(result.isa_used);
        const GenericKernelSet generic = get_generic_kernels(result.isa_used);
        merged = scan_blocks([&](unsigned tid, const BlockTuple<K>& bt,
                                 const auto& on_comb) {
          scan_block_tuple<K>(impl_->split, tiling, ck, generic,
                              thread_scratch(tid), bt, clip,
                              on_table(on_comb));
        });
      }
    } else {
      // The direct engine: V3 runs the scalar kernel, V4 (and V5 at K = 2,
      // where the ladder has no rungs) the vector one.
      const DirectKernel<K> kernel = get_direct_kernel<K>(result.isa_used);
      merged = scan_blocks([&](unsigned tid, const BlockTuple<K>& bt,
                               const auto& on_comb) {
        scan_block_tuple<K>(impl_->split, tiling, kernel, thread_scratch(tid),
                            bt, clip, on_table(on_comb));
      });
    }
  }
  result.seconds = sw.seconds();
  result.best = merged.sorted();
  return result;
}

template <unsigned K>
BasicBatchDetectionResult<K> BasicDetector<K>::run_batched(
    const dataset::PhenotypeBatch& batch,
    const BasicDetectorOptions<K>& options) const {
  using Scored = ScoredOf<K>;
  if (batch.num_samples() != impl_->num_samples) {
    throw std::invalid_argument(
        "run_batched: batch and dataset sample counts differ");
  }
  if (options.top_k == 0) {
    throw std::invalid_argument("DetectorOptions::top_k must be >= 1");
  }
  BasicBatchDetectionResult<K> result;
  result.threads_used = resolve_threads(options.threads);
  const std::size_t slots = batch.size();
  result.isa_used = options.isa_auto ? best_kernel_isa() : options.isa;
  if (!kernel_available(result.isa_used)) {
    throw std::runtime_error("requested kernel ISA not available: " +
                             kernel_isa_name(result.isa_used));
  }

  const std::size_t m = impl_->num_snps;
  const std::uint64_t total = combinatorics::n_choose_k(m, K);
  RankRange range = options.range;
  if (range.empty()) range = {0, total};
  if (range.last > total) {
    throw std::invalid_argument("DetectorOptions::range exceeds the space");
  }
  const bool partial = range.first != 0 || range.last != total;
  result.combinations_evaluated = range.size();
  result.elements = range.size() * impl_->num_samples * slots;

  const auto scorer =
      options.scorer
          ? options.scorer
          : make_normalized_scorer_of<K>(
                options.objective,
                static_cast<std::uint32_t>(impl_->num_samples));

  ScanConfig cfg;
  cfg.threads = result.threads_used;
  cfg.chunk_size = options.chunk_size;
  cfg.progress = options.progress;
  cfg.progress_total = range.size();

  // Always the batched blocked engine (the whole point is amortizing the
  // prefix planes), with the batch-aware budget: the per-tuple tables grow
  // to 1 + P slots and the resident label rows join the streamed block.
  TilingParams tiling = options.tiling;
  if (!tiling.valid()) {
    tiling = autotune_tiling(detect_l1_config(),
                             kernel_vector_words(result.isa_used), K, true,
                             slots, batch.stride());
  }
  result.tiling_used = tiling;

  const dataset::PhenoSplitPlanes& combined = impl_->combined();
  const CachedKernelSet cachedk = get_cached_kernels(result.isa_used);
  const GenericKernelSet generic = get_generic_kernels(result.isa_used);
  const BatchKernelSet bkern = get_batch_kernels(result.isa_used);

  const combinatorics::BlockGrid grid{m, tiling.bs};
  const combinatorics::BlockPartition part =
      combinatorics::partition_block_tuples<K>(grid, range);
  const LastAxisWindow<K> clip(partial ? range : kFullRange);

  // Lazily constructed by the owning worker (NUMA first touch, as in run()).
  std::vector<std::unique_ptr<BatchTupleScratch<K>>> scratch(cfg.threads);
  const auto thread_scratch = [&](unsigned tid) -> BatchTupleScratch<K>& {
    auto& sc = scratch[tid];
    if (!sc) {
      sc = std::make_unique<BatchTupleScratch<K>>(tiling.bs, slots,
                                                  batch.stride());
    }
    return *sc;
  };

  Stopwatch sw;
  // One top-k per partition per thread; the per-partition merge keeps each
  // ranking deterministic (score-then-rank tie-break) and independent.
  std::vector<std::vector<BasicTopK<Scored>>> per_thread(
      cfg.threads,
      std::vector<BasicTopK<Scored>>(slots, BasicTopK<Scored>(options.top_k)));
  parallel_scan(
      part.block_ranks.size(), cfg, per_thread,
      [&](unsigned tid, RankRange r,
          std::vector<BasicTopK<Scored>>& acc) -> std::uint64_t {
        std::uint64_t emitted = 0;
        const auto on_table =
            [&](const Combination<K>& c, std::size_t p,
                const scoring::BasicContingencyTable<K>& tb) {
              if (p == 0) ++emitted;  // combinations, not tables
              acc[p].push(make_scored<K>(c, scorer(tb)));
            };
        BlockTuple<K> bt =
            unrank_block_tuple<K>(part.block_ranks.first + r.first);
        for (std::uint64_t b = r.first; b < r.last; ++b) {
          scan_block_tuple_batched<K>(combined, batch, tiling, cachedk,
                                      generic, bkern, thread_scratch(tid),
                                      bt, clip, on_table);
          combinatorics::next_block_tuple<K>(bt);
        }
        return emitted;
      });
  result.seconds = sw.seconds();
  result.best.resize(slots);
  for (std::size_t p = 0; p < slots; ++p) {
    BasicTopK<Scored> merged(options.top_k);
    for (const auto& th : per_thread) merged.merge(th[p]);
    result.best[p] = merged.sorted();
  }
  return result;
}

template class BasicDetector<2>;
template class BasicDetector<3>;
template class BasicDetector<4>;
template class BasicDetector<5>;
template class BasicDetector<6>;

template std::function<double(const scoring::BasicContingencyTable<2>&)>
make_normalized_scorer_of<2>(Objective, std::uint32_t);
template std::function<double(const scoring::BasicContingencyTable<3>&)>
make_normalized_scorer_of<3>(Objective, std::uint32_t);
template std::function<double(const scoring::BasicContingencyTable<4>&)>
make_normalized_scorer_of<4>(Objective, std::uint32_t);
template std::function<double(const scoring::BasicContingencyTable<5>&)>
make_normalized_scorer_of<5>(Objective, std::uint32_t);
template std::function<double(const scoring::BasicContingencyTable<6>&)>
make_normalized_scorer_of<6>(Objective, std::uint32_t);

}  // namespace trigen::core
