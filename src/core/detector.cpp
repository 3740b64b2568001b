#include "trigen/core/detector.hpp"

#include <functional>
#include <mutex>
#include <stdexcept>

#include "trigen/combinatorics/block_partition.hpp"
#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/common/stopwatch.hpp"
#include "trigen/core/scan_driver.hpp"
#include "trigen/scoring/chi_squared.hpp"
#include "trigen/scoring/generic.hpp"
#include "trigen/scoring/k2.hpp"
#include "trigen/scoring/mutual_information.hpp"

namespace trigen::core {

using combinatorics::Combination;
using combinatorics::RankRange;
using scoring::ContingencyTable;

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

std::function<double(const ContingencyTable&)> make_normalized_scorer(
    Objective o, std::uint32_t num_samples) {
  switch (o) {
    case Objective::kK2: {
      auto k2 = std::make_shared<scoring::K2Score>(num_samples);
      return [k2](const ContingencyTable& t) { return (*k2)(t); };
    }
    case Objective::kMutualInformation:
      return [mi = scoring::MutualInformation{}](const ContingencyTable& t) {
        return -mi(t);
      };
    case Objective::kChiSquared:
      return [chi = scoring::ChiSquared{}](const ContingencyTable& t) {
        return -chi(t);
      };
  }
  throw std::invalid_argument("unknown objective");
}

template <unsigned K>
std::function<double(const scoring::BasicContingencyTable<K>&)>
make_normalized_scorer_of(Objective o, std::uint32_t num_samples) {
  if constexpr (K == 3) {
    return make_normalized_scorer(o, num_samples);
  } else {
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
}

namespace {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// V1 evaluation at any order from the naive Fig.-1 layout: per-cell
/// genotype-plane ANDs against the phenotype / negated phenotype plane.
/// Zero-padded genotype planes contribute nothing, so no pad correction.
template <unsigned K>
scoring::BasicContingencyTable<K> contingency_v1_of(
    const dataset::BitPlanesV1& p, const Combination<K>& s) {
  scoring::BasicContingencyTable<K> t;
  const Word* pheno = p.phenotype_plane();
  for (std::size_t cell = 0; cell < scoring::num_cells(K); ++cell) {
    std::array<const Word*, K> g;
    std::size_t rem = cell;
    for (unsigned i = K; i-- > 0;) {
      g[i] = p.plane(s[i], static_cast<int>(rem % 3));
      rem /= 3;
    }
    std::uint32_t ctrl = 0;
    std::uint32_t cases = 0;
    for (std::size_t w = 0; w < p.words(); ++w) {
      Word v = g[0][w];
      for (unsigned i = 1; i < K; ++i) v &= g[i][w];
      cases += static_cast<std::uint32_t>(std::popcount(v & pheno[w]));
      ctrl += static_cast<std::uint32_t>(std::popcount(v & ~pheno[w]));
    }
    t.counts[0][cell] = ctrl;
    t.counts[1][cell] = cases;
  }
  return t;
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
  const dataset::PhenoSplitPlanes& p = impl_->split;
  scoring::BasicContingencyTable<K> t;
  if constexpr (K == 3) {
    t = contingency_split(p, snps[0], snps[1], snps[2], isa);
  } else if constexpr (K == 2) {
    // Four counted cells; the per-SNP genotype counts give the other five.
    const CachedKernelSet kernels = get_cached_kernels(isa);
    for (int c = 0; c < 2; ++c) {
      auto& row = t.counts[static_cast<std::size_t>(c)];
      kernels.count(p.plane(c, snps[0], 0), p.plane(c, snps[0], 1),
                    p.plane(c, snps[1], 0), p.plane(c, snps[1], 1), 0,
                    p.words(c), row.data());
      complete_pair_row(p, c, snps[0], snps[1], row.data());
    }
  } else {
    const GenericKernelSet kernels = get_generic_kernels(isa);
    std::array<const Word*, K> g0;
    std::array<const Word*, K> g1;
    for (int c = 0; c < 2; ++c) {
      for (unsigned i = 0; i < K; ++i) {
        g0[i] = p.plane(c, snps[i], 0);
        g1[i] = p.plane(c, snps[i], 1);
      }
      auto& row = t.counts[static_cast<std::size_t>(c)];
      kernels.direct(g0.data(), g1.data(), K, 0, p.words(c), row.data());
      // NOR padding shows up as phantom all-genotype-2 observations.
      row[scoring::num_cells(K) - 1] -=
          static_cast<std::uint32_t>(p.pad_bits(c));
    }
  }
  return t;
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
  // Empirical tuning: when both the ISA and the tiling are still "auto",
  // a profile resolver may supply the measured-best pair for this kernel
  // family and dataset size.  A miss falls through to the analytic
  // defaults below; a choice this host cannot execute is ignored.
  std::optional<KernelConfigChoice> tuned;
  if (vector_version && options.config && options.isa_auto &&
      !options.tiling.valid()) {
    tuned = options.config(KernelConfigRequest{
        scan_kernel_family(K, options.version, false), K, impl_->num_samples,
        0});
    if (tuned && !kernel_available(tuned->isa)) tuned.reset();
  }
  // V1 and V3 are scalar by definition; V4/V5 default to the widest
  // available strategy.  V2 honors an explicitly requested ISA (the
  // heterogeneous coordinator pairs the per-combination path with a vector
  // kernel).
  result.isa_used = KernelIsa::kScalar;
  if (vector_version) {
    result.isa_used = !options.isa_auto ? options.isa
                      : tuned           ? tuned->isa
                                        : best_kernel_isa();
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
  // per-thread TopK accumulators, the throttled progress callback and the
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
                    naive ? contingency_v1_of<K>(*v1, c)
                          : contingency(c, isa);
                top.push(make_scored<K>(c, scorer(table)));
              });
          return r.size();
        });
    result.tiling_used = TilingParams{0, 0};
  } else {
    // V3/V4/V5: work unit = one block tuple of the partition covering
    // `range`; a partial range is clipped by the exact per-prefix
    // last-axis window, so only in-range combinations are computed.  V5
    // budgets L1 for the prefix-plane ladder when autotuning.
    TilingParams tiling = options.tiling;
    if (!tiling.valid() && tuned) tiling = tuned->tiling;
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
    if constexpr (K == 2) {
      // The counts-only kernel is the whole pair evaluation; V3 runs its
      // scalar variant, V4 and V5 the vector one (identical here — the
      // ladder has no rungs below order 3).
      const CachedKernelSet kernels = get_cached_kernels(result.isa_used);
      merged = scan_blocks([&](unsigned tid, const BlockTuple<2>& bt,
                               const auto& on_comb) {
        scan_block_pair(impl_->split, tiling, kernels, thread_scratch(tid),
                        BlockPair{bt[0], bt[1]}, clip,
                        [&](const combinatorics::Pair& pr,
                            const scoring::PairContingencyTable& tb) {
                          on_comb(Combination<2>{pr.x, pr.y}, scorer(tb));
                        });
      });
    } else if constexpr (K == 3) {
      // The hand-tuned three-operand kernels (all per-ISA variants) stay on
      // the hot path of the order the paper measures.
      const auto run3 = [&](auto&& engine_kernels) {
        return scan_blocks([&](unsigned tid, const BlockTuple<3>& bt,
                               const auto& on_comb) {
          scan_block_triple(impl_->split, tiling, engine_kernels,
                            thread_scratch(tid),
                            BlockTriple{bt[0], bt[1], bt[2]},
                            clip,
                            [&](const combinatorics::Triplet& tr,
                                const scoring::ContingencyTable& tb) {
                              on_comb(Combination<3>{tr.x, tr.y, tr.z},
                                      scorer(tb));
                            });
        });
      };
      merged = cached ? run3(get_cached_kernels(result.isa_used))
                      : run3(get_kernel(result.isa_used));
    } else {
      const GenericKernelSet generic = get_generic_kernels(result.isa_used);
      const auto on_table = [&](const auto& on_comb) {
        return [&scorer, on_comb](
                   const Combination<K>& c,
                   const scoring::BasicContingencyTable<K>& tb) {
          on_comb(c, scorer(tb));
        };
      };
      if (cached) {
        const CachedKernelSet ck = get_cached_kernels(result.isa_used);
        merged = scan_blocks([&](unsigned tid, const BlockTuple<K>& bt,
                                 const auto& on_comb) {
          scan_block_tuple<K>(impl_->split, tiling, ck, generic,
                              thread_scratch(tid), bt, clip,
                              on_table(on_comb));
        });
      } else {
        merged = scan_blocks([&](unsigned tid, const BlockTuple<K>& bt,
                                 const auto& on_comb) {
          scan_block_tuple<K>(impl_->split, tiling, generic,
                              thread_scratch(tid), bt, clip,
                              on_table(on_comb));
        });
      }
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
  // Empirical tuning, as in run(): consulted only when ISA and tiling are
  // both still auto, keyed by the batched-finalize family and slot count.
  std::optional<KernelConfigChoice> tuned;
  if (options.config && options.isa_auto && !options.tiling.valid()) {
    tuned = options.config(KernelConfigRequest{
        KernelFamily::kFinalizeBatched, K, impl_->num_samples, slots});
    if (tuned && !kernel_available(tuned->isa)) tuned.reset();
  }
  result.isa_used = !options.isa_auto ? options.isa
                    : tuned           ? tuned->isa
                                      : best_kernel_isa();
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

  // Always the cached blocked engine (the whole point is amortizing the
  // ladder), with the batch-aware L1 budget: the per-tuple tables grow to
  // 1 + P slots and the resident label rows join the streamed block.
  TilingParams tiling = options.tiling;
  if (!tiling.valid() && tuned) tiling = tuned->tiling;
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
  // One TopK per partition per thread; the per-partition merge keeps each
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
          if constexpr (K == 2) {
            scan_block_pair_batched(combined, batch, tiling, cachedk,
                                    bkern, thread_scratch(tid),
                                    BlockPair{bt[0], bt[1]}, clip, on_table);
          } else {
            scan_block_tuple_batched<K>(combined, batch, tiling,
                                        cachedk, generic, bkern,
                                        thread_scratch(tid), bt, clip,
                                        on_table);
          }
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
