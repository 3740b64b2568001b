#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include <sys/stat.h>

#include "test_util.hpp"
#include "trigen/core/blocked_engine.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/scan_csv.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/core/topk.hpp"

namespace trigen::core {
namespace {

using combinatorics::Combination;
using scoring::ContingencyTable;
using scoring::reference_contingency_k;
using trigen::test::Shape;
using trigen::test::planted_dataset;
using trigen::test::random_dataset;
using trigen::test::small_shapes;

// --------------------------------------------------------------------------
// Kernel registry
// --------------------------------------------------------------------------

TEST(KernelRegistry, ScalarAlwaysPresent) {
  EXPECT_TRUE(kernel_available(KernelIsa::kScalar));
  EXPECT_NE(get_kernel(KernelIsa::kScalar), nullptr);
}

TEST(KernelRegistry, BestIsAvailable) {
  EXPECT_TRUE(kernel_available(best_kernel_isa()));
}

/// Every KernelIsa enumerator, whether or not it was compiled in — registry
/// metadata (vector width, name) must be answerable for all of them.
const std::vector<KernelIsa>& every_isa() {
  static const std::vector<KernelIsa> v = {
      KernelIsa::kScalar,     KernelIsa::kAvx2,
      KernelIsa::kAvx2Lookup, KernelIsa::kAvx512Extract,
      KernelIsa::kAvx512Vpopcnt};
  return v;
}

TEST(KernelRegistry, VectorWordsMatchIsa) {
  EXPECT_EQ(kernel_vector_words(KernelIsa::kScalar), 1u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx2), 8u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx2Lookup), 8u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx512Extract), 16u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx512Vpopcnt), 16u);
}

TEST(KernelRegistry, VectorWordsArePowersOfTwoForEveryIsa) {
  for (const KernelIsa isa : every_isa()) {
    const std::size_t w = kernel_vector_words(isa);
    EXPECT_GE(w, 1u) << kernel_isa_name(isa);
    EXPECT_EQ(w & (w - 1), 0u) << kernel_isa_name(isa);
  }
}

TEST(KernelRegistry, NamesNonEmpty) {
  for (const auto isa : every_isa()) {
    EXPECT_FALSE(kernel_isa_name(isa).empty());
    EXPECT_NE(kernel_isa_name(isa), "unknown");
  }
}

TEST(KernelRegistry, CompiledInIsasAreUniqueAndStartWithScalar) {
  const auto& all = all_kernel_isas();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), KernelIsa::kScalar);
  std::set<KernelIsa> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
}

TEST(KernelRegistry, KernelIsaParsesEveryName) {
  for (const KernelIsa isa : all_kernel_isas()) {
    const auto parsed = parse_kernel_isa(kernel_isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(parse_kernel_isa("sse9").has_value());
  EXPECT_FALSE(parse_kernel_isa("").has_value());
}

TEST(KernelRegistry, ScanKernelFamilyMatchesLadder) {
  EXPECT_EQ(scan_kernel_family(2, CpuVersion::kV4Vector, false),
            KernelFamily::kPairCount);
  EXPECT_EQ(scan_kernel_family(3, CpuVersion::kV4Vector, false),
            KernelFamily::kTripleBlock);
  EXPECT_EQ(scan_kernel_family(3, CpuVersion::kV5PairCache, false),
            KernelFamily::kTripleBlockCached);
  EXPECT_EQ(scan_kernel_family(4, CpuVersion::kV4Vector, false),
            KernelFamily::kTupleBlock);
  EXPECT_EQ(scan_kernel_family(5, CpuVersion::kV5PairCache, false),
            KernelFamily::kPrefixLadder);
  EXPECT_EQ(scan_kernel_family(3, CpuVersion::kV4Vector, true),
            KernelFamily::kFinalizeBatched);
}

TEST(KernelRegistry, GetKernelThrowsForUnavailableIsa) {
  // An ISA the host cannot execute (or that was not compiled in) must never
  // yield a kernel pointer: dispatch is the single authority on what runs.
  for (const KernelIsa isa : every_isa()) {
    if (kernel_available(isa)) {
      EXPECT_NE(get_kernel(isa), nullptr) << kernel_isa_name(isa);
    } else {
      EXPECT_THROW(get_kernel(isa), std::runtime_error)
          << kernel_isa_name(isa);
    }
  }
}

TEST(KernelRegistry, CachedKernelsExistForEveryAvailableIsa) {
  // The V5 kernel set mirrors the triple-block registry: every ISA that
  // can hand out a direct kernel hands out build+cached+count, and an
  // unavailable ISA must throw rather than return a pointer.
  for (const KernelIsa isa : every_isa()) {
    if (kernel_available(isa)) {
      const CachedKernelSet ks = get_cached_kernels(isa);
      EXPECT_NE(ks.build, nullptr) << kernel_isa_name(isa);
      EXPECT_NE(ks.cached, nullptr) << kernel_isa_name(isa);
      EXPECT_NE(ks.count, nullptr) << kernel_isa_name(isa);
    } else {
      EXPECT_THROW(get_cached_kernels(isa), std::runtime_error)
          << kernel_isa_name(isa);
    }
  }
}

TEST(KernelRegistry, StrategiesShareTheMappedBodies) {
  // Which strategy runs which body: every AVX strategy runs the AVX2
  // extract extend and direct; only VPOPCNTDQ has its own finalize; both
  // AVX2 strategies share one batch pair; every strategy has its own
  // triple-block, build, count and extend01.
  if (!kernel_available(KernelIsa::kAvx2)) GTEST_SKIP() << "no AVX2";
  const GenericKernelSet avx2 = get_generic_kernels(KernelIsa::kAvx2);
  const BatchKernelSet avx2_batch = get_batch_kernels(KernelIsa::kAvx2);
  for (const KernelIsa isa : all_kernel_isas()) {
    if (isa == KernelIsa::kScalar || !kernel_available(isa)) continue;
    const bool own = isa != KernelIsa::kAvx2;
    const GenericKernelSet g = get_generic_kernels(isa);
    const BatchKernelSet b = get_batch_kernels(isa);
    EXPECT_EQ(g.extend, avx2.extend) << kernel_isa_name(isa);
    EXPECT_EQ(g.direct, avx2.direct) << kernel_isa_name(isa);
    EXPECT_EQ(g.finalize == avx2.finalize, isa != KernelIsa::kAvx512Vpopcnt)
        << kernel_isa_name(isa);
    EXPECT_EQ(b.finalize == avx2_batch.finalize,
              isa == KernelIsa::kAvx2 || isa == KernelIsa::kAvx2Lookup)
        << kernel_isa_name(isa);
    EXPECT_EQ(g.extend01 != avx2.extend01, own) << kernel_isa_name(isa);
    EXPECT_EQ(get_kernel(isa) != get_kernel(KernelIsa::kAvx2), own)
        << kernel_isa_name(isa);
  }
}

TEST(KernelRegistry, PaperExtractComesAfterTheLookupAblation) {
  // best_kernel_isa() takes the last entry the host runs, so an AVX2-only
  // host defaults to the paper's extract strategy, never the ablation.
  const auto& all = all_kernel_isas();
  const auto lookup =
      std::find(all.begin(), all.end(), KernelIsa::kAvx2Lookup);
  const auto extract = std::find(all.begin(), all.end(), KernelIsa::kAvx2);
  if (lookup == all.end() || extract == all.end()) {
    GTEST_SKIP() << "AVX2 strategies not compiled in";
  }
  EXPECT_LT(lookup, extract);
  EXPECT_NE(best_kernel_isa(), KernelIsa::kAvx2Lookup);
}

TEST(KernelRegistry, AvailableImpliesCompiledIn) {
  const auto& all = all_kernel_isas();
  const std::set<KernelIsa> compiled(all.begin(), all.end());
  for (const KernelIsa isa : every_isa()) {
    if (kernel_available(isa)) {
      EXPECT_TRUE(compiled.count(isa) == 1) << kernel_isa_name(isa);
    }
  }
}

// --------------------------------------------------------------------------
// Contingency kernels vs brute-force reference
// --------------------------------------------------------------------------

class KernelShapeTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, KernelShapeTest,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(KernelShapeTest, V1MatchesReferenceForAllTriplets) {
  const auto d = random_dataset(GetParam());
  const auto planes = dataset::BitPlanesV1::build(d);
  const std::size_t m = d.num_snps();
  for (std::uint32_t x = 0; x < m; ++x) {
    for (std::uint32_t y = x + 1; y < m; ++y) {
      for (std::uint32_t z = y + 1; z < m; ++z) {
        ASSERT_EQ(contingency_v1<3>(planes, {x, y, z}),
                  reference_contingency_k<3>(d, {x, y, z}))
            << x << "," << y << "," << z;
      }
    }
  }
}

TEST_P(KernelShapeTest, SplitKernelMatchesReferenceForEveryIsa) {
  const auto d = random_dataset(GetParam());
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const std::size_t m = d.num_snps();
  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    for (std::uint32_t x = 0; x < m; ++x) {
      for (std::uint32_t y = x + 1; y < m; ++y) {
        for (std::uint32_t z = y + 1; z < m; ++z) {
          ASSERT_EQ(contingency_split<3>(planes, {x, y, z}, isa),
                    reference_contingency_k<3>(d, {x, y, z}))
              << kernel_isa_name(isa) << " " << x << "," << y << "," << z;
        }
      }
    }
  }
}

TEST_P(KernelShapeTest, CachedKernelMatchesReferenceForEveryIsa) {
  // Two-phase V5 evaluation at the kernel level: build the x∩y planes of
  // (x, y) over the full word range, then run the cached kernel for every
  // z — the table must match the brute-force reference bit for bit.
  const auto d = random_dataset(GetParam());
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const std::size_t m = d.num_snps();
  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    const CachedKernelSet ks = get_cached_kernels(isa);
    PrefixPlaneCache cache;
    for (std::uint32_t x = 0; x < m; ++x) {
      for (std::uint32_t y = x + 1; y < m; ++y) {
        for (std::uint32_t z = y + 1; z < m; ++z) {
          ContingencyTable t;
          for (int c = 0; c < 2; ++c) {
            const std::size_t words = planes.words(c);
            cache.ensure(3, words);
            std::fill(cache.pops(), cache.pops() + 9, 0u);
            ks.build(planes.plane(c, x, 0), planes.plane(c, x, 1),
                     planes.plane(c, y, 0), planes.plane(c, y, 1), 0, words,
                     cache.planes(), cache.stride(), cache.pops());
            ks.cached(cache.planes(), cache.stride(), cache.pops(),
                      planes.plane(c, z, 0), planes.plane(c, z, 1), 0, words,
                      t.counts[static_cast<std::size_t>(c)].data());
            t.counts[static_cast<std::size_t>(c)][26] -=
                static_cast<std::uint32_t>(planes.pad_bits(c));
          }
          ASSERT_EQ(t, reference_contingency_k<3>(d, {x, y, z}))
              << kernel_isa_name(isa) << " " << x << "," << y << "," << z;
        }
      }
    }
  }
}

TEST(Kernels, CachedKernelWordSubrangesCompose) {
  // Accumulating chunk [0, mid) and [mid, words) through separate
  // build+cached calls must equal one full-range call (the blocked V5
  // engine streams exactly such chunks).
  const auto d = random_dataset({6, 200, 17});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const CachedKernelSet ks = get_cached_kernels(KernelIsa::kScalar);
  PrefixPlaneCache cache;
  for (int c = 0; c < 2; ++c) {
    const std::size_t words = planes.words(c);
    cache.ensure(3, words);
    std::uint32_t full[27] = {};
    std::uint32_t split_acc[27] = {};
    std::fill(cache.pops(), cache.pops() + 9, 0u);
    ks.build(planes.plane(c, 0, 0), planes.plane(c, 0, 1),
             planes.plane(c, 1, 0), planes.plane(c, 1, 1), 0, words,
             cache.planes(), cache.stride(), cache.pops());
    ks.cached(cache.planes(), cache.stride(), cache.pops(),
              planes.plane(c, 2, 0), planes.plane(c, 2, 1), 0, words, full);
    const std::size_t mid = words / 2;
    for (const auto& range :
         {std::pair<std::size_t, std::size_t>{0, mid},
          std::pair<std::size_t, std::size_t>{mid, words}}) {
      std::fill(cache.pops(), cache.pops() + 9, 0u);
      ks.build(planes.plane(c, 0, 0), planes.plane(c, 0, 1),
               planes.plane(c, 1, 0), planes.plane(c, 1, 1), range.first,
               range.second, cache.planes(), cache.stride(), cache.pops());
      ks.cached(cache.planes(), cache.stride(), cache.pops(),
                planes.plane(c, 2, 0), planes.plane(c, 2, 1), range.first,
                range.second, split_acc);
    }
    for (int i = 0; i < 27; ++i) ASSERT_EQ(full[i], split_acc[i]) << i;
  }
}

TEST(Kernels, SplitKernelWordSubrangesCompose) {
  // Accumulating [0, w1) and [w1, words) must equal one full-range call
  // (before padding correction, which contingency_split applies once).
  const auto d = random_dataset({6, 200, 17});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const TripleBlockKernel kernel = get_kernel(KernelIsa::kScalar);
  for (int c = 0; c < 2; ++c) {
    const std::size_t words = planes.words(c);
    std::uint32_t full[27] = {};
    std::uint32_t split_acc[27] = {};
    kernel(planes.plane(c, 0, 0), planes.plane(c, 0, 1), planes.plane(c, 1, 0),
           planes.plane(c, 1, 1), planes.plane(c, 2, 0), planes.plane(c, 2, 1),
           0, words, full);
    const std::size_t mid = words / 2;
    kernel(planes.plane(c, 0, 0), planes.plane(c, 0, 1), planes.plane(c, 1, 0),
           planes.plane(c, 1, 1), planes.plane(c, 2, 0), planes.plane(c, 2, 1),
           0, mid, split_acc);
    kernel(planes.plane(c, 0, 0), planes.plane(c, 0, 1), planes.plane(c, 1, 0),
           planes.plane(c, 1, 1), planes.plane(c, 2, 0), planes.plane(c, 2, 1),
           mid, words, split_acc);
    for (int i = 0; i < 27; ++i) ASSERT_EQ(full[i], split_acc[i]) << i;
  }
}

// --------------------------------------------------------------------------
// Block-triple rank/unrank
// --------------------------------------------------------------------------

TEST(BlockTriples, CountMatchesMultisetFormula) {
  EXPECT_EQ(num_block_tuples<3>(1), 1u);   // (0,0,0)
  EXPECT_EQ(num_block_tuples<3>(2), 4u);   // C(4,3)
  EXPECT_EQ(num_block_tuples<3>(3), 10u);  // C(5,3)
  EXPECT_EQ(num_block_tuples<3>(10), 220u);
}

TEST(BlockTriples, RoundTripExhaustive) {
  std::uint64_t rank = 0;
  for (std::uint32_t c = 0; c < 20; ++c) {
    for (std::uint32_t b = 0; b <= c; ++b) {
      for (std::uint32_t a = 0; a <= b; ++a) {
        const BlockTuple<3> t{a, b, c};
        ASSERT_EQ(rank_block_tuple<3>(t), rank);
        ASSERT_EQ(unrank_block_tuple<3>(rank), t);
        ++rank;
      }
    }
  }
  EXPECT_EQ(rank, num_block_tuples<3>(20));
}

TEST(BlockTriples, LargeRanksRoundTrip) {
  const std::uint64_t total = num_block_tuples<3>(5000);
  for (std::uint64_t i = 1; i <= 500; ++i) {
    const std::uint64_t rank = (total / 501) * i;
    const BlockTuple<3> t = unrank_block_tuple<3>(rank);
    ASSERT_LE(t[0], t[1]);
    ASSERT_LE(t[1], t[2]);
    ASSERT_EQ(rank_block_tuple<3>(t), rank);
  }
}

// --------------------------------------------------------------------------
// Blocked engine
// --------------------------------------------------------------------------

class BlockedEngineTest
    : public ::testing::TestWithParam<std::tuple<Shape, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTiles, BlockedEngineTest,
    ::testing::Combine(::testing::ValuesIn(small_shapes()),
                       ::testing::Values(1u, 2u, 3u, 5u, 7u)));

TEST_P(BlockedEngineTest, CoversEveryTripletExactlyOnceWithCorrectTables) {
  const auto d = random_dataset(std::get<0>(GetParam()));
  const std::size_t bs = std::get<1>(GetParam());
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const TilingParams tiling{bs, 32};
  const DirectKernel<3> kernel = get_direct_kernel<3>(KernelIsa::kScalar);
  TupleBlockScratch<3> scratch(bs);

  const std::size_t m = d.num_snps();
  const std::uint64_t nb = (m + bs - 1) / bs;
  std::map<std::uint64_t, int> seen;
  for (std::uint64_t r = 0; r < num_block_tuples<3>(nb); ++r) {
    scan_block_tuple<3>(planes, tiling, kernel, scratch,
                        unrank_block_tuple<3>(r), kFullRange,
                        [&](const Combination<3>& t,
                            const ContingencyTable& table) {
                          ++seen[combinatorics::rank_combination<3>(t)];
                          ASSERT_EQ(table,
                                    reference_contingency_k<3>(d, t))
                              << t[0] << "," << t[1] << "," << t[2];
                        });
  }
  const std::uint64_t total = combinatorics::n_choose_k(m, 3);
  ASSERT_EQ(seen.size(), total);
  for (const auto& [rank, count] : seen) {
    ASSERT_EQ(count, 1) << "rank " << rank;
  }
}

TEST(BlockedEngine, ClipEmitsExactlyTheTripletsInRange) {
  const auto d = random_dataset({10, 100, 13});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const std::size_t bs = 3;
  const TilingParams tiling{bs, 16};
  const DirectKernel<3> kernel = get_direct_kernel<3>(KernelIsa::kScalar);
  TupleBlockScratch<3> scratch(bs);
  const std::uint64_t nb = (10 + bs - 1) / bs;
  const std::uint64_t total = combinatorics::n_choose_k(10, 3);

  for (const auto clip :
       {combinatorics::RankRange{0, total}, combinatorics::RankRange{17, 18},
        combinatorics::RankRange{0, total / 2},
        combinatorics::RankRange{total / 2, total},
        combinatorics::RankRange{3, total - 3}}) {
    std::set<std::uint64_t> emitted;
    for (std::uint64_t r = 0; r < num_block_tuples<3>(nb); ++r) {
      scan_block_tuple<3>(planes, tiling, kernel, scratch,
                          unrank_block_tuple<3>(r), clip,
                          [&](const Combination<3>& t,
                              const ContingencyTable& table) {
                            const std::uint64_t rank =
                                combinatorics::rank_combination<3>(t);
                            ASSERT_TRUE(emitted.insert(rank).second) << rank;
                            ASSERT_EQ(table,
                                      reference_contingency_k<3>(d, t));
                          });
    }
    ASSERT_EQ(emitted.size(), clip.size());
    for (const std::uint64_t rank : emitted) {
      ASSERT_GE(rank, clip.first);
      ASSERT_LT(rank, clip.last);
    }
  }
}

TEST(BlockedEngine, BpSmallerThanWordsStillCorrect) {
  const auto d = random_dataset({9, 600, 23});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  for (std::size_t bp : {1u, 3u, 16u, 1000u}) {
    const TilingParams tiling{3, bp};
    TupleBlockScratch<3> scratch(3);
    const DirectKernel<3> kernel = get_direct_kernel<3>(KernelIsa::kScalar);
    std::uint64_t count = 0;
    for (std::uint64_t r = 0; r < num_block_tuples<3>(3); ++r) {
      scan_block_tuple<3>(planes, tiling, kernel, scratch,
                          unrank_block_tuple<3>(r), kFullRange,
                          [&](const Combination<3>& c,
                              const ContingencyTable& table) {
                            ++count;
                            ASSERT_EQ(table, reference_contingency_k<3>(d, c));
                          });
    }
    EXPECT_EQ(count, combinatorics::n_choose_k(9, 3)) << "bp=" << bp;
  }
}

TEST_P(BlockedEngineTest, CachedEngineCoversEveryTripletExactlyOnceWithCorrectTables) {
  const auto d = random_dataset(std::get<0>(GetParam()));
  const std::size_t bs = std::get<1>(GetParam());
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const TilingParams tiling{bs, 32};
  const CachedKernelSet ks = get_cached_kernels(KernelIsa::kScalar);
  const GenericKernelSet gk = get_generic_kernels(KernelIsa::kScalar);
  TupleBlockScratch<3> scratch(bs);

  const std::size_t m = d.num_snps();
  const std::uint64_t nb = (m + bs - 1) / bs;
  std::map<std::uint64_t, int> seen;
  for (std::uint64_t r = 0; r < num_block_tuples<3>(nb); ++r) {
    scan_block_tuple<3>(planes, tiling, ks, gk, scratch,
                        unrank_block_tuple<3>(r), kFullRange,
                        [&](const Combination<3>& t,
                            const ContingencyTable& table) {
                        ++seen[combinatorics::rank_combination<3>(t)];
                        ASSERT_EQ(table,
                                  reference_contingency_k<3>(d, t))
                            << t[0] << "," << t[1] << "," << t[2];
                      });
  }
  const std::uint64_t total = combinatorics::n_choose_k(m, 3);
  ASSERT_EQ(seen.size(), total);
  for (const auto& [rank, count] : seen) {
    ASSERT_EQ(count, 1) << "rank " << rank;
  }
}

TEST(BlockedEngine, CachedClipEmitsExactlyTheTripletsInRange) {
  const auto d = random_dataset({10, 100, 13});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const std::size_t bs = 3;
  const TilingParams tiling{bs, 16};
  const CachedKernelSet ks = get_cached_kernels(KernelIsa::kScalar);
  const GenericKernelSet gk = get_generic_kernels(KernelIsa::kScalar);
  TupleBlockScratch<3> scratch(bs);
  const std::uint64_t nb = (10 + bs - 1) / bs;
  const std::uint64_t total = combinatorics::n_choose_k(10, 3);

  for (const auto clip :
       {combinatorics::RankRange{0, total}, combinatorics::RankRange{17, 18},
        combinatorics::RankRange{0, total / 2},
        combinatorics::RankRange{total / 2, total},
        combinatorics::RankRange{3, total - 3}}) {
    std::set<std::uint64_t> emitted;
    for (std::uint64_t r = 0; r < num_block_tuples<3>(nb); ++r) {
      scan_block_tuple<3>(planes, tiling, ks, gk, scratch,
                          unrank_block_tuple<3>(r), clip,
                          [&](const Combination<3>& t,
                              const ContingencyTable& table) {
                          const std::uint64_t rank =
                              combinatorics::rank_combination<3>(t);
                          ASSERT_TRUE(emitted.insert(rank).second) << rank;
                          ASSERT_EQ(table,
                                    reference_contingency_k<3>(d, t));
                        });
    }
    ASSERT_EQ(emitted.size(), clip.size());
    for (const std::uint64_t rank : emitted) {
      ASSERT_GE(rank, clip.first);
      ASSERT_LT(rank, clip.last);
    }
  }
}

// --------------------------------------------------------------------------
// The 2^k-cell order-3 path: extend01 + finalize(4) + pair-table completion
// --------------------------------------------------------------------------

/// Operands shared by every kernel family: kMaxOrder SNPs whose
/// genotype-0/1 planes are disjoint (a genotype partition), and 27 cached
/// prefix planes with arbitrary chunk popcounts.  Besides random words,
/// the extreme fills run every popcount accumulator on empty, saturated
/// and one-bit lanes.
struct KernelOperands {
  enum class Fill {
    kRandom,
    kZeros,          ///< every sample genotype 2; prefix planes empty
    kOnes,           ///< every sample genotype 0; prefix planes full
    kOneBitPerWord,  ///< bit w % 32 (genotype 0) and the next (genotype 1)
  };
  static constexpr std::size_t kWords = 200;
  static constexpr std::size_t kStride = 208;  // >= kWords, 16-word multiple
  std::vector<std::vector<Word>> g0, g1;
  aligned_vector<Word> prefix;
  std::vector<std::uint32_t> pops;

  explicit KernelOperands(Fill fill) {
    std::mt19937_64 rng(91);
    const auto one_bit = [](std::size_t w) { return Word{1} << (w % 32); };
    for (unsigned i = 0; i < combinatorics::kMaxOrder; ++i) {
      std::vector<Word> a(kWords), b(kWords);
      for (std::size_t w = 0; w < kWords; ++w) {
        switch (fill) {
          case Fill::kRandom:
            a[w] = static_cast<Word>(rng());
            b[w] = static_cast<Word>(rng()) & ~a[w];
            break;
          case Fill::kZeros:
            break;
          case Fill::kOnes:
            a[w] = ~Word{0};
            break;
          case Fill::kOneBitPerWord:
            a[w] = one_bit(w);
            b[w] = one_bit(w + 1);
            break;
        }
      }
      g0.push_back(std::move(a));
      g1.push_back(std::move(b));
    }
    prefix.resize(27 * kStride);
    for (std::size_t j = 0; j < prefix.size(); ++j) {
      switch (fill) {
        case Fill::kRandom: prefix[j] = static_cast<Word>(rng()); break;
        case Fill::kZeros: prefix[j] = 0; break;
        case Fill::kOnes: prefix[j] = ~Word{0}; break;
        case Fill::kOneBitPerWord: prefix[j] = one_bit(j % kStride); break;
      }
    }
    pops.resize(27);
    for (auto& v : pops) v = static_cast<std::uint32_t>(rng() % 4096);
  }
};

/// One kernel family of `isa` run over words [w0, w1): every plane word and
/// count it wrote.  Outputs start from nonzero fills, so the "adds into"
/// contract is checked too.
using KernelFamilyRun = std::vector<std::uint32_t> (*)(
    KernelIsa isa, const KernelOperands& op, std::size_t w0, std::size_t w1);

/// The prefix-plane counts every ladder kernel is run at: the engines'
/// 2, 4, 9 and 27 plus counts that leave 1..3 planes after whole groups.
constexpr std::size_t kLadderCounts[] = {1, 2, 3, 4, 5, 9, 27};

std::vector<std::uint32_t> run_extend(PrefixExtendKernel k, std::size_t g,
                                      const KernelOperands& op,
                                      std::size_t w0, std::size_t w1) {
  std::vector<std::uint32_t> got;
  for (const std::size_t count : kLadderCounts) {
    aligned_vector<Word> out(g * count * KernelOperands::kStride, 0);
    std::vector<std::uint32_t> pops(g * count, 7);
    k(op.prefix.data(), count, KernelOperands::kStride, op.g0[0].data(),
      op.g1[0].data(), w0, w1, out.data(), KernelOperands::kStride,
      pops.data());
    got.insert(got.end(), out.begin(), out.end());
    got.insert(got.end(), pops.begin(), pops.end());
  }
  return got;
}

template <unsigned K>
std::vector<std::uint32_t> run_direct(KernelIsa isa, const KernelOperands& op,
                                      std::size_t w0, std::size_t w1) {
  std::vector<const Word*> g0, g1;
  for (unsigned i = 0; i < K; ++i) {
    g0.push_back(op.g0[i].data());
    g1.push_back(op.g1[i].data());
  }
  std::vector<std::uint32_t> ft(scoring::num_cells(K), 1);
  get_generic_kernels(isa).direct(g0.data(), g1.data(), K, w0, w1, ft.data());
  // The order-K kernel the direct (V3/V4) engine runs, pair and triple
  // kernels included.
  std::vector<std::uint32_t> ft_k(scoring::num_cells(K), 1);
  get_direct_kernel<K>(isa)(g0.data(), g1.data(), w0, w1, ft_k.data());
  ft.insert(ft.end(), ft_k.begin(), ft_k.end());
  return ft;
}

const std::vector<std::pair<const char*, KernelFamilyRun>>& kernel_families() {
  static const std::vector<std::pair<const char*, KernelFamilyRun>> v = {
      {"triple_block",
       [](KernelIsa isa, const KernelOperands& op, std::size_t w0,
          std::size_t w1) {
         std::vector<std::uint32_t> ft(27, 5);
         get_kernel(isa)(op.g0[0].data(), op.g1[0].data(), op.g0[1].data(),
                         op.g1[1].data(), op.g0[2].data(), op.g1[2].data(),
                         w0, w1, ft.data());
         return ft;
       }},
      {"pair_plane_build",
       [](KernelIsa isa, const KernelOperands& op, std::size_t w0,
          std::size_t w1) {
         std::vector<std::uint32_t> got(9 * KernelOperands::kStride + 9, 3);
         aligned_vector<Word> xy(9 * KernelOperands::kStride, 0);
         get_cached_kernels(isa).build(
             op.g0[0].data(), op.g1[0].data(), op.g0[1].data(),
             op.g1[1].data(), w0, w1, xy.data(), KernelOperands::kStride,
             got.data() + xy.size());
         std::copy(xy.begin(), xy.end(), got.begin());
         return got;
       }},
      {"pair_count",
       [](KernelIsa isa, const KernelOperands& op, std::size_t w0,
          std::size_t w1) {
         std::vector<std::uint32_t> pop9(9, 3);
         get_cached_kernels(isa).count(op.g0[0].data(), op.g1[0].data(),
                                       op.g0[1].data(), op.g1[1].data(), w0,
                                       w1, pop9.data());
         return pop9;
       }},
      {"triple_block_cached",
       [](KernelIsa isa, const KernelOperands& op, std::size_t w0,
          std::size_t w1) {
         std::vector<std::uint32_t> ft(27, 11);
         get_cached_kernels(isa).cached(
             op.prefix.data(), KernelOperands::kStride, op.pops.data(),
             op.g0[2].data(), op.g1[2].data(), w0, w1, ft.data());
         return ft;
       }},
      {"extend",
       [](KernelIsa isa, const KernelOperands& op, std::size_t w0,
          std::size_t w1) {
         return run_extend(get_generic_kernels(isa).extend, 3, op, w0, w1);
       }},
      {"extend01",
       [](KernelIsa isa, const KernelOperands& op, std::size_t w0,
          std::size_t w1) {
         return run_extend(get_generic_kernels(isa).extend01, 2, op, w0, w1);
       }},
      {"finalize",
       [](KernelIsa isa, const KernelOperands& op, std::size_t w0,
          std::size_t w1) {
         std::vector<std::uint32_t> got;
         for (const std::size_t count : kLadderCounts) {
           std::vector<std::uint32_t> ft(count * 3, 11);
           get_generic_kernels(isa).finalize(
               op.prefix.data(), count, KernelOperands::kStride,
               op.pops.data(), op.g0[2].data(), op.g1[2].data(), w0, w1,
               ft.data());
           got.insert(got.end(), ft.begin(), ft.end());
         }
         return got;
       }},
      {"direct_k2", &run_direct<2>},
      {"direct_k3", &run_direct<3>},
      {"direct_k4", &run_direct<4>},
      {"direct_k5", &run_direct<5>},
      {"direct_k6", &run_direct<6>},
  };
  return v;
}

/// Operand fills, each named by its test-name suffix; random operands keep
/// the bare family name.
const std::pair<KernelOperands::Fill, const char*> kFills[] = {
    {KernelOperands::Fill::kRandom, ""},
    {KernelOperands::Fill::kZeros, "_zeros"},
    {KernelOperands::Fill::kOnes, "_ones"},
    {KernelOperands::Fill::kOneBitPerWord, "_one_bit_per_word"},
};

/// (kernel family, index into kFills).
using KernelFamilyParam = std::tuple<std::size_t, std::size_t>;

class KernelFamilyTest : public ::testing::TestWithParam<KernelFamilyParam> {};

INSTANTIATE_TEST_SUITE_P(
    EveryFamily, KernelFamilyTest,
    ::testing::Combine(
        ::testing::Range(std::size_t{0}, kernel_families().size()),
        ::testing::Range(std::size_t{0}, std::size(kFills))),
    [](const ::testing::TestParamInfo<KernelFamilyParam>& info) {
      return std::string(kernel_families()[std::get<0>(info.param)].first) +
             kFills[std::get<1>(info.param)].second;
    });

TEST_P(KernelFamilyTest, MatchesScalarOnEveryIsaAndWordRange) {
  // Word ranges with zero and nonzero starts, empty and whole-plane ones,
  // and tails that are not a multiple of 8 or 16 words: every vector body
  // must reproduce the scalar one word for word and count for count.
  const auto [family, fill] = GetParam();
  const auto& [name, run] = kernel_families()[family];
  static const KernelOperands operand_sets[] = {
      KernelOperands(kFills[0].first), KernelOperands(kFills[1].first),
      KernelOperands(kFills[2].first), KernelOperands(kFills[3].first)};
  static_assert(std::size(operand_sets) == std::size(kFills));
  const KernelOperands& op = operand_sets[fill];
  for (const auto& [w0, w1] : {std::pair<std::size_t, std::size_t>{0, 200},
                               {0, 16},
                               {3, 3 + 37},
                               {5, 5 + 3 * 16 + 7},
                               {16, 16 + 9 * 16 + 13},
                               {7, 7}}) {
    const std::vector<std::uint32_t> want = run(KernelIsa::kScalar, op, w0, w1);
    for (const KernelIsa isa : all_kernel_isas()) {
      if (!kernel_available(isa)) continue;
      ASSERT_EQ(run(isa, op, w0, w1), want)
          << name << " on " << kernel_isa_name(isa) << " over [" << w0
          << ", " << w1 << ")";
    }
  }
}

TEST(TripleIdentityEdgeCases, CountPlusCompletionMatchesReferenceForEveryIsa) {
  // Kernel level: the four x∩y {0,1} planes (extend01 over x's two stored
  // planes), finalize with count 4 and complete_triple_row over the pair
  // count kernel's xz and yz tables give the exact 27-cell table of every
  // ordered SNP triple, for class sizes around word and plane boundaries,
  // one-sample classes and monomorphic SNPs, with random chunk cuts.
  std::uint64_t seed = 1;
  for (const test::ClassSizes& sizes : test::edge_class_sizes()) {
    const auto d = test::edge_dataset(sizes, seed++);
    const auto planes = dataset::PhenoSplitPlanes::build(d);
    const std::size_t m = d.num_snps();
    std::mt19937_64 rng(seed);
    for (const KernelIsa isa : all_kernel_isas()) {
      if (!kernel_available(isa)) continue;
      const GenericKernelSet gk = get_generic_kernels(isa);
      const PairPlaneCountKernel count = get_cached_kernels(isa).count;
      PrefixPlaneCache cache;
      cache.ensure(3, std::max(planes.words(0), planes.words(1)));
      for (std::uint32_t x = 0; x < m; ++x) {
        for (std::uint32_t y = 0; y < m; ++y) {
          for (std::uint32_t z = 0; z < m; ++z) {
            if (x == y || y == z || x == z) continue;
            ContingencyTable t;
            for (int c = 0; c < 2; ++c) {
              const std::size_t words = planes.words(c);
              std::uniform_int_distribution<std::size_t> cut(0, words);
              std::vector<std::size_t> cuts = {0, words, cut(rng), cut(rng)};
              std::sort(cuts.begin(), cuts.end());
              std::uint32_t ft[12] = {};
              for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
                const std::size_t w0 = cuts[i];
                const std::size_t w1 = cuts[i + 1];
                std::fill(cache.rung_pops(2), cache.rung_pops(2) + 4, 0u);
                gk.extend01(planes.plane(c, x, 0) + w0, 2, words,
                            planes.plane(c, y, 0), planes.plane(c, y, 1), w0,
                            w1, cache.rung(2), cache.stride(),
                            cache.rung_pops(2));
                gk.finalize(cache.rung(2), 4, cache.stride(),
                            cache.rung_pops(2), planes.plane(c, z, 0),
                            planes.plane(c, z, 1), w0, w1, ft);
              }
              std::uint32_t xz[9] = {};
              std::uint32_t yz[9] = {};
              count(planes.plane(c, x, 0), planes.plane(c, x, 1),
                    planes.plane(c, z, 0), planes.plane(c, z, 1), 0, words,
                    xz);
              count(planes.plane(c, y, 0), planes.plane(c, y, 1),
                    planes.plane(c, z, 0), planes.plane(c, z, 1), 0, words,
                    yz);
              const std::uint32_t xz4[4] = {xz[0], xz[1], xz[3], xz[4]};
              const std::uint32_t yz4[4] = {yz[0], yz[1], yz[3], yz[4]};
              complete_triple_row(planes, c, x, y, z, xz4, yz4, ft,
                                  t.counts[static_cast<std::size_t>(c)].data());
            }
            ASSERT_EQ(t, reference_contingency_k<3>(d, {x, y, z}))
                << kernel_isa_name(isa) << " sizes " << sizes.controls << "/"
                << sizes.cases << " triple " << x << "," << y << "," << z;
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Identity edge cases at every order the engines specialize (k = 2..5)
// --------------------------------------------------------------------------

/// Engine level, M = 9 on a B_S = 4 grid (a partial last block): every
/// table the direct engine (and, from K = 3, the V5 ladder) emits equals
/// the reference and a random clip emits exactly its ranks, on every ISA.
template <unsigned K>
void expect_clipped_tables_match_reference() {
  std::uint64_t seed = 100;
  for (const test::ClassSizes& sizes : test::edge_class_sizes()) {
    const auto d = test::edge_dataset(sizes, seed++);
    const auto planes = dataset::PhenoSplitPlanes::build(d);
    const std::uint64_t total = combinatorics::n_choose_k(d.num_snps(), K);
    const TilingParams tiling{4, 16};
    const combinatorics::BlockGrid grid{d.num_snps(), tiling.bs};
    std::mt19937_64 rng(seed);
    // Runs `scan_block(bt, clip, on_table)` over the block tuples of one
    // random range.
    const auto check = [&](const char* engine, KernelIsa isa,
                           const auto& scan_block) {
      const std::uint64_t a = rng() % total;
      const combinatorics::RankRange range{a, a + 1 + rng() % (total - a)};
      std::vector<int> seen(total, 0);
      const auto part = combinatorics::partition_block_tuples<K>(grid, range);
      for (std::uint64_t r = part.block_ranks.first;
           r < part.block_ranks.last; ++r) {
        scan_block(unrank_block_tuple<K>(r), LastAxisWindow<K>(range),
                   [&](const Combination<K>& c,
                       const scoring::BasicContingencyTable<K>& t) {
                     ++seen[combinatorics::rank_combination<K>(c)];
                     ASSERT_EQ(t, reference_contingency_k<K>(d, c))
                         << "k=" << K << " " << engine << " "
                         << kernel_isa_name(isa) << " rank "
                         << combinatorics::rank_combination<K>(c);
                   });
      }
      for (std::uint64_t r = 0; r < total; ++r) {
        ASSERT_EQ(seen[r], r >= range.first && r < range.last ? 1 : 0)
            << "k=" << K << " " << engine << " " << kernel_isa_name(isa)
            << " rank " << r;
      }
    };
    for (const KernelIsa isa : all_kernel_isas()) {
      if (!kernel_available(isa)) continue;
      const DirectKernel<K> direct = get_direct_kernel<K>(isa);
      TupleBlockScratch<K> scratch(tiling.bs);
      check("direct", isa,
            [&](const BlockTuple<K>& bt, const LastAxisWindow<K>& clip,
                const auto& on_table) {
              scan_block_tuple<K>(planes, tiling, direct, scratch, bt, clip,
                                  on_table);
            });
      if constexpr (K >= 3) {
        const CachedKernelSet ck = get_cached_kernels(isa);
        const GenericKernelSet gk = get_generic_kernels(isa);
        TupleBlockScratch<K> ladder_scratch(tiling.bs);
        check("ladder", isa,
              [&](const BlockTuple<K>& bt, const LastAxisWindow<K>& clip,
                  const auto& on_table) {
                scan_block_tuple<K>(planes, tiling, ck, gk, ladder_scratch,
                                    bt, clip, on_table);
              });
      }
    }
  }
}

/// Detector level: V2-V5 print the same CSV, with bit-identical scores, as
/// the V1 reference on every ISA with top_k > C(9, K), and random 8-way
/// range splits merge back to the full scan.
template <unsigned K>
void expect_every_version_and_split_identical() {
  const auto expect_same = [](const std::vector<ScoredOf<K>>& got,
                              const std::vector<ScoredOf<K>>& want,
                              const std::string& what) {
    ASSERT_EQ(scan_csv_lines<K>(got), scan_csv_lines<K>(want)) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
                std::bit_cast<std::uint64_t>(want[i].score))
          << what << " entry " << i;
    }
  };
  std::uint64_t seed = 200;
  for (const test::ClassSizes& sizes : test::edge_class_sizes()) {
    const auto d = test::edge_dataset(sizes, seed++);
    const BasicDetector<K> det(d);
    const std::uint64_t total = combinatorics::n_choose_k(d.num_snps(), K);
    BasicDetectorOptions<K> ref_opt;
    ref_opt.version = CpuVersion::kV1Naive;
    ref_opt.top_k = total + 16;  // every combination's score is compared
    const auto want = det.run(ref_opt).best;
    ASSERT_EQ(want.size(), total);

    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint64_t> cut(1, total - 1);
    for (const auto version :
         {CpuVersion::kV2Split, CpuVersion::kV3Blocked, CpuVersion::kV4Vector,
          CpuVersion::kV5PairCache}) {
      for (const KernelIsa isa : all_kernel_isas()) {
        if (!kernel_available(isa)) continue;
        BasicDetectorOptions<K> opt = ref_opt;
        opt.version = version;
        opt.isa = isa;
        opt.isa_auto = false;
        opt.tiling = {4, 16};  // M = 9 is not a multiple of B_S
        const std::string what = "k=" + std::to_string(K) + " " +
                                 cpu_version_name(version) + " " +
                                 kernel_isa_name(isa) + " sizes " +
                                 std::to_string(sizes.controls) + "/" +
                                 std::to_string(sizes.cases);
        expect_same(det.run(opt).best, want, what);

        std::vector<std::uint64_t> cuts = {0, total};
        for (int i = 0; i < 7; ++i) cuts.push_back(cut(rng));
        std::sort(cuts.begin(), cuts.end());
        BasicTopK<ScoredOf<K>> acc(opt.top_k);
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
          BasicDetectorOptions<K> part = opt;
          part.range = {cuts[i], cuts[i + 1]};
          if (part.range.empty()) continue;
          for (const auto& sp : det.run(part).best) acc.push(sp);
        }
        expect_same(acc.sorted(), want, what + " 8-way split");
      }
    }
  }
}

TEST(OrderIdentityEdgeCases, BlockedTablesMatchReferenceUnderRandomClips) {
  expect_clipped_tables_match_reference<2>();
  expect_clipped_tables_match_reference<3>();
  expect_clipped_tables_match_reference<4>();
  expect_clipped_tables_match_reference<5>();
}

TEST(OrderIdentityEdgeCases, EveryVersionAndRangeSplitIsBitIdentical) {
  expect_every_version_and_split_identical<2>();
  expect_every_version_and_split_identical<3>();
  expect_every_version_and_split_identical<4>();
  expect_every_version_and_split_identical<5>();
}

TEST(PairTableCache, BlockChangesInsideOneScratchKeepTablesExact) {
  // One scratch visits the block triples in a shuffled order, so its pair
  // cache moves between last-axis blocks and back again; every table must
  // still match the reference.
  const auto d = random_dataset({14, 300, 29});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const TilingParams tiling{3, 16};
  const std::uint64_t nb = (14 + tiling.bs - 1) / tiling.bs;
  std::vector<std::uint64_t> order(num_block_tuples<3>(nb));
  for (std::uint64_t r = 0; r < order.size(); ++r) order[r] = r;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(5));
  const KernelIsa isa = best_kernel_isa();
  TupleBlockScratch<3> scratch(tiling.bs);
  std::size_t emitted = 0;
  for (const std::uint64_t r : order) {
    scan_block_tuple<3>(planes, tiling, get_cached_kernels(isa),
                        get_generic_kernels(isa), scratch,
                        unrank_block_tuple<3>(r), kFullRange,
                        [&](const Combination<3>& c,
                            const ContingencyTable& t) {
                          ++emitted;
                          ASSERT_EQ(t, reference_contingency_k<3>(d, c));
                        });
  }
  EXPECT_EQ(emitted, combinatorics::n_choose_k(14, 3));
}

TEST(PairTableCache, OneThreadChunkCrossingBlockChangesMatchesV4) {
  // One thread, one scheduler chunk covering every block triple of a
  // B_S = 2 grid: the thread's pair cache crosses every last-axis block
  // change inside its chunk.  Also two threads with tiny chunks, so each
  // thread's cache jumps between blocks.
  const auto d = random_dataset({23, 700, 31});
  const Detector det(d);
  DetectorOptions v4;
  v4.version = CpuVersion::kV4Vector;
  v4.top_k = 50;
  v4.tiling = {2, 16};
  const auto want = scan_csv_lines<3>(det.run(v4).best);
  for (const auto& [threads, chunk] :
       {std::pair<unsigned, std::uint64_t>{1, 1u << 20},
        std::pair<unsigned, std::uint64_t>{2, 3}}) {
    DetectorOptions v5 = v4;
    v5.version = CpuVersion::kV5PairCache;
    v5.threads = threads;
    v5.chunk_size = chunk;
    EXPECT_EQ(scan_csv_lines<3>(det.run(v5).best), want)
        << threads << " thread(s), chunk " << chunk;
  }
}

TEST(Defaults, ScanOptionsDefaultToV5) {
  EXPECT_EQ(ScanOptionsBase{}.version, CpuVersion::kV5PairCache);
  EXPECT_EQ(DetectorOptions{}.version, ScanOptionsBase{}.version);
  for (unsigned n = 1; n <= 5; ++n) {
    const auto v = cpu_version_from_number(n);
    ASSERT_TRUE(v.has_value()) << n;
    EXPECT_EQ(cpu_version_number(*v), n);
  }
  EXPECT_FALSE(cpu_version_from_number(0).has_value());
  EXPECT_FALSE(cpu_version_from_number(6).has_value());
}

// --------------------------------------------------------------------------
// Alignment guarantees
// --------------------------------------------------------------------------

TEST(Alignment, KernelVisiblePlanesAre64ByteAligned) {
  // Every plane the kernels stream must start on a 64-byte boundary so
  // aligned vector loads stay legal after any future layout refactor.
  const auto d = random_dataset({9, 123, 77});
  const auto split = dataset::PhenoSplitPlanes::build(d);
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(split.words(c) % dataset::kWordsPerVector, 0u) << c;
    for (std::size_t snp = 0; snp < d.num_snps(); ++snp) {
      for (int g = 0; g < 2; ++g) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(split.plane(c, snp, g)) %
                      kVectorAlign,
                  0u)
            << c << "," << snp << "," << g;
      }
    }
  }
  const auto v1 = dataset::BitPlanesV1::build(d);
  EXPECT_EQ(v1.words() % dataset::kWordsPerVector, 0u);
  for (std::size_t snp = 0; snp < d.num_snps(); ++snp) {
    for (int g = 0; g < 3; ++g) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v1.plane(snp, g)) %
                    kVectorAlign,
                0u)
          << snp << "," << g;
    }
  }
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v1.phenotype_plane()) %
                kVectorAlign,
            0u);
}

TEST(Alignment, PairPlaneCachePlanesAre64ByteAligned) {
  PrefixPlaneCache cache;
  for (const std::size_t words : {1u, 17u, 400u, 1000u}) {
    cache.ensure(3, words);
    ASSERT_GE(cache.stride(), words);
    EXPECT_EQ(cache.stride() % dataset::kWordsPerVector, 0u) << words;
    for (int p = 0; p < 9; ++p) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(cache.planes() +
                                                 p * cache.stride()) %
                    kVectorAlign,
                0u)
          << words << " plane " << p;
    }
  }
  // ensure() never shrinks: capacity stays usable by earlier chunks.
  const std::size_t grown = cache.stride();
  cache.ensure(3, 8);
  EXPECT_EQ(cache.stride(), grown);
}

// --------------------------------------------------------------------------
// Analytic tiling model
// --------------------------------------------------------------------------

TEST(Tiling, PaperIceLakeConfig) {
  // Ice Lake SP: 48 kB 12-way L1D, 7 ways tables + 4 ways block, AVX-512
  // (16 words/vector) => the paper's <5, 400>.
  L1Config l1{48 * 1024, 12, 7, 4};
  const TilingParams p = autotune_tiling(l1, 16, 3, false);
  EXPECT_EQ(p.bs, 5u);
  EXPECT_EQ(p.bp_words, 400u);
}

TEST(Tiling, PaperAvxConfig) {
  // 32 kB 8-way L1D, 7 ways tables + 1 way block, AVX (8 words/vector)
  // => the paper's <5, 96>.
  L1Config l1{32 * 1024, 8, 7, 1};
  const TilingParams p = autotune_tiling(l1, 8, 3, false);
  EXPECT_EQ(p.bs, 5u);
  EXPECT_EQ(p.bp_words, 96u);
}

TEST(Tiling, FrequencyTablesFitBudget) {
  for (unsigned ways_ft : {4u, 7u}) {
    L1Config l1{32 * 1024, 8, ways_ft, 1};
    const TilingParams p = autotune_tiling(l1, 8, 3, false);
    EXPECT_LE(tables_bytes(p.bs), l1.size_bytes / l1.ways * ways_ft);
    EXPECT_GT(tables_bytes(p.bs + 1), l1.size_bytes / l1.ways * ways_ft);
  }
}

TEST(Tiling, BpMultipleOfVectorWords) {
  for (std::size_t vec : {1u, 8u, 16u}) {
    L1Config l1{48 * 1024, 12, 7, 4};
    const TilingParams p = autotune_tiling(l1, vec, 3, false);
    EXPECT_EQ(p.bp_words % vec, 0u) << vec;
    EXPECT_GE(p.bp_words, vec);
  }
}

TEST(Tiling, PairCacheFootprintStaysInsideTheL1Budget) {
  // The V5 autotuner must budget the streamed block AND the four cached
  // {0,1} planes inside the block ways, for every cache geometry and
  // vector width.
  for (const L1Config l1 :
       {L1Config{48 * 1024, 12, 7, 4}, L1Config{32 * 1024, 8, 7, 1},
        L1Config{64 * 1024, 16, 7, 8}, L1Config{24 * 1024, 6, 4, 2}}) {
    const std::size_t ft_budget = l1.size_bytes / l1.ways * l1.ways_for_tables;
    const std::size_t block_budget =
        l1.size_bytes / l1.ways * l1.ways_for_block;
    for (const std::size_t vec : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}}) {
      const TilingParams p = autotune_tiling(l1, vec, 3, true);
      EXPECT_LE(tables_bytes(p.bs), ft_budget) << vec;
      EXPECT_LE(block_bytes(p.bs, p.bp_words) + pair_cache_bytes(p.bp_words),
                block_budget)
          << "L1 " << l1.size_bytes << " vec " << vec;
      EXPECT_EQ(p.bp_words % vec, 0u);
      // B_P lands on the prefix-plane cache stride granule, so the budgeted
      // footprint equals the allocated one (ensure() rounds the stride up
      // to whole AVX-512 registers).
      EXPECT_EQ(p.bp_words % dataset::kWordsPerVector, 0u);
      // The cache-aware B_P can only shrink relative to the V4 sizing.
      EXPECT_LE(p.bp_words, autotune_tiling(l1, vec, 3, false).bp_words);
    }
  }
}

TEST(Tiling, GoldenPicksAtEveryOrderEngineAndBatchWidth) {
  // The analytic model's picks over k = 2..6, direct (V3/V4) and cached
  // (V5) engines, unbatched and 8/64-slot batches, at the two reference
  // L1 geometries and both vector widths.  The k >= 4 cached unbatched
  // rows follow the ladder rule (B_S = 3); every other row is the paper's
  // L1 budget or the batched budget.
  const L1Config kL1Ice{48 * 1024, 12, 7, 4};
  const L1Config kL1Avx{32 * 1024, 8, 7, 1};
  struct Pick {
    std::size_t bs, bp;
  };
  struct Row {
    L1Config l1;
    std::size_t vw;
    unsigned order;
    bool cached;
    Pick by_slots[3];  // batch slots 0, 8, 64
  };
  const Row rows[] = {
      {kL1Ice, 8, 2, false, {{19, 104}, {64, 256}, {64, 256}}},
      {kL1Ice, 8, 2, true, {{19, 104}, {64, 256}, {64, 256}}},
      {kL1Ice, 8, 3, false, {{5, 408}, {64, 256}, {64, 256}}},
      {kL1Ice, 8, 3, true, {{5, 288}, {64, 256}, {64, 256}}},
      {kL1Ice, 8, 4, false, {{2, 1024}, {64, 256}, {24, 256}}},
      {kL1Ice, 8, 4, true, {{3, 672}, {64, 256}, {24, 256}}},
      {kL1Ice, 8, 5, false, {{1, 2048}, {59, 256}, {8, 256}}},
      {kL1Ice, 8, 5, true, {{3, 672}, {59, 256}, {8, 256}}},
      {kL1Ice, 8, 6, false, {{1, 2048}, {19, 256}, {4, 256}}},
      {kL1Ice, 8, 6, true, {{3, 672}, {19, 256}, {4, 256}}},
      {kL1Ice, 16, 2, false, {{19, 96}, {64, 256}, {64, 256}}},
      {kL1Ice, 16, 2, true, {{19, 96}, {64, 256}, {64, 256}}},
      {kL1Ice, 16, 3, false, {{5, 400}, {64, 256}, {64, 256}}},
      {kL1Ice, 16, 3, true, {{5, 288}, {64, 256}, {64, 256}}},
      {kL1Ice, 16, 4, false, {{2, 1024}, {64, 256}, {24, 256}}},
      {kL1Ice, 16, 4, true, {{3, 672}, {64, 256}, {24, 256}}},
      {kL1Ice, 16, 5, false, {{1, 2048}, {59, 256}, {8, 256}}},
      {kL1Ice, 16, 5, true, {{3, 672}, {59, 256}, {8, 256}}},
      {kL1Ice, 16, 6, false, {{1, 2048}, {19, 256}, {4, 256}}},
      {kL1Ice, 16, 6, true, {{3, 672}, {19, 256}, {4, 256}}},
      {kL1Avx, 8, 2, false, {{19, 24}, {64, 256}, {64, 256}}},
      {kL1Avx, 8, 2, true, {{19, 24}, {64, 256}, {64, 256}}},
      {kL1Avx, 8, 3, false, {{5, 96}, {64, 256}, {64, 256}}},
      {kL1Avx, 8, 3, true, {{5, 64}, {64, 256}, {64, 256}}},
      {kL1Avx, 8, 4, false, {{2, 256}, {64, 256}, {24, 256}}},
      {kL1Avx, 8, 4, true, {{3, 160}, {64, 256}, {24, 256}}},
      {kL1Avx, 8, 5, false, {{1, 512}, {59, 256}, {8, 256}}},
      {kL1Avx, 8, 5, true, {{3, 160}, {59, 256}, {8, 256}}},
      {kL1Avx, 8, 6, false, {{1, 512}, {19, 256}, {4, 256}}},
      {kL1Avx, 8, 6, true, {{3, 160}, {19, 256}, {4, 256}}},
      {kL1Avx, 16, 2, false, {{19, 16}, {64, 256}, {64, 256}}},
      {kL1Avx, 16, 2, true, {{19, 16}, {64, 256}, {64, 256}}},
      {kL1Avx, 16, 3, false, {{5, 96}, {64, 256}, {64, 256}}},
      {kL1Avx, 16, 3, true, {{5, 64}, {64, 256}, {64, 256}}},
      {kL1Avx, 16, 4, false, {{2, 256}, {64, 256}, {24, 256}}},
      {kL1Avx, 16, 4, true, {{3, 160}, {64, 256}, {24, 256}}},
      {kL1Avx, 16, 5, false, {{1, 512}, {59, 256}, {8, 256}}},
      {kL1Avx, 16, 5, true, {{3, 160}, {59, 256}, {8, 256}}},
      {kL1Avx, 16, 6, false, {{1, 512}, {19, 256}, {4, 256}}},
      {kL1Avx, 16, 6, true, {{3, 160}, {19, 256}, {4, 256}}},
  };
  const std::size_t slots[] = {0, 8, 64};
  for (const Row& r : rows) {
    for (std::size_t i = 0; i < 3; ++i) {
      // The PhenotypeBatch stride: slots rounded up to a 16-lane granule.
      const std::size_t stride = (slots[i] + 15) / 16 * 16;
      const TilingParams p =
          autotune_tiling(r.l1, r.vw, r.order, r.cached, slots[i], stride);
      SCOPED_TRACE(::testing::Message()
                   << "L1 " << r.l1.size_bytes << " vw " << r.vw << " k "
                   << r.order << " cached " << r.cached << " slots "
                   << slots[i]);
      EXPECT_EQ(p.bs, r.by_slots[i].bs);
      EXPECT_EQ(p.bp_words, r.by_slots[i].bp);
      // The V5 ladder never tiles a block tuple as one combination.
      if (r.cached && r.order >= 4) {
        EXPECT_GE(p.bs, 2u);
      }
    }
  }
}

/// L1 geometries the property tests below sweep: the paper's two reference
/// caches plus a wider and a narrower one.
const std::vector<L1Config>& sweep_geometries() {
  static const std::vector<L1Config> all = {
      L1Config{48 * 1024, 12, 7, 4}, L1Config{32 * 1024, 8, 7, 1},
      L1Config{64 * 1024, 16, 7, 8}, L1Config{24 * 1024, 6, 4, 2}};
  return all;
}

TEST(Tiling, LadderPickNeverTilesOneCombinationPerBlock) {
  // At B_S = 1 every block tuple is one combination and the V5 ladder
  // rebuilds every rung per combination; the k >= 4 rule must never land
  // there, whatever the cache geometry or vector width.
  for (const L1Config& l1 : sweep_geometries()) {
    for (const std::size_t vec : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}}) {
      for (unsigned k = 4; k <= 6; ++k) {
        EXPECT_GE(autotune_tiling(l1, vec, k, true).bs, 2u)
            << "L1 " << l1.size_bytes << " vec " << vec << " k " << k;
      }
    }
  }
}

TEST(Tiling, LadderPickFitsTheTwoPlaneBlockBudget) {
  // B_P comes from the paper's B_S * B_P * 4 * 2 <= size_Block at the
  // ladder's B_S, on the prefix-plane cache's AVX-512 stride granule.
  for (const L1Config& l1 : sweep_geometries()) {
    const std::size_t block_budget =
        l1.size_bytes / l1.ways * l1.ways_for_block;
    for (const std::size_t vec : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}}) {
      for (unsigned k = 4; k <= 6; ++k) {
        const TilingParams p = autotune_tiling(l1, vec, k, true);
        SCOPED_TRACE(::testing::Message() << "L1 " << l1.size_bytes
                                          << " vec " << vec << " k " << k);
        EXPECT_LE(block_bytes(p.bs, p.bp_words), block_budget);
        // The largest granule multiple that fits: one more would not.
        EXPECT_GT(block_bytes(p.bs, p.bp_words + dataset::kWordsPerVector),
                  block_budget);
        EXPECT_EQ(p.bp_words % dataset::kWordsPerVector, 0u);
        EXPECT_EQ(p.bp_words % vec, 0u);
      }
    }
  }
}

TEST(Tiling, LadderPickDoesNotDependOnTheOrder) {
  // The ladder's tables and rungs stream at every k >= 4, so nothing in the
  // rule scales with 3^k: k = 4, 5 and 6 get one tile.
  for (const L1Config& l1 : sweep_geometries()) {
    for (const std::size_t vec : {std::size_t{8}, std::size_t{16}}) {
      const TilingParams k4 = autotune_tiling(l1, vec, 4, true);
      for (unsigned k = 5; k <= 6; ++k) {
        const TilingParams p = autotune_tiling(l1, vec, k, true);
        EXPECT_EQ(p.bs, k4.bs) << "L1 " << l1.size_bytes << " k " << k;
        EXPECT_EQ(p.bp_words, k4.bp_words)
            << "L1 " << l1.size_bytes << " k " << k;
      }
    }
  }
}

TEST(Tiling, LadderScratchTablesStayUnderFiveMegabytesPerThread) {
  // Every scan thread holds one TupleBlockScratch of B_S^k two-class
  // 3^k-cell tables.  At k = 6 that is 4.3 MB at B_S = 3 and would be
  // 24 MB at B_S = 4, for no measured gain.
  for (const L1Config& l1 : sweep_geometries()) {
    for (unsigned k = 4; k <= 6; ++k) {
      const TilingParams p = autotune_tiling(l1, 16, k, true);
      EXPECT_LE(tuple_tables_bytes(p.bs, k), std::size_t{5} << 20)
          << "L1 " << l1.size_bytes << " k " << k;
    }
    // The byte formula is what the scratch actually allocates.
    const TilingParams p6 = autotune_tiling(l1, 16, 6, true);
    TupleBlockScratch<6> scratch(p6.bs);
    const std::size_t locals = p6.bs * p6.bs * p6.bs * p6.bs * p6.bs * p6.bs;
    EXPECT_EQ(static_cast<std::size_t>(scratch.table(locals - 1, 1) + pow3(6) -
                                       scratch.table(0, 0)) *
                  sizeof(std::uint32_t),
              tuple_tables_bytes(p6.bs, 6));
  }
  EXPECT_EQ(tuple_tables_bytes(3, 6), std::size_t{4251528});
  EXPECT_EQ(tuple_tables_bytes(4, 6), std::size_t{23887872});
}

TEST(Tiling, DirectPicksAtHighOrderKeepTheTableBudget) {
  // The direct (V3/V4) engine keeps a block tuple's tables L1-resident, so
  // its k >= 4 picks stay on the paper's B_S^k * 4 * 2 * 3^k <= size_FT:
  // the largest B_S that fits, or 1 when none does.
  for (const L1Config& l1 : sweep_geometries()) {
    const std::size_t ft_budget = l1.size_bytes / l1.ways * l1.ways_for_tables;
    for (unsigned k = 4; k <= 6; ++k) {
      const TilingParams p = autotune_tiling(l1, 16, k, false);
      SCOPED_TRACE(::testing::Message() << "L1 " << l1.size_bytes << " k "
                                        << k);
      ASSERT_GE(p.bs, 1u);
      if (p.bs > 1) {
        EXPECT_LE(tuple_tables_bytes(p.bs, k), ft_budget);
      }
      EXPECT_GT(tuple_tables_bytes(p.bs + 1, k), ft_budget);
      EXPECT_EQ(p.bp_words % 16, 0u);
    }
  }
}

TEST(Tiling, BatchedPicksStayInsideTheirClamps) {
  // The batched budget keeps B_S in [4, 64] and floors B_P at sixteen
  // AVX-512 granules, whatever the partition count, order or engine.
  for (const L1Config& l1 : sweep_geometries()) {
    for (const std::size_t slots :
         {std::size_t{1}, std::size_t{8}, std::size_t{63}, std::size_t{64},
          std::size_t{1000}}) {
      const std::size_t stride = (slots + 15) / 16 * 16;
      for (unsigned k = 2; k <= 6; ++k) {
        for (const bool cached : {false, true}) {
          const TilingParams p =
              autotune_tiling(l1, 16, k, cached, slots, stride);
          SCOPED_TRACE(::testing::Message()
                       << "L1 " << l1.size_bytes << " slots " << slots
                       << " k " << k << " cached " << cached);
          EXPECT_GE(p.bs, 4u);
          EXPECT_LE(p.bs, 64u);
          EXPECT_GE(p.bp_words, 16 * dataset::kWordsPerVector);
          EXPECT_EQ(p.bp_words % dataset::kWordsPerVector, 0u);
        }
      }
    }
  }
}

TEST(Tiling, DegenerateGeometriesStillYieldAValidTiling) {
  // A sysfs tree that reports nonsense (no size, no ways, no block ways)
  // must still produce a tile the engine can run.
  for (const L1Config& l1 :
       {L1Config{0, 0, 0, 0}, L1Config{4096, 4, 3, 1},
        L1Config{1024, 1, 1, 1}, L1Config{48 * 1024, 12, 0, 0}}) {
    for (unsigned k = 2; k <= 6; ++k) {
      for (const bool cached : {false, true}) {
        for (const std::size_t slots : {std::size_t{0}, std::size_t{8}}) {
          const TilingParams p = autotune_tiling(l1, 16, k, cached, slots,
                                                 (slots + 15) / 16 * 16);
          EXPECT_TRUE(p.valid())
              << "L1 " << l1.size_bytes << "/" << l1.ways << " k " << k
              << " cached " << cached << " slots " << slots;
          EXPECT_EQ(p.bp_words % 16, 0u);
        }
      }
    }
  }
}

TEST(Tiling, MoreBlockWaysNeverShrinkBp) {
  for (unsigned k = 2; k <= 6; ++k) {
    for (const bool cached : {false, true}) {
      for (const std::size_t slots : {std::size_t{0}, std::size_t{8}}) {
        std::size_t prev = 0;
        for (unsigned block_ways = 1; block_ways <= 8; ++block_ways) {
          const L1Config l1{64 * 1024, 16, 7, block_ways};
          const std::size_t bp =
              autotune_tiling(l1, 16, k, cached, slots, 16).bp_words;
          EXPECT_GE(bp, prev) << "k " << k << " cached " << cached
                              << " slots " << slots << " ways "
                              << block_ways;
          prev = bp;
        }
      }
    }
  }
}

TEST(Tiling, MoreTableWaysNeverShrinkBs) {
  for (unsigned k = 2; k <= 6; ++k) {
    for (const bool cached : {false, true}) {
      std::size_t prev = 0;
      for (unsigned table_ways = 1; table_ways <= 12; ++table_ways) {
        const L1Config l1{64 * 1024, 16, table_ways, 2};
        const std::size_t bs = autotune_tiling(l1, 16, k, cached).bs;
        EXPECT_GE(bs, prev) << "k " << k << " cached " << cached << " ways "
                            << table_ways;
        prev = bs;
      }
    }
  }
}

TEST(Tiling, DetectedHostConfigIsUsable) {
  const L1Config l1 = detect_l1_config();
  EXPECT_GT(l1.size_bytes, 0u);
  EXPECT_GT(l1.ways, 0u);
  const TilingParams p = autotune_tiling(l1, 16, 3, false);
  EXPECT_TRUE(p.valid());
  EXPECT_GE(p.bs, 1u);
}

TEST(Tiling, L1ConfigReadsRequestedCpuFromFakeTree) {
  const std::string root = ::testing::TempDir() + "trigen_core_sysfs_cpu";
  ::mkdir(root.c_str(), 0777);
  // cpu0: a 32K/8-way L1D at index0.  cpu1: instruction cache at index0
  // (must be skipped) and a 48K/12-way Unified L1 at index1.
  for (const char* d :
       {"/cpu0", "/cpu0/cache", "/cpu0/cache/index0", "/cpu1", "/cpu1/cache",
        "/cpu1/cache/index0", "/cpu1/cache/index1"}) {
    ::mkdir((root + d).c_str(), 0777);
  }
  const auto write_file = [](const std::string& path, const char* content) {
    std::ofstream(path) << content;
  };
  write_file(root + "/cpu0/cache/index0/level", "1");
  write_file(root + "/cpu0/cache/index0/type", "Data");
  write_file(root + "/cpu0/cache/index0/size", "32K");
  write_file(root + "/cpu0/cache/index0/ways_of_associativity", "8");
  write_file(root + "/cpu1/cache/index0/level", "1");
  write_file(root + "/cpu1/cache/index0/type", "Instruction");
  write_file(root + "/cpu1/cache/index0/size", "32K");
  write_file(root + "/cpu1/cache/index0/ways_of_associativity", "8");
  write_file(root + "/cpu1/cache/index1/level", "1");
  write_file(root + "/cpu1/cache/index1/type", "Unified");
  write_file(root + "/cpu1/cache/index1/size", "48K");
  write_file(root + "/cpu1/cache/index1/ways_of_associativity", "12");

  const L1Config c0 = detect_l1_config(root, 0);
  EXPECT_EQ(c0.size_bytes, 32u * 1024);
  EXPECT_EQ(c0.ways, 8u);
  const L1Config c1 = detect_l1_config(root, 1);
  EXPECT_EQ(c1.size_bytes, 48u * 1024);
  EXPECT_EQ(c1.ways, 12u);
  // A CPU with no entries falls back to cpu0's geometry.
  const L1Config c9 = detect_l1_config(root, 9);
  EXPECT_EQ(c9.size_bytes, 32u * 1024);
  EXPECT_EQ(c9.ways, 8u);
}

TEST(Tiling, MemoizedHostConfigMatchesADirectReadFromEveryThread) {
  // Whatever CPU a thread lands on, the memoized reader must return the
  // geometry a direct (uncached) read of some host CPU returns.
  const auto key = [](const L1Config& c) {
    return std::make_tuple(c.size_bytes, c.ways, c.ways_for_tables,
                           c.ways_for_block);
  };
  std::set<decltype(key(L1Config{}))> host;
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned c = 0; c < cpus; ++c) {
    host.insert(key(detect_l1_config("/sys/devices/system/cpu",
                                     static_cast<int>(c))));
  }
  std::vector<std::vector<L1Config>> got(8);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < got.size(); ++t) {
    pool.emplace_back([&got, t] {
      for (int rep = 0; rep < 100; ++rep) {
        got[t].push_back(detect_l1_config());
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& per_thread : got) {
    for (const L1Config& c : per_thread) {
      EXPECT_EQ(host.count(key(c)), 1u) << c.size_bytes << " " << c.ways;
    }
  }
}

// --------------------------------------------------------------------------
// TopK
// --------------------------------------------------------------------------

TEST(TopK, KeepsBestK) {
  BasicTopK<ScoredOf<3>> top(3);
  for (int i = 10; i >= 1; --i) {
    top.push({Combination<3>{0, 1, static_cast<std::uint32_t>(i + 1)},
              static_cast<double>(i)});
  }
  const auto sorted = top.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].score, 1.0);
  EXPECT_DOUBLE_EQ(sorted[1].score, 2.0);
  EXPECT_DOUBLE_EQ(sorted[2].score, 3.0);
}

TEST(TopK, TieBreaksOnRank) {
  BasicTopK<ScoredOf<3>> top(2);
  top.push({Combination<3>{0, 1, 3}, 5.0});
  top.push({Combination<3>{0, 1, 2}, 5.0});
  top.push({Combination<3>{0, 2, 3}, 5.0});
  const auto sorted = top.sorted();
  EXPECT_EQ(sorted[0].snps, (Combination<3>{0, 1, 2}));
  EXPECT_EQ(sorted[1].snps, (Combination<3>{0, 1, 3}));
}

TEST(TopK, MergeEqualsSequentialPushes) {
  BasicTopK<ScoredOf<3>> a(4), b(4), all(4);
  for (int i = 0; i < 20; ++i) {
    const ScoredOf<3> s{Combination<3>{0, 1, static_cast<std::uint32_t>(i + 2)},
                          static_cast<double>((i * 7) % 13)};
    (i % 2 == 0 ? a : b).push(s);
    all.push(s);
  }
  a.merge(b);
  const auto lhs = a.sorted();
  const auto rhs = all.sorted();
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].snps, rhs[i].snps);
    EXPECT_DOUBLE_EQ(lhs[i].score, rhs[i].score);
  }
}

TEST(TopK, ZeroCapacityClampsToOne) {
  BasicTopK<ScoredOf<3>> top(0);
  top.push({Combination<3>{0, 1, 2}, 1.0});
  EXPECT_EQ(top.sorted().size(), 1u);
}

// --------------------------------------------------------------------------
// Detector
// --------------------------------------------------------------------------

const std::vector<CpuVersion>& all_versions() {
  static const std::vector<CpuVersion> v = {
      CpuVersion::kV1Naive, CpuVersion::kV2Split, CpuVersion::kV3Blocked,
      CpuVersion::kV4Vector, CpuVersion::kV5PairCache};
  return v;
}

TEST(Detector, ConcurrentFirstUseOfTheLazyLayoutsIsSafeAndExact) {
  // The V1 and combined layouts are built on first use; several threads
  // asking for them at once on a fresh detector must get one build each
  // and the results a warmed-up detector gives.
  const auto d = planted_dataset(14, 700, 17);
  std::vector<std::vector<dataset::Phenotype>> parts(2);
  parts[0].assign(d.phenotypes().begin(), d.phenotypes().end());
  parts[1] = parts[0];
  std::reverse(parts[1].begin(), parts[1].end());
  const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
  DetectorOptions v1;
  v1.version = CpuVersion::kV1Naive;
  v1.top_k = 5;
  DetectorOptions v4;
  v4.top_k = 5;

  const Detector warm(d);
  const auto want_v1 = warm.run(v1).best;
  const auto want_v4 = warm.run(v4).best;
  const auto want_batch = warm.run_batched(batch, v4).best;

  const Detector fresh(d);
  constexpr int kThreads = 6;
  std::vector<std::vector<std::vector<ScoredOf<3>>>> got(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      switch (t % 3) {
        case 0: got[t] = {fresh.run(v1).best}; break;
        case 1: got[t] = fresh.run_batched(batch, v4).best; break;
        default: got[t] = {fresh.run(v4).best}; break;
      }
    });
  }
  for (auto& th : pool) th.join();

  const auto expect_same = [](const std::vector<ScoredOf<3>>& a,
                              const std::vector<ScoredOf<3>>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].snps, b[i].snps) << i;
      EXPECT_EQ(a[i].score, b[i].score) << i;
    }
  };
  for (int t = 0; t < kThreads; ++t) {
    if (t % 3 == 1) {
      ASSERT_EQ(got[t].size(), want_batch.size());
      for (std::size_t p = 0; p < want_batch.size(); ++p) {
        expect_same(got[t][p], want_batch[p]);
      }
    } else {
      ASSERT_EQ(got[t].size(), 1u);
      expect_same(got[t][0], t % 3 == 0 ? want_v1 : want_v4);
    }
  }
  expect_same(want_v1, want_v4);
}

TEST(Detector, RejectsTinyDatasets) {
  EXPECT_THROW(Detector(random_dataset({2, 10, 1})), std::invalid_argument);
}

TEST(Detector, RejectsBadOptions) {
  const Detector det(random_dataset({6, 50, 1}));
  DetectorOptions opt;
  opt.top_k = 0;
  EXPECT_THROW(det.run(opt), std::invalid_argument);
  opt = {};
  opt.range = {0, combinatorics::n_choose_k(6, 3) + 1};
  EXPECT_THROW(det.run(opt), std::invalid_argument);
}

TEST(Detector, AllVersionsAgreeOnBestTriplet) {
  const auto d = planted_dataset(10, 500, 11);
  const Detector det(d);
  std::vector<DetectionResult> results;
  for (const CpuVersion v : all_versions()) {
    DetectorOptions opt;
    opt.version = v;
    results.push_back(det.run(opt));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_FALSE(results[i].best.empty());
    EXPECT_EQ(results[i].best[0].snps, results[0].best[0].snps)
        << cpu_version_name(all_versions()[i]);
    EXPECT_DOUBLE_EQ(results[i].best[0].score, results[0].best[0].score);
  }
}

class DetectorVersionTest : public ::testing::TestWithParam<CpuVersion> {};

INSTANTIATE_TEST_SUITE_P(Versions, DetectorVersionTest,
                         ::testing::ValuesIn(all_versions()),
                         [](const auto& info) {
                           std::string n = cpu_version_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST_P(DetectorVersionTest, FindsPlantedInteraction) {
  const auto d = planted_dataset(12, 1500, 21);
  const Detector det(d);
  DetectorOptions opt;
  opt.version = GetParam();
  const DetectionResult r = det.run(opt);
  ASSERT_FALSE(r.best.empty());
  EXPECT_EQ(r.best[0].snps, (Combination<3>{1, 3, 5}));
}

TEST_P(DetectorVersionTest, DeterministicAcrossThreadCounts) {
  const auto d = random_dataset({14, 150, 5});
  const Detector det(d);
  DetectorOptions opt;
  opt.version = GetParam();
  opt.top_k = 5;
  const DetectionResult one = det.run(opt);
  for (unsigned threads : {2u, 4u}) {
    opt.threads = threads;
    const DetectionResult multi = det.run(opt);
    ASSERT_EQ(multi.best.size(), one.best.size());
    for (std::size_t i = 0; i < one.best.size(); ++i) {
      EXPECT_EQ(multi.best[i].snps, one.best[i].snps) << i;
      EXPECT_DOUBLE_EQ(multi.best[i].score, one.best[i].score) << i;
    }
  }
}

TEST_P(DetectorVersionTest, TieBreakingMakesOneAndEightThreadsIdentical) {
  // A dataset with duplicated SNP columns produces exact score ties; the
  // rank tie-break in BasicTopK and in the final merge must make the reported
  // top-k identical whatever the thread count.
  const auto base = random_dataset({7, 160, 77});
  dataset::GenotypeMatrix d(14, base.num_samples());
  for (std::size_t m = 0; m < 14; ++m) {
    for (std::size_t j = 0; j < base.num_samples(); ++j) {
      d.set(m, j, base.at(m % 7, j));
    }
  }
  for (std::size_t j = 0; j < base.num_samples(); ++j) {
    d.set_phenotype(j, base.phenotype(j));
  }
  const Detector det(d);
  DetectorOptions opt;
  opt.version = GetParam();
  opt.top_k = 12;
  opt.threads = 1;
  const DetectionResult one = det.run(opt);
  opt.threads = 8;
  opt.chunk_size = 3;  // many chunks: maximal interleaving across threads
  const DetectionResult eight = det.run(opt);
  ASSERT_EQ(one.best.size(), eight.best.size());
  for (std::size_t i = 0; i < one.best.size(); ++i) {
    EXPECT_EQ(eight.best[i].snps, one.best[i].snps) << i;
    EXPECT_DOUBLE_EQ(eight.best[i].score, one.best[i].score) << i;
  }
}

TEST_P(DetectorVersionTest, CountsAndMetadata) {
  const auto d = random_dataset({10, 100, 9});
  const Detector det(d);
  DetectorOptions opt;
  opt.version = GetParam();
  const DetectionResult r = det.run(opt);
  EXPECT_EQ(r.combinations_evaluated, combinatorics::n_choose_k(10, 3));
  EXPECT_EQ(r.elements, r.combinations_evaluated * 100);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.elements_per_second(), 0.0);
}

TEST(Detector, V4UsesWidestIsaByDefault) {
  const auto d = random_dataset({8, 64, 3});
  const Detector det(d);
  for (const CpuVersion v : {CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
    DetectorOptions opt;
    opt.version = v;
    EXPECT_EQ(det.run(opt).isa_used, best_kernel_isa()) << cpu_version_name(v);
  }
}

TEST(Detector, V4ExplicitIsaRespected) {
  const auto d = random_dataset({8, 64, 3});
  const Detector det(d);
  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    DetectorOptions opt;
    opt.version = CpuVersion::kV4Vector;
    opt.isa = isa;
    opt.isa_auto = false;
    const DetectionResult r = det.run(opt);
    EXPECT_EQ(r.isa_used, isa);
  }
}

TEST(Detector, AllIsasProduceIdenticalResults) {
  const auto d = random_dataset({12, 321, 13});
  const Detector det(d);
  DetectorOptions base;
  base.version = CpuVersion::kV4Vector;
  base.isa = KernelIsa::kScalar;
  base.isa_auto = false;
  base.top_k = 10;
  const DetectionResult ref = det.run(base);
  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    DetectorOptions opt = base;
    opt.isa = isa;
    const DetectionResult r = det.run(opt);
    ASSERT_EQ(r.best.size(), ref.best.size());
    for (std::size_t i = 0; i < ref.best.size(); ++i) {
      EXPECT_EQ(r.best[i].snps, ref.best[i].snps)
          << kernel_isa_name(isa) << " rank " << i;
      EXPECT_DOUBLE_EQ(r.best[i].score, ref.best[i].score);
    }
  }
}

TEST(Detector, ObjectivesRankPlantedTripleFirst) {
  const auto d = planted_dataset(10, 2000, 31);
  const Detector det(d);
  for (const Objective o : {Objective::kK2, Objective::kMutualInformation,
                            Objective::kChiSquared}) {
    DetectorOptions opt;
    opt.objective = o;
    const DetectionResult r = det.run(opt);
    ASSERT_FALSE(r.best.empty());
    EXPECT_EQ(r.best[0].snps, (Combination<3>{1, 3, 5})) << objective_name(o);
  }
}

TEST(Detector, TopKSortedAndUnique) {
  const auto d = random_dataset({12, 200, 17});
  const Detector det(d);
  DetectorOptions opt;
  opt.top_k = 20;
  const DetectionResult r = det.run(opt);
  ASSERT_EQ(r.best.size(), 20u);
  std::set<std::uint64_t> ranks;
  for (std::size_t i = 0; i < r.best.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(r.best[i - 1].score, r.best[i].score);
    }
    ranks.insert(combinatorics::rank_combination<3>(r.best[i].snps));
  }
  EXPECT_EQ(ranks.size(), 20u);
}

TEST(Detector, RangeRestrictionSplitsCoverageForEveryVersion) {
  const auto d = random_dataset({10, 100, 19});
  const Detector det(d);
  const std::uint64_t total = combinatorics::n_choose_k(10, 3);

  for (const CpuVersion v : all_versions()) {
    DetectorOptions full;
    full.version = v;
    full.top_k = 1;
    const auto best_full = det.run(full).best[0];

    // Best of [0, s) and [s, total) merged must equal the global best.
    for (const std::uint64_t s : {std::uint64_t{1}, total / 4, total / 2,
                                  total - 1}) {
      DetectorOptions lo = full, hi = full;
      lo.range = {0, s};
      hi.range = {s, total};
      const auto a = det.run(lo);
      const auto b = det.run(hi);
      EXPECT_EQ(a.combinations_evaluated + b.combinations_evaluated, total);
      const auto& merged_best =
          a.best[0].score <= b.best[0].score ? a.best[0] : b.best[0];
      EXPECT_EQ(merged_best.snps, best_full.snps)
          << cpu_version_name(v) << " s=" << s;
    }
  }
}

TEST(Detector, KWaySplitReproducesFullTopKExactly) {
  // Property behind sharded scans and the hetero split: a V4 partial-range
  // scan union over ANY full-coverage split must reproduce the full-scan
  // top-k triplet-for-triplet, for any tiling (block boundaries and rank
  // boundaries are deliberately unaligned).
  const auto d = random_dataset({16, 200, 7});
  const Detector det(d);
  const std::uint64_t total = combinatorics::n_choose_k(16, 3);

  for (const TilingParams tiling : {TilingParams{0, 0}, TilingParams{3, 16},
                                    TilingParams{5, 8}}) {
   for (const CpuVersion version :
        {CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
    DetectorOptions base;
    base.version = version;
    base.top_k = 15;
    base.tiling = tiling;
    const auto full = det.run(base);

    for (const unsigned k : {2u, 3u, 5u, 8u}) {
      BasicTopK<ScoredOf<3>> merged(base.top_k);
      std::uint64_t covered = 0;
      for (unsigned i = 0; i < k; ++i) {
        DetectorOptions part = base;
        part.range = {total * i / k, total * (i + 1) / k};
        const auto r = det.run(part);
        covered += r.combinations_evaluated;
        for (const auto& s : r.best) merged.push(s);
      }
      ASSERT_EQ(covered, total) << k;
      const auto got = merged.sorted();
      ASSERT_EQ(got.size(), full.best.size()) << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].snps, full.best[i].snps)
            << "k=" << k << " bs=" << tiling.bs << " rank " << i << " "
            << cpu_version_name(version);
        EXPECT_DOUBLE_EQ(got[i].score, full.best[i].score);
      }
    }
   }
  }
}

TEST(Detector, V5BitIdenticalToV2OverRandomRankRanges) {
  // The V5 acceptance property: for every compiled-in ISA, the cached
  // engine reproduces the V2 per-triplet reference score-bit-for-score-bit
  // over the full space and over arbitrary K-way rank splits.
  const auto d = random_dataset({17, 210, 97});
  const Detector det(d);
  const std::uint64_t total = combinatorics::n_choose_k(17, 3);

  DetectorOptions ref_opt;
  ref_opt.version = CpuVersion::kV2Split;
  ref_opt.top_k = 12;
  const auto ref = det.run(ref_opt);

  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    DetectorOptions v5;
    v5.version = CpuVersion::kV5PairCache;
    v5.isa = isa;
    v5.isa_auto = false;
    v5.top_k = 12;
    v5.tiling = {3, 16};  // deliberately unaligned with the dataset
    const auto full = det.run(v5);
    ASSERT_EQ(full.best.size(), ref.best.size()) << kernel_isa_name(isa);
    for (std::size_t i = 0; i < ref.best.size(); ++i) {
      EXPECT_EQ(full.best[i].snps, ref.best[i].snps)
          << kernel_isa_name(isa) << " rank " << i;
      EXPECT_EQ(full.best[i].score, ref.best[i].score)
          << kernel_isa_name(isa) << " rank " << i;
    }

    // Random full-coverage splits: the merged partial V5 scans must also
    // reproduce the V2 reference exactly.
    std::mt19937_64 rng(53 + static_cast<unsigned>(isa));
    for (int round = 0; round < 3; ++round) {
      std::vector<std::uint64_t> cuts = {0, total};
      std::uniform_int_distribution<std::uint64_t> dist(1, total - 1);
      while (cuts.size() < static_cast<std::size_t>(round) + 3) {
        cuts.push_back(dist(rng));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      BasicTopK<ScoredOf<3>> acc(v5.top_k);
      std::uint64_t covered = 0;
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        DetectorOptions part = v5;
        part.range = {cuts[i], cuts[i + 1]};
        const auto r = det.run(part);
        covered += r.combinations_evaluated;
        for (const auto& s : r.best) acc.push(s);
      }
      ASSERT_EQ(covered, total);
      const auto got = acc.sorted();
      ASSERT_EQ(got.size(), ref.best.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].snps, ref.best[i].snps)
            << kernel_isa_name(isa) << " round " << round << " rank " << i;
        EXPECT_EQ(got[i].score, ref.best[i].score);
      }
    }
  }
}

TEST(Detector, BlockedPartialRangeCountsEveryTripletOnce) {
  // combinations_evaluated must equal the range size on the blocked paths too
  // (each in-range triplet is emitted exactly once across boundary blocks).
  const auto d = random_dataset({12, 96, 3});
  const Detector det(d);
  const std::uint64_t total = combinatorics::n_choose_k(12, 3);
  for (const CpuVersion v : {CpuVersion::kV3Blocked, CpuVersion::kV4Vector,
                             CpuVersion::kV5PairCache}) {
    for (const std::uint64_t first : {std::uint64_t{0}, total / 3}) {
      for (const std::uint64_t last : {total / 3 + 1, total - 7, total}) {
        DetectorOptions opt;
        opt.version = v;
        opt.tiling = {3, 8};
        opt.range = {first, last};
        std::uint64_t seen = 0;
        opt.progress = [&](std::uint64_t done, std::uint64_t t) {
          seen = done;
          EXPECT_EQ(t, last - first);
        };
        const auto r = det.run(opt);
        EXPECT_EQ(r.combinations_evaluated, last - first);
        EXPECT_EQ(seen, last - first) << cpu_version_name(v);
      }
    }
  }
}

TEST(Detector, ProgressCallbackIsMonotoneAndComplete) {
  const auto d = random_dataset({12, 150, 41});
  const Detector det(d);
  for (const CpuVersion v : all_versions()) {
    DetectorOptions opt;
    opt.version = v;
    opt.threads = 4;
    opt.chunk_size = 7;
    std::vector<std::uint64_t> reports;
    opt.progress = [&](std::uint64_t done, std::uint64_t total) {
      EXPECT_EQ(total, combinatorics::n_choose_k(12, 3));
      reports.push_back(done);
    };
    det.run(opt);
    ASSERT_FALSE(reports.empty()) << cpu_version_name(v);
    EXPECT_TRUE(std::is_sorted(reports.begin(), reports.end()));
    EXPECT_EQ(reports.back(), combinatorics::n_choose_k(12, 3))
        << cpu_version_name(v);
  }
}

TEST(Detector, ExplicitTilingHonored) {
  const auto d = random_dataset({9, 80, 2});
  const Detector det(d);
  DetectorOptions opt;
  opt.version = CpuVersion::kV3Blocked;
  opt.tiling = {2, 16};
  const DetectionResult r = det.run(opt);
  EXPECT_EQ(r.tiling_used.bs, 2u);
  EXPECT_EQ(r.tiling_used.bp_words, 16u);
}

TEST(Detector, ChunkSizeDoesNotChangeResults)
{
  const auto d = random_dataset({11, 90, 8});
  const Detector det(d);
  DetectorOptions opt;
  opt.version = CpuVersion::kV2Split;
  opt.top_k = 3;
  const auto ref = det.run(opt);
  for (std::uint64_t chunk : {1ull, 7ull, 1000000ull}) {
    opt.chunk_size = chunk;
    const auto r = det.run(opt);
    for (std::size_t i = 0; i < ref.best.size(); ++i) {
      EXPECT_EQ(r.best[i].snps, ref.best[i].snps) << chunk;
    }
  }
}

}  // namespace
}  // namespace trigen::core
