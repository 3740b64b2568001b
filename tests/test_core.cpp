#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include "test_util.hpp"
#include "trigen/core/blocked_engine.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/core/topk.hpp"

namespace trigen::core {
namespace {

using combinatorics::Triplet;
using scoring::ContingencyTable;
using scoring::reference_contingency;
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
      KernelIsa::kScalar,        KernelIsa::kAvx2,
      KernelIsa::kAvx2HarleySeal, KernelIsa::kAvx512Extract,
      KernelIsa::kAvx512Vpopcnt};
  return v;
}

TEST(KernelRegistry, VectorWordsMatchIsa) {
  EXPECT_EQ(kernel_vector_words(KernelIsa::kScalar), 1u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx2), 8u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx2HarleySeal), 8u);
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
  for (std::size_t x = 0; x < m; ++x) {
    for (std::size_t y = x + 1; y < m; ++y) {
      for (std::size_t z = y + 1; z < m; ++z) {
        ASSERT_EQ(contingency_v1(planes, x, y, z),
                  reference_contingency(d, x, y, z))
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
    for (std::size_t x = 0; x < m; ++x) {
      for (std::size_t y = x + 1; y < m; ++y) {
        for (std::size_t z = y + 1; z < m; ++z) {
          ASSERT_EQ(contingency_split(planes, x, y, z, isa),
                    reference_contingency(d, x, y, z))
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
    PairPlaneCache cache;
    for (std::size_t x = 0; x < m; ++x) {
      for (std::size_t y = x + 1; y < m; ++y) {
        for (std::size_t z = y + 1; z < m; ++z) {
          ContingencyTable t;
          for (int c = 0; c < 2; ++c) {
            const std::size_t words = planes.words(c);
            cache.ensure(words);
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
          ASSERT_EQ(t, reference_contingency(d, x, y, z))
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
  PairPlaneCache cache;
  for (int c = 0; c < 2; ++c) {
    const std::size_t words = planes.words(c);
    cache.ensure(words);
    std::uint32_t full[27] = {};
    std::uint32_t split_acc[27] = {};
    std::fill(cache.pops(), cache.pops() + 9, 0u);
    ks.build(planes.plane(c, 0, 0), planes.plane(c, 0, 1),
             planes.plane(c, 1, 0), planes.plane(c, 1, 1), 0, words,
             cache.planes(), cache.stride(), cache.pops());
    ks.cached(cache.planes(), cache.stride(), cache.pops(),
              planes.plane(c, 2, 0), planes.plane(c, 2, 1), 0, words, full);
    const std::size_t mid = words / 2;
    for (const auto range :
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
  EXPECT_EQ(num_block_triples(1), 1u);   // (0,0,0)
  EXPECT_EQ(num_block_triples(2), 4u);   // C(4,3)
  EXPECT_EQ(num_block_triples(3), 10u);  // C(5,3)
  EXPECT_EQ(num_block_triples(10), 220u);
}

TEST(BlockTriples, RoundTripExhaustive) {
  std::uint64_t rank = 0;
  for (std::uint32_t c = 0; c < 20; ++c) {
    for (std::uint32_t b = 0; b <= c; ++b) {
      for (std::uint32_t a = 0; a <= b; ++a) {
        const BlockTriple t{a, b, c};
        ASSERT_EQ(rank_block_triple(t), rank);
        ASSERT_EQ(unrank_block_triple(rank), t);
        ++rank;
      }
    }
  }
  EXPECT_EQ(rank, num_block_triples(20));
}

TEST(BlockTriples, LargeRanksRoundTrip) {
  const std::uint64_t total = num_block_triples(5000);
  for (std::uint64_t i = 1; i <= 500; ++i) {
    const std::uint64_t rank = (total / 501) * i;
    const BlockTriple t = unrank_block_triple(rank);
    ASSERT_LE(t.b0, t.b1);
    ASSERT_LE(t.b1, t.b2);
    ASSERT_EQ(rank_block_triple(t), rank);
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
  const TripleBlockKernel kernel = get_kernel(KernelIsa::kScalar);
  BlockScratch scratch(bs);

  const std::size_t m = d.num_snps();
  const std::uint64_t nb = (m + bs - 1) / bs;
  std::map<std::uint64_t, int> seen;
  for (std::uint64_t r = 0; r < num_block_triples(nb); ++r) {
    scan_block_triple(planes, tiling, kernel, scratch, unrank_block_triple(r),
                      [&](const Triplet& t, const ContingencyTable& table) {
                        ++seen[combinatorics::rank_triplet(t)];
                        ASSERT_EQ(table,
                                  reference_contingency(d, t.x, t.y, t.z))
                            << t.x << "," << t.y << "," << t.z;
                      });
  }
  const std::uint64_t total = combinatorics::num_triplets(m);
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
  const TripleBlockKernel kernel = get_kernel(KernelIsa::kScalar);
  BlockScratch scratch(bs);
  const std::uint64_t nb = (10 + bs - 1) / bs;
  const std::uint64_t total = combinatorics::num_triplets(10);

  for (const auto clip :
       {combinatorics::RankRange{0, total}, combinatorics::RankRange{17, 18},
        combinatorics::RankRange{0, total / 2},
        combinatorics::RankRange{total / 2, total},
        combinatorics::RankRange{3, total - 3}}) {
    std::set<std::uint64_t> emitted;
    for (std::uint64_t r = 0; r < num_block_triples(nb); ++r) {
      scan_block_triple(planes, tiling, kernel, scratch,
                        unrank_block_triple(r), clip,
                        [&](const Triplet& t, const ContingencyTable& table) {
                          const std::uint64_t rank =
                              combinatorics::rank_triplet(t);
                          ASSERT_TRUE(emitted.insert(rank).second) << rank;
                          ASSERT_EQ(table,
                                    reference_contingency(d, t.x, t.y, t.z));
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
    BlockScratch scratch(3);
    const TripleBlockKernel kernel = get_kernel(KernelIsa::kScalar);
    std::uint64_t count = 0;
    for (std::uint64_t r = 0; r < num_block_triples(3); ++r) {
      scan_block_triple(planes, tiling, kernel, scratch,
                        unrank_block_triple(r),
                        [&](const Triplet& t, const ContingencyTable& table) {
                          ++count;
                          ASSERT_EQ(table,
                                    reference_contingency(d, t.x, t.y, t.z));
                        });
    }
    EXPECT_EQ(count, combinatorics::num_triplets(9)) << "bp=" << bp;
  }
}

TEST_P(BlockedEngineTest, CachedEngineCoversEveryTripletExactlyOnceWithCorrectTables) {
  const auto d = random_dataset(std::get<0>(GetParam()));
  const std::size_t bs = std::get<1>(GetParam());
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const TilingParams tiling{bs, 32};
  const CachedKernelSet ks = get_cached_kernels(KernelIsa::kScalar);
  BlockScratch scratch(bs);

  const std::size_t m = d.num_snps();
  const std::uint64_t nb = (m + bs - 1) / bs;
  std::map<std::uint64_t, int> seen;
  for (std::uint64_t r = 0; r < num_block_triples(nb); ++r) {
    scan_block_triple(planes, tiling, ks, scratch, unrank_block_triple(r),
                      [&](const Triplet& t, const ContingencyTable& table) {
                        ++seen[combinatorics::rank_triplet(t)];
                        ASSERT_EQ(table,
                                  reference_contingency(d, t.x, t.y, t.z))
                            << t.x << "," << t.y << "," << t.z;
                      });
  }
  const std::uint64_t total = combinatorics::num_triplets(m);
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
  BlockScratch scratch(bs);
  const std::uint64_t nb = (10 + bs - 1) / bs;
  const std::uint64_t total = combinatorics::num_triplets(10);

  for (const auto clip :
       {combinatorics::RankRange{0, total}, combinatorics::RankRange{17, 18},
        combinatorics::RankRange{0, total / 2},
        combinatorics::RankRange{total / 2, total},
        combinatorics::RankRange{3, total - 3}}) {
    std::set<std::uint64_t> emitted;
    for (std::uint64_t r = 0; r < num_block_triples(nb); ++r) {
      scan_block_triple(planes, tiling, ks, scratch, unrank_block_triple(r),
                        clip,
                        [&](const Triplet& t, const ContingencyTable& table) {
                          const std::uint64_t rank =
                              combinatorics::rank_triplet(t);
                          ASSERT_TRUE(emitted.insert(rank).second) << rank;
                          ASSERT_EQ(table,
                                    reference_contingency(d, t.x, t.y, t.z));
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
  PairPlaneCache cache;
  for (const std::size_t words : {1u, 17u, 400u, 1000u}) {
    cache.ensure(words);
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
  cache.ensure(8);
  EXPECT_EQ(cache.stride(), grown);
}

// --------------------------------------------------------------------------
// Tiling autotuner
// --------------------------------------------------------------------------

TEST(Tiling, PaperIceLakeConfig) {
  // Ice Lake SP: 48 kB 12-way L1D, 7 ways tables + 4 ways block, AVX-512
  // (16 words/vector) => the paper's <5, 400>.
  L1Config l1{48 * 1024, 12, 7, 4};
  const TilingParams p = autotune_tiling(l1, 16);
  EXPECT_EQ(p.bs, 5u);
  EXPECT_EQ(p.bp_words, 400u);
}

TEST(Tiling, PaperAvxConfig) {
  // 32 kB 8-way L1D, 7 ways tables + 1 way block, AVX (8 words/vector)
  // => the paper's <5, 96>.
  L1Config l1{32 * 1024, 8, 7, 1};
  const TilingParams p = autotune_tiling(l1, 8);
  EXPECT_EQ(p.bs, 5u);
  EXPECT_EQ(p.bp_words, 96u);
}

TEST(Tiling, FrequencyTablesFitBudget) {
  for (unsigned ways_ft : {4u, 7u}) {
    L1Config l1{32 * 1024, 8, ways_ft, 1};
    const TilingParams p = autotune_tiling(l1, 8);
    EXPECT_LE(tables_bytes(p.bs), l1.size_bytes / l1.ways * ways_ft);
    EXPECT_GT(tables_bytes(p.bs + 1), l1.size_bytes / l1.ways * ways_ft);
  }
}

TEST(Tiling, BpMultipleOfVectorWords) {
  for (std::size_t vec : {1u, 8u, 16u}) {
    L1Config l1{48 * 1024, 12, 7, 4};
    const TilingParams p = autotune_tiling(l1, vec);
    EXPECT_EQ(p.bp_words % vec, 0u) << vec;
    EXPECT_GE(p.bp_words, vec);
  }
}

TEST(Tiling, PairCacheFootprintStaysInsideTheL1Budget) {
  // The V5 autotuner must budget the streamed block AND the 9-plane cache
  // inside the block ways, for every cache geometry and vector width.
  for (const L1Config l1 :
       {L1Config{48 * 1024, 12, 7, 4}, L1Config{32 * 1024, 8, 7, 1},
        L1Config{64 * 1024, 16, 7, 8}, L1Config{24 * 1024, 6, 4, 2}}) {
    const std::size_t ft_budget = l1.size_bytes / l1.ways * l1.ways_for_tables;
    const std::size_t block_budget =
        l1.size_bytes / l1.ways * l1.ways_for_block;
    for (const std::size_t vec : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}}) {
      const TilingParams p = autotune_tiling(l1, vec, true);
      EXPECT_LE(tables_bytes(p.bs), ft_budget) << vec;
      EXPECT_LE(block_bytes(p.bs, p.bp_words) + pair_cache_bytes(p.bp_words),
                block_budget)
          << "L1 " << l1.size_bytes << " vec " << vec;
      EXPECT_EQ(p.bp_words % vec, 0u);
      // B_P lands on the PairPlaneCache stride granule, so the budgeted
      // footprint equals the allocated one (ensure() rounds the stride up
      // to whole AVX-512 registers).
      EXPECT_EQ(p.bp_words % dataset::kWordsPerVector, 0u);
      // The cache-aware B_P can only shrink relative to the V4 sizing.
      EXPECT_LE(p.bp_words, autotune_tiling(l1, vec, false).bp_words);
    }
  }
}

TEST(Tiling, DetectedHostConfigIsUsable) {
  const L1Config l1 = detect_l1_config();
  EXPECT_GT(l1.size_bytes, 0u);
  EXPECT_GT(l1.ways, 0u);
  const TilingParams p = autotune_tiling(l1, 16);
  EXPECT_TRUE(p.valid());
  EXPECT_GE(p.bs, 1u);
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
  TopK top(3);
  for (int i = 10; i >= 1; --i) {
    top.push({Triplet{0, 1, static_cast<std::uint32_t>(i + 1)},
              static_cast<double>(i)});
  }
  const auto sorted = top.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].score, 1.0);
  EXPECT_DOUBLE_EQ(sorted[1].score, 2.0);
  EXPECT_DOUBLE_EQ(sorted[2].score, 3.0);
}

TEST(TopK, TieBreaksOnRank) {
  TopK top(2);
  top.push({Triplet{0, 1, 3}, 5.0});
  top.push({Triplet{0, 1, 2}, 5.0});
  top.push({Triplet{0, 2, 3}, 5.0});
  const auto sorted = top.sorted();
  EXPECT_EQ(sorted[0].triplet, (Triplet{0, 1, 2}));
  EXPECT_EQ(sorted[1].triplet, (Triplet{0, 1, 3}));
}

TEST(TopK, MergeEqualsSequentialPushes) {
  TopK a(4), b(4), all(4);
  for (int i = 0; i < 20; ++i) {
    const ScoredTriplet s{Triplet{0, 1, static_cast<std::uint32_t>(i + 2)},
                          static_cast<double>((i * 7) % 13)};
    (i % 2 == 0 ? a : b).push(s);
    all.push(s);
  }
  a.merge(b);
  const auto lhs = a.sorted();
  const auto rhs = all.sorted();
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].triplet, rhs[i].triplet);
    EXPECT_DOUBLE_EQ(lhs[i].score, rhs[i].score);
  }
}

TEST(TopK, ZeroCapacityClampsToOne) {
  TopK top(0);
  top.push({Triplet{0, 1, 2}, 1.0});
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
  std::vector<std::vector<std::vector<ScoredTriplet>>> got(kThreads);
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

  const auto expect_same = [](const std::vector<ScoredTriplet>& a,
                              const std::vector<ScoredTriplet>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].triplet, b[i].triplet) << i;
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
  opt.range = {0, combinatorics::num_triplets(6) + 1};
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
    EXPECT_EQ(results[i].best[0].triplet, results[0].best[0].triplet)
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
  EXPECT_EQ(r.best[0].triplet, (Triplet{1, 3, 5}));
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
      EXPECT_EQ(multi.best[i].triplet, one.best[i].triplet) << i;
      EXPECT_DOUBLE_EQ(multi.best[i].score, one.best[i].score) << i;
    }
  }
}

TEST_P(DetectorVersionTest, TieBreakingMakesOneAndEightThreadsIdentical) {
  // A dataset with duplicated SNP columns produces exact score ties; the
  // rank tie-break in TopK and in the final merge must make the reported
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
    EXPECT_EQ(eight.best[i].triplet, one.best[i].triplet) << i;
    EXPECT_DOUBLE_EQ(eight.best[i].score, one.best[i].score) << i;
  }
}

TEST_P(DetectorVersionTest, CountsAndMetadata) {
  const auto d = random_dataset({10, 100, 9});
  const Detector det(d);
  DetectorOptions opt;
  opt.version = GetParam();
  const DetectionResult r = det.run(opt);
  EXPECT_EQ(r.combinations_evaluated, combinatorics::num_triplets(10));
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
      EXPECT_EQ(r.best[i].triplet, ref.best[i].triplet)
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
    EXPECT_EQ(r.best[0].triplet, (Triplet{1, 3, 5})) << objective_name(o);
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
    if (i > 0) EXPECT_LE(r.best[i - 1].score, r.best[i].score);
    ranks.insert(combinatorics::rank_triplet(r.best[i].triplet));
  }
  EXPECT_EQ(ranks.size(), 20u);
}

TEST(Detector, RangeRestrictionSplitsCoverageForEveryVersion) {
  const auto d = random_dataset({10, 100, 19});
  const Detector det(d);
  const std::uint64_t total = combinatorics::num_triplets(10);

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
      EXPECT_EQ(merged_best.triplet, best_full.triplet)
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
  const std::uint64_t total = combinatorics::num_triplets(16);

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
      TopK merged(base.top_k);
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
        EXPECT_EQ(got[i].triplet, full.best[i].triplet)
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
  const std::uint64_t total = combinatorics::num_triplets(17);

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
      EXPECT_EQ(full.best[i].triplet, ref.best[i].triplet)
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
      TopK acc(v5.top_k);
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
        EXPECT_EQ(got[i].triplet, ref.best[i].triplet)
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
  const std::uint64_t total = combinatorics::num_triplets(12);
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
      EXPECT_EQ(total, combinatorics::num_triplets(12));
      reports.push_back(done);
    };
    det.run(opt);
    ASSERT_FALSE(reports.empty()) << cpu_version_name(v);
    EXPECT_TRUE(std::is_sorted(reports.begin(), reports.end()));
    EXPECT_EQ(reports.back(), combinatorics::num_triplets(12))
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
      EXPECT_EQ(r.best[i].triplet, ref.best[i].triplet) << chunk;
    }
  }
}

}  // namespace
}  // namespace trigen::core
