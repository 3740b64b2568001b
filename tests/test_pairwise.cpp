#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "test_util.hpp"
#include "trigen/pairwise/pair_detector.hpp"
#include "trigen/scoring/chi_squared.hpp"
#include "trigen/scoring/generic.hpp"
#include "trigen/scoring/mutual_information.hpp"

namespace trigen::pairwise {
namespace {

using trigen::test::Shape;
using trigen::test::random_dataset;
using trigen::test::small_shapes;

// --------------------------------------------------------------------------
// Pair ranking
// --------------------------------------------------------------------------

TEST(PairRank, FirstPairs) {
  EXPECT_EQ(rank_pair(0, 1), 0u);
  EXPECT_EQ(rank_pair(0, 2), 1u);
  EXPECT_EQ(rank_pair(1, 2), 2u);
  EXPECT_EQ(rank_pair(0, 3), 3u);
}

TEST(PairRank, CountsMatch) {
  EXPECT_EQ(num_pairs(2), 1u);
  EXPECT_EQ(num_pairs(10), 45u);
  EXPECT_EQ(num_pairs(1000), 499500u);
}

TEST(PairRank, ExhaustiveOrdering) {
  std::uint64_t rank = 0;
  for (std::uint32_t y = 1; y < 60; ++y) {
    for (std::uint32_t x = 0; x < y; ++x) {
      ASSERT_EQ(rank_pair(x, y), rank);
      ++rank;
    }
  }
  EXPECT_EQ(rank, num_pairs(60));
}

// --------------------------------------------------------------------------
// Pair contingency tables
// --------------------------------------------------------------------------

TEST(PairTableRef, CountsEverySampleOnce) {
  const auto d = random_dataset({6, 100, 3});
  const PairTable t = reference_pair_table(d, 1, 4);
  std::uint32_t total = 0;
  for (int c = 0; c < 2; ++c) {
    for (const auto v : t.counts[static_cast<std::size_t>(c)]) total += v;
  }
  EXPECT_EQ(total, d.num_samples());
}

TEST(PairTableRef, OutOfRangeThrows) {
  const auto d = random_dataset({4, 20, 1});
  EXPECT_THROW(reference_pair_table(d, 0, 4), std::out_of_range);
}

class PairKernelShapeTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, PairKernelShapeTest,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(PairKernelShapeTest, KernelMatchesReferenceForEveryIsa) {
  const auto d = random_dataset(GetParam());
  const PairDetector det(d);
  const std::size_t m = d.num_snps();
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    for (std::size_t x = 0; x < m; ++x) {
      for (std::size_t y = x + 1; y < m; ++y) {
        ASSERT_EQ(det.contingency(x, y, isa), reference_pair_table(d, x, y))
            << core::kernel_isa_name(isa) << " " << x << "," << y;
      }
    }
  }
}

TEST(PairDetector, ContingencyArgumentValidation) {
  const auto d = random_dataset({5, 40, 7});
  const PairDetector det(d);
  EXPECT_THROW((void)det.contingency(0, 5), std::out_of_range);
  EXPECT_THROW((void)det.contingency(2, 2), std::out_of_range);
}

// --------------------------------------------------------------------------
// Detection
// --------------------------------------------------------------------------

dataset::GenotypeMatrix planted_pair_dataset(std::uint64_t seed) {
  dataset::SyntheticSpec spec;
  spec.num_snps = 14;
  spec.num_samples = 2500;
  spec.seed = seed;
  spec.maf_min = 0.3;
  spec.maf_max = 0.5;
  spec.prevalence = 0.2;
  dataset::PlantedInteraction planted;
  planted.snps = {2, 6, 13};  // third SNP is ignored by the table
  planted.penetrance = dataset::make_penetrance_pairwise(
      dataset::InteractionModel::kXor3, 0.05, 0.8);
  spec.interaction = planted;
  return dataset::generate(spec);
}

TEST(PairDetector, RejectsTinyDatasets) {
  dataset::GenotypeMatrix d(1, 10);
  EXPECT_THROW(PairDetector{d}, std::invalid_argument);
}

TEST(PairDetector, FindsPlantedPair) {
  const auto d = planted_pair_dataset(5);
  const PairDetector det(d);
  const auto r = det.run({});
  ASSERT_FALSE(r.best.empty());
  EXPECT_EQ(r.best[0].x, 2u);
  EXPECT_EQ(r.best[0].y, 6u);
}

TEST(PairDetector, AllObjectivesFindPlantedPair) {
  const auto d = planted_pair_dataset(9);
  const PairDetector det(d);
  for (const auto o :
       {core::Objective::kK2, core::Objective::kMutualInformation,
        core::Objective::kChiSquared}) {
    PairDetectorOptions opt;
    opt.objective = o;
    const auto r = det.run(opt);
    EXPECT_EQ(r.best[0].x, 2u) << core::objective_name(o);
    EXPECT_EQ(r.best[0].y, 6u) << core::objective_name(o);
  }
}

TEST(PairDetector, AllIsasIdenticalResults) {
  const auto d = random_dataset({16, 333, 11});
  const PairDetector det(d);
  PairDetectorOptions base;
  base.isa = core::KernelIsa::kScalar;
  base.isa_auto = false;
  base.top_k = 8;
  const auto ref = det.run(base);
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    PairDetectorOptions opt = base;
    opt.isa = isa;
    const auto r = det.run(opt);
    ASSERT_EQ(r.best.size(), ref.best.size());
    for (std::size_t i = 0; i < ref.best.size(); ++i) {
      EXPECT_EQ(r.best[i].x, ref.best[i].x) << i;
      EXPECT_EQ(r.best[i].y, ref.best[i].y) << i;
      EXPECT_DOUBLE_EQ(r.best[i].score, ref.best[i].score) << i;
    }
  }
}

TEST(PairDetector, DeterministicAcrossThreads) {
  const auto d = random_dataset({18, 150, 13});
  const PairDetector det(d);
  PairDetectorOptions opt;
  opt.top_k = 5;
  const auto one = det.run(opt);
  for (unsigned threads : {2u, 5u}) {
    opt.threads = threads;
    const auto multi = det.run(opt);
    ASSERT_EQ(multi.best.size(), one.best.size());
    for (std::size_t i = 0; i < one.best.size(); ++i) {
      EXPECT_EQ(multi.best[i].x, one.best[i].x) << i;
      EXPECT_EQ(multi.best[i].y, one.best[i].y) << i;
      EXPECT_DOUBLE_EQ(multi.best[i].score, one.best[i].score) << i;
    }
  }
}

TEST(PairDetector, CountsAndMetadata) {
  const auto d = random_dataset({12, 90, 17});
  const PairDetector det(d);
  const auto r = det.run({});
  EXPECT_EQ(r.combinations_evaluated, num_pairs(12));
  EXPECT_EQ(r.elements, r.combinations_evaluated * 90);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(det.num_snps(), 12u);
  EXPECT_EQ(det.num_samples(), 90u);
}

TEST(PairDetector, TopKSortedUnique) {
  const auto d = random_dataset({15, 120, 19});
  const PairDetector det(d);
  PairDetectorOptions opt;
  opt.top_k = 12;
  const auto r = det.run(opt);
  ASSERT_EQ(r.best.size(), 12u);
  for (std::size_t i = 1; i < r.best.size(); ++i) {
    EXPECT_LE(r.best[i - 1].score, r.best[i].score);
    EXPECT_NE(rank_pair(r.best[i - 1].x, r.best[i - 1].y),
              rank_pair(r.best[i].x, r.best[i].y));
  }
}

TEST(PairDetector, BadOptionsThrow) {
  const auto d = random_dataset({6, 50, 23});
  const PairDetector det(d);
  PairDetectorOptions opt;
  opt.top_k = 0;
  EXPECT_THROW(det.run(opt), std::invalid_argument);
  PairDetectorOptions bad_range;
  bad_range.range = {0, num_pairs(6) + 1};
  EXPECT_THROW(det.run(bad_range), std::invalid_argument);
}

// --------------------------------------------------------------------------
// The optimization ladder: V1-V4 (x ISAs, x tilings) are bit-identical
// --------------------------------------------------------------------------

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

void expect_same_pairs(const std::vector<ScoredPair>& got,
                       const std::vector<ScoredPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].x, want[i].x) << "entry " << i;
    EXPECT_EQ(got[i].y, want[i].y) << "entry " << i;
    EXPECT_TRUE(same_bits(got[i].score, want[i].score))
        << "entry " << i << ": " << got[i].score << " vs " << want[i].score;
  }
}

class PairVersionShapeTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, PairVersionShapeTest,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(PairVersionShapeTest, EveryVersionMatchesTheNaiveReferenceExactly) {
  const auto d = random_dataset(GetParam());
  const PairDetector det(d);
  PairDetectorOptions ref_opt;
  ref_opt.version = core::CpuVersion::kV1Naive;
  ref_opt.top_k = 6;
  const auto ref = det.run(ref_opt);

  for (const auto version :
       {core::CpuVersion::kV2Split, core::CpuVersion::kV3Blocked,
        core::CpuVersion::kV4Vector, core::CpuVersion::kV5PairCache}) {
    for (const core::KernelIsa isa : core::all_kernel_isas()) {
      if (!core::kernel_available(isa)) continue;
      PairDetectorOptions opt;
      opt.version = version;
      opt.isa = isa;
      opt.isa_auto = false;
      opt.top_k = 6;
      if (version == core::CpuVersion::kV3Blocked) {
        opt.tiling = {3, 8};  // deliberately unaligned with the dataset
      }
      const auto r = det.run(opt);
      expect_same_pairs(r.best, ref.best);
    }
  }
}

TEST(PairDetector, PlantedPairFoundByEveryVersion) {
  const auto d = planted_pair_dataset(21);
  const PairDetector det(d);
  for (const auto version :
       {core::CpuVersion::kV1Naive, core::CpuVersion::kV2Split,
        core::CpuVersion::kV3Blocked, core::CpuVersion::kV4Vector,
        core::CpuVersion::kV5PairCache}) {
    PairDetectorOptions opt;
    opt.version = version;
    const auto r = det.run(opt);
    EXPECT_EQ(r.best[0].x, 2u) << core::cpu_version_name(version);
    EXPECT_EQ(r.best[0].y, 6u) << core::cpu_version_name(version);
  }
}

// --------------------------------------------------------------------------
// Rank-range partitioning: K-way splits reproduce the full scan
// --------------------------------------------------------------------------

TEST(PairDetectorRange, KWayRandomSplitsReproduceTheFullScanExactly) {
  const auto d = random_dataset({18, 150, 37});
  const PairDetector det(d);
  const std::uint64_t total = num_pairs(18);

  PairDetectorOptions base;
  base.top_k = 9;
  const auto full = det.run(base);

  std::mt19937_64 rng(4242);
  for (int round = 0; round < 5; ++round) {
    // Random full-coverage split into 2 + round parts.
    std::vector<std::uint64_t> cuts = {0, total};
    std::uniform_int_distribution<std::uint64_t> dist(1, total - 1);
    while (cuts.size() < static_cast<std::size_t>(round) + 3) {
      cuts.push_back(dist(rng));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    core::PairTopK acc(base.top_k);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      PairDetectorOptions opt = base;
      opt.range = {cuts[i], cuts[i + 1]};
      // Rotate the engine version (and an odd tiling) across partitions:
      // the merged result must not care who scanned what.
      opt.version = static_cast<core::CpuVersion>(i % 5);
      if (opt.version == core::CpuVersion::kV3Blocked ||
          opt.version == core::CpuVersion::kV4Vector ||
          opt.version == core::CpuVersion::kV5PairCache) {
        opt.tiling = {3, 16};
      }
      const auto part = det.run(opt);
      EXPECT_EQ(part.combinations_evaluated, opt.range.size());
      for (const auto& s : part.best) acc.push(s);
    }
    expect_same_pairs(acc.sorted(), full.best);
  }
}

TEST(PairDetectorRange, V5BitIdenticalToV2OverRandomRankRanges) {
  // Pair-order V5 acceptance property: the cache-direct pair engine
  // reproduces the V2 per-pair reference exactly, full-scan and over
  // random K-way splits, for every compiled-in ISA.
  const auto d = random_dataset({18, 150, 37});
  const PairDetector det(d);
  const std::uint64_t total = num_pairs(18);

  PairDetectorOptions ref_opt;
  ref_opt.version = core::CpuVersion::kV2Split;
  ref_opt.top_k = 9;
  const auto ref = det.run(ref_opt);

  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    PairDetectorOptions v5;
    v5.version = core::CpuVersion::kV5PairCache;
    v5.isa = isa;
    v5.isa_auto = false;
    v5.top_k = 9;
    v5.tiling = {3, 16};
    expect_same_pairs(det.run(v5).best, ref.best);

    std::mt19937_64 rng(99 + static_cast<unsigned>(isa));
    for (int round = 0; round < 3; ++round) {
      std::vector<std::uint64_t> cuts = {0, total};
      std::uniform_int_distribution<std::uint64_t> dist(1, total - 1);
      while (cuts.size() < static_cast<std::size_t>(round) + 3) {
        cuts.push_back(dist(rng));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      core::PairTopK acc(v5.top_k);
      std::uint64_t covered = 0;
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        PairDetectorOptions part = v5;
        part.range = {cuts[i], cuts[i + 1]};
        const auto r = det.run(part);
        covered += r.combinations_evaluated;
        for (const auto& sp : r.best) acc.push(sp);
      }
      ASSERT_EQ(covered, total) << core::kernel_isa_name(isa);
      expect_same_pairs(acc.sorted(), ref.best);
    }
  }
}

TEST(PairDetectorRange, SinglePairRangesCoverTheSpace) {
  const auto d = random_dataset({8, 100, 41});
  const PairDetector det(d);
  const std::uint64_t total = num_pairs(8);
  PairDetectorOptions base;
  base.top_k = 4;
  const auto full = det.run(base);
  core::PairTopK acc(base.top_k);
  for (std::uint64_t r = 0; r < total; ++r) {
    PairDetectorOptions opt = base;
    opt.range = {r, r + 1};
    const auto part = det.run(opt);
    ASSERT_EQ(part.best.size(), 1u);
    acc.push(part.best[0]);
  }
  expect_same_pairs(acc.sorted(), full.best);
}

TEST(PairDetectorRange, ProgressSumsToTheRange) {
  const auto d = random_dataset({16, 200, 43});
  const PairDetector det(d);
  PairDetectorOptions opt;
  opt.range = {11, 97};
  std::uint64_t last_done = 0;
  std::uint64_t reported_total = 0;
  opt.progress = [&](std::uint64_t done, std::uint64_t total) {
    EXPECT_GE(done, last_done);
    last_done = done;
    reported_total = total;
  };
  (void)det.run(opt);
  EXPECT_EQ(last_done, opt.range.size());
  EXPECT_EQ(reported_total, opt.range.size());
}

// --------------------------------------------------------------------------
// Four counted cells + per-SNP genotype counts = the exact pair table
// --------------------------------------------------------------------------

/// Class sizes straddling the 32-bit word and the 512-bit plane boundaries,
/// plus one-sample classes on either side.
struct ClassSizes {
  std::size_t controls;
  std::size_t cases;
};

const std::vector<ClassSizes>& edge_class_sizes() {
  static const std::vector<ClassSizes> sizes = {
      {1, 40},    {40, 1},    {31, 31},   {32, 33},
      {33, 32},   {511, 513}, {512, 511}, {513, 512},
  };
  return sizes;
}

/// Nine SNPs: SNPs 0, 1 and 2 are monomorphic (all genotype 0, 1 and 2),
/// the rest uniform; cases are scattered at random among the samples.
dataset::GenotypeMatrix edge_dataset(const ClassSizes& s, std::uint64_t seed) {
  constexpr std::size_t kSnps = 9;
  const std::size_t n = s.controls + s.cases;
  std::mt19937_64 rng(seed);
  std::vector<dataset::Phenotype> pheno(n, 0);
  std::fill(pheno.begin(), pheno.begin() + static_cast<std::ptrdiff_t>(s.cases),
            dataset::Phenotype{1});
  std::shuffle(pheno.begin(), pheno.end(), rng);
  dataset::GenotypeMatrix d(kSnps, n);
  std::uniform_int_distribution<int> geno(0, 2);
  for (std::size_t j = 0; j < n; ++j) {
    d.set_phenotype(j, pheno[j]);
    for (std::size_t m = 0; m < kSnps; ++m) {
      d.set(m, j, static_cast<dataset::Genotype>(m < 3 ? m : geno(rng)));
    }
  }
  return d;
}

TEST(PairIdentityEdgeCases, CountPlusCompletionMatchesReferenceForEveryIsa) {
  std::uint64_t seed = 1;
  for (const ClassSizes& sizes : edge_class_sizes()) {
    const auto d = edge_dataset(sizes, seed++);
    const auto planes = dataset::PhenoSplitPlanes::build(d);
    std::mt19937_64 rng(seed);
    for (const core::KernelIsa isa : core::all_kernel_isas()) {
      if (!core::kernel_available(isa)) continue;
      const core::PairPlaneCountKernel count =
          core::get_cached_kernels(isa).count;
      for (std::size_t x = 0; x < d.num_snps(); ++x) {
        for (std::size_t y = 0; y < d.num_snps(); ++y) {
          const PairTable want = reference_pair_table(d, x, y);
          for (int c = 0; c < 2; ++c) {
            // Random word chunks exercise the vector bodies' scalar tails;
            // the counts must compose across chunks before completion.
            const std::size_t words = planes.words(c);
            std::uniform_int_distribution<std::size_t> cut(0, words);
            std::vector<std::size_t> cuts = {0, words, cut(rng), cut(rng)};
            std::sort(cuts.begin(), cuts.end());
            std::array<std::uint32_t, 9> row{};
            for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
              count(planes.plane(c, x, 0), planes.plane(c, x, 1),
                    planes.plane(c, y, 0), planes.plane(c, y, 1), cuts[i],
                    cuts[i + 1], row.data());
            }
            for (const std::size_t cell : {2, 5, 6, 7, 8}) {
              ASSERT_EQ(row[cell], 0u) << "kernel wrote cell " << cell;
            }
            core::complete_pair_row(planes, c, x, y, row.data());
            ASSERT_EQ(row, want.counts[static_cast<std::size_t>(c)])
                << core::kernel_isa_name(isa) << " sizes " << sizes.controls
                << "/" << sizes.cases << " pair " << x << "," << y
                << " class " << c;
          }
        }
      }
    }
  }
}

TEST(PairIdentityEdgeCases, BlockedPairTablesMatchReferenceUnderRandomClips) {
  std::uint64_t seed = 100;
  for (const ClassSizes& sizes : edge_class_sizes()) {
    const auto d = edge_dataset(sizes, seed++);
    const auto planes = dataset::PhenoSplitPlanes::build(d);
    const std::uint64_t total = num_pairs(d.num_snps());
    const core::TilingParams tiling{4, 16};
    const combinatorics::BlockGrid grid{d.num_snps(), tiling.bs};
    std::mt19937_64 rng(seed);
    for (const core::KernelIsa isa : core::all_kernel_isas()) {
      if (!core::kernel_available(isa)) continue;
      const core::CachedKernelSet kernels = core::get_cached_kernels(isa);
      core::PairBlockScratch scratch(tiling.bs);
      const std::uint64_t a = rng() % total;
      const combinatorics::RankRange range{a, a + 1 + rng() % (total - a)};
      std::vector<int> seen(total, 0);
      const auto part = combinatorics::partition_block_tuples<2>(grid, range);
      for (std::uint64_t r = part.block_ranks.first;
           r < part.block_ranks.last; ++r) {
        const auto bt = core::unrank_block_tuple<2>(r);
        core::scan_block_pair(
            planes, tiling, kernels, scratch, core::BlockPair{bt[0], bt[1]},
            core::LastAxisWindow<2>(range),
            [&](const combinatorics::Pair& pr, const PairTable& t) {
              ++seen[rank_pair(pr.x, pr.y)];
              ASSERT_EQ(t, reference_pair_table(d, pr.x, pr.y))
                  << core::kernel_isa_name(isa) << " pair " << pr.x << ","
                  << pr.y;
            });
      }
      for (std::uint64_t r = 0; r < total; ++r) {
        ASSERT_EQ(seen[r], r >= range.first && r < range.last ? 1 : 0)
            << "rank " << r;
      }
    }
  }
}

TEST(PairIdentityEdgeCases, EveryVersionAndRangeSplitIsBitIdentical) {
  std::uint64_t seed = 200;
  for (const ClassSizes& sizes : edge_class_sizes()) {
    const auto d = edge_dataset(sizes, seed++);
    const PairDetector det(d);
    const std::uint64_t total = num_pairs(d.num_snps());
    PairDetectorOptions ref_opt;
    ref_opt.version = core::CpuVersion::kV1Naive;
    ref_opt.top_k = total;  // every pair's score is compared
    const auto ref = det.run(ref_opt);

    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint64_t> cut(1, total - 1);
    for (const auto version :
         {core::CpuVersion::kV2Split, core::CpuVersion::kV3Blocked,
          core::CpuVersion::kV4Vector, core::CpuVersion::kV5PairCache}) {
      for (const core::KernelIsa isa : core::all_kernel_isas()) {
        if (!core::kernel_available(isa)) continue;
        PairDetectorOptions opt = ref_opt;
        opt.version = version;
        opt.isa = isa;
        opt.isa_auto = false;
        opt.tiling = {3, 16};  // two sample chunks once a class passes 512
        expect_same_pairs(det.run(opt).best, ref.best);

        std::vector<std::uint64_t> cuts = {0, total, cut(rng), cut(rng)};
        std::sort(cuts.begin(), cuts.end());
        core::PairTopK acc(total);
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
          PairDetectorOptions part = opt;
          part.range = {cuts[i], cuts[i + 1]};
          if (part.range.empty()) continue;
          for (const auto& sp : det.run(part).best) acc.push(sp);
        }
        expect_same_pairs(acc.sorted(), ref.best);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Generic scorers agree with the 27-cell implementations
// --------------------------------------------------------------------------

TEST(GenericScoring, MatchesTripletScorersOn27Cells) {
  const auto d = random_dataset({8, 400, 29});
  const auto table = scoring::reference_contingency(d, 1, 4, 6);
  const scoring::LogFactorialTable logfact(400 + 1);

  const scoring::K2Score k2(400);
  EXPECT_NEAR(
      scoring::k2_score_cells(logfact, table.counts[0], table.counts[1]),
      k2(table), 1e-9);

  const scoring::MutualInformation mi;
  EXPECT_NEAR(
      scoring::mutual_information_cells(table.counts[0], table.counts[1]),
      mi(table), 1e-12);

  const scoring::ChiSquared chi;
  EXPECT_NEAR(scoring::chi_squared_cells(table.counts[0], table.counts[1]),
              chi(table), 1e-9);
}

TEST(GenericScoring, PairwisePenetranceIgnoresThirdSnp) {
  const auto t = dataset::make_penetrance_pairwise(
      dataset::InteractionModel::kThreshold, 0.1, 0.5);
  for (int gx = 0; gx < 3; ++gx) {
    for (int gy = 0; gy < 3; ++gy) {
      EXPECT_DOUBLE_EQ(t.at(gx, gy, 0), t.at(gx, gy, 1));
      EXPECT_DOUBLE_EQ(t.at(gx, gy, 1), t.at(gx, gy, 2));
    }
  }
  EXPECT_DOUBLE_EQ(t.at(0, 0, 0), 0.1);
  EXPECT_DOUBLE_EQ(t.at(1, 1, 0), 0.6);
  EXPECT_DOUBLE_EQ(t.at(2, 0, 0), 0.6);
}

}  // namespace
}  // namespace trigen::pairwise
