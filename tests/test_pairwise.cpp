#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "test_util.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/scoring/generic.hpp"

namespace trigen::core {
namespace {

using trigen::test::ClassSizes;
using trigen::test::Shape;
using trigen::test::edge_class_sizes;
using trigen::test::edge_dataset;
using trigen::test::random_dataset;
using trigen::test::small_shapes;

// --------------------------------------------------------------------------
// Pair ranking
// --------------------------------------------------------------------------

TEST(PairRank, FirstPairs) {
  EXPECT_EQ(combinatorics::rank_combination<2>({0, 1}), 0u);
  EXPECT_EQ(combinatorics::rank_combination<2>({0, 2}), 1u);
  EXPECT_EQ(combinatorics::rank_combination<2>({1, 2}), 2u);
  EXPECT_EQ(combinatorics::rank_combination<2>({0, 3}), 3u);
}

TEST(PairRank, CountsMatch) {
  EXPECT_EQ(combinatorics::n_choose_k(2, 2), 1u);
  EXPECT_EQ(combinatorics::n_choose_k(10, 2), 45u);
  EXPECT_EQ(combinatorics::n_choose_k(1000, 2), 499500u);
}

TEST(PairRank, ExhaustiveOrdering) {
  std::uint64_t rank = 0;
  for (std::uint32_t y = 1; y < 60; ++y) {
    for (std::uint32_t x = 0; x < y; ++x) {
      ASSERT_EQ(combinatorics::rank_combination<2>({x, y}), rank);
      ++rank;
    }
  }
  EXPECT_EQ(rank, combinatorics::n_choose_k(60, 2));
}

// --------------------------------------------------------------------------
// Pair contingency tables
// --------------------------------------------------------------------------

TEST(PairTableRef, CountsEverySampleOnce) {
  const auto d = random_dataset({6, 100, 3});
  const scoring::BasicContingencyTable<2> t =
      scoring::reference_contingency_k<2>(d, {1, 4});
  std::uint32_t total = 0;
  for (int c = 0; c < 2; ++c) {
    for (const auto v : t.counts[static_cast<std::size_t>(c)]) total += v;
  }
  EXPECT_EQ(total, d.num_samples());
}

class PairKernelShapeTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, PairKernelShapeTest,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(PairKernelShapeTest, KernelMatchesReferenceForEveryIsa) {
  const auto d = random_dataset(GetParam());
  const BasicDetector<2> det(d);
  const std::size_t m = d.num_snps();
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    for (std::uint32_t x = 0; x < m; ++x) {
      for (std::uint32_t y = x + 1; y < m; ++y) {
        ASSERT_EQ(det.contingency({x, y}, isa),
                  scoring::reference_contingency_k<2>(d, {x, y}))
            << core::kernel_isa_name(isa) << " " << x << "," << y;
      }
    }
  }
}

TEST(PairDetector, ContingencyArgumentValidation) {
  const auto d = random_dataset({5, 40, 7});
  const BasicDetector<2> det(d);
  EXPECT_THROW((void)det.contingency({0, 5}), std::out_of_range);
  EXPECT_THROW((void)det.contingency({2, 2}), std::out_of_range);
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
  EXPECT_THROW(BasicDetector<2>{d}, std::invalid_argument);
}

TEST(PairDetector, FindsPlantedPair) {
  const auto d = planted_pair_dataset(5);
  const BasicDetector<2> det(d);
  const auto r = det.run({});
  ASSERT_FALSE(r.best.empty());
  EXPECT_EQ(r.best[0].snps[0], 2u);
  EXPECT_EQ(r.best[0].snps[1], 6u);
}

TEST(PairDetector, AllObjectivesFindPlantedPair) {
  const auto d = planted_pair_dataset(9);
  const BasicDetector<2> det(d);
  for (const auto o :
       {core::Objective::kK2, core::Objective::kMutualInformation,
        core::Objective::kChiSquared}) {
    BasicDetectorOptions<2> opt;
    opt.objective = o;
    const auto r = det.run(opt);
    EXPECT_EQ(r.best[0].snps[0], 2u) << core::objective_name(o);
    EXPECT_EQ(r.best[0].snps[1], 6u) << core::objective_name(o);
  }
}

TEST(PairDetector, AllIsasIdenticalResults) {
  const auto d = random_dataset({16, 333, 11});
  const BasicDetector<2> det(d);
  BasicDetectorOptions<2> base;
  base.isa = core::KernelIsa::kScalar;
  base.isa_auto = false;
  base.top_k = 8;
  const auto ref = det.run(base);
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    BasicDetectorOptions<2> opt = base;
    opt.isa = isa;
    const auto r = det.run(opt);
    ASSERT_EQ(r.best.size(), ref.best.size());
    for (std::size_t i = 0; i < ref.best.size(); ++i) {
      EXPECT_EQ(r.best[i].snps[0], ref.best[i].snps[0]) << i;
      EXPECT_EQ(r.best[i].snps[1], ref.best[i].snps[1]) << i;
      EXPECT_DOUBLE_EQ(r.best[i].score, ref.best[i].score) << i;
    }
  }
}

TEST(PairDetector, DeterministicAcrossThreads) {
  const auto d = random_dataset({18, 150, 13});
  const BasicDetector<2> det(d);
  BasicDetectorOptions<2> opt;
  opt.top_k = 5;
  const auto one = det.run(opt);
  for (unsigned threads : {2u, 5u}) {
    opt.threads = threads;
    const auto multi = det.run(opt);
    ASSERT_EQ(multi.best.size(), one.best.size());
    for (std::size_t i = 0; i < one.best.size(); ++i) {
      EXPECT_EQ(multi.best[i].snps[0], one.best[i].snps[0]) << i;
      EXPECT_EQ(multi.best[i].snps[1], one.best[i].snps[1]) << i;
      EXPECT_DOUBLE_EQ(multi.best[i].score, one.best[i].score) << i;
    }
  }
}

TEST(PairDetector, CountsAndMetadata) {
  const auto d = random_dataset({12, 90, 17});
  const BasicDetector<2> det(d);
  const auto r = det.run({});
  EXPECT_EQ(r.combinations_evaluated, combinatorics::n_choose_k(12, 2));
  EXPECT_EQ(r.elements, r.combinations_evaluated * 90);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(det.num_snps(), 12u);
  EXPECT_EQ(det.num_samples(), 90u);
}

TEST(PairDetector, TopKSortedUnique) {
  const auto d = random_dataset({15, 120, 19});
  const BasicDetector<2> det(d);
  BasicDetectorOptions<2> opt;
  opt.top_k = 12;
  const auto r = det.run(opt);
  ASSERT_EQ(r.best.size(), 12u);
  for (std::size_t i = 1; i < r.best.size(); ++i) {
    EXPECT_LE(r.best[i - 1].score, r.best[i].score);
    EXPECT_NE(combinatorics::rank_combination<2>(r.best[i - 1].snps),
              combinatorics::rank_combination<2>(r.best[i].snps));
  }
}

TEST(PairDetector, BadOptionsThrow) {
  const auto d = random_dataset({6, 50, 23});
  const BasicDetector<2> det(d);
  BasicDetectorOptions<2> opt;
  opt.top_k = 0;
  EXPECT_THROW(det.run(opt), std::invalid_argument);
  BasicDetectorOptions<2> bad_range;
  bad_range.range = {0, combinatorics::n_choose_k(6, 2) + 1};
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

void expect_same_pairs(const std::vector<ScoredOf<2>>& got,
                       const std::vector<ScoredOf<2>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].snps[0], want[i].snps[0]) << "entry " << i;
    EXPECT_EQ(got[i].snps[1], want[i].snps[1]) << "entry " << i;
    EXPECT_TRUE(same_bits(got[i].score, want[i].score))
        << "entry " << i << ": " << got[i].score << " vs " << want[i].score;
  }
}

class PairVersionShapeTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, PairVersionShapeTest,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(PairVersionShapeTest, EveryVersionMatchesTheNaiveReferenceExactly) {
  const auto d = random_dataset(GetParam());
  const BasicDetector<2> det(d);
  BasicDetectorOptions<2> ref_opt;
  ref_opt.version = core::CpuVersion::kV1Naive;
  ref_opt.top_k = 6;
  const auto ref = det.run(ref_opt);

  for (const auto version :
       {core::CpuVersion::kV2Split, core::CpuVersion::kV3Blocked,
        core::CpuVersion::kV4Vector, core::CpuVersion::kV5PairCache}) {
    for (const core::KernelIsa isa : core::all_kernel_isas()) {
      if (!core::kernel_available(isa)) continue;
      BasicDetectorOptions<2> opt;
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
  const BasicDetector<2> det(d);
  for (const auto version :
       {core::CpuVersion::kV1Naive, core::CpuVersion::kV2Split,
        core::CpuVersion::kV3Blocked, core::CpuVersion::kV4Vector,
        core::CpuVersion::kV5PairCache}) {
    BasicDetectorOptions<2> opt;
    opt.version = version;
    const auto r = det.run(opt);
    EXPECT_EQ(r.best[0].snps[0], 2u) << core::cpu_version_name(version);
    EXPECT_EQ(r.best[0].snps[1], 6u) << core::cpu_version_name(version);
  }
}

// --------------------------------------------------------------------------
// Rank-range partitioning: K-way splits reproduce the full scan
// --------------------------------------------------------------------------

TEST(PairDetectorRange, KWayRandomSplitsReproduceTheFullScanExactly) {
  const auto d = random_dataset({18, 150, 37});
  const BasicDetector<2> det(d);
  const std::uint64_t total = combinatorics::n_choose_k(18, 2);

  BasicDetectorOptions<2> base;
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

    core::BasicTopK<core::ScoredOf<2>> acc(base.top_k);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      BasicDetectorOptions<2> opt = base;
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
  const BasicDetector<2> det(d);
  const std::uint64_t total = combinatorics::n_choose_k(18, 2);

  BasicDetectorOptions<2> ref_opt;
  ref_opt.version = core::CpuVersion::kV2Split;
  ref_opt.top_k = 9;
  const auto ref = det.run(ref_opt);

  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!core::kernel_available(isa)) continue;
    BasicDetectorOptions<2> v5;
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
      core::BasicTopK<core::ScoredOf<2>> acc(v5.top_k);
      std::uint64_t covered = 0;
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        BasicDetectorOptions<2> part = v5;
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
  const BasicDetector<2> det(d);
  const std::uint64_t total = combinatorics::n_choose_k(8, 2);
  BasicDetectorOptions<2> base;
  base.top_k = 4;
  const auto full = det.run(base);
  core::BasicTopK<core::ScoredOf<2>> acc(base.top_k);
  for (std::uint64_t r = 0; r < total; ++r) {
    BasicDetectorOptions<2> opt = base;
    opt.range = {r, r + 1};
    const auto part = det.run(opt);
    ASSERT_EQ(part.best.size(), 1u);
    acc.push(part.best[0]);
  }
  expect_same_pairs(acc.sorted(), full.best);
}

TEST(PairDetectorRange, ProgressSumsToTheRange) {
  const auto d = random_dataset({16, 200, 43});
  const BasicDetector<2> det(d);
  BasicDetectorOptions<2> opt;
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
      for (std::uint32_t x = 0; x < d.num_snps(); ++x) {
        for (std::uint32_t y = 0; y < d.num_snps(); ++y) {
          const scoring::BasicContingencyTable<2> want =
              scoring::reference_contingency_k<2>(d, {x, y});
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

// --------------------------------------------------------------------------
// Pairwise penetrance
// --------------------------------------------------------------------------

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
}  // namespace trigen::core
