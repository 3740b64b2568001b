#include <gtest/gtest.h>

#include "test_util.hpp"
#include "trigen/baseline/mpi3snp.hpp"
#include "trigen/core/detector.hpp"

namespace trigen::baseline {
namespace {

using combinatorics::Combination;
using trigen::test::Shape;
using trigen::test::planted_dataset;
using trigen::test::random_dataset;
using trigen::test::small_shapes;

TEST(Baseline, RejectsTinyDatasets) {
  EXPECT_THROW(Mpi3SnpEngine(random_dataset({2, 16, 1})),
               std::invalid_argument);
}

TEST(Baseline, BadArgumentsThrow) {
  const Mpi3SnpEngine engine(random_dataset({6, 50, 1}));
  EXPECT_THROW(engine.run(1, 0), std::invalid_argument);
  EXPECT_THROW((void)engine.contingency(0, 1, 6), std::out_of_range);
}

class BaselineShapeTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, BaselineShapeTest,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(BaselineShapeTest, ContingencyMatchesReference) {
  const auto d = random_dataset(GetParam());
  if (d.num_snps() < 3) GTEST_SKIP();
  const Mpi3SnpEngine engine(d);
  const std::size_t m = d.num_snps();
  for (std::uint32_t x = 0; x < m; ++x) {
    for (std::uint32_t y = x + 1; y < m; ++y) {
      for (std::uint32_t z = y + 1; z < m; ++z) {
        ASSERT_EQ(engine.contingency(x, y, z),
                  scoring::reference_contingency_k<3>(d, {x, y, z}))
            << x << "," << y << "," << z;
      }
    }
  }
}

TEST(Baseline, FindsPlantedInteraction) {
  const auto d = planted_dataset(12, 1500, 51);
  const Mpi3SnpEngine engine(d);
  const BaselineResult r = engine.run(1);
  ASSERT_FALSE(r.best.empty());
  EXPECT_EQ(r.best[0].snps, (Combination<3>{1, 3, 5}));
}

TEST(Baseline, AgreesWithDetectorUnderMiObjective) {
  const auto d = random_dataset({12, 300, 61});
  const Mpi3SnpEngine engine(d);
  const core::Detector det(d);
  core::DetectorOptions opt;
  opt.objective = core::Objective::kMutualInformation;
  opt.top_k = 5;
  const auto cpu = det.run(opt);
  const auto base = engine.run(1, 5);
  ASSERT_EQ(cpu.best.size(), base.best.size());
  for (std::size_t i = 0; i < cpu.best.size(); ++i) {
    EXPECT_EQ(cpu.best[i].snps, base.best[i].snps) << i;
    EXPECT_NEAR(cpu.best[i].score, base.best[i].score, 1e-12) << i;
  }
}

TEST(Baseline, StaticDistributionDeterministicAcrossThreads) {
  const auto d = random_dataset({14, 200, 71});
  const Mpi3SnpEngine engine(d);
  const auto one = engine.run(1, 5);
  for (unsigned threads : {2u, 3u, 8u}) {
    const auto multi = engine.run(threads, 5);
    EXPECT_EQ(multi.threads_used, threads);
    ASSERT_EQ(multi.best.size(), one.best.size());
    for (std::size_t i = 0; i < one.best.size(); ++i) {
      EXPECT_EQ(multi.best[i].snps, one.best[i].snps) << i;
      EXPECT_DOUBLE_EQ(multi.best[i].score, one.best[i].score) << i;
    }
  }
}

TEST(Baseline, CountsAndPerfMetric) {
  const auto d = random_dataset({10, 128, 81});
  const Mpi3SnpEngine engine(d);
  const auto r = engine.run(1);
  EXPECT_EQ(r.triplets_evaluated, combinatorics::n_choose_k(10, 3));
  EXPECT_EQ(r.elements, r.triplets_evaluated * 128);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.elements_per_second(), 0.0);
  EXPECT_EQ(engine.num_snps(), 10u);
  EXPECT_EQ(engine.num_samples(), 128u);
}

TEST(Baseline, TrigenV4BeatsBaselineOnThroughput) {
  // The Table-III claim at laptop scale: the blocked + vectorized kernel
  // outruns the MPI3SNP-style engine on the same dataset and thread count.
  const auto d = trigen::test::random_dataset({48, 4096, 91});
  const Mpi3SnpEngine engine(d);
  const core::Detector det(d);

  const auto base = engine.run(1);
  core::DetectorOptions opt;
  opt.objective = core::Objective::kMutualInformation;
  const auto v4 = det.run(opt);
  EXPECT_GT(v4.elements_per_second(), base.elements_per_second());
}

}  // namespace
}  // namespace trigen::baseline
