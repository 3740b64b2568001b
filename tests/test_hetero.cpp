#include <gtest/gtest.h>

#include "test_util.hpp"
#include "trigen/gpusim/device_spec.hpp"
#include "trigen/hetero/coordinator.hpp"

namespace trigen::hetero {
namespace {

using combinatorics::Combination;
using trigen::test::planted_dataset;
using trigen::test::random_dataset;

TEST(HeteroEstimate, BasicComposition) {
  const HeteroEstimate e = estimate_hetero(1000.0, 3000.0);
  EXPECT_DOUBLE_EQ(e.combined_eps, 4000.0);
  EXPECT_DOUBLE_EQ(e.cpu_share, 0.25);
  EXPECT_DOUBLE_EQ(e.speedup_vs_gpu, 4.0 / 3.0);
}

TEST(HeteroEstimate, DegenerateInputs) {
  const HeteroEstimate zero = estimate_hetero(0.0, 0.0);
  EXPECT_DOUBLE_EQ(zero.cpu_share, 0.0);
  EXPECT_DOUBLE_EQ(zero.speedup_vs_gpu, 1.0);
  const HeteroEstimate cpu_only = estimate_hetero(500.0, 0.0);
  EXPECT_DOUBLE_EQ(cpu_only.cpu_share, 1.0);
}

TEST(HeteroEstimate, PaperSectionVDNumbers) {
  // §V-D: CI3 (~1100 Gcs/s) + Titan RTX (~2200 Gcs/s) => ~3300 combined,
  // 1.5x over the GPU alone; CI1 (~36.5) adds ~2%.
  const HeteroEstimate strong = estimate_hetero(1100e9, 2200e9);
  EXPECT_NEAR(strong.combined_eps / 1e9, 3300.0, 1.0);
  EXPECT_NEAR(strong.speedup_vs_gpu, 1.5, 0.01);
  const HeteroEstimate weak = estimate_hetero(36.5e9, 2200e9);
  EXPECT_LT(weak.speedup_vs_gpu, 1.02);
}

TEST(HeteroCoordinator, InvalidShareThrows) {
  const auto d = random_dataset({8, 64, 1});
  const HeteroCoordinator h(d, gpusim::gpu_device("GN1"));
  HeteroOptions opt;
  opt.cpu_share = 1.5;
  EXPECT_THROW(h.run(opt), std::invalid_argument);
}

class HeteroShareTest : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Shares, HeteroShareTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.9, 1.0));

TEST_P(HeteroShareTest, AnySplitFindsGlobalBest) {
  const auto d = planted_dataset(10, 600, 17);
  const HeteroCoordinator h(d, gpusim::gpu_device("GN3"));
  HeteroOptions opt;
  opt.cpu_share = GetParam();
  const HeteroResult r = h.run(opt);
  ASSERT_FALSE(r.best.empty());
  EXPECT_EQ(r.best[0].snps, (Combination<3>{1, 3, 5}));
  EXPECT_EQ(r.cpu_triplets + r.gpu_triplets,
            combinatorics::n_choose_k(10, 3));
}

TEST(HeteroCoordinator, CalibratedShareIsSane) {
  const auto d = random_dataset({12, 256, 23});
  const HeteroCoordinator h(d, gpusim::gpu_device("GN1"));
  HeteroOptions opt;  // cpu_share < 0: calibrate
  const HeteroResult r = h.run(opt);
  EXPECT_GE(r.cpu_share, 0.0);
  EXPECT_LE(r.cpu_share, 1.0);
  // Against a modelled datacenter GPU, one laptop core should get a small
  // minority of the work.
  EXPECT_LT(r.cpu_share, 0.5);
}

TEST(HeteroCoordinator, OverlapTimeIsMaxOfSides) {
  const auto d = random_dataset({10, 128, 29});
  const HeteroCoordinator h(d, gpusim::gpu_device("GA2"));
  HeteroOptions opt;
  opt.cpu_share = 0.5;
  const HeteroResult r = h.run(opt);
  EXPECT_DOUBLE_EQ(r.overlap_seconds,
                   std::max(r.cpu_seconds, r.gpu_sim_seconds));
}

TEST(HeteroCoordinator, CpuSideRunsCachedBlockedV5WithTheWidestIsa) {
  // The range-aware blocked engine lets the CPU share run at full speed
  // instead of the per-triplet V2 fallback; the default rung is the
  // pair-plane-cached V5 and the coordinator must report it.
  const auto d = planted_dataset(10, 600, 17);
  const HeteroCoordinator h(d, gpusim::gpu_device("GN3"));
  HeteroOptions opt;
  opt.cpu_share = 0.5;
  const HeteroResult r = h.run(opt);
  EXPECT_EQ(r.cpu_version, core::CpuVersion::kV5PairCache);
  EXPECT_EQ(r.cpu_isa_used, core::best_kernel_isa());
  if (core::best_kernel_isa() != core::KernelIsa::kScalar) {
    EXPECT_NE(r.cpu_isa_used, core::KernelIsa::kScalar);
  }
  EXPECT_EQ(r.best[0].snps, (Combination<3>{1, 3, 5}));
}

TEST(HeteroCoordinator, CpuVersionOptionSelectsTheEngine) {
  // Any blocked rung can be pinned explicitly; results are identical.
  const auto d = planted_dataset(10, 600, 17);
  const HeteroCoordinator h(d, gpusim::gpu_device("GN3"));
  HeteroOptions opt;
  opt.cpu_share = 0.5;
  opt.cpu_version = core::CpuVersion::kV4Vector;
  const HeteroResult r = h.run(opt);
  EXPECT_EQ(r.cpu_version, core::CpuVersion::kV4Vector);
  EXPECT_EQ(r.best[0].snps, (Combination<3>{1, 3, 5}));
}

TEST(HeteroCoordinator, CalibrationMeasuresTheConfiguredEngine) {
  const auto d = random_dataset({12, 256, 23});
  const HeteroCoordinator h(d, gpusim::gpu_device("GN1"));
  const HeteroResult r = h.run({});  // cpu_share < 0: calibrate
  EXPECT_GT(r.cpu_calibrated_eps, 0.0);
  EXPECT_EQ(r.cpu_version, core::CpuVersion::kV5PairCache);
  EXPECT_EQ(r.cpu_isa_used, core::best_kernel_isa());
}

TEST(HeteroCoordinator, MatchesHomogeneousResults) {
  const auto d = random_dataset({11, 200, 31});
  const core::Detector det(d);
  const auto expected = det.run({}).best[0];

  const HeteroCoordinator h(d, gpusim::gpu_device("GI2"));
  HeteroOptions opt;
  opt.cpu_share = 0.4;
  opt.top_k = 3;
  const HeteroResult r = h.run(opt);
  EXPECT_EQ(r.best[0].snps, expected.snps);
  EXPECT_DOUBLE_EQ(r.best[0].score, expected.score);
}

}  // namespace
}  // namespace trigen::hetero
