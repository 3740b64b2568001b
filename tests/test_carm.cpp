#include <gtest/gtest.h>

#include "test_util.hpp"
#include "trigen/carm/characterize.hpp"
#include "trigen/carm/memory_levels.hpp"
#include "trigen/carm/roofs.hpp"
#include "trigen/gpusim/device_spec.hpp"

namespace trigen::carm {
namespace {

using trigen::test::random_dataset;

// --------------------------------------------------------------------------
// Memory level detection
// --------------------------------------------------------------------------

TEST(MemoryLevels, HasL1AndDram) {
  const auto levels = detect_memory_levels();
  ASSERT_GE(levels.size(), 3u);
  EXPECT_EQ(levels.front().name, "L1");
  EXPECT_EQ(levels.back().name, "DRAM");
}

TEST(MemoryLevels, ProbeSizesAreOrdered) {
  const auto levels = detect_memory_levels();
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_GT(levels[i].probe_bytes, levels[i - 1].probe_bytes)
        << levels[i].name;
  }
}

TEST(MemoryLevels, CacheProbesFitInLevel) {
  for (const auto& level : detect_memory_levels()) {
    if (level.size_bytes > 0) {
      EXPECT_LE(level.probe_bytes, level.size_bytes) << level.name;
    }
  }
}

// --------------------------------------------------------------------------
// Roof measurement
// --------------------------------------------------------------------------

TEST(Roofs, BandwidthPositiveAndPlausible) {
  // L1-resident probe should comfortably exceed 1 GB/s on any machine this
  // century, and stay below 10 TB/s.
  const double bw = measure_load_bandwidth(16 * 1024);
  EXPECT_GT(bw, 1e9);
  EXPECT_LT(bw, 1e13);
}

TEST(Roofs, L1FasterThanDram) {
  const auto levels = detect_memory_levels();
  const double l1 = measure_load_bandwidth(levels.front().probe_bytes);
  const double dram = measure_load_bandwidth(levels.back().probe_bytes);
  EXPECT_GT(l1, dram);
}

TEST(Roofs, ScalarPeakPositive) {
  const double peak = measure_scalar_add_peak();
  EXPECT_GT(peak, 1e8);
  EXPECT_LT(peak, 1e12);
}

TEST(Roofs, VectorPeakExceedsScalar) {
  unsigned lanes = 0;
  const double vec = measure_vector_add_peak(&lanes);
  const double scalar = measure_scalar_add_peak();
  EXPECT_GE(lanes, 1u);
  if (lanes >= 8) {
    // With >= 8 lanes the vector roof must clearly beat the scalar roof.
    EXPECT_GT(vec, scalar);
  }
}

TEST(Roofs, MeasureAllRoofs) {
  const CarmRoofs roofs = measure_roofs();
  EXPECT_GE(roofs.memory.size(), 3u);
  EXPECT_GE(roofs.compute.size(), 2u);
  EXPECT_GT(roofs.scalar_peak(), 0.0);
  EXPECT_GE(roofs.vector_peak(), roofs.scalar_peak() * 0.5);
  EXPECT_GT(roofs.bandwidth("L1"), 0.0);
  EXPECT_GT(roofs.bandwidth("DRAM"), 0.0);
  EXPECT_DOUBLE_EQ(roofs.bandwidth("NoSuchLevel"), 0.0);
}

// --------------------------------------------------------------------------
// Kernel characterization
// --------------------------------------------------------------------------

TEST(Characterize, CpuOpMixMapping) {
  const auto v1 = cpu_op_mix(core::CpuVersion::kV1Naive);
  const auto v2 = cpu_op_mix(core::CpuVersion::kV2Split);
  const auto v3 = cpu_op_mix(core::CpuVersion::kV3Blocked);
  const auto v4 = cpu_op_mix(core::CpuVersion::kV4Vector);
  const auto v5 = cpu_op_mix(core::CpuVersion::kV5PairCache);
  EXPECT_GT(v1.popcnt + v1.logic, v2.popcnt + v2.logic);
  // V2, V3 and V4 share the phenotype-split arithmetic.
  EXPECT_DOUBLE_EQ(v2.popcnt, v3.popcnt);
  EXPECT_DOUBLE_EQ(v3.popcnt, v4.popcnt);
  EXPECT_DOUBLE_EQ(v2.logic, v4.logic);
  // Counting 8 of the 27 cells from four cached planes removes about two
  // thirds of the POPCNTs and most of the logic from the hot loop.
  EXPECT_LT(v5.popcnt, v4.popcnt);
  EXPECT_LT(v5.logic, v4.logic);
  EXPECT_GT(v5.loads, v4.loads);  // cache reads replace the x/y streams
}

TEST(Characterize, CpuLadderPointsHaveExpectedAiOrdering) {
  const auto d = random_dataset({10, 256, 3});
  const auto points = characterize_cpu_ladder(d, 1);
  ASSERT_EQ(points.size(), 5u);
  EXPECT_EQ(points[0].name, "V1-naive");
  EXPECT_EQ(points[4].name, "V5-paircache");
  // Fig. 2a: AI drops from V1 to V2 and stays constant through V4; V5
  // trades streamed x/y loads for L1-resident cache reads, dropping AI
  // again while raising throughput.
  EXPECT_LT(points[1].ai, points[0].ai);
  EXPECT_DOUBLE_EQ(points[1].ai, points[2].ai);
  EXPECT_DOUBLE_EQ(points[2].ai, points[3].ai);
  EXPECT_LT(points[4].ai, points[3].ai);
  for (const auto& p : points) {
    EXPECT_GT(p.gintops, 0.0) << p.name;
    EXPECT_GT(p.seconds, 0.0) << p.name;
    EXPECT_GT(p.elements_per_second, 0.0) << p.name;
  }
}

TEST(Characterize, V4FasterThanV1OnHost) {
  // The headline Fig. 2a claim: the tuned kernel beats the naive one.
  const auto d = random_dataset({24, 2048, 5});
  const auto points = characterize_cpu_ladder(d, 1);
  EXPECT_LT(points[3].seconds, points[0].seconds);
  EXPECT_GT(points[3].elements_per_second, points[0].elements_per_second);
}

TEST(Characterize, GpuLadderViaCostModel) {
  const auto points =
      characterize_gpu_ladder(gpusim::gpu_device("GI2"), 2048, 16384);
  ASSERT_EQ(points.size(), 4u);
  // Ladder improves in elements/s monotonically.
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].elements_per_second,
              points[i - 1].elements_per_second)
        << points[i].name;
  }
  // V2's GINTOPS may *drop* versus V1 (the paper's counter-intuitive
  // observation) even though its runtime improves.
  EXPECT_LT(points[1].seconds, points[0].seconds);
}

TEST(Characterize, ChartContainsRoofsAndMarkers) {
  CarmRoofs roofs;
  roofs.memory = {{"L1", 400e9}, {"DRAM", 20e9}};
  roofs.compute = {{"scalar-add", 4e9}, {"avx512-add", 60e9}};
  std::vector<KernelPoint> points = {
      {"V1", 4.05, 10.0, 1.0, 1e9},
      {"V2", 2.875, 6.0, 0.5, 2e9},
  };
  const std::string chart = roofline_chart(roofs, points);
  EXPECT_NE(chart.find('/'), std::string::npos);   // memory roofs
  EXPECT_NE(chart.find('-'), std::string::npos);   // compute roofs
  EXPECT_NE(chart.find('1'), std::string::npos);   // kernel markers
  EXPECT_NE(chart.find('2'), std::string::npos);
  EXPECT_NE(chart.find("V1"), std::string::npos);  // legend
}

TEST(Characterize, PointsCsvWellFormed) {
  std::vector<KernelPoint> points = {{"V1", 4.0, 10.0, 1.5, 2e9}};
  const std::string csv = points_csv(points);
  EXPECT_NE(csv.find("kernel,ai_intop_per_byte"), std::string::npos);
  EXPECT_NE(csv.find("V1,4"), std::string::npos);
}

}  // namespace
}  // namespace trigen::carm
