#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "test_util.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/gpusim/cost_model.hpp"
#include "trigen/gpusim/device_spec.hpp"
#include "trigen/gpusim/gpu_kernels.hpp"
#include "trigen/gpusim/simulator.hpp"

namespace trigen::gpusim {
namespace {

using trigen::test::Shape;
using trigen::test::planted_dataset;
using trigen::test::random_dataset;
using trigen::test::small_shapes;

WorkloadShape paper_workload(std::uint64_t snps, std::uint64_t samples) {
  WorkloadShape w;
  w.triplets = combinatorics::n_choose_k(snps, 3);
  w.samples = samples;
  w.words_total = dataset::padded_words_for(samples / 2) * 2;
  return w;
}

// --------------------------------------------------------------------------
// Device database
// --------------------------------------------------------------------------

TEST(DeviceDb, HasAllPaperDevices) {
  EXPECT_EQ(gpu_device_db().size(), 9u);  // Table II
  EXPECT_EQ(cpu_device_db().size(), 5u);  // Table I
  for (const char* id : {"GI1", "GI2", "GN1", "GN2", "GN3", "GN4", "GA1",
                         "GA2", "GA3"}) {
    EXPECT_NO_THROW((void)gpu_device(id)) << id;
  }
  for (const char* id : {"CI1", "CI2", "CI3", "CA1", "CA2"}) {
    EXPECT_NO_THROW((void)cpu_device(id)) << id;
  }
}

TEST(DeviceDb, UnknownIdThrows) {
  EXPECT_THROW((void)gpu_device("GX9"), std::invalid_argument);
  EXPECT_THROW((void)cpu_device("CX9"), std::invalid_argument);
}

TEST(DeviceDb, TableIIValues) {
  const GpuDeviceSpec& xp = gpu_device("GN1");
  EXPECT_EQ(xp.compute_units, 30u);
  EXPECT_EQ(xp.stream_cores, 3840u);
  EXPECT_DOUBLE_EQ(xp.popcnt_per_cu_cycle, 32.0);
  EXPECT_DOUBLE_EQ(xp.boost_ghz, 1.582);

  const GpuDeviceSpec& a100 = gpu_device("GN4");
  EXPECT_EQ(a100.compute_units, 108u);
  EXPECT_DOUBLE_EQ(a100.popcnt_per_cu_cycle, 16.0);

  const GpuDeviceSpec& gi2 = gpu_device("GI2");
  EXPECT_DOUBLE_EQ(gi2.popcnt_per_cu_cycle, 4.0);
  EXPECT_DOUBLE_EQ(gi2.tdp_w, 25.0);  // the §V-D efficiency argument
}

TEST(DeviceDb, TableIValues) {
  const CpuDeviceSpec& ci3 = cpu_device("CI3");
  EXPECT_TRUE(ci3.vector_popcnt);
  EXPECT_EQ(ci3.vector_bits, 512u);
  EXPECT_EQ(ci3.l1d_bytes, 48u * 1024);
  EXPECT_EQ(ci3.l1d_ways, 12u);

  const CpuDeviceSpec& ca1 = cpu_device("CA1");
  EXPECT_EQ(ca1.vector_bits, 128u);
  EXPECT_FALSE(ca1.vector_popcnt);
  EXPECT_EQ(ca1.vector_lanes(), 4u);
}

TEST(DeviceDb, VendorNames) {
  EXPECT_EQ(vendor_name(Vendor::kIntel), "Intel");
  EXPECT_EQ(vendor_name(Vendor::kNvidia), "NVIDIA");
  EXPECT_EQ(vendor_name(Vendor::kAmd), "AMD");
}

// --------------------------------------------------------------------------
// Functional GPU kernels vs reference
// --------------------------------------------------------------------------

class GpuKernelShapeTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, GpuKernelShapeTest,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(GpuKernelShapeTest, AllVersionsMatchReference) {
  const auto d = random_dataset(GetParam());
  if (d.num_snps() < 3) GTEST_SKIP();
  const auto v1 = dataset::BitPlanesV1::build(d);
  const auto split = dataset::PhenoSplitPlanes::build(d);
  const auto trans = dataset::TransposedPlanes::build(d);
  const auto tiled = dataset::TiledPlanes::build(d, 4);

  const std::size_t m = d.num_snps();
  for (std::uint32_t x = 0; x < m; ++x) {
    for (std::uint32_t y = x + 1; y < m; ++y) {
      for (std::uint32_t z = y + 1; z < m; ++z) {
        const auto ref = scoring::reference_contingency_k<3>(d, {x, y, z});
        ASSERT_EQ(gpu_thread_v1(v1, x, y, z), ref);
        ASSERT_EQ(gpu_thread_v2(split, x, y, z), ref);
        ASSERT_EQ(gpu_thread_v3(trans, x, y, z), ref);
        ASSERT_EQ(gpu_thread_v4(tiled, x, y, z), ref);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Cost model: op accounting and AI
// --------------------------------------------------------------------------

TEST(CostModel, PaperOpCounts) {
  const OpMix v1 = op_mix(GpuVersion::kV1Naive, OpCountModel::kPaper);
  EXPECT_DOUBLE_EQ(v1.popcnt + v1.logic, 162.0);  // §IV-A: 27 x 6
  const OpMix v2 = op_mix(GpuVersion::kV2Split, OpCountModel::kPaper);
  EXPECT_DOUBLE_EQ(v2.popcnt + v2.logic, 57.0);  // §IV-A: 57
}

TEST(CostModel, OpReductionAroundPaperFigure) {
  // "the amount of computations performed will reduce around 65%".
  const OpMix v1 = op_mix(GpuVersion::kV1Naive, OpCountModel::kPaper);
  const OpMix v2 = op_mix(GpuVersion::kV2Split, OpCountModel::kPaper);
  const double reduction = 1.0 - (v2.popcnt + v2.logic) / (v1.popcnt + v1.logic);
  EXPECT_NEAR(reduction, 0.65, 0.01);
}

TEST(CostModel, AiDropsFromV1ToV2) {
  for (const OpCountModel m : {OpCountModel::kPaper, OpCountModel::kExact}) {
    EXPECT_LT(arithmetic_intensity(GpuVersion::kV2Split, m),
              arithmetic_intensity(GpuVersion::kV1Naive, m));
  }
}

TEST(CostModel, SplitVersionsShareAi) {
  const double v2 = arithmetic_intensity(GpuVersion::kV2Split);
  EXPECT_DOUBLE_EQ(arithmetic_intensity(GpuVersion::kV3Transposed), v2);
  EXPECT_DOUBLE_EQ(arithmetic_intensity(GpuVersion::kV4Tiled), v2);
}

TEST(CostModel, EmptyWorkloadThrows) {
  EXPECT_THROW(
      estimate_gpu_cost(gpu_device("GN1"), GpuVersion::kV4Tiled, {}),
      std::invalid_argument);
}

// --------------------------------------------------------------------------
// Cost model: the paper's shape claims
// --------------------------------------------------------------------------

TEST(CostModel, LadderMonotonicallyImproves) {
  const WorkloadShape w = paper_workload(512, 4096);
  for (const auto& dev : gpu_device_db()) {
    const double t1 = estimate_gpu_cost(dev, GpuVersion::kV1Naive, w).seconds;
    const double t2 = estimate_gpu_cost(dev, GpuVersion::kV2Split, w).seconds;
    const double t3 =
        estimate_gpu_cost(dev, GpuVersion::kV3Transposed, w).seconds;
    const double t4 = estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w).seconds;
    EXPECT_LT(t2, t1) << dev.id;
    EXPECT_LT(t3, t2) << dev.id;
    EXPECT_LE(t4, t3) << dev.id;
  }
}

TEST(CostModel, V1V2MemoryBoundV4ComputeBound) {
  const WorkloadShape w = paper_workload(512, 4096);
  for (const auto& dev : gpu_device_db()) {
    EXPECT_EQ(estimate_gpu_cost(dev, GpuVersion::kV1Naive, w).bound,
              BoundBy::kMemory)
        << dev.id;
    EXPECT_EQ(estimate_gpu_cost(dev, GpuVersion::kV2Split, w).bound,
              BoundBy::kMemory)
        << dev.id;
    EXPECT_NE(estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w).bound,
              BoundBy::kMemory)
        << dev.id;
  }
}

TEST(CostModel, V2RuntimeGainNearPaperFactor) {
  // Fig. 2b: V2 improves execution time ~1.79x over V1 (both DRAM bound;
  // the byte ratio 40/24 = 1.67 is the model's analogue).
  const WorkloadShape w = paper_workload(512, 4096);
  const auto& dev = gpu_device("GI2");
  const double gain =
      estimate_gpu_cost(dev, GpuVersion::kV1Naive, w).seconds /
      estimate_gpu_cost(dev, GpuVersion::kV2Split, w).seconds;
  EXPECT_NEAR(gain, 40.0 / 24.0, 0.05);
}

TEST(CostModel, TitanXpHighestPerComputeUnit) {
  // Fig. 4a: GN1's 32 POPCNT/CU/cycle gives it the best per-CU rate.
  const WorkloadShape w = paper_workload(2048, 16384);
  double best = 0;
  std::string best_id;
  for (const auto& dev : gpu_device_db()) {
    const auto e = estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w);
    const double per_cu = e.elements_per_second / dev.compute_units;
    if (per_cu > best) {
      best = per_cu;
      best_id = dev.id;
    }
  }
  EXPECT_EQ(best_id, "GN1");
}

TEST(CostModel, A100HighestOverall) {
  // §V-D: "only the most recent NVIDIA GPU (A100) is able to surpass the
  // performance of the AMD Mi100".
  const WorkloadShape w = paper_workload(2048, 16384);
  double best = 0;
  std::string best_id;
  for (const auto& dev : gpu_device_db()) {
    const auto e = estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w);
    if (e.elements_per_second > best) {
      best = e.elements_per_second;
      best_id = dev.id;
    }
  }
  EXPECT_EQ(best_id, "GN4");
}

TEST(CostModel, Mi100BeatsTitanRtx) {
  // §V-D: AMD Mi100 (~2.5 T) above Titan RTX (~2.3 T).
  const WorkloadShape w = paper_workload(2048, 16384);
  const double mi100 =
      estimate_gpu_cost(gpu_device("GA2"), GpuVersion::kV4Tiled, w)
          .elements_per_second;
  const double rtx =
      estimate_gpu_cost(gpu_device("GN3"), GpuVersion::kV4Tiled, w)
          .elements_per_second;
  EXPECT_GT(mi100, rtx);
}

TEST(CostModel, IntelXeMostEfficient) {
  // §V-D: GI2 wins elements/J (11.3 vs Titan RTX 7.9 in the paper).
  const WorkloadShape w = paper_workload(2048, 16384);
  double best = 0;
  std::string best_id;
  for (const auto& dev : gpu_device_db()) {
    const auto e = estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w);
    const double epj = elements_per_joule(dev, e.elements_per_second);
    if (epj > best) {
      best = epj;
      best_id = dev.id;
    }
  }
  EXPECT_EQ(best_id, "GI2");
}

TEST(CostModel, AmdLowestPerStreamCorePerCycle) {
  // Fig. 4c: AMD occupies 0.175-0.21, Intel/NVIDIA 0.23-0.27.
  const WorkloadShape w = paper_workload(2048, 16384);
  for (const auto& dev : gpu_device_db()) {
    const auto e = estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w);
    const double per_core_cycle = e.elements_per_second /
                                  (dev.boost_ghz * 1e9) / dev.stream_cores;
    if (dev.vendor == Vendor::kAmd) {
      EXPECT_LT(per_core_cycle, 0.23) << dev.id;
    } else {
      EXPECT_GT(per_core_cycle, 0.2) << dev.id;
    }
  }
}

TEST(CostModel, MoreComputeUnitsNeverSlower) {
  WorkloadShape w = paper_workload(256, 2048);
  GpuDeviceSpec dev = gpu_device("GN3");
  const double base =
      estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w).seconds;
  dev.compute_units *= 2;
  dev.stream_cores *= 2;
  EXPECT_LE(estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w).seconds, base);
}

TEST(CostModel, ElementsScaleLinearlyWithWork) {
  const auto& dev = gpu_device("GN2");
  const WorkloadShape w1 = paper_workload(256, 2048);
  WorkloadShape w2 = w1;
  w2.triplets *= 2;
  const auto e1 = estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w1);
  const auto e2 = estimate_gpu_cost(dev, GpuVersion::kV4Tiled, w2);
  EXPECT_NEAR(e2.seconds / e1.seconds, 2.0, 1e-9);
  EXPECT_NEAR(e2.elements_per_second, e1.elements_per_second,
              e1.elements_per_second * 1e-9);
}

// --------------------------------------------------------------------------
// CPU projection
// --------------------------------------------------------------------------

TEST(CpuProjection, StrategySelection) {
  EXPECT_EQ(cpu_strategy(cpu_device("CI3"), true),
            CpuStrategyClass::kAvx512VectorPopcnt);
  EXPECT_EQ(cpu_strategy(cpu_device("CI2"), true),
            CpuStrategyClass::kAvx512ScalarPopcnt);
  EXPECT_EQ(cpu_strategy(cpu_device("CI2"), false),
            CpuStrategyClass::kAvx256ScalarPopcnt);
  EXPECT_EQ(cpu_strategy(cpu_device("CA1"), true),
            CpuStrategyClass::kAvx128ScalarPopcnt);
  EXPECT_EQ(cpu_strategy(cpu_device("CA2"), true),
            CpuStrategyClass::kAvx256ScalarPopcnt);
}

TEST(CpuProjection, Ci3DominatesWithVectorPopcnt) {
  // Fig. 3a: AVX-512 CI3 attains the highest performance per core and
  // overall among the Table-I CPUs.
  const double ci3 = project_cpu_elements_per_sec(cpu_device("CI3"), true);
  for (const auto& dev : cpu_device_db()) {
    if (dev.id == "CI3") continue;
    EXPECT_GT(ci3, project_cpu_elements_per_sec(dev, true)) << dev.id;
  }
}

TEST(CpuProjection, Avx512ExtractSlowerPerCoreThanAvx) {
  // Fig. 3: SKX with AVX-512 is the slowest per core (extract overhead).
  const auto& ci2 = cpu_device("CI2");
  const double avx512 =
      project_cpu_elements_per_sec(ci2, true) / ci2.cores;
  const double avx = project_cpu_elements_per_sec(ci2, false) / ci2.cores;
  EXPECT_LT(avx512, avx);
}

TEST(CpuProjection, PaperTableIIIValuesInRange) {
  // §V-D quotes CI1 ~36.5, CA1 ~241, CI3 ~1100 Giga combs x samples / s.
  EXPECT_NEAR(project_cpu_elements_per_sec(cpu_device("CI1"), true) / 1e9,
              36.5, 5.0);
  EXPECT_NEAR(project_cpu_elements_per_sec(cpu_device("CA1"), true) / 1e9,
              241.0, 35.0);
  EXPECT_NEAR(project_cpu_elements_per_sec(cpu_device("CI3"), true) / 1e9,
              1100.0, 120.0);
}

// --------------------------------------------------------------------------
// Simulator functional runs
// --------------------------------------------------------------------------

const std::vector<GpuVersion>& all_gpu_versions() {
  static const std::vector<GpuVersion> v = {
      GpuVersion::kV1Naive, GpuVersion::kV2Split, GpuVersion::kV3Transposed,
      GpuVersion::kV4Tiled};
  return v;
}

TEST(Simulator, MatchesCpuDetectorOnPlantedData) {
  const auto d = planted_dataset(10, 800, 41);
  const core::Detector cpu(d);
  const auto cpu_best = cpu.run({}).best[0];

  const GpuSimulator sim(gpu_device("GN3"), d);
  for (const GpuVersion v : all_gpu_versions()) {
    GpuRunOptions opt;
    opt.version = v;
    const GpuRunResult r = sim.run(opt);
    ASSERT_FALSE(r.best.empty()) << gpu_version_name(v);
    EXPECT_EQ(r.best[0].snps, cpu_best.snps) << gpu_version_name(v);
    EXPECT_DOUBLE_EQ(r.best[0].score, cpu_best.score);
  }
}

TEST(Simulator, LaunchAccounting) {
  const auto d = random_dataset({12, 64, 7});
  const GpuSimulator sim(gpu_device("GI1"), d);
  GpuRunOptions opt;
  opt.launch.bsched = 4;  // 64 combinations per enqueue
  const GpuRunResult r = sim.run(opt);
  const std::uint64_t total = combinatorics::n_choose_k(12, 3);
  EXPECT_EQ(r.triplets, total);
  EXPECT_EQ(r.launches, (total + 63) / 64);
}

TEST(Simulator, RangeRestriction) {
  const auto d = random_dataset({10, 64, 3});
  const GpuSimulator sim(gpu_device("GA3"), d);
  const std::uint64_t total = combinatorics::n_choose_k(10, 3);
  GpuRunOptions opt;
  opt.range = {10, 50};
  const GpuRunResult r = sim.run(opt);
  EXPECT_EQ(r.triplets, 40u);
  opt.range = {0, total + 1};
  EXPECT_THROW(sim.run(opt), std::invalid_argument);
}

TEST(Simulator, BadOptionsThrow) {
  const auto d = random_dataset({6, 32, 5});
  const GpuSimulator sim(gpu_device("GN1"), d);
  GpuRunOptions opt;
  opt.top_k = 0;
  EXPECT_THROW(sim.run(opt), std::invalid_argument);
  opt = {};
  opt.launch.bsched = 0;
  EXPECT_THROW(sim.run(opt), std::invalid_argument);
}

TEST(Simulator, TinyDatasetRejected) {
  EXPECT_THROW(GpuSimulator(gpu_device("GN1"), random_dataset({2, 16, 1})),
               std::invalid_argument);
}

TEST(Simulator, CostAttachedToRun) {
  const auto d = random_dataset({10, 256, 9});
  const GpuSimulator sim(gpu_device("GN4"), d);
  const GpuRunResult r = sim.run({});
  EXPECT_GT(r.cost.seconds, 0.0);
  EXPECT_GT(r.cost.elements_per_second, 0.0);
  EXPECT_GT(r.host_seconds, 0.0);
}

}  // namespace
}  // namespace trigen::gpusim
