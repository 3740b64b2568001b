#include <gtest/gtest.h>

#include <sstream>

#include "test_util.hpp"
#include "trigen/baseline/mpi3snp.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/dataset/io.hpp"
#include "trigen/gpusim/simulator.hpp"
#include "trigen/hetero/coordinator.hpp"

namespace trigen {
namespace {

using combinatorics::Combination;
using trigen::test::planted_dataset;
using trigen::test::random_dataset;

/// End-to-end: every engine in the repository, fed the same planted
/// dataset, must converge on the same triplet.
TEST(Integration, AllEnginesAgreeOnPlantedTriple) {
  const auto d = planted_dataset(12, 1200, 7);
  const Combination<3> expected{1, 3, 5};

  // CPU ladder.
  const core::Detector det(d);
  for (const auto v :
       {core::CpuVersion::kV1Naive, core::CpuVersion::kV2Split,
        core::CpuVersion::kV3Blocked, core::CpuVersion::kV4Vector}) {
    core::DetectorOptions opt;
    opt.version = v;
    EXPECT_EQ(det.run(opt).best[0].snps, expected)
        << core::cpu_version_name(v);
  }

  // GPU ladder (simulated Titan RTX).
  const gpusim::GpuSimulator sim(gpusim::gpu_device("GN3"), d);
  for (const auto v :
       {gpusim::GpuVersion::kV1Naive, gpusim::GpuVersion::kV2Split,
        gpusim::GpuVersion::kV3Transposed, gpusim::GpuVersion::kV4Tiled}) {
    gpusim::GpuRunOptions opt;
    opt.version = v;
    EXPECT_EQ(sim.run(opt).best[0].snps, expected)
        << gpusim::gpu_version_name(v);
  }

  // MPI3SNP-style baseline (mutual information objective).
  const baseline::Mpi3SnpEngine base(d);
  EXPECT_EQ(base.run(2).best[0].snps, expected);

  // Heterogeneous co-run.
  const hetero::HeteroCoordinator h(d, gpusim::gpu_device("GN3"));
  hetero::HeteroOptions hopt;
  hopt.cpu_share = 0.3;
  EXPECT_EQ(h.run(hopt).best[0].snps, expected);
}

/// Serialization in the loop: write, read back, detect.
TEST(Integration, DetectAfterIoRoundTrip) {
  const auto d = planted_dataset(10, 800, 13);
  std::stringstream text, binary;
  dataset::write_text(text, d);
  dataset::write_binary(binary, d);

  const auto from_text = dataset::read_text(text);
  const auto from_binary = dataset::read_binary(binary);
  ASSERT_EQ(from_text, d);
  ASSERT_EQ(from_binary, d);

  const core::Detector det(from_text);
  EXPECT_EQ(det.run({}).best[0].snps, (Combination<3>{1, 3, 5}));
}

/// The paper's headline metric is invariant across engines: equal element
/// counts for equal workloads.
TEST(Integration, ElementAccountingConsistent) {
  const auto d = random_dataset({14, 256, 3});
  const core::Detector det(d);
  const gpusim::GpuSimulator sim(gpusim::gpu_device("GN1"), d);
  const baseline::Mpi3SnpEngine base(d);

  const auto r1 = det.run({});
  const auto r2 = sim.run({});
  const auto r3 = base.run(1);
  EXPECT_EQ(r1.elements, r2.elements);
  EXPECT_EQ(r1.elements, r3.elements);
  EXPECT_EQ(r1.elements,
            combinatorics::num_elements(14, 3, 256));
}

/// Different penetrance models all stay detectable.
TEST(Integration, DetectsAllInteractionModels) {
  for (const auto model :
       {dataset::InteractionModel::kThreshold, dataset::InteractionModel::kXor3,
        dataset::InteractionModel::kMultiplicative}) {
    dataset::SyntheticSpec spec;
    spec.num_snps = 10;
    spec.num_samples = 3000;
    spec.seed = 71;
    spec.maf_min = 0.35;
    spec.maf_max = 0.5;
    spec.prevalence = 0.15;
    dataset::PlantedInteraction planted;
    planted.snps = {2, 4, 8};
    planted.penetrance = dataset::make_penetrance(model, 0.05, 0.9);
    spec.interaction = planted;
    const auto d = dataset::generate(spec);

    const core::Detector det(d);
    EXPECT_EQ(det.run({}).best[0].snps, (Combination<3>{2, 4, 8}))
        << "model " << static_cast<int>(model);
  }
}

/// Top-K results across engines are mutually consistent under the same
/// objective.
TEST(Integration, TopKConsistentAcrossEngines) {
  const auto d = random_dataset({12, 400, 37});
  const core::Detector det(d);
  const gpusim::GpuSimulator sim(gpusim::gpu_device("GA1"), d);

  core::DetectorOptions copt;
  copt.top_k = 8;
  gpusim::GpuRunOptions gopt;
  gopt.top_k = 8;
  const auto a = det.run(copt).best;
  const auto b = sim.run(gopt).best;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].snps, b[i].snps) << i;
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score) << i;
  }
}

/// Stress the padding paths: class sizes that leave many tail bits.
TEST(Integration, ExtremeClassImbalance) {
  // 90% controls: the case planes are mostly padding.
  const auto d = random_dataset({8, 501, 41}, /*prevalence=*/0.1);
  const core::Detector det(d);
  const auto ref = det.run({});
  core::DetectorOptions opt;
  opt.version = core::CpuVersion::kV1Naive;
  const auto naive = det.run(opt);
  EXPECT_EQ(ref.best[0].snps, naive.best[0].snps);
  EXPECT_DOUBLE_EQ(ref.best[0].score, naive.best[0].score);
}

/// All-controls dataset: one empty class must not crash any engine.
TEST(Integration, SingleClassDatasetSurvives) {
  auto d = random_dataset({6, 100, 43});
  for (std::size_t j = 0; j < d.num_samples(); ++j) d.set_phenotype(j, 0);
  const core::Detector det(d);
  const auto r = det.run({});
  EXPECT_FALSE(r.best.empty());
  const gpusim::GpuSimulator sim(gpusim::gpu_device("GI1"), d);
  EXPECT_FALSE(sim.run({}).best.empty());
}

}  // namespace
}  // namespace trigen
