/// \file test_properties.cpp
/// \brief Cross-cutting property and failure-injection tests.
///
/// These tests check algebraic invariants of the whole pipeline rather
/// than point examples: symmetry under class relabeling, linearity of
/// contingency counting, permutation equivariance of detection, cost-model
/// monotonicity, and robustness of the parsers to corrupted input.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "test_util.hpp"
#include "trigen/baseline/mpi3snp.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/dataset/io.hpp"
#include "trigen/gpusim/cost_model.hpp"
#include "trigen/gpusim/device_spec.hpp"
#include "trigen/scoring/generic.hpp"

namespace trigen {
namespace {

using dataset::GenotypeMatrix;
using scoring::ContingencyTable;
using trigen::test::random_dataset;

// --------------------------------------------------------------------------
// Symmetry under phenotype relabeling
// --------------------------------------------------------------------------

GenotypeMatrix flip_classes(const GenotypeMatrix& d) {
  GenotypeMatrix out = d;
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    out.set_phenotype(j, d.phenotype(j) == 0 ? 1 : 0);
  }
  return out;
}

TEST(Symmetry, ClassFlipSwapsContingencyColumns) {
  const auto d = random_dataset({8, 123, 51});
  const auto flipped = flip_classes(d);
  const ContingencyTable a = scoring::reference_contingency_k<3>(d, {1, 3, 6});
  const ContingencyTable b =
      scoring::reference_contingency_k<3>(flipped, {1, 3, 6});
  EXPECT_EQ(a.counts[0], b.counts[1]);
  EXPECT_EQ(a.counts[1], b.counts[0]);
}

TEST(Symmetry, ScoresInvariantUnderClassFlip) {
  // K2 and MI treat the two classes symmetrically, so the detector's
  // ranking must be identical on the relabeled dataset.
  const auto d = random_dataset({10, 200, 53});
  const auto flipped = flip_classes(d);
  for (const auto o :
       {core::Objective::kK2, core::Objective::kMutualInformation}) {
    core::DetectorOptions opt;
    opt.objective = o;
    opt.top_k = 5;
    const auto a = core::Detector(d).run(opt);
    const auto b = core::Detector(flipped).run(opt);
    ASSERT_EQ(a.best.size(), b.best.size());
    for (std::size_t i = 0; i < a.best.size(); ++i) {
      EXPECT_EQ(a.best[i].snps, b.best[i].snps)
          << core::objective_name(o) << " rank " << i;
      EXPECT_NEAR(a.best[i].score, b.best[i].score, 1e-9);
    }
  }
}

// --------------------------------------------------------------------------
// Linearity of counting
// --------------------------------------------------------------------------

TEST(Linearity, DuplicatingSamplesDoublesCounts) {
  const auto d = random_dataset({6, 77, 57});
  GenotypeMatrix doubled(6, 154);
  for (std::size_t m = 0; m < 6; ++m) {
    for (std::size_t j = 0; j < 77; ++j) {
      doubled.set(m, j, d.at(m, j));
      doubled.set(m, j + 77, d.at(m, j));
    }
  }
  for (std::size_t j = 0; j < 77; ++j) {
    doubled.set_phenotype(j, d.phenotype(j));
    doubled.set_phenotype(j + 77, d.phenotype(j));
  }
  const ContingencyTable once =
      scoring::reference_contingency_k<3>(d, {0, 2, 4});
  const ContingencyTable twice =
      scoring::reference_contingency_k<3>(doubled, {0, 2, 4});
  // Check through the kernel path too.
  const auto planes = dataset::PhenoSplitPlanes::build(doubled);
  const ContingencyTable kernel_twice =
      core::contingency_split<3>(planes, {0, 2, 4});
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < ContingencyTable::kNumCells; ++i) {
      ASSERT_EQ(twice.counts[c][i], 2 * once.counts[c][i]);
      ASSERT_EQ(kernel_twice.counts[c][i], 2 * once.counts[c][i]);
    }
  }
}

// --------------------------------------------------------------------------
// Permutation equivariance
// --------------------------------------------------------------------------

TEST(Equivariance, ReversingSnpOrderMapsBestTriplet) {
  const auto d = trigen::test::planted_dataset(12, 900, 59);
  const std::size_t m = d.num_snps();
  GenotypeMatrix reversed(m, d.num_samples());
  for (std::size_t snp = 0; snp < m; ++snp) {
    for (std::size_t j = 0; j < d.num_samples(); ++j) {
      reversed.set(m - 1 - snp, j, d.at(snp, j));
    }
  }
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    reversed.set_phenotype(j, d.phenotype(j));
  }
  const auto a = core::Detector(d).run({}).best[0];
  const auto b = core::Detector(reversed).run({}).best[0];
  // (x, y, z) maps to sorted (m-1-z, m-1-y, m-1-x).
  EXPECT_EQ(b.snps[0], m - 1 - a.snps[2]);
  EXPECT_EQ(b.snps[1], m - 1 - a.snps[1]);
  EXPECT_EQ(b.snps[2], m - 1 - a.snps[0]);
  EXPECT_NEAR(a.score, b.score, 1e-9);
}

TEST(Equivariance, ShufflingSamplesKeepsAllScores) {
  const auto d = random_dataset({9, 150, 61});
  Xoshiro256 rng(999);
  std::vector<std::size_t> perm(d.num_samples());
  for (std::size_t j = 0; j < perm.size(); ++j) perm[j] = j;
  for (std::size_t j = perm.size(); j > 1; --j) {
    std::swap(perm[j - 1], perm[rng.bounded(j)]);
  }
  GenotypeMatrix shuffled(9, d.num_samples());
  for (std::size_t m = 0; m < 9; ++m) {
    for (std::size_t j = 0; j < d.num_samples(); ++j) {
      shuffled.set(m, j, d.at(m, perm[j]));
    }
  }
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    shuffled.set_phenotype(j, d.phenotype(perm[j]));
  }
  core::DetectorOptions opt;
  opt.top_k = 10;
  const auto a = core::Detector(d).run(opt);
  const auto b = core::Detector(shuffled).run(opt);
  for (std::size_t i = 0; i < a.best.size(); ++i) {
    EXPECT_EQ(a.best[i].snps, b.best[i].snps) << i;
    EXPECT_NEAR(a.best[i].score, b.best[i].score, 1e-9) << i;
  }
}

// --------------------------------------------------------------------------
// Cost model monotonicity
// --------------------------------------------------------------------------

gpusim::WorkloadShape shape_for(std::uint64_t snps, std::uint64_t samples) {
  return {combinatorics::n_choose_k(snps, 3), samples,
          dataset::padded_words_for(samples / 2) * 2};
}

TEST(CostModelProperties, MoreBandwidthNeverSlower) {
  const auto w = shape_for(512, 8192);
  for (const auto v : {gpusim::GpuVersion::kV1Naive,
                       gpusim::GpuVersion::kV2Split,
                       gpusim::GpuVersion::kV4Tiled}) {
    gpusim::GpuDeviceSpec dev = gpusim::gpu_device("GI2");
    const double base = estimate_gpu_cost(dev, v, w).seconds;
    dev.mem_bw_gbs *= 4.0;
    EXPECT_LE(estimate_gpu_cost(dev, v, w).seconds, base)
        << gpu_version_name(v);
  }
}

TEST(CostModelProperties, MorePopcntThroughputNeverSlower) {
  const auto w = shape_for(512, 8192);
  for (const auto& base_dev : gpusim::gpu_device_db()) {
    gpusim::GpuDeviceSpec dev = base_dev;
    const double base =
        estimate_gpu_cost(dev, gpusim::GpuVersion::kV4Tiled, w).seconds;
    dev.popcnt_per_cu_cycle *= 2.0;
    EXPECT_LE(
        estimate_gpu_cost(dev, gpusim::GpuVersion::kV4Tiled, w).seconds,
        base)
        << dev.id;
  }
}

TEST(CostModelProperties, FrequencyScalesComputeBoundThroughput) {
  const auto w = shape_for(512, 8192);
  gpusim::GpuDeviceSpec dev = gpusim::gpu_device("GN4");
  const auto e1 = estimate_gpu_cost(dev, gpusim::GpuVersion::kV4Tiled, w);
  ASSERT_NE(e1.bound, gpusim::BoundBy::kMemory);
  dev.boost_ghz *= 1.5;
  const auto e2 = estimate_gpu_cost(dev, gpusim::GpuVersion::kV4Tiled, w);
  if (e2.bound != gpusim::BoundBy::kMemory) {
    EXPECT_NEAR(e2.elements_per_second / e1.elements_per_second, 1.5, 1e-9);
  }
}

TEST(CostModelProperties, TimesArePositiveAndBoundConsistent) {
  const auto w = shape_for(256, 4096);
  for (const auto& dev : gpusim::gpu_device_db()) {
    for (const auto v :
         {gpusim::GpuVersion::kV1Naive, gpusim::GpuVersion::kV2Split,
          gpusim::GpuVersion::kV3Transposed, gpusim::GpuVersion::kV4Tiled}) {
      const auto e = estimate_gpu_cost(dev, v, w);
      ASSERT_GT(e.seconds, 0.0);
      ASSERT_GE(e.seconds, e.t_popcnt - 1e-15);
      ASSERT_GE(e.seconds, e.t_logic - 1e-15);
      ASSERT_GE(e.seconds, e.t_memory - 1e-15);
      const double max3 = std::max({e.t_popcnt, e.t_logic, e.t_memory});
      ASSERT_NEAR(e.seconds, max3, max3 * 1e-12);
    }
  }
}

// --------------------------------------------------------------------------
// Failure injection: corrupted dataset files never crash the parser
// --------------------------------------------------------------------------

TEST(FailureInjection, RandomTextCorruptionIsRejectedOrValid) {
  const auto d = random_dataset({6, 50, 63});
  std::stringstream ss;
  dataset::write_text(ss, d);
  const std::string good = ss.str();

  Xoshiro256 rng(4242);
  int rejected = 0, accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string bad = good;
    // Corrupt 1-4 random bytes.
    const int edits = 1 + static_cast<int>(rng.bounded(4));
    for (int e = 0; e < edits; ++e) {
      bad[rng.bounded(bad.size())] =
          static_cast<char>(32 + rng.bounded(95));
    }
    std::stringstream in(bad);
    try {
      const auto parsed = dataset::read_text(in);
      // If accepted, the result must at least be structurally valid.
      EXPECT_TRUE(parsed.valid());
      ++accepted;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // Most random corruptions must be caught.
  EXPECT_GT(rejected, accepted);
}

TEST(FailureInjection, TruncatedTextAtEveryLineBoundary) {
  const auto d = random_dataset({4, 20, 65});
  std::stringstream ss;
  dataset::write_text(ss, d);
  const std::string good = ss.str();
  std::size_t pos = good.find('\n');
  while (pos != std::string::npos && pos + 1 < good.size()) {
    std::stringstream in(good.substr(0, pos + 1));
    EXPECT_THROW((void)dataset::read_text(in), std::runtime_error)
        << "prefix length " << pos + 1;
    pos = good.find('\n', pos + 1);
  }
}

TEST(FailureInjection, BinaryBitflipsAreRejectedOrValid) {
  const auto d = random_dataset({5, 40, 67});
  std::stringstream ss;
  dataset::write_binary(ss, d);
  const std::string good = ss.str();

  Xoshiro256 rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    const std::size_t at = rng.bounded(bad.size());
    bad[at] = static_cast<char>(bad[at] ^ (1 << rng.bounded(8)));
    std::stringstream in(bad);
    try {
      const auto parsed = dataset::read_binary(in);
      EXPECT_TRUE(parsed.valid());
    } catch (const std::runtime_error&) {
      // rejected: fine
    }
  }
}

// --------------------------------------------------------------------------
// TopK vs exhaustive sort cross-check
// --------------------------------------------------------------------------

TEST(TopKProperty, MatchesFullSortOnRandomStreams) {
  Xoshiro256 rng(31415);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t k = 1 + rng.bounded(10);
    core::BasicTopK<core::ScoredOf<3>> top(k);
    std::vector<core::ScoredOf<3>> all;
    const std::size_t n = 50 + rng.bounded(200);
    for (std::size_t i = 0; i < n; ++i) {
      core::ScoredOf<3> s;
      s.snps = combinatorics::unrank_combination<3>(rng.bounded(100000));
      s.score = static_cast<double>(rng.bounded(1000)) / 10.0;
      top.push(s);
      all.push_back(s);
    }
    std::sort(all.begin(), all.end());
    // Deduplicate identical (triplet, score) pairs is unnecessary: TopK
    // keeps duplicates just like the sorted stream does.
    const auto kept = top.sorted();
    ASSERT_EQ(kept.size(), std::min(k, all.size()));
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(combinatorics::rank_combination<3>(kept[i].snps),
                combinatorics::rank_combination<3>(all[i].snps))
          << "trial " << trial << " rank " << i;
      EXPECT_DOUBLE_EQ(kept[i].score, all[i].score);
    }
  }
}

// --------------------------------------------------------------------------
// Blocked engine degenerate configurations
// --------------------------------------------------------------------------

TEST(BlockedDegenerate, SingleBlockCoversWholeDataset) {
  const auto d = random_dataset({7, 90, 69});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const core::TilingParams tiling{16, 8};  // bs > M: one block
  core::TupleBlockScratch<3> scratch(16);
  std::size_t count = 0;
  core::scan_block_tuple<3>(
      planes, tiling, core::get_direct_kernel<3>(core::KernelIsa::kScalar),
      scratch, core::BlockTuple<3>{0, 0, 0}, core::kFullRange,
      [&](const combinatorics::Combination<3>& c,
          const ContingencyTable& table) {
        ++count;
        ASSERT_EQ(table, scoring::reference_contingency_k<3>(d, c));
      });
  EXPECT_EQ(count, combinatorics::n_choose_k(7, 3));
}

TEST(BlockedDegenerate, OutOfRangeBlockTripleIsEmpty) {
  const auto d = random_dataset({6, 64, 71});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const core::TilingParams tiling{2, 8};
  core::TupleBlockScratch<3> scratch(2);
  int calls = 0;
  core::scan_block_tuple<3>(
      planes, tiling, core::get_direct_kernel<3>(core::KernelIsa::kScalar),
      scratch, core::BlockTuple<3>{9, 9, 9}, core::kFullRange,
      [&](const combinatorics::Combination<3>&, const ContingencyTable&) {
        ++calls;
      });
  EXPECT_EQ(calls, 0);
}

// --------------------------------------------------------------------------
// Baseline/detector objective duality
// --------------------------------------------------------------------------

TEST(Duality, NegatedMiOrderingMatchesDirectMi) {
  // The detector negates MI internally; verify the normalized ordering
  // equals the raw-MI descending ordering.
  const auto d = random_dataset({10, 180, 73});
  core::DetectorOptions opt;
  opt.objective = core::Objective::kMutualInformation;
  opt.top_k = 8;
  const auto r = core::Detector(d).run(opt);
  double prev = 1e300;
  for (const auto& s : r.best) {
    const auto t = scoring::reference_contingency_k<3>(d, s.snps);
    const double raw =
        scoring::mutual_information_cells(t.counts[0], t.counts[1]);
    EXPECT_NEAR(-s.score, raw, 1e-12);
    EXPECT_LE(raw, prev + 1e-12);
    prev = raw;
  }
}

}  // namespace
}  // namespace trigen
