/// \file test_window.cpp
/// \brief Edge cases of ranged blocked scans at every order.
///
/// A ranged V3/V4/V5 scan (and `run_batched`) clips every prefix to its
/// exact last-axis window (`combinatorics::LastAxisWindow`).  The windows
/// are easiest to get wrong where a range boundary meets a structural
/// boundary, so each case below puts one there: single-rank ranges on
/// either side of a top-index step C(z, K), ranges whose two ends share
/// the top index, ranges that start or end in the middle of a prefix run,
/// the first and the last rank of the space, and block sizes of 1, 2 and
/// one that does not divide the SNP count.  Every ranged scan must return
/// exactly the combinations of its range with score bits identical to the
/// per-combination V2 reference, and a 64-way chunk split must reproduce
/// the full-scan top-k.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/topk.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/stats/permutation.hpp"

namespace trigen {
namespace {

using combinatorics::Combination;
using combinatorics::n_choose_k;
using combinatorics::RankRange;
using combinatorics::rank_combination;
using core::BasicDetector;
using core::BasicDetectorOptions;
using core::CpuVersion;
using dataset::GenotypeMatrix;
using dataset::Phenotype;
using trigen::test::random_dataset;

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// The boundary-hugging ranges of an order-K space over m SNPs.
template <unsigned K>
std::vector<RankRange> edge_ranges(std::uint64_t m) {
  const std::uint64_t total = n_choose_k(m, K);
  std::vector<RankRange> out;
  // First and last rank of the space, and the space minus either end.
  out.push_back({0, 1});
  out.push_back({total - 1, total});
  out.push_back({1, total});
  out.push_back({0, total - 1});
  for (std::uint64_t z = K; z < m; ++z) {
    const std::uint64_t step = n_choose_k(z, K);  // first rank with top z
    // Single ranks on either side of the top-index step.
    out.push_back({step - 1, step});
    out.push_back({step, step + 1});
    // A range straddling the step by one rank on each side.
    out.push_back({step - 1, step + 1});
    // Both ends share the top index z (strictly inside its run).
    const std::uint64_t run = n_choose_k(z, K - 1);  // ranks with top z
    if (run >= 3) out.push_back({step + 1, step + run - 1});
  }
  // Ranges starting or ending mid-prefix: the boundary combination has
  // its lower indices away from their minimum, so the cut falls inside
  // the run of combinations sharing the upper indices.
  Combination<K> lo{};
  Combination<K> hi{};
  for (unsigned i = 0; i < K; ++i) {
    lo[i] = i + 1;                                     // (1, 2, .., K)
    hi[i] = static_cast<std::uint32_t>(m - K + i - 1);  // top at m - 2
  }
  hi[0] = hi[0] > 0 ? hi[0] - 1 : 0;
  out.push_back({rank_combination<K>(lo), total});
  out.push_back({0, rank_combination<K>(hi) + 1});
  out.push_back({rank_combination<K>(lo), rank_combination<K>(hi) + 1});
  return out;
}

/// Every combination of the space, scored by the per-combination V2
/// reference and sorted (score, then rank).
template <unsigned K>
std::vector<core::ScoredOf<K>> reference_all(const BasicDetector<K>& det,
                                             std::uint64_t total) {
  BasicDetectorOptions<K> opt;
  opt.version = CpuVersion::kV2Split;
  opt.top_k = total;
  return det.run(opt).best;
}

/// The reference restricted to `range`: the exact answer of a ranged scan
/// whose top-k holds the whole range.
template <unsigned K>
std::vector<core::ScoredOf<K>> reference_in(
    const std::vector<core::ScoredOf<K>>& all, RankRange range) {
  std::vector<core::ScoredOf<K>> out;
  for (const auto& s : all) {
    const std::uint64_t r = rank_combination<K>(core::snps_of<K>(s));
    if (r >= range.first && r < range.last) out.push_back(s);
  }
  return out;
}

template <unsigned K>
void expect_identical(const std::vector<core::ScoredOf<K>>& got,
                      const std::vector<core::ScoredOf<K>>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(core::snps_of<K>(got[i]), core::snps_of<K>(want[i]))
        << label << " entry " << i;
    ASSERT_TRUE(same_bits(got[i].score, want[i].score))
        << label << " entry " << i << ": " << got[i].score << " vs "
        << want[i].score;
  }
}

std::string range_label(const std::string& what, std::size_t bs, RankRange r) {
  return what + " bs=" + std::to_string(bs) + " [" +
         std::to_string(r.first) + "," + std::to_string(r.last) + ")";
}

/// Block sizes of 1, 2 and one that does not divide m = 11.
constexpr std::size_t kBlockSizes[] = {1, 2, 3};
constexpr std::size_t kSnps = 11;

template <unsigned K>
void blocked_versions_match_reference() {
  const GenotypeMatrix d = random_dataset({kSnps, 97, 40 + K}, 0.4);
  const BasicDetector<K> det(d);
  const std::uint64_t total = n_choose_k(kSnps, K);
  const auto all = reference_all<K>(det, total);
  for (const CpuVersion v : {CpuVersion::kV3Blocked, CpuVersion::kV4Vector,
                             CpuVersion::kV5PairCache}) {
    for (const std::size_t bs : kBlockSizes) {
      for (const RankRange range : edge_ranges<K>(kSnps)) {
        BasicDetectorOptions<K> opt;
        opt.version = v;
        opt.tiling = {bs, 8};
        opt.range = range;
        opt.top_k = range.size();
        const auto r = det.run(opt);
        ASSERT_EQ(r.combinations_evaluated, range.size());
        expect_identical<K>(
            r.best, reference_in<K>(all, range),
            range_label(core::cpu_version_name(v), bs, range));
      }
    }
  }
}

TEST(WindowEdges, Order2BlockedVersionsMatchV2) {
  blocked_versions_match_reference<2>();
}
TEST(WindowEdges, Order3BlockedVersionsMatchV2) {
  blocked_versions_match_reference<3>();
}
TEST(WindowEdges, Order4BlockedVersionsMatchV2) {
  blocked_versions_match_reference<4>();
}
TEST(WindowEdges, Order5BlockedVersionsMatchV2) {
  blocked_versions_match_reference<5>();
}
TEST(WindowEdges, Order6BlockedVersionsMatchV2) {
  blocked_versions_match_reference<6>();
}

/// `d` with its phenotype replaced by `labels`.
GenotypeMatrix relabeled(const GenotypeMatrix& d,
                         const std::vector<Phenotype>& labels) {
  GenotypeMatrix out = d;
  for (std::size_t j = 0; j < labels.size(); ++j) {
    out.set_phenotype(j, labels[j]);
  }
  return out;
}

template <unsigned K>
void batched_matches_reference() {
  const GenotypeMatrix d = random_dataset({kSnps, 83, 60 + K}, 0.5);
  const std::uint64_t total = n_choose_k(kSnps, K);
  // Partition 0 is the observed phenotype, partition 1 a shuffle of it.
  std::vector<std::vector<Phenotype>> parts(2);
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    parts[0].push_back(d.phenotype(j));
  }
  parts[1] = stats::shuffled_labels(d, 1234 + K);
  const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
  const BasicDetector<K> det(d);
  std::vector<std::vector<core::ScoredOf<K>>> all;
  for (const auto& labels : parts) {
    const BasicDetector<K> ref(relabeled(d, labels));
    all.push_back(reference_all<K>(ref, total));
  }
  for (const std::size_t bs : kBlockSizes) {
    for (const RankRange range : edge_ranges<K>(kSnps)) {
      BasicDetectorOptions<K> opt;
      opt.tiling = {bs, 8};
      opt.range = range;
      opt.top_k = range.size();
      const auto r = det.run_batched(batch, opt);
      ASSERT_EQ(r.combinations_evaluated, range.size());
      ASSERT_EQ(r.best.size(), parts.size());
      for (std::size_t p = 0; p < parts.size(); ++p) {
        expect_identical<K>(
            r.best[p], reference_in<K>(all[p], range),
            range_label("batched", bs, range) + " partition " +
                std::to_string(p));
      }
    }
  }
}

TEST(WindowEdges, Order2BatchedMatchesV2) { batched_matches_reference<2>(); }
TEST(WindowEdges, Order3BatchedMatchesV2) { batched_matches_reference<3>(); }
TEST(WindowEdges, Order4BatchedMatchesV2) { batched_matches_reference<4>(); }
TEST(WindowEdges, Order5BatchedMatchesV2) { batched_matches_reference<5>(); }
TEST(WindowEdges, Order6BatchedMatchesV2) { batched_matches_reference<6>(); }

/// The server's cut: 64 chunks of total / 64 ranks (the last one shorter);
/// the merged chunk top-k must equal the full-scan top-k bit for bit.
template <unsigned K>
void chunk_split_reproduces_full_scan(std::size_t m) {
  const GenotypeMatrix d = random_dataset({m, 129, 80 + K}, 0.45);
  const BasicDetector<K> det(d);
  const std::uint64_t total = n_choose_k(m, K);
  const std::uint64_t chunk = std::max<std::uint64_t>(1, total / 64);
  constexpr std::size_t kTop = 25;
  for (const CpuVersion v :
       {CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
    BasicDetectorOptions<K> opt;
    opt.version = v;
    opt.top_k = kTop;
    opt.tiling = {4, 8};
    const auto want = det.run(opt).best;
    core::BasicTopK<core::ScoredOf<K>> merged(kTop);
    std::uint64_t covered = 0;
    for (std::uint64_t f = 0; f < total; f += chunk) {
      opt.range = {f, std::min(f + chunk, total)};
      const auto r = det.run(opt);
      covered += r.combinations_evaluated;
      for (const auto& s : r.best) merged.push(s);
    }
    ASSERT_EQ(covered, total);
    expect_identical<K>(merged.sorted(), want, core::cpu_version_name(v));
  }
}

TEST(WindowChunks, SixtyFourWaySplitReproducesFullScanEveryOrder) {
  chunk_split_reproduces_full_scan<2>(40);
  chunk_split_reproduces_full_scan<3>(23);
  chunk_split_reproduces_full_scan<4>(15);
  chunk_split_reproduces_full_scan<5>(13);
  chunk_split_reproduces_full_scan<6>(12);
}

}  // namespace
}  // namespace trigen
