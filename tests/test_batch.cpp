/// \file test_batch.cpp
/// \brief Acceptance battery of the batched multi-phenotype scan path.
///
/// The anchor property is *bit identity to the sequential path*: a
/// P-partition batched scan must reproduce P dedicated per-phenotype scans
/// exactly — same integer tables, same normalized scores bit-for-bit, same
/// deterministic top-k — for k in {2, 3, 4}, on every compiled-in ISA,
/// over the full rank space and over arbitrary rank splits, and for the
/// order-2 path over every finalize group remainder, sample counts around
/// the word and plane granules and serve-style 64-chunk splits.  On top of
/// that: PhenotypeBatch's two label layouts, the batch kernels against
/// their scalar reference, degenerate
/// (all-case / all-control / single-sample-class) partitions, edge
/// datasets (monomorphic SNPs, class sizes around word and plane
/// boundaries), the batched-vs-sequential permutation test, and the
/// batch-aware tiling budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "test_util.hpp"
#include "trigen/common/aligned.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/stats/permutation.hpp"

namespace trigen {
namespace {

using core::BasicDetector;
using core::BasicDetectorOptions;
using core::KernelIsa;
using core::Objective;
using dataset::GenotypeMatrix;
using dataset::Phenotype;
using dataset::PhenotypeBatch;
using dataset::Word;
using trigen::test::random_dataset;

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

std::vector<KernelIsa> compiled_isas() {
  std::vector<KernelIsa> isas;
  for (const KernelIsa isa : core::all_kernel_isas()) {
    if (core::kernel_available(isa)) isas.push_back(isa);
  }
  return isas;
}

/// P partitions of d's samples: slot 0 is the dataset's own phenotype, the
/// rest are seeded shuffles of it (realistic class balance) — exactly the
/// shape permutation testing feeds the batched engine.
std::vector<std::vector<Phenotype>> make_partitions(const GenotypeMatrix& d,
                                                    std::size_t count,
                                                    std::uint64_t seed) {
  std::vector<std::vector<Phenotype>> parts;
  parts.reserve(count);
  std::vector<Phenotype> observed(d.num_samples());
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    observed[j] = d.phenotype(j);
  }
  parts.push_back(observed);
  SplitMix64 seeds(seed);
  for (std::size_t p = 1; p < count; ++p) {
    parts.push_back(stats::shuffled_labels(d, seeds.next()));
  }
  return parts;
}

/// Sequential reference: a dedicated scan of `d` relabeled with `labels`.
template <unsigned K>
std::vector<core::ScoredOf<K>> sequential_best(
    const GenotypeMatrix& d, const std::vector<Phenotype>& labels,
    const BasicDetectorOptions<K>& opt) {
  GenotypeMatrix relabeled = d;
  for (std::size_t j = 0; j < labels.size(); ++j) {
    relabeled.set_phenotype(j, labels[j]);
  }
  const BasicDetector<K> det(relabeled);
  return det.run(opt).best;
}

template <unsigned K>
void expect_same_ranking(const std::vector<core::ScoredOf<K>>& batched,
                         const std::vector<core::ScoredOf<K>>& sequential,
                         const char* what) {
  ASSERT_EQ(batched.size(), sequential.size()) << what;
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(core::snps_of<K>(batched[i]), core::snps_of<K>(sequential[i]))
        << what << " rank " << i;
    EXPECT_TRUE(same_bits(batched[i].score, sequential[i].score))
        << what << " rank " << i << ": " << batched[i].score << " vs "
        << sequential[i].score;
  }
}

// ---------------------------------------------------------------------------
// PhenotypeBatch packing
// ---------------------------------------------------------------------------

TEST(PhenotypeBatch, PacksWordInterleavedLabelPlanes) {
  const std::size_t n = 40;  // two words, 24 pad bits in the second
  std::vector<std::vector<Phenotype>> parts(3,
                                            std::vector<Phenotype>(n, 0));
  parts[0][0] = 1;   // word 0, bit 0
  parts[1][33] = 1;  // word 1, bit 1
  parts[2].assign(n, 1);
  const PhenotypeBatch batch = PhenotypeBatch::build(n, parts);

  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.num_samples(), n);
  EXPECT_EQ(batch.words(), dataset::padded_words_for(n));
  EXPECT_EQ(batch.stride(), dataset::kWordsPerVector);  // 3 rounded up
  EXPECT_EQ(batch.cases(0), 1u);
  EXPECT_EQ(batch.cases(1), 1u);
  EXPECT_EQ(batch.cases(2), n);
  EXPECT_EQ(batch.pad_bits(),
            batch.words() * dataset::kWordBits - n);

  const Word* labels = batch.word_labels();
  EXPECT_EQ(labels[0 * batch.stride() + 0], Word{1});
  EXPECT_EQ(labels[1 * batch.stride() + 0], Word{0});
  EXPECT_EQ(labels[0 * batch.stride() + 1], Word{0});
  EXPECT_EQ(labels[1 * batch.stride() + 1], Word{1} << 1);
  EXPECT_EQ(labels[0 * batch.stride() + 2], ~Word{0});
  // Tail padding and surplus lanes stay zero.
  EXPECT_EQ(labels[1 * batch.stride() + 2], (Word{1} << 8) - 1);
  for (std::size_t w = 0; w < batch.words(); ++w) {
    for (std::size_t p = 3; p < batch.stride(); ++p) {
      EXPECT_EQ(labels[w * batch.stride() + p], Word{0});
    }
  }
}

TEST(PhenotypeBatch, KeepsPartitionMajorPlanesOfTheSameWords) {
  // Partition counts around the 16-lane stride and sample counts around
  // the word and the 16-word plane granule.
  for (const std::size_t n : {std::size_t{31}, std::size_t{32},
                              std::size_t{33}, std::size_t{1057}}) {
    for (const std::size_t nparts : {std::size_t{1}, std::size_t{17}}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " P " << nparts);
      Xoshiro256 rng(n * 100 + nparts);
      std::vector<std::vector<Phenotype>> parts(nparts,
                                                std::vector<Phenotype>(n));
      for (auto& labels : parts) {
        for (Phenotype& l : labels) l = static_cast<Phenotype>(rng() & 1);
      }
      const PhenotypeBatch batch = PhenotypeBatch::build(n, parts);
      for (std::size_t p = 0; p < nparts; ++p) {
        const Word* plane = batch.plane(p);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plane) % 64, 0u) << p;
        if (p > 0) {
          EXPECT_EQ(plane, batch.plane(p - 1) + batch.words());
        }
        std::size_t set = 0;
        for (std::size_t w = 0; w < batch.words(); ++w) {
          EXPECT_EQ(plane[w], batch.word_labels()[w * batch.stride() + p])
              << p << " word " << w;
          set += static_cast<std::size_t>(std::popcount(plane[w]));
          for (std::size_t b = 0; b < dataset::kWordBits; ++b) {
            const std::size_t j = w * dataset::kWordBits + b;
            const Word bit = plane[w] >> b & 1;
            if (j < n) {
              EXPECT_EQ(bit, Word{parts[p][j]}) << p << " sample " << j;
            } else {
              EXPECT_EQ(bit, Word{0}) << p << " tail bit " << j;
            }
          }
        }
        EXPECT_EQ(set, batch.cases(p));
      }
    }
  }
}

TEST(PhenotypeBatch, RejectsBadInput) {
  EXPECT_THROW(PhenotypeBatch::build(4, {}), std::invalid_argument);
  EXPECT_THROW(PhenotypeBatch::build(4, {std::vector<Phenotype>(3, 0)}),
               std::invalid_argument);
  std::vector<Phenotype> bad(4, 0);
  bad[2] = 2;
  EXPECT_THROW(PhenotypeBatch::build(4, {bad}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batch kernels against the scalar reference
// ---------------------------------------------------------------------------

TEST(BatchKernels, EveryIsaMatchesScalar) {
  constexpr std::size_t kLabels = 19;     // partitions (not a lane multiple)
  constexpr std::size_t kLStride = 32;    // label lane stride
  constexpr std::size_t kWords = 27;      // odd word count: no vector shape
  // Prefix shapes: nine planes at a padded cache stride (a k = 3 final
  // rung), and two planes at an unpadded odd stride (any count and stride
  // the kernel signature admits).
  struct PrefixShape {
    std::size_t count;
    std::size_t stride;
  };
  for (const PrefixShape shape : {PrefixShape{9, 32}, PrefixShape{2, kWords}}) {
    // The whole range and a chunk that starts mid-plane (the prefix planes
    // are read from the chunk start, the labels and z absolutely).
    for (const std::size_t w0 : {std::size_t{0}, std::size_t{5}}) {
      SCOPED_TRACE(::testing::Message() << "count " << shape.count
                                        << " stride " << shape.stride
                                        << " w0 " << w0);
      const std::size_t count = shape.count;
      Xoshiro256 rng(123 + count + w0);
      aligned_vector<Word> planes(count * shape.stride);
      aligned_vector<Word> labels(kWords * kLStride, 0);
      aligned_vector<Word> z0(kWords), z1(kWords);
      for (Word& w : planes) w = static_cast<Word>(rng());
      for (std::size_t w = 0; w < kWords; ++w) {
        for (std::size_t p = 0; p < kLabels; ++p) {
          labels[w * kLStride + p] = static_cast<Word>(rng());
        }
        z0[w] = static_cast<Word>(rng());
        z1[w] = static_cast<Word>(~z0[w] & rng());  // disjoint, like planes
      }
      const Word* prefix = planes.data() + w0;
      std::vector<std::uint32_t> prefix_pops(count, 0);
      for (std::size_t t = 0; t < count; ++t) {
        for (std::size_t r = 0; r < kWords - w0; ++r) {
          prefix_pops[t] += static_cast<std::uint32_t>(
              std::popcount(prefix[t * shape.stride + r]));
        }
      }

      const core::BatchKernelSet ref =
          core::get_batch_kernels(KernelIsa::kScalar);
      std::vector<std::uint32_t> ref_pops(count * kLStride, 0);
      ref.label_pops(prefix, count, shape.stride, labels.data(), kLabels,
                     kLStride, w0, kWords, ref_pops.data());
      const std::size_t cells = count * 3;
      // Adds, not zeroes.
      std::vector<std::uint32_t> ref_ft((1 + kLabels) * cells, 7);
      ref.finalize(prefix, count, shape.stride, prefix_pops.data(),
                   ref_pops.data(), z0.data(), z1.data(), labels.data(),
                   kLabels, kLStride, w0, kWords, ref_ft.data(), cells);

      for (const KernelIsa isa : compiled_isas()) {
        SCOPED_TRACE(core::kernel_isa_name(isa));
        const core::BatchKernelSet k = core::get_batch_kernels(isa);
        std::vector<std::uint32_t> pops(count * kLStride, 0);
        k.label_pops(prefix, count, shape.stride, labels.data(), kLabels,
                     kLStride, w0, kWords, pops.data());
        EXPECT_EQ(pops, ref_pops);
        std::vector<std::uint32_t> ft((1 + kLabels) * cells, 7);
        k.finalize(prefix, count, shape.stride, prefix_pops.data(),
                   pops.data(), z0.data(), z1.data(), labels.data(), kLabels,
                   kLStride, w0, kWords, ft.data(), cells);
        EXPECT_EQ(ft, ref_ft);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched scan == P sequential scans, bit for bit
// ---------------------------------------------------------------------------

template <unsigned K>
void batched_matches_sequential(const GenotypeMatrix& d, std::size_t nparts,
                                KernelIsa isa,
                                combinatorics::RankRange range) {
  BasicDetectorOptions<K> opt;
  opt.isa = isa;
  opt.isa_auto = false;
  opt.version = core::CpuVersion::kV5PairCache;
  opt.top_k = 3;
  opt.threads = 2;
  opt.range = range;

  const auto parts = make_partitions(d, nparts, 99);
  const PhenotypeBatch batch = PhenotypeBatch::build(d.num_samples(), parts);
  const BasicDetector<K> det(d);
  const auto batched = det.run_batched(batch, opt);
  ASSERT_EQ(batched.best.size(), nparts);

  for (std::size_t p = 0; p < nparts; ++p) {
    SCOPED_TRACE(p);
    const auto sequential = sequential_best<K>(d, parts[p], opt);
    expect_same_ranking<K>(batched.best[p], sequential, "partition");
  }
}

TEST(BatchedScan, MatchesSequentialEveryIsaAndOrder) {
  const GenotypeMatrix d = random_dataset({12, 100, 21}, 0.4);
  for (const KernelIsa isa : compiled_isas()) {
    SCOPED_TRACE(core::kernel_isa_name(isa));
    batched_matches_sequential<2>(d, 5, isa, {0, 0});
    batched_matches_sequential<3>(d, 5, isa, {0, 0});
    batched_matches_sequential<4>(d, 5, isa, {0, 0});
  }
}

TEST(BatchedScan, MatchesSequentialAcrossShapes) {
  const KernelIsa isa = core::best_kernel_isa();
  for (const auto& shape : trigen::test::small_shapes()) {
    SCOPED_TRACE(std::get<0>(shape));
    const GenotypeMatrix d = random_dataset(shape, 0.3);
    batched_matches_sequential<3>(d, 4, isa, {0, 0});
  }
}

TEST(BatchedScan, MatchesSequentialOnRandomRankSplits) {
  const GenotypeMatrix d = random_dataset({14, 130, 31}, 0.5);
  const KernelIsa isa = core::best_kernel_isa();
  Xoshiro256 rng(7);
  const auto split_case = [&](auto order_tag) {
    constexpr unsigned K = decltype(order_tag)::value;
    const std::uint64_t total =
        combinatorics::n_choose_k(d.num_snps(), K);
    for (int trial = 0; trial < 4; ++trial) {
      std::uint64_t a = rng.bounded(total);
      std::uint64_t b = rng.bounded(total);
      if (a > b) std::swap(a, b);
      if (a == b) b = a + 1;
      SCOPED_TRACE(static_cast<int>(K));
      batched_matches_sequential<K>(d, 3, isa, {a, b});
    }
  };
  split_case(std::integral_constant<unsigned, 2>{});
  split_case(std::integral_constant<unsigned, 3>{});
  split_case(std::integral_constant<unsigned, 4>{});
}

/// The order-2 path (word-vector kernels over partition-major label planes)
/// against P dedicated sequential scans, every pair's score compared: P in
/// {1, 2, 3, 4, 5, 16, 17, 20, 33} covers every finalize group remainder
/// (groups of 1 or 4 label planes) and the edges of the 8- and 16-lane
/// label groups the lane kernels used; sample counts sit around the word
/// and the 16-word plane granule.  On every compiled ISA: a whole scan at
/// the auto tiling and at a 3-SNP, 16-word tiling (several blocks, and
/// chunks that split the planes), random rank splits, and a serve-style
/// split into 64 ranged runs merged per partition.
TEST(BatchedScan, PairPathMatchesSequentialOverPartitionsSamplesIsasAndSplits) {
  const std::size_t kParts[] = {1, 2, 3, 4, 5, 16, 17, 20, 33};
  std::uint64_t seed = 700;
  for (const std::size_t n : {std::size_t{31}, std::size_t{32},
                              std::size_t{33}, std::size_t{100},
                              std::size_t{1057}}) {
    SCOPED_TRACE(::testing::Message() << "samples " << n);
    const GenotypeMatrix d = random_dataset({13, n, seed++}, 0.4);
    const BasicDetector<2> det(d);
    const std::uint64_t total = combinatorics::n_choose_k(d.num_snps(), 2);
    BasicDetectorOptions<2> opt;
    opt.top_k = total + 16;  // every pair's score is compared
    opt.threads = 1;
    const auto all_parts = make_partitions(d, 33, seed++);
    std::vector<std::vector<core::ScoredOf<2>>> sequential;
    for (const auto& labels : all_parts) {
      sequential.push_back(sequential_best<2>(d, labels, opt));
    }
    Xoshiro256 rng(seed++);
    for (const std::size_t nparts : kParts) {
      SCOPED_TRACE(::testing::Message() << "P " << nparts);
      const std::vector<std::vector<Phenotype>> parts(
          all_parts.begin(),
          all_parts.begin() + static_cast<std::ptrdiff_t>(nparts));
      const PhenotypeBatch batch = PhenotypeBatch::build(n, parts);
      for (const KernelIsa isa : compiled_isas()) {
        SCOPED_TRACE(core::kernel_isa_name(isa));
        BasicDetectorOptions<2> o = opt;
        o.isa = isa;
        o.isa_auto = false;
        const auto expect_all = [&](const auto& best, const char* what) {
          ASSERT_EQ(best.size(), nparts) << what;
          for (std::size_t p = 0; p < nparts; ++p) {
            SCOPED_TRACE(p);
            expect_same_ranking<2>(best[p], sequential[p], what);
          }
        };
        expect_all(det.run_batched(batch, o).best, "whole, auto tiling");
        {
          BasicDetectorOptions<2> small = o;
          small.tiling = core::TilingParams{3, 16};
          small.threads = 2;
          expect_all(det.run_batched(batch, small).best, "whole, 3x16 tiles");
        }
        // Random rank splits: the pieces of a random three-way cut.
        {
          std::uint64_t a = rng.bounded(total);
          std::uint64_t b = rng.bounded(total);
          if (a > b) std::swap(a, b);
          std::vector<core::BasicTopK<core::ScoredOf<2>>> merged(
              nparts, core::BasicTopK<core::ScoredOf<2>>(opt.top_k));
          for (const combinatorics::RankRange r :
               {combinatorics::RankRange{0, a}, combinatorics::RankRange{a, b},
                combinatorics::RankRange{b, total}}) {
            if (r.empty()) continue;  // an empty range means "all"
            o.range = r;
            const auto piece = det.run_batched(batch, o);
            for (std::size_t p = 0; p < nparts; ++p) {
              for (const auto& e : piece.best[p]) merged[p].push(e);
            }
          }
          std::vector<std::vector<core::ScoredOf<2>>> best;
          for (auto& m : merged) best.push_back(m.sorted());
          expect_all(best, "random split");
        }
        // Serve-style: 64 ranged runs, one per chunk of the rank space.
        {
          std::vector<core::BasicTopK<core::ScoredOf<2>>> merged(
              nparts, core::BasicTopK<core::ScoredOf<2>>(opt.top_k));
          for (std::uint64_t i = 0; i < 64; ++i) {
            o.range = {total * i / 64, total * (i + 1) / 64};
            if (o.range.empty()) continue;
            const auto chunk = det.run_batched(batch, o);
            for (std::size_t p = 0; p < nparts; ++p) {
              for (const auto& e : chunk.best[p]) merged[p].push(e);
            }
          }
          std::vector<std::vector<core::ScoredOf<2>>> best;
          for (auto& m : merged) best.push_back(m.sorted());
          expect_all(best, "64-chunk split");
        }
        o.range = {};
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Degenerate partitions
// ---------------------------------------------------------------------------

template <unsigned K>
void degenerate_partitions_match_sequential() {
  const GenotypeMatrix d = random_dataset({10, 67, 41}, 0.4);
  const std::size_t n = d.num_samples();
  std::vector<std::vector<Phenotype>> parts;
  parts.push_back(std::vector<Phenotype>(n, 1));  // all-case
  parts.push_back(std::vector<Phenotype>(n, 0));  // all-control
  std::vector<Phenotype> one_case(n, 0);
  one_case[n / 2] = 1;  // single-sample case class
  parts.push_back(one_case);
  std::vector<Phenotype> one_ctrl(n, 1);
  one_ctrl[0] = 0;  // single-sample control class
  parts.push_back(one_ctrl);

  const PhenotypeBatch batch = PhenotypeBatch::build(n, parts);
  const BasicDetector<K> det(d);
  for (const Objective obj :
       {Objective::kK2, Objective::kMutualInformation,
        Objective::kChiSquared}) {
    SCOPED_TRACE(core::objective_name(obj));
    BasicDetectorOptions<K> opt;
    opt.objective = obj;
    opt.top_k = 2;
    const auto batched = det.run_batched(batch, opt);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      SCOPED_TRACE(p);
      const auto sequential = sequential_best<K>(d, parts[p], opt);
      expect_same_ranking<K>(batched.best[p], sequential, "degenerate");
      for (const auto& s : batched.best[p]) {
        EXPECT_FALSE(std::isnan(s.score));
      }
    }
  }
}

TEST(BatchedScan, DegeneratePartitionsMatchSequentialEveryObjective) {
  {
    SCOPED_TRACE("k=2");
    degenerate_partitions_match_sequential<2>();
  }
  {
    SCOPED_TRACE("k=3");
    degenerate_partitions_match_sequential<3>();
  }
}

// ---------------------------------------------------------------------------
// Edge datasets: monomorphic SNPs and class sizes around word and plane
// boundaries
// ---------------------------------------------------------------------------

/// On every `edge_dataset` and compiled ISA, with P = 17 and 33 partitions
/// (one and three 16-lane label groups): a whole batched run and the
/// per-partition TopK merge of a 64-way range split both rank every
/// combination exactly as P sequential scans do.
template <unsigned K>
void edge_datasets_match_sequential() {
  std::uint64_t seed = 300;
  for (const test::ClassSizes& sizes : test::edge_class_sizes()) {
    SCOPED_TRACE(::testing::Message() << "k=" << K << " sizes "
                                      << sizes.controls << "/" << sizes.cases);
    const GenotypeMatrix d = test::edge_dataset(sizes, seed++);
    const BasicDetector<K> det(d);
    const std::uint64_t total = combinatorics::n_choose_k(d.num_snps(), K);
    BasicDetectorOptions<K> opt;
    opt.top_k = total + 16;  // every combination's score is compared
    opt.threads = 1;
    for (const std::size_t nparts : {std::size_t{17}, std::size_t{33}}) {
      SCOPED_TRACE(nparts);
      const auto parts = make_partitions(d, nparts, seed);
      const PhenotypeBatch batch =
          PhenotypeBatch::build(d.num_samples(), parts);
      std::vector<std::vector<core::ScoredOf<K>>> sequential;
      for (const auto& labels : parts) {
        sequential.push_back(sequential_best<K>(d, labels, opt));
      }
      for (const KernelIsa isa : compiled_isas()) {
        SCOPED_TRACE(core::kernel_isa_name(isa));
        BasicDetectorOptions<K> o = opt;
        o.isa = isa;
        o.isa_auto = false;
        const auto whole = det.run_batched(batch, o);
        std::vector<core::BasicTopK<core::ScoredOf<K>>> merged(
            nparts, core::BasicTopK<core::ScoredOf<K>>(opt.top_k));
        for (std::uint64_t i = 0; i < 64; ++i) {
          o.range = {total * i / 64, total * (i + 1) / 64};
          if (o.range.empty()) continue;  // an empty range means "all"
          const auto chunk = det.run_batched(batch, o);
          for (std::size_t p = 0; p < nparts; ++p) {
            for (const auto& s : chunk.best[p]) merged[p].push(s);
          }
        }
        for (std::size_t p = 0; p < nparts; ++p) {
          SCOPED_TRACE(p);
          expect_same_ranking<K>(whole.best[p], sequential[p], "whole");
          expect_same_ranking<K>(merged[p].sorted(), sequential[p],
                                 "64-way split");
        }
      }
    }
  }
}

TEST(BatchedScan, EdgeDatasetsMatchSequentialEveryIsaAndSplit) {
  edge_datasets_match_sequential<2>();
  edge_datasets_match_sequential<3>();
}

// ---------------------------------------------------------------------------
// Permutation testing: every batch setting is bit-identical
// ---------------------------------------------------------------------------

template <unsigned K>
void permutation_paths_agree(const GenotypeMatrix& d) {
  stats::BasicPermutationTestOptions<K> base;
  base.permutations = 6;
  base.seed = 17;
  base.detector.threads = 2;

  auto batched = base;
  batched.batch = 0;
  const auto full = stats::permutation_test_of<K>(d, batched);

  auto sequential = base;
  sequential.batch = 1;
  const auto seq = stats::permutation_test_of<K>(d, sequential);

  auto chunked = base;
  chunked.batch = 3;  // observed+nulls split across 3 uneven chunks
  const auto chk = stats::permutation_test_of<K>(d, chunked);

  for (const auto* r : {&full, &chk}) {
    EXPECT_EQ(core::snps_of<K>(r->observed), core::snps_of<K>(seq.observed));
    EXPECT_TRUE(same_bits(r->observed.score, seq.observed.score));
    ASSERT_EQ(r->null_scores.size(), seq.null_scores.size());
    for (std::size_t i = 0; i < seq.null_scores.size(); ++i) {
      EXPECT_TRUE(same_bits(r->null_scores[i], seq.null_scores[i])) << i;
    }
    EXPECT_EQ(r->p_value, seq.p_value);
  }
}

TEST(BatchedPermutation, AgreesWithSequentialPath) {
  permutation_paths_agree<2>(random_dataset({10, 80, 51}, 0.4));
  permutation_paths_agree<3>(random_dataset({9, 70, 52}, 0.4));
}

TEST(BatchedPermutation, ShuffleHelpersShareOneStream) {
  const GenotypeMatrix d = random_dataset({6, 50, 61}, 0.5);
  const auto labels = stats::shuffled_labels(d, 42);
  const GenotypeMatrix shuffled = stats::shuffle_phenotypes(d, 42);
  ASSERT_EQ(labels.size(), d.num_samples());
  for (std::size_t j = 0; j < labels.size(); ++j) {
    EXPECT_EQ(labels[j], shuffled.phenotype(j));
  }
  // Same multiset of labels, different order (for any nontrivial shuffle).
  std::size_t cases = 0, orig_cases = 0;
  for (std::size_t j = 0; j < labels.size(); ++j) {
    cases += labels[j];
    orig_cases += d.phenotype(j);
  }
  EXPECT_EQ(cases, orig_cases);
}

// ---------------------------------------------------------------------------
// Batch-aware tiling budget
// ---------------------------------------------------------------------------

TEST(BatchTiling, BudgetsTablesAndLabelPlanes) {
  const core::L1Config l1{48 * 1024, 12, 7, 4};
  // Zero slots degrades to the plain order-generic overload.
  const auto plain = core::autotune_tiling(l1, 16, 3, true);
  const auto zero = core::autotune_tiling(l1, 16, 3, true, 0, 0);
  EXPECT_EQ(zero.bs, plain.bs);
  EXPECT_EQ(zero.bp_words, plain.bp_words);

  for (const unsigned order : {2u, 3u}) {
    SCOPED_TRACE(order);
    std::size_t prev_bs = 65;
    for (const std::size_t slots : {1ul, 16ul, 64ul, 512ul}) {
      SCOPED_TRACE(slots);
      const std::size_t lstride =
          (slots + dataset::kWordsPerVector - 1) / dataset::kWordsPerVector *
          dataset::kWordsPerVector;
      const auto t =
          core::autotune_tiling(l1, 16, order, true, slots, lstride);
      EXPECT_TRUE(t.valid());
      // Per-z tables stream (they are writeback-only), so at every order bs
      // is sized for completion reuse against an L2-scale budget, shrinking
      // with P down to a floor of 4.
      const std::size_t table_bytes =
          t.bs * (1 + slots) * core::pow3(order) * 4;
      EXPECT_TRUE(table_bytes <= 512 * 1024 || t.bs == 4);
      EXPECT_LE(t.bs, 64u);
      EXPECT_LE(t.bs, prev_bs);
      prev_bs = t.bs;
      // Chunks are granule-aligned and floored at sixteen granules: tiny
      // chunks only multiply the per-chunk fixed costs (ladder builds,
      // label-pops passes, writebacks, finalize reductions).
      EXPECT_EQ(t.bp_words % dataset::kWordsPerVector, 0u);
      const std::size_t floor = 16 * dataset::kWordsPerVector;
      EXPECT_GE(t.bp_words, floor);
      if (order == 2) {
        // Above the floor the order-2 chunk is the longest whose working
        // set fits the L2-scale budget: P label planes, the four x_a ∩ z_b
        // planes and x's and z's two planes each per chunk word, plus the
        // B_S per-z accumulators (4 + 6P cells).
        const auto working = [&](std::size_t bp) {
          return bp * 4 * (slots + 8) + t.bs * (4 + 6 * slots) * 4;
        };
        EXPECT_TRUE(working(t.bp_words) <= 512 * 1024 || t.bp_words == floor);
        EXPECT_GT(working(t.bp_words + dataset::kWordsPerVector), 512u * 1024);
      }
    }
  }
  // At P = 64 and 16384 samples one order-2 chunk covers the whole plane:
  // the 128 kB of label planes stay L2-resident for every pair.
  const auto wide = core::autotune_tiling(l1, 16, 2, true, 64, 64);
  EXPECT_GE(wide.bp_words, dataset::padded_words_for(16384));
}

}  // namespace
}  // namespace trigen
