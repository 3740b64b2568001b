#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/scan_csv.hpp"
#include "trigen/dataset/io.hpp"
#include "trigen/shard/merge.hpp"
#include "trigen/shard/plan.hpp"
#include "trigen/shard/result_io.hpp"
#include "trigen/shard/runner.hpp"

namespace trigen::shard {
namespace {

using combinatorics::RankRange;
using Scored2 = core::ScoredOf<2>;
using Scored3 = core::ScoredOf<3>;
using combinatorics::n_choose_k;
using trigen::test::random_dataset;

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// Runs `fn`, expecting it to throw; returns the exception message.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

void expect_error_contains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "message '" << msg << "' lacks '" << needle << "'";
}

/// Scans one rank range through the runner (no checkpointing) and asserts
/// completion.
BasicShardResult<Scored3> scan_range(const core::Detector& det,
                                     std::uint64_t fp, RankRange range,
                                     std::size_t top_k,
                                     core::DetectorOptions detector = {}) {
  BasicShardRunOptions<core::DetectorOptions> opt;
  opt.detector = detector;
  opt.detector.top_k = top_k;
  opt.range = range;
  const auto rep = run_shard_of<3>(det, fp, opt);
  EXPECT_TRUE(rep.completed);
  return rep.result;
}

template <unsigned K>
void expect_same_entries(const std::vector<core::ScoredOf<K>>& got,
                         const std::vector<core::ScoredOf<K>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].snps, want[i].snps) << "entry " << i;
    EXPECT_TRUE(same_bits(got[i].score, want[i].score))
        << "entry " << i << ": " << got[i].score << " vs " << want[i].score;
  }
}

/// Per-test scratch file path.  TempDir contents survive across test runs,
/// so start from a clean slate: a checkpoint left by a previous invocation
/// must not be "resumed" by this one.
std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + "trigen_shard_" + name;
  std::remove(path.c_str());
  return path;
}

// --------------------------------------------------------------------------
// plan_shards
// --------------------------------------------------------------------------

TEST(ShardPlan, EvenSplitTilesTheSpace) {
  for (const std::uint64_t m : {4u, 10u, 16u}) {
    const std::uint64_t total = n_choose_k(m, 3);
    for (unsigned w = 1; w <= 7; ++w) {
      if (w > total) continue;
      const auto shards = plan_shards(m, w);
      ASSERT_EQ(shards.size(), w);
      std::uint64_t expect = 0, min_size = total, max_size = 0;
      for (const RankRange& s : shards) {
        EXPECT_EQ(s.first, expect);
        EXPECT_FALSE(s.empty());
        min_size = std::min(min_size, s.size());
        max_size = std::max(max_size, s.size());
        expect = s.last;
      }
      EXPECT_EQ(expect, total) << "m=" << m << " w=" << w;
      EXPECT_LE(max_size - min_size, 1u) << "m=" << m << " w=" << w;
    }
  }
}

TEST(ShardPlan, SingleTripletShardsAreAllowed) {
  // W == C(M,3): every shard is exactly one rank.
  const auto shards = plan_shards(4, 4);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(shards[i].first, i);
    EXPECT_EQ(shards[i].last, i + 1u);
  }
}

TEST(ShardPlan, RejectsDegenerateWorkerCounts) {
  EXPECT_THROW(plan_shards(10, 0), std::invalid_argument);
  // C(4,3) = 4 triplets cannot feed 5 workers.
  EXPECT_THROW(plan_shards(4, 5), std::invalid_argument);
}

TEST(ShardPlan, BlockAlignedBoundariesAreLayerCuts) {
  const std::uint64_t m = 16, bs = 3;
  const std::uint64_t total = n_choose_k(m, 3);
  const auto shards = plan_shards(m, 4, SplitStrategy::kBlockAligned, bs);
  ASSERT_EQ(shards.size(), 4u);
  std::uint64_t expect = 0;
  for (const RankRange& s : shards) {
    EXPECT_EQ(s.first, expect);
    EXPECT_FALSE(s.empty());
    expect = s.last;
  }
  EXPECT_EQ(expect, total);
  for (std::size_t i = 0; i + 1 < shards.size(); ++i) {
    bool is_cut = false;
    for (std::uint64_t z = bs; z < m; z += bs) {
      is_cut |= shards[i].last == combinatorics::n_choose_k(z, 3);
    }
    EXPECT_TRUE(is_cut) << "boundary " << shards[i].last
                        << " is not a block-layer cut";
  }
}

TEST(ShardPlan, BlockAlignedRejectsImpossibleSplits) {
  EXPECT_THROW(plan_shards(16, 4, SplitStrategy::kBlockAligned, 0),
               std::invalid_argument);
  // M=6, bs=5: only one interior cut C(5,3)=10 => at most 2 shards.
  EXPECT_NO_THROW(plan_shards(6, 2, SplitStrategy::kBlockAligned, 5));
  EXPECT_THROW(plan_shards(6, 3, SplitStrategy::kBlockAligned, 5),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// dataset_fingerprint
// --------------------------------------------------------------------------

TEST(ShardFingerprint, StableAcrossRebuildsAndRepresentations) {
  const auto a = random_dataset({8, 100, 4});
  const auto b = random_dataset({8, 100, 4});
  EXPECT_EQ(dataset_fingerprint(a), dataset_fingerprint(b));

  // A text I/O round trip must not change the fingerprint.
  std::stringstream ss;
  dataset::write_text(ss, a);
  EXPECT_EQ(dataset_fingerprint(dataset::read_text(ss)),
            dataset_fingerprint(a));
}

TEST(ShardFingerprint, SensitiveToEveryField) {
  const auto base = random_dataset({8, 100, 4});
  const std::uint64_t fp = dataset_fingerprint(base);

  auto geno = base;
  geno.set(3, 50, static_cast<dataset::Genotype>((base.at(3, 50) + 1) % 3));
  EXPECT_NE(dataset_fingerprint(geno), fp);

  auto pheno = base;
  pheno.set_phenotype(7, base.phenotype(7) == 0 ? 1 : 0);
  EXPECT_NE(dataset_fingerprint(pheno), fp);

  EXPECT_NE(dataset_fingerprint(random_dataset({8, 100, 5})), fp);
  EXPECT_NE(dataset_fingerprint(random_dataset({8, 101, 4})), fp);
}

// --------------------------------------------------------------------------
// Shard-result format: round trip + corruption battery
// --------------------------------------------------------------------------

class ShardResultIo : public ::testing::Test {
 protected:
  /// A genuine shard result from a real partial scan.
  BasicShardResult<Scored3> real_result() {
    const auto d = random_dataset({12, 100, 21});
    const core::Detector det(d);
    return scan_range(det, dataset_fingerprint(d), {40, 180}, 7);
  }

  std::string serialized(const BasicShardResult<Scored3>& r) {
    std::stringstream ss;
    write_shard_result(ss, r);
    return ss.str();
  }

  BasicShardResult<Scored3> parse(const std::string& text) {
    std::istringstream is(text);
    return read_shard_result_as<Scored3>(is);
  }
};

TEST_F(ShardResultIo, RoundTripIsExact) {
  const BasicShardResult<Scored3> r = real_result();
  ASSERT_EQ(r.entries.size(), 7u);
  const BasicShardResult<Scored3> back = parse(serialized(r));
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  EXPECT_EQ(back.num_snps, r.num_snps);
  EXPECT_EQ(back.num_samples, r.num_samples);
  EXPECT_EQ(back.objective, r.objective);
  EXPECT_EQ(back.top_k, r.top_k);
  EXPECT_EQ(back.range.first, r.range.first);
  EXPECT_EQ(back.range.last, r.range.last);
  EXPECT_TRUE(same_bits(back.seconds, r.seconds));
  expect_same_entries(back.entries, r.entries);
}

TEST_F(ShardResultIo, ExtremeScoresSurviveTheTextFormat) {
  // Hex-float serialization must preserve every double bit pattern:
  // huge magnitudes, subnormals, and the sign of negative zero.
  BasicShardResult<Scored3> r;
  r.fingerprint = 0xdeadbeefcafef00dull;
  r.num_snps = 12;
  r.num_samples = 64;
  r.objective = "k2";
  r.top_k = 6;
  r.range = {0, 220};
  r.seconds = 1.0 / 3.0;
  const double scores[6] = {-1e300, -1e-5, -5e-324, -0.0, 0.0, 1e300};
  const combinatorics::Combination<3> triplets[6] = {
      {0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}, {0, 1, 4}, {0, 2, 4}};
  for (int i = 0; i < 6; ++i) r.entries.push_back({triplets[i], scores[i]});
  const BasicShardResult<Scored3> back = parse(serialized(r));
  expect_same_entries(back.entries, r.entries);
  EXPECT_TRUE(same_bits(back.seconds, r.seconds));
}

TEST_F(ShardResultIo, FileRoundTripAndMissingFile) {
  const BasicShardResult<Scored3> r = real_result();
  const std::string path = temp_path("roundtrip.shard");
  write_shard_result_file(path, r);
  const auto back = read_shard_result_file_as<Scored3>(path);
  expect_same_entries(back.entries, r.entries);
  expect_error_contains(
      error_of([&] {
        read_shard_result_file_as<Scored3>(temp_path("nope.shard"));
      }),
      "cannot open");
}

TEST_F(ShardResultIo, EveryTruncationIsRejected) {
  // Any cut losing real content must be rejected (the very last byte is
  // the trailer's newline — the only prefix that is still a whole file).
  const std::string text = serialized(real_result());
  for (std::size_t cut = 0; cut + 1 < text.size(); cut += 7) {
    EXPECT_THROW(parse(text.substr(0, cut)), std::runtime_error)
        << "prefix of " << cut << " bytes parsed";
  }
  // ... and the intact text parses.
  EXPECT_NO_THROW(parse(text));
}

TEST_F(ShardResultIo, RejectsBadMagicAndVersion) {
  const BasicShardResult<Scored3> r = real_result();
  std::string text = serialized(r);

  std::string wrong_magic = text;
  wrong_magic.replace(wrong_magic.find("TRIGEN-SHARD"), 12, "TRIGEN-SHRED");
  expect_error_contains(error_of([&] { parse(wrong_magic); }), "bad magic");

  std::string wrong_version = text;
  wrong_version.replace(wrong_version.find(" v2"), 3, " v9");
  expect_error_contains(error_of([&] { parse(wrong_version); }),
                        "unsupported format version");

  // A checkpoint is not a shard result.
  BasicCheckpoint<Scored3> c;
  c.fingerprint = r.fingerprint;
  c.num_snps = r.num_snps;
  c.num_samples = r.num_samples;
  c.objective = r.objective;
  c.top_k = r.top_k;
  c.range = r.range;
  c.watermark = r.range.first;
  std::stringstream ss;
  write_checkpoint(ss, c);
  expect_error_contains(error_of([&, t = ss.str()] { parse(t); }),
                        "bad magic");
}

TEST_F(ShardResultIo, RejectsMalformedFieldsAndEntries) {
  const BasicShardResult<Scored3> r = real_result();
  const std::string text = serialized(r);

  auto replaced = [&](const std::string& from, const std::string& to) {
    std::string t = text;
    const auto pos = t.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    t.replace(pos, from.size(), to);
    return t;
  };

  expect_error_contains(
      error_of([&] { parse(replaced("fingerprint", "thumbprint")); }),
      "expected 'fingerprint'");
  expect_error_contains(
      error_of([&] { parse(replaced("snps 12", "snps twelve")); }),
      "malformed snps");
  expect_error_contains(
      error_of([&] { parse(replaced("snps 12", "snps 2")); }),
      "implausible dataset shape");
  expect_error_contains(
      error_of([&] { parse(replaced("range 40 180", "range 180 40")); }),
      "invalid range");
  expect_error_contains(
      error_of([&] { parse(replaced("range 40 180", "range 40 99999")); }),
      "invalid range");
  expect_error_contains(
      error_of([&] { parse(replaced("entries 7", "entries 6")); }),
      "entry count");
  expect_error_contains(error_of([&] { parse(text + "\nextra"); }),
                        "trailing content");

  // Swapping two entry lines breaks the strict (score, rank) ordering.
  std::string swapped = text;
  const auto e1 = swapped.find("\ne ");
  const auto e2 = swapped.find("\ne ", e1 + 1);
  const auto e3 = swapped.find("\ne ", e2 + 1);
  const std::string line1 = swapped.substr(e1, e2 - e1);
  const std::string line2 = swapped.substr(e2, e3 - e2);
  swapped.replace(e1, e3 - e1, line2 + line1);
  expect_error_contains(error_of([&] { parse(swapped); }),
                        "not strictly ascending");
}

TEST_F(ShardResultIo, RejectsEntriesOutsideTheDeclaredRange) {
  // Entry ranks must lie inside `range`: a hand-built result whose last
  // entry sits at rank 5 stops parsing when the range shrinks to [0, 5).
  BasicShardResult<Scored3> r;
  r.fingerprint = 42;
  r.num_snps = 12;
  r.num_samples = 64;
  r.objective = "k2";
  r.top_k = 5;
  r.range = {0, 6};
  // Ranks 0,1,2,3,5 with ascending scores: a valid top-5 of 6 ranks.
  const combinatorics::Combination<3> triplets[5] = {
      {0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}, {0, 2, 4}};
  for (int i = 0; i < 5; ++i) {
    r.entries.push_back({triplets[i], static_cast<double>(i)});
  }
  EXPECT_NO_THROW(parse(serialized(r)));

  std::string text = serialized(r);
  text.replace(text.find("range 0 6"), 9, "range 0 5");
  expect_error_contains(error_of([&] { parse(text); }),
                        "outside the covered ranks");
}

// --------------------------------------------------------------------------
// Format versioning: v1 compatibility and the order field
// --------------------------------------------------------------------------

/// Rewrites a v2 artifact as its v1 equivalent (no `order` line).  Only
/// valid for order-3 artifacts — which is the point: v1 predates pairwise
/// shards.
std::string as_v1(std::string text) {
  const auto pos = text.find(" v2\norder 3\n");
  EXPECT_NE(pos, std::string::npos);
  text.replace(pos, 12, " v1\n");
  return text;
}

TEST_F(ShardResultIo, LegacyV1FilesStillParse) {
  const BasicShardResult<Scored3> r = real_result();
  const BasicShardResult<Scored3> back = parse(as_v1(serialized(r)));
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  EXPECT_EQ(back.range.first, r.range.first);
  EXPECT_EQ(back.range.last, r.range.last);
  expect_same_entries(back.entries, r.entries);
}

TEST_F(ShardResultIo, WriterEmitsV2WithTheOrderField) {
  const std::string text = serialized(real_result());
  EXPECT_NE(text.find("TRIGEN-SHARD v2\norder 3\n"), std::string::npos);
}

TEST_F(ShardResultIo, OrderMismatchesAreRejectedPrecisely) {
  const std::string triplet_text = serialized(real_result());

  // An order-3 file is not an order-2 artifact — v2 and legacy v1 alike.
  expect_error_contains(error_of([&] {
                          std::istringstream is(triplet_text);
                          read_shard_result_as<Scored2>(is);
                        }),
                        "order mismatch");
  expect_error_contains(error_of([&] {
                          std::istringstream is(as_v1(triplet_text));
                          read_shard_result_as<Scored2>(is);
                        }),
                        "order mismatch");

  // And an order-2 file is not an order-3 artifact.
  std::string pair_text = triplet_text;
  pair_text.replace(pair_text.find("order 3"), 7, "order 2");
  expect_error_contains(error_of([&] { parse(pair_text); }),
                        "order mismatch");

  // A supported-but-different order is a mismatch, not "unsupported".
  std::string order4 = triplet_text;
  order4.replace(order4.find("order 3"), 7, "order 4");
  expect_error_contains(error_of([&] {
                          std::istringstream is(order4);
                          read_shard_result_as<Scored2>(is);
                        }),
                        "order mismatch");

  // Orders beyond kMaxOrder are refused outright.
  std::string weird = triplet_text;
  weird.replace(weird.find("order 3"), 7, "order 7");
  expect_error_contains(error_of([&] {
                          std::istringstream is(weird);
                          read_shard_result_as<Scored2>(is);
                        }),
                        "unsupported order");
}

TEST_F(ShardResultIo, ProbeShardOrderDispatches) {
  const std::string triplet_path = temp_path("probe3.shard");
  write_shard_result_file(triplet_path, real_result());
  EXPECT_EQ(probe_shard_order(triplet_path), 3u);

  // A legacy v1 file probes as order 3.
  const std::string v1_path = temp_path("probe_v1.shard");
  {
    std::ofstream os(v1_path);
    os << as_v1(serialized(real_result()));
  }
  EXPECT_EQ(probe_shard_order(v1_path), 3u);

  expect_error_contains(
      error_of([&] { probe_shard_order(temp_path("probe_none.shard")); }),
      "cannot open");
  const std::string junk_path = temp_path("probe_junk.shard");
  {
    std::ofstream os(junk_path);
    os << "not-a-shard-file\n";
  }
  expect_error_contains(error_of([&] { probe_shard_order(junk_path); }),
                        "bad magic");
}

// --------------------------------------------------------------------------
// Order 2: pair shard results, runner, files and merge
// --------------------------------------------------------------------------

class PairShard : public ::testing::Test {
 protected:
  void SetUp() override {
    d_ = random_dataset({24, 150, 53});
    det_ = std::make_unique<core::BasicDetector<2>>(d_);
    fp_ = dataset_fingerprint(d_);
    total_ = combinatorics::n_choose_k(24, 2);
  }

  BasicShardResult<Scored2> scan_pair_range(RankRange range, std::size_t top_k,
                                  core::BasicDetectorOptions<2> dopt = {}) {
    BasicShardRunOptions<core::BasicDetectorOptions<2>> opt;
    opt.detector = dopt;
    opt.detector.top_k = top_k;
    opt.range = range;
    const auto rep = run_shard_of<2>(*det_, fp_, opt);
    EXPECT_TRUE(rep.completed);
    return rep.result;
  }

  dataset::GenotypeMatrix d_;
  std::unique_ptr<core::BasicDetector<2>> det_;
  std::uint64_t fp_ = 0;
  std::uint64_t total_ = 0;
};

TEST_F(PairShard, PlanShardsTilesThePairSpace) {
  const auto shards =
      plan_shards(24, 5, SplitStrategy::kEvenRanks, 0, /*order=*/2);
  ASSERT_EQ(shards.size(), 5u);
  std::uint64_t expect = 0;
  for (const RankRange& s : shards) {
    EXPECT_EQ(s.first, expect);
    EXPECT_FALSE(s.empty());
    expect = s.last;
  }
  EXPECT_EQ(expect, total_);
  EXPECT_THROW(plan_shards(24, 5, SplitStrategy::kEvenRanks, 0, 7),
               std::invalid_argument);
}

TEST_F(PairShard, ResultFileRoundTripIsExact) {
  const BasicShardResult<Scored2> r = scan_pair_range({30, 200}, 7);
  ASSERT_EQ(r.entries.size(), 7u);
  std::stringstream ss;
  write_shard_result(ss, r);
  EXPECT_NE(ss.str().find("TRIGEN-SHARD v2\norder 2\n"), std::string::npos);
  std::istringstream is(ss.str());
  const auto back = read_shard_result_as<Scored2>(is);
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  EXPECT_EQ(back.range.first, r.range.first);
  EXPECT_EQ(back.range.last, r.range.last);
  expect_same_entries(back.entries, r.entries);

  const std::string path = temp_path("pair_roundtrip.shard");
  write_shard_result_file(path, r);
  EXPECT_EQ(probe_shard_order(path), 2u);
  expect_same_entries(read_shard_result_file_as<Scored2>(path).entries,
                           r.entries);
}

TEST_F(PairShard, EveryTruncationIsRejected) {
  std::stringstream ss;
  write_shard_result(ss, scan_pair_range({0, 120}, 5));
  const std::string text = ss.str();
  for (std::size_t cut = 0; cut + 1 < text.size(); cut += 7) {
    std::istringstream is(text.substr(0, cut));
    EXPECT_THROW(read_shard_result_as<Scored2>(is), std::runtime_error)
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST_F(PairShard, RandomFullCoverageSplitsReproduceTheFullPairScanExactly) {
  std::mt19937_64 rng(777);
  core::BasicDetectorOptions<2> base;
  base.top_k = 11;
  const auto full = det_->run(base);

  for (int round = 0; round < 4; ++round) {
    std::vector<std::uint64_t> cuts = {0, total_};
    std::uniform_int_distribution<std::uint64_t> dist(1, total_ - 1);
    while (cuts.size() < static_cast<std::size_t>(round) + 4) {
      cuts.push_back(dist(rng));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<BasicShardResult<Scored2>> shards;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      // Rotate engine versions across shards, like the triplet battery.
      core::BasicDetectorOptions<2> dopt;
      dopt.version = static_cast<core::CpuVersion>(i % 4);
      if (dopt.version == core::CpuVersion::kV3Blocked ||
          dopt.version == core::CpuVersion::kV4Vector) {
        dopt.tiling = {3, 16};
      }
      shards.push_back(scan_pair_range({cuts[i], cuts[i + 1]}, 11, dopt));
    }
    std::shuffle(shards.begin(), shards.end(), rng);
    const MergedScanOf<2> m = merge_shards_of<2>(shards);
    expect_same_entries(m.result.best, full.best);
    EXPECT_EQ(m.result.combinations_evaluated, total_);
    EXPECT_EQ(m.result.elements, total_ * d_.num_samples());
  }
}

TEST_F(PairShard, MergeRejectsGapsOverlapsAndMismatches) {
  const BasicShardResult<Scored2> lo = scan_pair_range({0, 60}, 4);
  const BasicShardResult<Scored2> mid = scan_pair_range({60, 180}, 4);
  const BasicShardResult<Scored2> hi = scan_pair_range({180, total_}, 4);
  EXPECT_NO_THROW(merge_shards_of<2>({hi, lo, mid}));
  expect_error_contains(error_of([&] { merge_shards_of<2>({lo, hi}); }),
                        "coverage gap");
  BasicShardResult<Scored2> foreign = mid;
  foreign.fingerprint ^= 1;
  expect_error_contains(
      error_of([&] { merge_shards_of<2>({lo, foreign, hi}); }),
      "fingerprint mismatch");

  // Contiguous partial merges compose, as for triplets.
  const MergedScanOf<2> left =
      merge_shards_of<2>({lo, mid}, MergeCoverage::kContiguous);
  EXPECT_EQ(left.range.first, 0u);
  EXPECT_EQ(left.range.last, 180u);
  const MergedScanOf<2> all =
      merge_shards_of<2>({to_shard_result(left), hi});
  core::BasicDetectorOptions<2> base;
  base.top_k = 4;
  expect_same_entries(all.result.best, det_->run(base).best);
}

TEST_F(PairShard, KillAndResumeIsIdenticalToUninterrupted) {
  const RankRange range{10, 250};
  const BasicShardResult<Scored2> uninterrupted = scan_pair_range(range, 8);

  const std::string ckpt = temp_path("pair_kill.ckpt");
  BasicShardRunOptions<core::BasicDetectorOptions<2>> killed;
  killed.detector.top_k = 8;
  killed.range = range;
  killed.checkpoint_every = 32;
  killed.checkpoint_path = ckpt;
  killed.keep_going = [](std::uint64_t done, std::uint64_t) {
    return done < 64;
  };
  const auto first = run_shard_of<2>(*det_, fp_, killed);
  EXPECT_FALSE(first.completed);
  EXPECT_GT(first.checkpoints_written, 0u);

  // The on-disk checkpoint is an order-2 v2 artifact...
  const auto c = read_checkpoint_file_as<Scored2>(ckpt);
  EXPECT_EQ(c.watermark, 74u);  // 64 done rounds up to the next 32-chunk
  // ...that the order-3 reader refuses.
  expect_error_contains(
      error_of([&] { read_checkpoint_file_as<Scored3>(ckpt); }),
      "order mismatch");

  BasicShardRunOptions<core::BasicDetectorOptions<2>> resume = killed;
  resume.keep_going = {};
  const auto second = run_shard_of<2>(*det_, fp_, resume);
  EXPECT_TRUE(second.completed);
  EXPECT_TRUE(second.resumed);
  EXPECT_GT(second.resumed_from, range.first);
  expect_same_entries(second.result.entries, uninterrupted.entries);
}

TEST_F(PairShard, StalePairCheckpointsAreRejected) {
  const RankRange range{0, 200};
  const std::string ckpt = temp_path("pair_stale.ckpt");
  BasicShardRunOptions<core::BasicDetectorOptions<2>> opt;
  opt.detector.top_k = 5;
  opt.range = range;
  opt.checkpoint_every = 32;
  opt.checkpoint_path = ckpt;
  opt.keep_going = [](std::uint64_t done, std::uint64_t) {
    return done < 64;
  };
  ASSERT_FALSE(run_shard_of<2>(*det_, fp_, opt).completed);

  opt.keep_going = {};
  expect_error_contains(error_of([&] {
                          auto o = opt;
                          run_shard_of<2>(*det_, fp_ ^ 9, o);
                        }),
                        "different dataset");
  expect_error_contains(error_of([&] {
                          auto o = opt;
                          o.detector.top_k = 2;
                          run_shard_of<2>(*det_, fp_, o);
                        }),
                        "top_k");
}

// --------------------------------------------------------------------------
// Order 4: the generic-engine order through the same shard machinery
// --------------------------------------------------------------------------

using Scored4 = core::ScoredOf<4>;
using Shard4Result = BasicShardResult<Scored4>;
using Detector4Options = core::BasicDetectorOptions<4>;
using Shard4RunOptions = BasicShardRunOptions<Detector4Options>;

class Order4Shard : public ::testing::Test {
 protected:
  void SetUp() override {
    d_ = random_dataset({15, 150, 53});
    det_ = std::make_unique<core::BasicDetector<4>>(d_);
    fp_ = dataset_fingerprint(d_);
    total_ = combinatorics::n_choose_k(15, 4);
  }

  Shard4Result scan4_range(RankRange range, std::size_t top_k,
                           Detector4Options dopt = {}) {
    Shard4RunOptions opt;
    opt.detector = dopt;
    opt.detector.top_k = top_k;
    opt.range = range;
    const auto rep = run_shard_of<4>(*det_, fp_, opt);
    EXPECT_TRUE(rep.completed);
    return rep.result;
  }

  dataset::GenotypeMatrix d_;
  std::unique_ptr<core::BasicDetector<4>> det_;
  std::uint64_t fp_ = 0;
  std::uint64_t total_ = 0;
};

TEST_F(Order4Shard, PlanShardsTilesTheOrder4Space) {
  const auto shards =
      plan_shards(15, 6, SplitStrategy::kEvenRanks, 0, /*order=*/4);
  ASSERT_EQ(shards.size(), 6u);
  std::uint64_t expect = 0;
  for (const RankRange& s : shards) {
    EXPECT_EQ(s.first, expect);
    EXPECT_FALSE(s.empty());
    expect = s.last;
  }
  EXPECT_EQ(expect, total_);
}

TEST_F(Order4Shard, ResultFileRoundTripIsExact) {
  const Shard4Result r = scan4_range({30, 400}, 7);
  ASSERT_EQ(r.entries.size(), 7u);
  std::stringstream ss;
  write_shard_result(ss, r);
  EXPECT_NE(ss.str().find("TRIGEN-SHARD v2\norder 4\n"), std::string::npos);
  std::istringstream is(ss.str());
  const Shard4Result back = read_shard_result_as<Scored4>(is);
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  EXPECT_EQ(back.range.first, r.range.first);
  EXPECT_EQ(back.range.last, r.range.last);
  expect_same_entries(back.entries, r.entries);

  const std::string path = temp_path("order4_roundtrip.shard");
  write_shard_result_file(path, r);
  EXPECT_EQ(probe_shard_order(path), 4u);
  expect_same_entries(
      read_shard_result_file_as<Scored4>(path).entries, r.entries);
  // The order-2 and order-3 readers both refuse the order-4 artifact.
  expect_error_contains(
      error_of([&] { read_shard_result_file_as<Scored2>(path); }),
      "order mismatch");
  expect_error_contains(
      error_of([&] { read_shard_result_file_as<Scored3>(path); }),
      "order mismatch");
}

TEST_F(Order4Shard, RandomFullCoverageSplitsReproduceTheFullScanExactly) {
  std::mt19937_64 rng(4711);
  Detector4Options base;
  base.top_k = 11;
  const auto full = det_->run(base);

  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint64_t> cuts = {0, total_};
    std::uniform_int_distribution<std::uint64_t> dist(1, total_ - 1);
    while (cuts.size() < static_cast<std::size_t>(round) + 4) {
      cuts.push_back(dist(rng));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<Shard4Result> shards;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      // Rotate all five engine rungs across shards.
      Detector4Options dopt;
      dopt.version = static_cast<core::CpuVersion>(i % 5);
      if (dopt.version != core::CpuVersion::kV1Naive &&
          dopt.version != core::CpuVersion::kV2Split) {
        dopt.tiling = {3, 16};
      }
      shards.push_back(scan4_range({cuts[i], cuts[i + 1]}, 11, dopt));
    }
    std::shuffle(shards.begin(), shards.end(), rng);
    const MergedScanOf<4> m = merge_shards_of<4>(shards);
    expect_same_entries(m.result.best, full.best);
    EXPECT_EQ(m.result.combinations_evaluated, total_);
    EXPECT_EQ(m.result.elements, total_ * d_.num_samples());
  }
}

TEST_F(Order4Shard, MergedResultsComposeAndRejectMixedOrders) {
  const Shard4Result lo = scan4_range({0, 300}, 5);
  const Shard4Result hi = scan4_range({300, total_}, 5);
  const auto left = merge_shards_of<4>({lo}, MergeCoverage::kContiguous);
  const auto all = merge_shards_of<4>({to_shard_result(left), hi});
  Detector4Options base;
  base.top_k = 5;
  expect_same_entries(all.result.best, det_->run(base).best);

  // An order-4 file fed to the order-3 CLI path fails in the reader; the
  // typed merge itself rejects foreign fingerprints like any other order.
  Shard4Result foreign = hi;
  foreign.fingerprint ^= 1;
  expect_error_contains(
      error_of([&] { merge_shards_of<4>({lo, foreign}); }),
      "fingerprint mismatch");
}

TEST_F(Order4Shard, KillAndResumeIsIdenticalToUninterrupted) {
  const RankRange range{10, 800};
  const Shard4Result uninterrupted = scan4_range(range, 8);

  const std::string ckpt = temp_path("order4_kill.ckpt");
  Shard4RunOptions killed;
  killed.detector.top_k = 8;
  killed.range = range;
  killed.checkpoint_every = 64;
  killed.checkpoint_path = ckpt;
  killed.keep_going = [](std::uint64_t done, std::uint64_t) {
    return done < 128;
  };
  const auto first = run_shard_of<4>(*det_, fp_, killed);
  EXPECT_FALSE(first.completed);
  EXPECT_GT(first.checkpoints_written, 0u);

  // The on-disk checkpoint is an order-4 v2 artifact...
  const auto c = read_checkpoint_file_as<Scored4>(ckpt);
  EXPECT_GE(c.watermark, 128u + range.first);
  // ...that the order-3 reader refuses.
  expect_error_contains(
      error_of([&] { read_checkpoint_file_as<Scored3>(ckpt); }),
      "order mismatch");

  Shard4RunOptions resume = killed;
  resume.keep_going = {};
  const auto second = run_shard_of<4>(*det_, fp_, resume);
  EXPECT_TRUE(second.completed);
  EXPECT_TRUE(second.resumed);
  EXPECT_GT(second.resumed_from, range.first);
  expect_same_entries(second.result.entries, uninterrupted.entries);
}

TEST_F(Order4Shard, StaleCheckpointsAreRejected) {
  const RankRange range{0, 600};
  const std::string ckpt = temp_path("order4_stale.ckpt");
  Shard4RunOptions opt;
  opt.detector.top_k = 5;
  opt.range = range;
  opt.checkpoint_every = 64;
  opt.checkpoint_path = ckpt;
  opt.keep_going = [](std::uint64_t done, std::uint64_t) {
    return done < 128;
  };
  ASSERT_FALSE(run_shard_of<4>(*det_, fp_, opt).completed);

  opt.keep_going = {};
  expect_error_contains(error_of([&] {
                          auto o = opt;
                          run_shard_of<4>(*det_, fp_ ^ 9, o);
                        }),
                        "different dataset");
  expect_error_contains(error_of([&] {
                          auto o = opt;
                          o.detector.top_k = 2;
                          run_shard_of<4>(*det_, fp_, o);
                        }),
                        "top_k");
}

// --------------------------------------------------------------------------
// Checkpoint format
// --------------------------------------------------------------------------

TEST(CheckpointIo, RoundTripIsExact) {
  const auto d = random_dataset({10, 80, 31});
  const core::Detector det(d);
  const std::uint64_t fp = dataset_fingerprint(d);

  // Produce a genuine checkpoint by interrupting a run.
  BasicShardRunOptions<core::DetectorOptions> opt;
  opt.detector.top_k = 5;
  opt.range = {10, 110};
  opt.checkpoint_every = 20;
  opt.checkpoint_path = temp_path("roundtrip.ckpt");
  opt.keep_going = [](std::uint64_t done, std::uint64_t) {
    return done < 40;
  };
  const auto rep = run_shard_of<3>(det, fp, opt);
  ASSERT_FALSE(rep.completed);

  const auto c = read_checkpoint_file_as<Scored3>(opt.checkpoint_path);
  EXPECT_EQ(c.fingerprint, fp);
  EXPECT_EQ(c.range.first, 10u);
  EXPECT_EQ(c.range.last, 110u);
  EXPECT_EQ(c.watermark, 50u);  // 40 done rounds up to the next 20-chunk
  EXPECT_EQ(c.entries.size(), 5u);

  std::stringstream ss;
  write_checkpoint(ss, c);
  const auto back = read_checkpoint_as<Scored3>(ss);
  EXPECT_EQ(back.watermark, c.watermark);
  expect_same_entries(back.entries, c.entries);
}

TEST(CheckpointIo, RejectsWatermarkOutsideRange) {
  BasicCheckpoint<Scored3> c;
  c.fingerprint = 1;
  c.num_snps = 10;
  c.num_samples = 50;
  c.objective = "k2";
  c.top_k = 3;
  c.range = {10, 110};
  c.watermark = 111;
  std::stringstream ss;
  write_checkpoint(ss, c);
  expect_error_contains(error_of([&] { read_checkpoint_as<Scored3>(ss); }),
                        "watermark");
}

TEST(CheckpointIo, ClipToPrefixSplitsAlongTheWatermark) {
  const auto d = random_dataset({10, 80, 32});
  const core::Detector det(d);
  const std::uint64_t fp = dataset_fingerprint(d);

  BasicShardRunOptions<core::DetectorOptions> opt;
  opt.detector.top_k = 5;
  opt.range = {10, 110};
  opt.checkpoint_every = 20;
  opt.checkpoint_path = temp_path("clip.ckpt");
  opt.keep_going = [](std::uint64_t done, std::uint64_t) {
    return done < 40;
  };
  ASSERT_FALSE(run_shard_of<3>(det, fp, opt).completed);
  const auto c = read_checkpoint_file_as<Scored3>(opt.checkpoint_path);

  // The prefix is a self-contained shard result over [first, watermark) —
  // header copied, entries shared — and the remainder picks up exactly at
  // the watermark.
  const BasicShardResult<Scored3> prefix = clip_to_prefix(c);
  EXPECT_EQ(prefix.fingerprint, c.fingerprint);
  EXPECT_EQ(prefix.objective, c.objective);
  EXPECT_EQ(prefix.top_k, c.top_k);
  EXPECT_EQ(prefix.range.first, 10u);
  EXPECT_EQ(prefix.range.last, c.watermark);
  expect_same_entries(prefix.entries, c.entries);
  EXPECT_EQ(remaining_range(c).first, c.watermark);
  EXPECT_EQ(remaining_range(c).last, 110u);
  // The clipped prefix is exactly what a direct scan of it produces, so it
  // is accepted anywhere a shard result is.
  expect_same_entries(prefix.entries,
                      scan_range(det, fp, prefix.range, 5).entries);

  // An untouched checkpoint has no prefix to clip.
  BasicCheckpoint<Scored3> empty = c;
  empty.watermark = empty.range.first;
  expect_error_contains(error_of([&] { clip_to_prefix(empty); }),
                        "no completed prefix");
  // A fully scanned checkpoint leaves an empty remainder.
  BasicCheckpoint<Scored3> full = c;
  full.watermark = full.range.last;
  EXPECT_TRUE(remaining_range(full).empty());
}

TEST(ShardIo, DurableWriteFailuresCarryPathAndErrno) {
  const std::string path =
      temp_path("no_such_dir") + "/sub/artifact.state";
  try {
    write_file_durably(path, "test-artifact", "body\n");
    FAIL() << "expected DurableWriteError";
  } catch (const DurableWriteError& e) {
    // A missing parent directory is a permanent failure: retrying the
    // write cannot succeed, so callers must not classify it transient.
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.error_number(), ENOENT);
    EXPECT_NE(e.path().find("no_such_dir"), std::string::npos);
    expect_error_contains(e.what(), "test-artifact");
  }
}

// --------------------------------------------------------------------------
// Merge: exact-reproduction property + rejection battery
// --------------------------------------------------------------------------

class ShardMerge : public ::testing::Test {
 protected:
  void SetUp() override {
    d_ = random_dataset({16, 200, 7});
    det_ = std::make_unique<core::Detector>(d_);
    fp_ = dataset_fingerprint(d_);
    total_ = n_choose_k(16, 3);
  }

  /// Random full-coverage split with `w` shards (distinct sorted cuts).
  std::vector<RankRange> random_split(std::mt19937_64& rng, unsigned w) {
    std::vector<std::uint64_t> cuts = {0, total_};
    std::uniform_int_distribution<std::uint64_t> dist(1, total_ - 1);
    while (cuts.size() < w + 1u) cuts.push_back(dist(rng));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<RankRange> shards;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      shards.push_back({cuts[i], cuts[i + 1]});
    }
    return shards;
  }

  dataset::GenotypeMatrix d_;
  std::unique_ptr<core::Detector> det_;
  std::uint64_t fp_ = 0;
  std::uint64_t total_ = 0;
};

TEST_F(ShardMerge, RandomFullCoverageSplitsReproduceTheFullScanExactly) {
  std::mt19937_64 rng(1234);
  for (const std::size_t top_k : {1u, 9u, 25u}) {
    core::DetectorOptions base;
    base.top_k = top_k;
    const core::DetectionResult full = det_->run(base);

    for (int round = 0; round < 6; ++round) {
      auto split = random_split(rng, 2 + round);
      std::vector<BasicShardResult<Scored3>> shards;
      for (std::size_t i = 0; i < split.size(); ++i) {
        // Shards may be scanned by different engine versions (and an
        // unaligned tiling): the artifacts must still merge exactly.
        core::DetectorOptions dopt;
        dopt.version = static_cast<core::CpuVersion>(i % 4);
        if (dopt.version == core::CpuVersion::kV3Blocked ||
            dopt.version == core::CpuVersion::kV4Vector) {
          dopt.tiling = {3, 16};
        }
        shards.push_back(scan_range(*det_, fp_, split[i], top_k, dopt));
      }
      std::shuffle(shards.begin(), shards.end(), rng);
      const MergedScanOf<3> m = merge_shards_of<3>(shards);
      expect_same_entries(m.result.best, full.best);
      EXPECT_EQ(m.result.combinations_evaluated, total_);
      EXPECT_EQ(m.result.elements, total_ * d_.num_samples());
      EXPECT_EQ(m.num_shards, shards.size());
    }
  }
}

TEST_F(ShardMerge, SingleTripletShardsMergeInAnyOrder) {
  const auto small = random_dataset({6, 64, 11});
  const core::Detector det(small);
  const std::uint64_t fp = dataset_fingerprint(small);
  const std::uint64_t total = n_choose_k(6, 3);

  core::DetectorOptions base;
  base.top_k = 5;
  const auto full = det.run(base);

  std::vector<BasicShardResult<Scored3>> shards;
  for (std::uint64_t r = 0; r < total; ++r) {
    shards.push_back(scan_range(det, fp, {r, r + 1}, 5));
    EXPECT_EQ(shards.back().entries.size(), 1u);
  }
  std::mt19937_64 rng(99);
  std::shuffle(shards.begin(), shards.end(), rng);
  expect_same_entries(merge_shards_of<3>(shards).result.best, full.best);
}

TEST_F(ShardMerge, BlockAlignedPlanMergesExactly) {
  core::DetectorOptions base;
  base.top_k = 12;
  base.tiling = {3, 16};  // matches the planned block size
  const auto full = det_->run(base);

  const auto plan = plan_shards(16, 4, SplitStrategy::kBlockAligned, 3);
  std::vector<BasicShardResult<Scored3>> shards;
  for (const RankRange& r : plan) {
    shards.push_back(scan_range(*det_, fp_, r, 12, base));
  }
  expect_same_entries(merge_shards_of<3>(shards).result.best, full.best);
}

TEST_F(ShardMerge, ContiguousPartialMergesComposeIntoTheFullScan) {
  core::DetectorOptions base;
  base.top_k = 9;
  const auto full = det_->run(base);

  // Two-level tree: 6 leaf shards -> 2 intermediate merges -> final merge.
  const auto plan = plan_shards(16, 6);
  std::vector<BasicShardResult<Scored3>> left, right;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    (i < 3 ? left : right).push_back(scan_range(*det_, fp_, plan[i], 9));
  }
  const MergedScanOf<3> rack0 =
      merge_shards_of<3>(left, MergeCoverage::kContiguous);
  const MergedScanOf<3> rack1 =
      merge_shards_of<3>(right, MergeCoverage::kContiguous);
  EXPECT_EQ(rack0.range.first, 0u);
  EXPECT_EQ(rack0.range.last, rack1.range.first);
  EXPECT_EQ(rack1.range.last, total_);

  // Intermediate artifacts round-trip through the file format...
  const std::string f0 = temp_path("rack0.shard"), f1 = temp_path("rack1.shard");
  write_shard_result_file(f0, to_shard_result(rack0));
  write_shard_result_file(f1, to_shard_result(rack1));
  const MergedScanOf<3> m =
      merge_shards_of<3>({read_shard_result_file_as<Scored3>(f0),
                          read_shard_result_file_as<Scored3>(f1)});
  expect_same_entries(m.result.best, full.best);
  EXPECT_EQ(m.result.combinations_evaluated, total_);

  // ...and partial coverage is only legal when asked for; interior gaps
  // never are.
  expect_error_contains(error_of([&] { merge_shards_of<3>(left); }),
                        "coverage gap");
  std::vector<BasicShardResult<Scored3>> gapped = {left[0], left[2]};
  expect_error_contains(
      error_of([&] { merge_shards_of<3>(gapped, MergeCoverage::kContiguous); }),
      "coverage gap");
}

TEST_F(ShardMerge, RejectsEmptyOverlapGapAndMismatches) {
  EXPECT_THROW(merge_shards_of<3>({}), std::invalid_argument);

  const auto lo = scan_range(*det_, fp_, {0, 100}, 4);
  const auto mid = scan_range(*det_, fp_, {100, 300}, 4);
  const auto hi = scan_range(*det_, fp_, {300, total_}, 4);
  EXPECT_NO_THROW(merge_shards_of<3>({hi, lo, mid}));

  // Overlap: [0,100) + [50,300) + [300,total).
  const auto overlap = scan_range(*det_, fp_, {50, 300}, 4);
  expect_error_contains(
      error_of([&] { merge_shards_of<3>({lo, overlap, hi}); }), "overlap");

  // Gaps: missing middle, missing head, missing tail.
  expect_error_contains(error_of([&] { merge_shards_of<3>({lo, hi}); }),
                        "coverage gap: ranks [100, 300)");
  expect_error_contains(error_of([&] { merge_shards_of<3>({mid, hi}); }),
                        "coverage gap: ranks [0, 100)");
  expect_error_contains(
      error_of([&] { merge_shards_of<3>({lo, mid}); }),
      "coverage gap: ranks [300, " + std::to_string(total_) + ")");

  // Fingerprint mismatch: same shard scanned against "another" dataset.
  BasicShardResult<Scored3> foreign = mid;
  foreign.fingerprint ^= 1;
  expect_error_contains(
      error_of([&] { merge_shards_of<3>({lo, foreign, hi}); }),
      "fingerprint mismatch");

  BasicShardResult<Scored3> other_objective = mid;
  other_objective.objective = "chi-squared";
  expect_error_contains(
      error_of([&] { merge_shards_of<3>({lo, other_objective, hi}); }),
      "objective mismatch");

  const auto skinny = scan_range(*det_, fp_, {100, 300}, 3);
  expect_error_contains(error_of([&] { merge_shards_of<3>({lo, skinny, hi}); }),
                        "top_k mismatch");
}

// --------------------------------------------------------------------------
// Tied scores across range boundaries
// --------------------------------------------------------------------------

/// M = 24 SNPs over 400 samples: SNPs 0..11 are copies of one
/// phenotype-linked column and the rest are independent noise, so every
/// order-K combination inside the first twelve SNPs has the same table and
/// score, and those combinations hold exactly the ranks [0, C(12, K)): one
/// tie run at the top of the ranking, ordered by rank alone.
dataset::GenotypeMatrix tied_dataset() {
  constexpr std::size_t kSnps = 24;
  constexpr std::size_t kSamples = 400;
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int> geno(0, 2);
  std::bernoulli_distribution flip(0.1);
  dataset::GenotypeMatrix d(kSnps, kSamples);
  for (std::size_t j = 0; j < kSamples; ++j) {
    const auto linked = static_cast<dataset::Genotype>(geno(rng));
    const bool risk = linked == 2;
    d.set_phenotype(j, static_cast<dataset::Phenotype>(risk != flip(rng)));
    for (std::size_t m = 0; m < kSnps; ++m) {
      d.set(m, j, m < 12 ? linked : static_cast<dataset::Genotype>(geno(rng)));
    }
  }
  return d;
}

/// Cuts the rank space inside the tie run (twice inside the top-k itself)
/// and checks that both the TopK merge of the ranged runs and the shard
/// merge reproduce the full scan's CSV and score bits, for every version.
template <unsigned K>
void expect_tie_run_splits_merge_exactly() {
  const auto d = tied_dataset();
  const core::BasicDetector<K> det(d);
  const std::uint64_t fp = dataset_fingerprint(d);
  const std::uint64_t run = combinatorics::n_choose_k(12, K);
  const std::uint64_t total = combinatorics::n_choose_k(d.num_snps(), K);
  constexpr std::size_t kTop = 10;
  const std::vector<std::uint64_t> cuts = {0,       3,         7, run / 2,
                                           run - 1, total / 2, total};
  for (unsigned v = 1; v <= 5; ++v) {
    core::BasicDetectorOptions<K> opt;
    opt.version = *core::cpu_version_from_number(v);
    opt.top_k = kTop;
    const auto full = det.run(opt).best;
    ASSERT_EQ(full.size(), kTop);
    // The whole top-k sits inside the tie run: only the rank tie-break
    // orders it.
    for (std::size_t i = 0; i < kTop; ++i) {
      ASSERT_TRUE(same_bits(full[i].score, full[0].score)) << "entry " << i;
      ASSERT_EQ(combinatorics::rank_combination<K>(core::snps_of<K>(full[i])),
                i);
    }
    const auto want = core::scan_csv_lines<K>(full);

    core::BasicTopK<core::ScoredOf<K>> acc(kTop);
    std::vector<BasicShardResult<core::ScoredOf<K>>> shards;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      core::BasicDetectorOptions<K> part = opt;
      part.range = {cuts[i], cuts[i + 1]};
      for (const auto& sp : det.run(part).best) acc.push(sp);
      BasicShardRunOptions<core::BasicDetectorOptions<K>> so;
      so.detector = opt;
      so.range = part.range;
      const auto rep = run_shard_of<K>(det, fp, so);
      ASSERT_TRUE(rep.completed);
      shards.push_back(rep.result);
    }
    std::reverse(shards.begin(), shards.end());
    const auto merged = merge_shards_of<K>(shards).result.best;
    const auto ranged = acc.sorted();
    EXPECT_EQ(core::scan_csv_lines<K>(ranged), want) << "top-k merge, V" << v;
    EXPECT_EQ(core::scan_csv_lines<K>(merged), want) << "shard merge, V" << v;
    for (std::size_t i = 0; i < kTop; ++i) {
      EXPECT_TRUE(same_bits(ranged[i].score, full[i].score)) << i;
      EXPECT_TRUE(same_bits(merged[i].score, full[i].score)) << i;
    }
  }
}

TEST(ShardTies, PairTieRunCutInsideTheTopKMergesToTheFullScan) {
  expect_tie_run_splits_merge_exactly<2>();
}

TEST(ShardTies, TripletTieRunCutInsideTheTopKMergesToTheFullScan) {
  expect_tie_run_splits_merge_exactly<3>();
}

// --------------------------------------------------------------------------
// Runner: kill / resume battery
// --------------------------------------------------------------------------

class ShardRunner : public ::testing::Test {
 protected:
  void SetUp() override {
    d_ = trigen::test::planted_dataset(16, 128, 5);
    det_ = std::make_unique<core::Detector>(d_);
    fp_ = dataset_fingerprint(d_);
    total_ = n_choose_k(16, 3);
  }

  BasicShardRunOptions<core::DetectorOptions> base_options(
      RankRange range, const std::string& ckpt) {
    BasicShardRunOptions<core::DetectorOptions> opt;
    opt.detector.top_k = 9;
    opt.detector.chunk_size = 11;  // tiny: exercise many scheduler chunks
    opt.range = range;
    opt.checkpoint_every = 16;
    opt.checkpoint_path = ckpt;
    return opt;
  }

  dataset::GenotypeMatrix d_;
  std::unique_ptr<core::Detector> det_;
  std::uint64_t fp_ = 0;
  std::uint64_t total_ = 0;
};

TEST_F(ShardRunner, FullRangeMatchesDetectorRun) {
  core::DetectorOptions plain;
  plain.top_k = 9;
  const auto direct = det_->run(plain);
  const BasicShardResult<Scored3> via_runner =
      scan_range(*det_, fp_, {0, total_}, 9);
  expect_same_entries(via_runner.entries, direct.best);
  EXPECT_EQ(via_runner.range.size(), direct.combinations_evaluated);
}

TEST_F(ShardRunner, ValidatesItsInputs) {
  BasicShardRunOptions<core::DetectorOptions> opt;
  opt.detector.top_k = 1;
  opt.range = {50, 50};
  EXPECT_THROW(run_shard_of<3>(*det_, fp_, opt), std::invalid_argument);
  opt.range = {0, total_ + 1};
  EXPECT_THROW(run_shard_of<3>(*det_, fp_, opt), std::invalid_argument);
  opt.range = {0, total_};
  opt.detector.top_k = 0;
  EXPECT_THROW(run_shard_of<3>(*det_, fp_, opt), std::invalid_argument);
}

TEST_F(ShardRunner, KillAndResumeIsIdenticalToUninterrupted) {
  const RankRange range{37, 437};
  const auto uninterrupted = scan_range(*det_, fp_, range, 9);

  // Kill at several different points, always via the progress/keep_going
  // hook, then resume from the persisted checkpoint.
  for (const std::uint64_t stop_at : {16u, 100u, 384u}) {
    const std::string ckpt =
        temp_path("kill_" + std::to_string(stop_at) + ".ckpt");

    auto killed = base_options(range, ckpt);
    killed.keep_going = [stop_at](std::uint64_t done, std::uint64_t total) {
      EXPECT_LE(done, total);
      return done < stop_at;
    };
    const auto first = run_shard_of<3>(*det_, fp_, killed);
    EXPECT_FALSE(first.completed) << stop_at;
    EXPECT_GT(first.checkpoints_written, 0u) << stop_at;

    auto resume = base_options(range, ckpt);
    const auto second = run_shard_of<3>(*det_, fp_, resume);
    EXPECT_TRUE(second.completed) << stop_at;
    EXPECT_TRUE(second.resumed) << stop_at;
    EXPECT_GT(second.resumed_from, range.first) << stop_at;
    EXPECT_LT(second.resumed_from, range.last) << stop_at;
    expect_same_entries(second.result.entries, uninterrupted.entries);
    EXPECT_TRUE(second.result.range.first == range.first &&
                second.result.range.last == range.last);
  }
}

TEST_F(ShardRunner, TruncatedCheckpointIsDiscardedAndRecovered) {
  const RankRange range{0, 300};
  const auto uninterrupted = scan_range(*det_, fp_, range, 9);
  const std::string ckpt = temp_path("truncated.ckpt");

  auto killed = base_options(range, ckpt);
  killed.keep_going = [](std::uint64_t done, std::uint64_t) {
    return done < 64;
  };
  ASSERT_FALSE(run_shard_of<3>(*det_, fp_, killed).completed);

  // Simulate a torn write: chop the checkpoint file in half.
  std::string bytes;
  {
    std::ifstream is(ckpt, std::ios_base::binary);
    ASSERT_TRUE(is);
    std::stringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  {
    std::ofstream os(ckpt, std::ios_base::binary | std::ios_base::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() / 2));
  }

  std::vector<std::string> discarded;
  auto resume = base_options(range, ckpt);
  const auto rep = run_shard_of<3>(
      *det_, fp_, resume,
      [&](const std::string& why) { discarded.push_back(why); });
  EXPECT_TRUE(rep.completed);
  EXPECT_FALSE(rep.resumed);  // damaged checkpoint => full rescan
  EXPECT_EQ(rep.resumed_from, range.first);
  ASSERT_EQ(discarded.size(), 1u);
  expect_error_contains(discarded[0], "checkpoint");
  expect_same_entries(rep.result.entries, uninterrupted.entries);
}

TEST_F(ShardRunner, StaleCheckpointsAreRejectedNotMerged) {
  const RankRange range{0, 300};
  const std::string ckpt = temp_path("stale.ckpt");
  auto killed = base_options(range, ckpt);
  killed.keep_going = [](std::uint64_t done, std::uint64_t) {
    return done < 64;
  };
  ASSERT_FALSE(run_shard_of<3>(*det_, fp_, killed).completed);

  // Different dataset fingerprint.
  expect_error_contains(
      error_of([&] {
        run_shard_of<3>(*det_, fp_ ^ 7, base_options(range, ckpt));
      }),
      "different dataset");

  // Different shard range.
  expect_error_contains(
      error_of([&] {
        run_shard_of<3>(*det_, fp_, base_options({0, 400}, ckpt));
      }),
      "covers ranks");

  // Different top_k.
  expect_error_contains(error_of([&] {
                          auto o = base_options(range, ckpt);
                          o.detector.top_k = 3;
                          run_shard_of<3>(*det_, fp_, o);
                        }),
                        "top_k");

  // Different objective.
  expect_error_contains(error_of([&] {
                          auto o = base_options(range, ckpt);
                          o.detector.objective =
                              core::Objective::kMutualInformation;
                          run_shard_of<3>(*det_, fp_, o);
                        }),
                        "objective");
}

TEST_F(ShardRunner, RerunOfACompletedShardIsANoOpResume) {
  const RankRange range{100, 260};
  const std::string ckpt = temp_path("complete.ckpt");
  const auto first = run_shard_of<3>(*det_, fp_, base_options(range, ckpt));
  ASSERT_TRUE(first.completed);

  const auto again = run_shard_of<3>(*det_, fp_, base_options(range, ckpt));
  EXPECT_TRUE(again.completed);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.resumed_from, range.last);
  EXPECT_EQ(again.checkpoints_written, 0u);  // nothing was rescanned
  expect_same_entries(again.result.entries, first.result.entries);
}

TEST_F(ShardRunner, ProgressSpansResumeMonotonically) {
  const RankRange range{0, 200};
  const std::string ckpt = temp_path("progress.ckpt");

  auto killed = base_options(range, ckpt);
  killed.keep_going = [](std::uint64_t done, std::uint64_t) {
    return done < 48;
  };
  ASSERT_FALSE(run_shard_of<3>(*det_, fp_, killed).completed);

  std::vector<std::uint64_t> dones;
  auto resume = base_options(range, ckpt);
  resume.progress = [&](std::uint64_t done, std::uint64_t total) {
    EXPECT_EQ(total, range.size());
    dones.push_back(done);
  };
  ASSERT_TRUE(run_shard_of<3>(*det_, fp_, resume).completed);
  ASSERT_FALSE(dones.empty());
  EXPECT_GT(dones.front(), 0u);  // resumed ranks count as already done
  EXPECT_TRUE(std::is_sorted(dones.begin(), dones.end()));
  EXPECT_EQ(dones.back(), range.size());
}

// --------------------------------------------------------------------------
// End to end: plan -> shard workers (one killed & resumed) -> files -> merge
// --------------------------------------------------------------------------

TEST_F(ShardRunner, KilledAndResumedShardedScanMergesToTheFullScan) {
  core::DetectorOptions plain;
  plain.top_k = 9;
  const auto full = det_->run(plain);

  const auto plan = plan_shards(16, 4);
  std::vector<std::string> files;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::string shard_file =
        temp_path("e2e_" + std::to_string(i) + ".shard");
    const std::string ckpt = temp_path("e2e_" + std::to_string(i) + ".ckpt");
    auto opt = base_options(plan[i], ckpt);
    if (i == 2) {
      // Worker 2 dies partway through...
      opt.keep_going = [](std::uint64_t done, std::uint64_t) {
        return done < 32;
      };
      ASSERT_FALSE(run_shard_of<3>(*det_, fp_, opt).completed);
      // ...and a replacement resumes from its checkpoint.
      opt.keep_going = {};
    }
    const auto rep = run_shard_of<3>(*det_, fp_, opt);
    ASSERT_TRUE(rep.completed) << i;
    if (i == 2) {
      EXPECT_TRUE(rep.resumed);
    }
    write_shard_result_file(shard_file, rep.result);
    files.push_back(shard_file);
  }

  std::vector<BasicShardResult<Scored3>> shards;
  for (const auto& f : files) {
    shards.push_back(read_shard_result_file_as<Scored3>(f));
  }
  std::reverse(shards.begin(), shards.end());  // merge order must not matter
  const MergedScanOf<3> m = merge_shards_of<3>(shards);
  expect_same_entries(m.result.best, full.best);
  EXPECT_EQ(m.result.combinations_evaluated, full.combinations_evaluated);
  EXPECT_EQ(m.result.elements, full.elements);
}

}  // namespace
}  // namespace trigen::shard
