#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <type_traits>
#include <vector>

#include "trigen/combinatorics/block_partition.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/combinatorics/scheduler.hpp"

namespace trigen::combinatorics {
namespace {

// --------------------------------------------------------------------------
// n_choose_k
// --------------------------------------------------------------------------

TEST(Choose, KnownValues) {
  EXPECT_EQ(n_choose_k(0, 0), 1u);
  EXPECT_EQ(n_choose_k(5, 0), 1u);
  EXPECT_EQ(n_choose_k(5, 5), 1u);
  EXPECT_EQ(n_choose_k(5, 2), 10u);
  EXPECT_EQ(n_choose_k(10, 3), 120u);
  EXPECT_EQ(n_choose_k(52, 5), 2598960u);
  EXPECT_EQ(n_choose_k(40000, 3), 10665866680000ull);  // paper's largest run
}

TEST(Choose, KGreaterThanNIsZero) {
  EXPECT_EQ(n_choose_k(3, 4), 0u);
  EXPECT_EQ(n_choose_k(0, 1), 0u);
}

TEST(Choose, SymmetryProperty) {
  for (std::uint64_t n = 1; n <= 30; ++n) {
    for (unsigned k = 0; k <= n; ++k) {
      ASSERT_EQ(n_choose_k(n, k), n_choose_k(n, static_cast<unsigned>(n - k)));
    }
  }
}

TEST(Choose, PascalIdentity) {
  for (std::uint64_t n = 2; n <= 40; ++n) {
    for (unsigned k = 1; k < n; ++k) {
      ASSERT_EQ(n_choose_k(n, k),
                n_choose_k(n - 1, k - 1) + n_choose_k(n - 1, k));
    }
  }
}

TEST(Choose, OverflowThrows) {
  // C(2^40, 3) ~ 2^117 overflows 64 bits.
  EXPECT_THROW(n_choose_k(std::uint64_t{1} << 40, 3), std::overflow_error);
}

TEST(Choose, ElementsMetric) {
  EXPECT_EQ(num_elements(10, 3, 100), 12000u);
  EXPECT_EQ(num_triplets(10), 120u);
}

// --------------------------------------------------------------------------
// Triplet rank/unrank
// --------------------------------------------------------------------------

TEST(TripletRank, FirstTriplets) {
  EXPECT_EQ(rank_triplet({0, 1, 2}), 0u);
  EXPECT_EQ(rank_triplet({0, 1, 3}), 1u);
  EXPECT_EQ(rank_triplet({0, 2, 3}), 2u);
  EXPECT_EQ(rank_triplet({1, 2, 3}), 3u);
  EXPECT_EQ(rank_triplet({0, 1, 4}), 4u);
}

TEST(TripletRank, RoundTripExhaustiveSmall) {
  // Every triplet over 40 SNPs.
  constexpr std::uint32_t kM = 40;
  std::uint64_t rank = 0;
  for (std::uint32_t z = 2; z < kM; ++z) {
    for (std::uint32_t y = 1; y < z; ++y) {
      for (std::uint32_t x = 0; x < y; ++x) {
        const Triplet t{x, y, z};
        ASSERT_EQ(rank_triplet(t), rank);
        const Triplet back = unrank_triplet(rank);
        ASSERT_EQ(back, t);
        ++rank;
      }
    }
  }
  EXPECT_EQ(rank, num_triplets(kM));
}

TEST(TripletRank, RoundTripLargeRandomRanks) {
  // Ranks up to C(100000, 3) ~ 1.7e14.
  const std::uint64_t total = num_triplets(100000);
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    const std::uint64_t rank = (total / 1001) * i;
    const Triplet t = unrank_triplet(rank);
    ASSERT_LT(t.x, t.y);
    ASSERT_LT(t.y, t.z);
    ASSERT_EQ(rank_triplet(t), rank);
  }
}

TEST(TripletRank, BoundaryRanks) {
  for (std::uint64_t m : {3ull, 4ull, 100ull, 8192ull}) {
    const std::uint64_t last = num_triplets(m) - 1;
    const Triplet t = unrank_triplet(last);
    EXPECT_EQ(t.z, m - 1) << m;
    EXPECT_EQ(t.y, m - 2) << m;
    EXPECT_EQ(t.x, m - 3) << m;
  }
}

TEST(TripletIteration, MatchesUnrankEverywhere) {
  const std::uint64_t total = num_triplets(25);
  std::uint64_t expected_rank = 0;
  for_each_triplet(0, total, [&](const Triplet& t) {
    ASSERT_EQ(t, unrank_triplet(expected_rank));
    ++expected_rank;
  });
  EXPECT_EQ(expected_rank, total);
}

TEST(TripletIteration, SubrangeMatches) {
  for (std::uint64_t first : {0ull, 1ull, 17ull, 119ull}) {
    std::uint64_t rank = first;
    for_each_triplet(first, first + 50, [&](const Triplet& t) {
      ASSERT_EQ(rank_triplet(t), rank);
      ++rank;
    });
    EXPECT_EQ(rank, first + 50);
  }
}

TEST(TripletIteration, EmptyRangeDoesNothing) {
  int calls = 0;
  for_each_triplet(10, 10, [&](const Triplet&) { ++calls; });
  for_each_triplet(10, 5, [&](const Triplet&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// --------------------------------------------------------------------------
// Pair rank / unrank / iteration (the order-2 instantiation)
// --------------------------------------------------------------------------

TEST(PairRank, FirstPairs) {
  EXPECT_EQ(rank_pair({0, 1}), 0u);
  EXPECT_EQ(rank_pair({0, 2}), 1u);
  EXPECT_EQ(rank_pair({1, 2}), 2u);
  EXPECT_EQ(rank_pair({0, 3}), 3u);
}

TEST(PairRank, RoundTripExhaustiveSmall) {
  std::uint64_t rank = 0;
  for (std::uint32_t y = 1; y < 80; ++y) {
    for (std::uint32_t x = 0; x < y; ++x) {
      const Pair p{x, y};
      ASSERT_EQ(rank_pair(p), rank);
      ASSERT_EQ(unrank_pair(rank), p);
      ++rank;
    }
  }
  EXPECT_EQ(rank, num_pairs(80));
}

TEST(PairRank, RoundTripLargeRandomRanks) {
  std::uint64_t r = 0x9e3779b97f4a7c15ull % n_choose_k(1u << 20, 2);
  for (int i = 0; i < 200; ++i) {
    const Pair p = unrank_pair(r);
    ASSERT_LT(p.x, p.y);
    ASSERT_EQ(rank_pair(p), r);
    r = (r * 6364136223846793005ull + 1442695040888963407ull) %
        n_choose_k(1u << 20, 2);
  }
}

TEST(PairIteration, MatchesUnrankEverywhere) {
  const std::uint64_t total = num_pairs(40);
  std::uint64_t expect = 0;
  for_each_pair(0, total, [&](const Pair& p) {
    ASSERT_EQ(p, unrank_pair(expect));
    ++expect;
  });
  EXPECT_EQ(expect, total);
}

TEST(PairIteration, SubrangeAndEmpty) {
  std::uint64_t expect = 137;
  for_each_pair(137, 512, [&](const Pair& p) {
    ASSERT_EQ(rank_pair(p), expect);
    ++expect;
  });
  EXPECT_EQ(expect, 512u);
  for_each_pair(9, 9, [&](const Pair&) { FAIL(); });
}

// --------------------------------------------------------------------------
// Block partition (triplet rank range -> block triples)
// --------------------------------------------------------------------------

/// Brute-force span of a block triple: min/max rank over every triplet it
/// contains.
RankRange brute_span(const BlockGrid& g, const BlockTriple& bt) {
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  bool any = false;
  for (std::uint32_t z = 2; z < g.m; ++z) {
    for (std::uint32_t y = 1; y < z; ++y) {
      for (std::uint32_t x = 0; x < y; ++x) {
        if (x / g.bs != bt.b0 || y / g.bs != bt.b1 || z / g.bs != bt.b2) {
          continue;
        }
        const std::uint64_t r = rank_triplet({x, y, z});
        lo = std::min(lo, r);
        hi = std::max(hi, r);
        any = true;
      }
    }
  }
  return any ? RankRange{lo, hi + 1} : RankRange{};
}

TEST(BlockPartition, SpanMatchesBruteForceExhaustively) {
  for (const std::uint64_t m : {3ull, 4ull, 6ull, 7ull, 10ull, 13ull}) {
    for (const std::uint64_t bs : {1ull, 2ull, 3ull, 5ull, 16ull}) {
      const BlockGrid g{m, bs};
      for (std::uint64_t r = 0; r < num_block_triples(g.num_blocks()); ++r) {
        const BlockTriple bt = unrank_block_triple(r);
        const RankRange expect = brute_span(g, bt);
        const RankRange got = block_triplet_span(g, bt);
        ASSERT_EQ(got.empty(), expect.empty())
            << "m=" << m << " bs=" << bs << " block " << r;
        if (!expect.empty()) {
          ASSERT_EQ(got.first, expect.first) << "m=" << m << " bs=" << bs;
          ASSERT_EQ(got.last, expect.last) << "m=" << m << " bs=" << bs;
        }
      }
    }
  }
}

TEST(BlockPartition, SpansAreMonotoneOverNonemptyBlocks) {
  // The fact partition_block_triples relies on: block rank order sorts
  // both span endpoints over nonempty block triples.
  for (const std::uint64_t bs : {1ull, 2ull, 3ull, 5ull}) {
    const BlockGrid g{17, bs};
    RankRange prev{};
    bool have_prev = false;
    for (std::uint64_t r = 0; r < num_block_triples(g.num_blocks()); ++r) {
      const RankRange s = block_triplet_span(g, unrank_block_triple(r));
      if (s.empty()) continue;
      if (have_prev) {
        ASSERT_GT(s.first, prev.first) << "bs=" << bs << " block " << r;
        ASSERT_GT(s.last, prev.last) << "bs=" << bs << " block " << r;
      }
      prev = s;
      have_prev = true;
    }
  }
}

TEST(BlockPartition, RunCoversEveryBlockIntersectingTheRange) {
  for (const std::uint64_t bs : {1ull, 2ull, 3ull, 5ull}) {
    const BlockGrid g{12, bs};
    const std::uint64_t total = num_triplets(g.m);
    for (const RankRange range :
         {RankRange{0, total}, RankRange{0, 1}, RankRange{total - 1, total},
          RankRange{7, 23}, RankRange{total / 3, 2 * total / 3}}) {
      const BlockPartition part = partition_block_triples(g, range);
      EXPECT_EQ(part.clip.first, range.first);
      EXPECT_EQ(part.clip.last, range.last);
      ASSERT_LE(part.block_ranks.last,
                num_block_triples(g.num_blocks()));
      // Every triplet of the range lives in a block inside the run.
      for (std::uint64_t r = range.first; r < range.last; ++r) {
        const Triplet t = unrank_triplet(r);
        const std::uint64_t br = rank_block_triple(
            {static_cast<std::uint32_t>(t.x / bs),
             static_cast<std::uint32_t>(t.y / bs),
             static_cast<std::uint32_t>(t.z / bs)});
        ASSERT_GE(br, part.block_ranks.first) << "bs=" << bs << " r=" << r;
        ASSERT_LT(br, part.block_ranks.last) << "bs=" << bs << " r=" << r;
      }
    }
  }
}

TEST(BlockPartition, EmptyRangeYieldsEmptyRun) {
  const BlockGrid g{10, 3};
  EXPECT_TRUE(partition_block_triples(g, {5, 5}).block_ranks.empty());
  EXPECT_TRUE(partition_block_triples(g, {}).block_ranks.empty());
}

TEST(BlockTupleRank, SuccessorWalksEveryRankInOrder) {
  const auto walk = [](auto order_tag) {
    constexpr unsigned K = decltype(order_tag)::value;
    BlockTuple<K> t{};
    for (std::uint64_t r = 0; r < num_block_tuples<K>(9); ++r) {
      ASSERT_EQ(t, unrank_block_tuple<K>(r)) << "K=" << K << " rank " << r;
      next_block_tuple<K>(t);
    }
  };
  walk(std::integral_constant<unsigned, 2>{});
  walk(std::integral_constant<unsigned, 3>{});
  walk(std::integral_constant<unsigned, 4>{});
  walk(std::integral_constant<unsigned, 6>{});
}

// --------------------------------------------------------------------------
// Last-axis window
// --------------------------------------------------------------------------

/// Checks LastAxisWindow<K> against brute force over every nonempty range
/// of the order-K space on m SNPs: per prefix, the window is exactly the
/// set of last indices whose combination is in range, and `admits` never
/// rules out a block tuple holding an in-range combination while always
/// ruling out one whose span misses the range.
template <unsigned K>
void window_matches_brute_force(std::uint64_t m) {
  const std::uint64_t total = n_choose_k(m, K);
  for (std::uint64_t first = 0; first < total; ++first) {
    for (std::uint64_t last = first + 1; last <= total; ++last) {
      const LastAxisWindow<K> w(RankRange{first, last});
      ASSERT_FALSE(w.full());
      // Prefixes are the (K-1)-combinations below m - 1.
      for_each_combination<K - 1>(
          0, n_choose_k(m - 1, K - 1), [&](const Combination<K - 1>& p) {
            Combination<K> c{};
            std::copy(p.begin(), p.end(), c.begin());
            const std::uint64_t z0 = p[K - 2] + 1;
            const RankRange z = w.z_range(c, z0, m);
            for (std::uint64_t zz = z0; zz < m; ++zz) {
              c[K - 1] = static_cast<std::uint32_t>(zz);
              const std::uint64_t r = rank_combination<K>(c);
              const bool in_range = r >= first && r < last;
              ASSERT_EQ(zz >= z.first && zz < z.last, in_range)
                  << "m=" << m << " range [" << first << "," << last
                  << ") rank " << r;
            }
          });
      for (const std::uint64_t bs : {1ull, 2ull, 3ull}) {
        const BlockGrid g{m, bs};
        for (std::uint64_t b = 0; b < num_block_tuples<K>(g.num_blocks());
             ++b) {
          const BlockTuple<K> bt = unrank_block_tuple<K>(b);
          const RankRange span = block_tuple_span<K>(g, bt);
          const bool misses = span.empty() || span.last <= first ||
                              span.first >= last;
          if (misses) {
            ASSERT_FALSE(w.admits(g, bt)) << "bs=" << bs << " block " << b;
            continue;
          }
          bool holds = false;
          for (std::uint64_t r = std::max(first, span.first);
               r < std::min(last, span.last) && !holds; ++r) {
            const Combination<K> c = unrank_combination<K>(r);
            bool inside = true;
            for (unsigned i = 0; i < K; ++i) inside &= c[i] / bs == bt[i];
            holds = inside;
          }
          if (holds) {
            ASSERT_TRUE(w.admits(g, bt)) << "bs=" << bs << " block " << b;
          }
        }
      }
    }
  }
}

TEST(LastAxisWindow, MatchesBruteForceOnEveryRange) {
  window_matches_brute_force<2>(9);
  window_matches_brute_force<3>(8);
  window_matches_brute_force<4>(7);
}

TEST(LastAxisWindow, FullRangeShortCircuits) {
  const LastAxisWindow<3> whole;
  const LastAxisWindow<3> sentinel(kFullRange);
  EXPECT_TRUE(whole.full());
  EXPECT_TRUE(sentinel.full());
  // The caller's bounds pass through unchanged, even past the space.
  const RankRange z = sentinel.z_range({4, 9, 0}, 10, 1000);
  EXPECT_EQ(z.first, 10u);
  EXPECT_EQ(z.last, 1000u);
  EXPECT_TRUE(whole.admits(BlockGrid{12, 4}, BlockTuple<3>{0, 1, 2}));
  // [0, C(m, K)) is a real range, not the sentinel.
  EXPECT_FALSE(LastAxisWindow<3>(RankRange{0, n_choose_k(12, 3)}).full());
}

TEST(LastAxisWindow, EmptyRangeAdmitsNothing) {
  const LastAxisWindow<3> w(RankRange{7, 7});
  EXPECT_TRUE(w.z_range({0, 1, 0}, 2, 12).empty());
  EXPECT_FALSE(w.admits(BlockGrid{12, 4}, BlockTuple<3>{0, 0, 0}));
}

// --------------------------------------------------------------------------
// Block partition, order 2 (pair rank range -> block pairs)
// --------------------------------------------------------------------------

TEST(BlockPairRank, RoundTripExhaustive) {
  std::uint64_t rank = 0;
  for (std::uint32_t b1 = 0; b1 < 40; ++b1) {
    for (std::uint32_t b0 = 0; b0 <= b1; ++b0) {
      const BlockPair bp{b0, b1};
      ASSERT_EQ(rank_block_pair(bp), rank);
      ASSERT_EQ(unrank_block_pair(rank), bp);
      ++rank;
    }
  }
  EXPECT_EQ(rank, num_block_pairs(40));
}

/// Brute-force span of a block pair: min/max rank over every pair in it.
RankRange brute_pair_span(const BlockGrid& g, const BlockPair& bp) {
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  bool any = false;
  for (std::uint32_t y = 1; y < g.m; ++y) {
    for (std::uint32_t x = 0; x < y; ++x) {
      if (x / g.bs != bp.b0 || y / g.bs != bp.b1) continue;
      const std::uint64_t r = rank_pair({x, y});
      lo = std::min(lo, r);
      hi = std::max(hi, r);
      any = true;
    }
  }
  return any ? RankRange{lo, hi + 1} : RankRange{};
}

TEST(BlockPairPartition, SpanMatchesBruteForceExhaustively) {
  for (const std::uint64_t m : {2ull, 3ull, 4ull, 6ull, 7ull, 10ull, 13ull}) {
    for (const std::uint64_t bs : {1ull, 2ull, 3ull, 5ull, 16ull}) {
      const BlockGrid g{m, bs};
      for (std::uint64_t r = 0; r < num_block_pairs(g.num_blocks()); ++r) {
        const BlockPair bp = unrank_block_pair(r);
        const RankRange expect = brute_pair_span(g, bp);
        const RankRange got = block_pair_span(g, bp);
        ASSERT_EQ(got.empty(), expect.empty())
            << "m=" << m << " bs=" << bs << " block " << r;
        if (!expect.empty()) {
          ASSERT_EQ(got.first, expect.first) << "m=" << m << " bs=" << bs;
          ASSERT_EQ(got.last, expect.last) << "m=" << m << " bs=" << bs;
        }
      }
    }
  }
}

TEST(BlockPairPartition, SpansAreMonotoneOverNonemptyBlocks) {
  // The fact partition_block_pairs relies on: block rank order sorts both
  // span endpoints over nonempty block pairs.
  for (const std::uint64_t bs : {1ull, 2ull, 3ull, 5ull}) {
    const BlockGrid g{17, bs};
    RankRange prev{};
    bool have_prev = false;
    for (std::uint64_t r = 0; r < num_block_pairs(g.num_blocks()); ++r) {
      const RankRange s = block_pair_span(g, unrank_block_pair(r));
      if (s.empty()) continue;
      if (have_prev) {
        ASSERT_GT(s.first, prev.first) << "bs=" << bs << " block " << r;
        ASSERT_GT(s.last, prev.last) << "bs=" << bs << " block " << r;
      }
      prev = s;
      have_prev = true;
    }
  }
}

TEST(BlockPairPartition, RunCoversEveryBlockIntersectingTheRange) {
  for (const std::uint64_t bs : {1ull, 2ull, 3ull, 5ull}) {
    const BlockGrid g{12, bs};
    const std::uint64_t total = num_pairs(g.m);
    for (const RankRange range :
         {RankRange{0, total}, RankRange{0, 1}, RankRange{total - 1, total},
          RankRange{7, 23}, RankRange{total / 3, 2 * total / 3}}) {
      const BlockPartition part = partition_block_pairs(g, range);
      EXPECT_EQ(part.clip.first, range.first);
      EXPECT_EQ(part.clip.last, range.last);
      ASSERT_LE(part.block_ranks.last, num_block_pairs(g.num_blocks()));
      // Every pair of the range lives in a block inside the run.
      for (std::uint64_t r = range.first; r < range.last; ++r) {
        const Pair p = unrank_pair(r);
        const std::uint64_t br =
            rank_block_pair({static_cast<std::uint32_t>(p.x / bs),
                             static_cast<std::uint32_t>(p.y / bs)});
        ASSERT_GE(br, part.block_ranks.first) << "bs=" << bs << " r=" << r;
        ASSERT_LT(br, part.block_ranks.last) << "bs=" << bs << " r=" << r;
      }
    }
  }
}

TEST(BlockPairPartition, EmptyRangeYieldsEmptyRun) {
  const BlockGrid g{10, 3};
  EXPECT_TRUE(partition_block_pairs(g, {5, 5}).block_ranks.empty());
  EXPECT_TRUE(partition_block_pairs(g, {}).block_ranks.empty());
}

// --------------------------------------------------------------------------
// ChunkScheduler
// --------------------------------------------------------------------------

TEST(Scheduler, ZeroChunkThrows) {
  EXPECT_THROW(ChunkScheduler(10, 0), std::invalid_argument);
}

TEST(Scheduler, SingleThreadCoversExactly) {
  ChunkScheduler s(107, 10);
  std::vector<bool> seen(107, false);
  for (auto r = s.next(); !r.empty(); r = s.next()) {
    for (std::uint64_t i = r.first; i < r.last; ++i) {
      ASSERT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(Scheduler, LastChunkClipped) {
  ChunkScheduler s(25, 10);
  EXPECT_EQ(s.next().size(), 10u);
  EXPECT_EQ(s.next().size(), 10u);
  EXPECT_EQ(s.next().size(), 5u);
  EXPECT_TRUE(s.next().empty());
  EXPECT_TRUE(s.next().empty());  // stays empty
}

TEST(Scheduler, TotalZeroImmediatelyEmpty) {
  ChunkScheduler s(0, 4);
  EXPECT_TRUE(s.next().empty());
}

TEST(Scheduler, ChunkLargerThanTotalIsOneChunk) {
  ChunkScheduler s(10, 1000);
  const RankRange r = s.next();
  EXPECT_EQ(r.first, 0u);
  EXPECT_EQ(r.last, 10u);
  EXPECT_TRUE(s.next().empty());
}

TEST(Scheduler, HugeChunkNeverWrapsTheCursor) {
  // A blind fetch_add of a near-2^64 chunk would wrap the cursor after two
  // exhausted polls and re-issue ranges; the scheduler must stay empty
  // forever instead.
  for (const std::uint64_t total : {0ull, 1ull, 10ull}) {
    ChunkScheduler s(total, ~std::uint64_t{0});
    if (total > 0) {
      const RankRange r = s.next();
      EXPECT_EQ(r.first, 0u);
      EXPECT_EQ(r.last, total);
    }
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(s.next().empty()) << "total=" << total << " poll " << i;
    }
  }
}

TEST(Scheduler, DefaultChunkSizeEdgeCases) {
  // total == 0 must still give a usable (ChunkScheduler-constructible)
  // chunk, and the chunk never exceeds a nonzero total.
  EXPECT_EQ(default_chunk_size(0, 1), 1u);
  EXPECT_EQ(default_chunk_size(0, 64), 1u);
  EXPECT_EQ(default_chunk_size(1, 8), 1u);
  for (const unsigned threads : {1u, 7u, 64u}) {
    for (const std::uint64_t total : {1ull, 63ull, 64ull, 100000ull}) {
      const std::uint64_t c = default_chunk_size(total, threads);
      EXPECT_GE(c, 1u);
      EXPECT_LE(c, total);
    }
  }
}

class SchedulerThreadsTest : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SchedulerThreadsTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u));

TEST_P(SchedulerThreadsTest, ConcurrentCoverageExactlyOnce) {
  const unsigned threads = GetParam();
  constexpr std::uint64_t kTotal = 10007;
  ChunkScheduler s(kTotal, 13);
  std::vector<std::atomic<int>> hits(kTotal);
  run_workers(s, threads, [&](unsigned, ChunkScheduler& sched) {
    for (auto r = sched.next(); !r.empty(); r = sched.next()) {
      for (std::uint64_t i = r.first; i < r.last; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Scheduler, RunWorkersPassesDistinctIds) {
  ChunkScheduler s(100, 1);
  std::mutex mu;
  std::set<unsigned> ids;
  run_workers(s, 4, [&](unsigned tid, ChunkScheduler& sched) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(tid);
    }
    while (!sched.next().empty()) {
    }
  });
  EXPECT_EQ(ids.size(), 4u);
}

TEST(Scheduler, DefaultChunkSizeSane) {
  EXPECT_GE(default_chunk_size(0, 4), 1u);
  EXPECT_GE(default_chunk_size(1000000, 4), 1u);
  EXPECT_LE(default_chunk_size(1000000, 4), 1000000u);
  // Roughly 64 chunks per thread.
  const std::uint64_t c = default_chunk_size(64000, 10);
  EXPECT_NEAR(static_cast<double>(c), 100.0, 50.0);
}

}  // namespace
}  // namespace trigen::combinatorics
