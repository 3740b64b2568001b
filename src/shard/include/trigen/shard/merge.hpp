#pragma once
/// \file merge.hpp
/// \brief Deterministic fold of shard results into one scan answer.
///
/// Because per-shard top-k sets are computed with the same rank-tie-broken
/// ordering the full scan uses, the k best combinations of the whole space
/// are each inside their own shard's top-k — so merging any full-coverage
/// set of shard results reproduces the unsharded scan top-k exactly
/// (scores bit-for-bit, order included), in whatever order the shards are
/// presented.  The merge refuses anything that would silently break that
/// guarantee: mixed fingerprints/objectives/top_k, overlapping shards, or
/// coverage gaps.  Every interaction order merges through one shared
/// implementation, `merge_shards_of<K>`.  Order mixing is impossible by
/// construction — the readers in result_io.hpp already reject files of the
/// wrong order.

#include <vector>

#include "trigen/core/detector.hpp"
#include "trigen/shard/result_io.hpp"

namespace trigen::shard {

/// A merged scan plus shard-level accounting, generic over the per-order
/// result type (core::BasicDetectionResult<K>).
template <typename ResultT>
struct BasicMergedScan {
  /// Equivalent scan result over `range`: `best`, the evaluated-count
  /// field, `elements` and `seconds` (sum of per-shard compute seconds)
  /// are filled; the hardware fields keep their defaults (shards may have
  /// run anywhere).
  ResultT result;
  /// Contiguous rank interval the inputs covered ([0, C(M,k)) unless a
  /// partial merge was requested).
  combinatorics::RankRange range;
  std::uint64_t fingerprint = 0;
  std::uint64_t num_snps = 0;
  std::uint64_t num_samples = 0;
  std::string objective;
  std::uint64_t top_k = 0;
  std::uint64_t num_shards = 0;
  /// Longest single shard: the wall-clock lower bound when shards ran in
  /// parallel (aggregate throughput = elements / max_shard_seconds).
  double max_shard_seconds = 0.0;
};

/// The merged-scan type of interaction order K.
template <unsigned K>
using MergedScanOf = BasicMergedScan<core::BasicDetectionResult<K>>;

/// What a merge must cover.
enum class MergeCoverage {
  kFullScan,    ///< exactly [0, C(M,k)): the unsharded-scan reconstruction
  kContiguous,  ///< any contiguous [lo, hi): an intermediate (tree) merge
};

/// Merges order-K shard results tiling one contiguous rank interval
/// exactly once, in any order — with kFullScan (the default), that
/// interval must be the whole space.  Throws std::invalid_argument when
/// `shards` is empty and std::runtime_error naming the offending shards
/// for fingerprint / header mismatches, overlaps and gaps.  A kContiguous
/// merge returns a result equivalent to one shard scanned over the
/// combined range, so intermediate merges compose: merging the
/// intermediates (e.g. one per rack) reproduces the single-level merge
/// exactly.
template <unsigned K>
MergedScanOf<K> merge_shards_of(
    const std::vector<BasicShardResult<core::ScoredOf<K>>>& shards,
    MergeCoverage coverage = MergeCoverage::kFullScan);

/// The merged scan repackaged as a shard result over `m.range` — the
/// artifact an intermediate merge writes for the next merge level.
template <unsigned K>
BasicShardResult<core::ScoredOf<K>> to_shard_result(const MergedScanOf<K>& m);

extern template MergedScanOf<2> merge_shards_of<2>(
    const std::vector<BasicShardResult<core::ScoredOf<2>>>&, MergeCoverage);
extern template MergedScanOf<3> merge_shards_of<3>(
    const std::vector<BasicShardResult<core::ScoredOf<3>>>&, MergeCoverage);
extern template MergedScanOf<4> merge_shards_of<4>(
    const std::vector<BasicShardResult<core::ScoredOf<4>>>&, MergeCoverage);
extern template MergedScanOf<5> merge_shards_of<5>(
    const std::vector<BasicShardResult<core::ScoredOf<5>>>&, MergeCoverage);
extern template MergedScanOf<6> merge_shards_of<6>(
    const std::vector<BasicShardResult<core::ScoredOf<6>>>&, MergeCoverage);

extern template BasicShardResult<core::ScoredOf<2>> to_shard_result<2>(
    const MergedScanOf<2>&);
extern template BasicShardResult<core::ScoredOf<3>> to_shard_result<3>(
    const MergedScanOf<3>&);
extern template BasicShardResult<core::ScoredOf<4>> to_shard_result<4>(
    const MergedScanOf<4>&);
extern template BasicShardResult<core::ScoredOf<5>> to_shard_result<5>(
    const MergedScanOf<5>&);
extern template BasicShardResult<core::ScoredOf<6>> to_shard_result<6>(
    const MergedScanOf<6>&);

}  // namespace trigen::shard
