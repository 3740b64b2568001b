#pragma once
/// \file plan.hpp
/// \brief Splitting one exhaustive scan across W independent shard workers.
///
/// A *scan plan* cuts the colex combination rank space [0, C(M,k)) — any
/// interaction order k in [2, combinatorics::kMaxOrder] — into W contiguous,
/// non-empty, non-overlapping rank ranges.  Each shard is an ordinary
/// `range` scan (`BasicDetectorOptions<K>::range`),
/// so any worker — another process, another node, a resumed crash survivor
/// — produces a result that merges exactly (see merge.hpp).  The plan also
/// carries a content fingerprint of the dataset so artifacts produced
/// against a different (or edited) dataset are rejected instead of
/// silently merged.

#include <cstdint>
#include <vector>

#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/dataset/genotype_matrix.hpp"

namespace trigen::shard {

/// Stable 64-bit content fingerprint of a dataset: shape, every genotype
/// and every phenotype (FNV-1a).  Independent of host, build and file
/// representation (text and binary round-trips of the same data agree).
std::uint64_t dataset_fingerprint(const dataset::GenotypeMatrix& d);

/// How shard boundaries are chosen.
enum class SplitStrategy {
  /// Equal-size rank ranges: shard i covers [total*i/W, total*(i+1)/W).
  kEvenRanks,
  /// Boundaries snapped to whole top-level block layers of a `block_size`
  /// grid — rank C(b*block_size, k) cuts — so no block tuple of the tiled
  /// V3/V4/V5 engines straddles a shard boundary and boundary clipping is
  /// free.
  kBlockAligned,
};

/// Splits [0, C(num_snps, order)) into `workers` shards.  `order` is the
/// interaction order of the scan being planned, any value in
/// [2, combinatorics::kMaxOrder].  Throws std::invalid_argument when
/// workers == 0, order is outside that interval,
/// workers > C(num_snps, order), or a block-aligned split cannot produce
/// `workers` non-empty shards (too few block layers).  `block_size` (SNPs
/// per block, B_S) is only used by kBlockAligned and must match the grid
/// the workers will scan with for the alignment to pay off; correctness
/// never depends on it.
std::vector<combinatorics::RankRange> plan_shards(
    std::uint64_t num_snps, unsigned workers,
    SplitStrategy strategy = SplitStrategy::kEvenRanks,
    std::uint64_t block_size = 0, unsigned order = 3);

}  // namespace trigen::shard
