#include "trigen/shard/plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "trigen/combinatorics/block_partition.hpp"
#include "trigen/common/durable.hpp"

namespace trigen::shard {

std::uint64_t dataset_fingerprint(const dataset::GenotypeMatrix& d) {
  std::uint64_t h = kFnv1aBasis;
  h = fnv1a64_u64(h, d.num_snps());
  h = fnv1a64_u64(h, d.num_samples());
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    const auto row = d.snp_row(m);
    h = fnv1a64(h, row.data(), row.size());
  }
  const auto ph = d.phenotypes();
  return fnv1a64(h, ph.data(), ph.size());
}

std::vector<combinatorics::RankRange> plan_shards(std::uint64_t num_snps,
                                                  unsigned workers,
                                                  SplitStrategy strategy,
                                                  std::uint64_t block_size,
                                                  unsigned order) {
  if (order < 2 || order > combinatorics::kMaxOrder) {
    throw std::invalid_argument(
        "plan_shards: order must be in [2, " +
        std::to_string(combinatorics::kMaxOrder) + "], got " +
        std::to_string(order));
  }
  const std::uint64_t total = combinatorics::n_choose_k(num_snps, order);
  if (workers == 0) {
    throw std::invalid_argument("plan_shards: workers must be >= 1");
  }
  if (workers > total) {
    throw std::invalid_argument(
        "plan_shards: " + std::to_string(workers) + " workers for only " +
        std::to_string(total) + " order-" + std::to_string(order) +
        " combinations would leave empty shards");
  }

  // Boundary ranks between shards: boundaries[i] ends shard i.  Even split
  // first; kBlockAligned then snaps each interior boundary to a block-layer
  // cut C(b*bs, order), keeping the sequence strictly increasing.
  std::vector<std::uint64_t> bounds(workers);
  for (unsigned i = 0; i < workers; ++i) {
    bounds[i] = total * (i + 1) / workers;
  }
  if (strategy == SplitStrategy::kBlockAligned) {
    if (block_size == 0) {
      throw std::invalid_argument(
          "plan_shards: block-aligned split needs block_size >= 1");
    }
    const combinatorics::BlockGrid grid{num_snps, block_size};
    std::vector<std::uint64_t> cuts;  // strictly increasing, in (0, total)
    const auto cut_at = [&](std::uint64_t rank) {
      return combinatorics::next_block_layer_cut(grid, order, rank);
    };
    for (std::uint64_t c = cut_at(1); c < total; c = cut_at(c + 1)) {
      cuts.push_back(c);
    }
    if (cuts.size() + 1 < workers) {
      throw std::invalid_argument(
          "plan_shards: block-aligned split has only " +
          std::to_string(cuts.size() + 1) + " block layers for " +
          std::to_string(workers) + " workers; lower the worker count, "
          "shrink block_size, or use the even split");
    }
    std::uint64_t prev = 0;
    for (unsigned i = 0; i + 1 < workers; ++i) {
      // Largest cut <= the even target, but strictly after the previous
      // boundary and early enough to leave one cut per remaining shard.
      const auto it = std::upper_bound(cuts.begin(), cuts.end(), bounds[i]);
      std::size_t pick = static_cast<std::size_t>(it - cuts.begin());
      pick = pick == 0 ? 0 : pick - 1;
      const std::size_t lo = [&] {
        const auto after_prev =
            std::upper_bound(cuts.begin(), cuts.end(), prev);
        return static_cast<std::size_t>(after_prev - cuts.begin());
      }();
      const std::size_t hi = cuts.size() - (workers - 1 - i);
      pick = std::clamp(pick, lo, hi);
      bounds[i] = cuts[pick];
      prev = bounds[i];
    }
  }

  std::vector<combinatorics::RankRange> shards(workers);
  std::uint64_t first = 0;
  for (unsigned i = 0; i < workers; ++i) {
    shards[i] = {first, bounds[i]};
    first = bounds[i];
  }
  return shards;
}

}  // namespace trigen::shard
