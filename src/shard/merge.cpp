#include "trigen/shard/merge.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "trigen/combinatorics/combinations.hpp"

namespace trigen::shard {
namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error("shard merge: " + what);
}

std::string range_str(const combinatorics::RankRange& r) {
  return "[" + std::to_string(r.first) + ", " + std::to_string(r.last) + ")";
}

}  // namespace

template <unsigned K>
MergedScanOf<K> merge_shards_of(
    const std::vector<BasicShardResult<core::ScoredOf<K>>>& shards,
    MergeCoverage coverage) {
  using Scored = core::ScoredOf<K>;
  if (shards.empty()) {
    throw std::invalid_argument("shard merge: no shard results to merge");
  }

  const BasicShardResult<Scored>& ref = shards.front();
  for (const BasicShardResult<Scored>& s : shards) {
    if (s.fingerprint != ref.fingerprint) {
      reject("fingerprint mismatch: shard " + range_str(s.range) +
             " was scanned against a different dataset than shard " +
             range_str(ref.range));
    }
    if (s.num_snps != ref.num_snps || s.num_samples != ref.num_samples) {
      reject("dataset shape mismatch: shard " + range_str(s.range) + " has " +
             std::to_string(s.num_snps) + " x " +
             std::to_string(s.num_samples) + ", shard " +
             range_str(ref.range) + " has " + std::to_string(ref.num_snps) +
             " x " + std::to_string(ref.num_samples));
    }
    if (s.objective != ref.objective) {
      reject("objective mismatch: shard " + range_str(s.range) + " used '" +
             s.objective + "', shard " + range_str(ref.range) + " used '" +
             ref.objective + "'");
    }
    if (s.top_k != ref.top_k) {
      reject("top_k mismatch: shard " + range_str(s.range) + " kept " +
             std::to_string(s.top_k) + " entries, shard " +
             range_str(ref.range) + " kept " + std::to_string(ref.top_k));
    }
  }

  // Coverage check: sorted by first rank, the ranges must tile [0, total).
  std::vector<const BasicShardResult<Scored>*> by_rank;
  by_rank.reserve(shards.size());
  for (const BasicShardResult<Scored>& s : shards) by_rank.push_back(&s);
  std::sort(by_rank.begin(), by_rank.end(),
            [](const BasicShardResult<Scored>* a,
               const BasicShardResult<Scored>* b) {
              return a->range.first < b->range.first;
            });
  const std::uint64_t total = combinatorics::n_choose_k(ref.num_snps, K);
  const bool full = coverage == MergeCoverage::kFullScan;
  std::uint64_t expect = full ? 0 : by_rank.front()->range.first;
  for (const BasicShardResult<Scored>* s : by_rank) {
    if (s->range.first > expect) {
      reject("coverage gap: ranks [" + std::to_string(expect) + ", " +
             std::to_string(s->range.first) + ") are in no shard");
    }
    if (s->range.first < expect) {
      reject("overlapping shards: shard " + range_str(s->range) +
             " re-covers ranks below " + std::to_string(expect));
    }
    expect = s->range.last;
  }
  if (full && expect < total) {
    reject("coverage gap: ranks [" + std::to_string(expect) + ", " +
           std::to_string(total) + ") are in no shard");
  }

  MergedScanOf<K> m;
  m.range = {by_rank.front()->range.first, expect};
  m.fingerprint = ref.fingerprint;
  m.num_snps = ref.num_snps;
  m.num_samples = ref.num_samples;
  m.objective = ref.objective;
  m.top_k = ref.top_k;
  m.num_shards = shards.size();

  core::BasicTopK<Scored> acc(static_cast<std::size_t>(ref.top_k));
  for (const BasicShardResult<Scored>& s : shards) {
    for (const auto& e : s.entries) acc.push(e);
    m.result.combinations_evaluated += s.range.size();
    m.result.seconds += s.seconds;
    m.max_shard_seconds = std::max(m.max_shard_seconds, s.seconds);
  }
  m.result.elements = m.result.combinations_evaluated * ref.num_samples;
  m.result.best = acc.sorted();
  return m;
}

template <unsigned K>
BasicShardResult<core::ScoredOf<K>> to_shard_result(const MergedScanOf<K>& m) {
  BasicShardResult<core::ScoredOf<K>> r;
  r.fingerprint = m.fingerprint;
  r.num_snps = m.num_snps;
  r.num_samples = m.num_samples;
  r.objective = m.objective;
  r.top_k = m.top_k;
  r.range = m.range;
  r.seconds = m.result.seconds;
  r.entries = m.result.best;
  return r;
}

template MergedScanOf<2> merge_shards_of<2>(
    const std::vector<BasicShardResult<core::ScoredOf<2>>>&, MergeCoverage);
template MergedScanOf<3> merge_shards_of<3>(
    const std::vector<BasicShardResult<core::ScoredOf<3>>>&, MergeCoverage);
template MergedScanOf<4> merge_shards_of<4>(
    const std::vector<BasicShardResult<core::ScoredOf<4>>>&, MergeCoverage);
template MergedScanOf<5> merge_shards_of<5>(
    const std::vector<BasicShardResult<core::ScoredOf<5>>>&, MergeCoverage);
template MergedScanOf<6> merge_shards_of<6>(
    const std::vector<BasicShardResult<core::ScoredOf<6>>>&, MergeCoverage);

template BasicShardResult<core::ScoredOf<2>> to_shard_result<2>(
    const MergedScanOf<2>&);
template BasicShardResult<core::ScoredOf<3>> to_shard_result<3>(
    const MergedScanOf<3>&);
template BasicShardResult<core::ScoredOf<4>> to_shard_result<4>(
    const MergedScanOf<4>&);
template BasicShardResult<core::ScoredOf<5>> to_shard_result<5>(
    const MergedScanOf<5>&);
template BasicShardResult<core::ScoredOf<6>> to_shard_result<6>(
    const MergedScanOf<6>&);

}  // namespace trigen::shard
