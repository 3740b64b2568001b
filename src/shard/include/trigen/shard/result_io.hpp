#pragma once
/// \file result_io.hpp
/// \brief Portable on-disk artifacts of a sharded scan (any order).
///
/// Two line-oriented text formats, each with a versioned magic line, the
/// interaction order, the dataset fingerprint, and an explicit `end`
/// trailer so truncation is always detected:
///
///   TRIGEN-SHARD v2          TRIGEN-CHECKPOINT v2
///   order 3                  order 3
///   fingerprint <hex16>      fingerprint <hex16>
///   snps M                   snps M
///   samples N                samples N
///   objective k2             objective k2
///   top_k K                  top_k K
///   range FIRST LAST         range FIRST LAST
///   seconds S                watermark W
///   entries n                seconds S
///   e x y z <score-hex>      entries n
///   ...                      e x y z <score-hex>
///   end TRIGEN-SHARD         ...
///                            end TRIGEN-CHECKPOINT
///
/// `order` is the interaction order k of the scan, any value in
/// [2, combinatorics::kMaxOrder]: ranks address the colex space
/// [0, C(M,k)) and each entry line carries k SNP indices
/// (`e x y z <score-hex>` for order 3, `e x y <score-hex>` for order 2,
/// and so on).  A dataset whose C(M,k) exceeds 2^64 is rejected with a
/// precise "rank space exceeds 2^64" error — the rank fields could not
/// address it.  The v1 formats —
/// identical except that the `order` line is absent — predate pairwise
/// sharding and are still read (their order is 3 by definition); writers
/// always emit v2.  Reading a file of the wrong order throws a precise
/// "order mismatch" error instead of misinterpreting ranks.
///
/// Scores are serialized as C99 hex floats (`%a`), so a write/read round
/// trip reproduces the exact double bits and a merge of shard files is
/// bit-identical to the in-memory merge.  Readers validate everything —
/// magic, version, order, field order, range sanity, entry ordering
/// (strictly ascending in (score, combination rank)), ranks inside the
/// declared range, entry count == min(top_k, covered ranks) — and throw
/// std::runtime_error with a message naming the first violation.  A
/// shard-result file is only ever written for a *completed* range; the
/// checkpoint's `watermark` is the end of the completed rank prefix, and
/// its entries are the top-k of [range.first, watermark).

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/common/durable.hpp"
#include "trigen/core/topk.hpp"

namespace trigen::shard {

/// Completed scan of one rank-range shard, generic over the scored-entry
/// type (core::ScoredOf<K> for an order-K scan).
template <typename Scored>
struct BasicShardResult {
  std::uint64_t fingerprint = 0;   ///< dataset_fingerprint() of the input
  std::uint64_t num_snps = 0;
  std::uint64_t num_samples = 0;
  std::string objective;           ///< core::objective_name() of the scorer
  std::uint64_t top_k = 0;
  combinatorics::RankRange range;  ///< covered combination ranks (half-open)
  double seconds = 0.0;            ///< compute time spent on this shard
  std::vector<Scored> entries;     ///< best-first, rank-tie-broken
};

/// Persistent progress of a partially scanned shard.
template <typename Scored>
struct BasicCheckpoint {
  std::uint64_t fingerprint = 0;
  std::uint64_t num_snps = 0;
  std::uint64_t num_samples = 0;
  std::string objective;
  std::uint64_t top_k = 0;
  combinatorics::RankRange range;
  std::uint64_t watermark = 0;  ///< ranks [range.first, watermark) are done
  double seconds = 0.0;
  std::vector<Scored> entries;
};

// Writers deduce the artifact's entry type; readers are parameterized on
// it (the `_as` suffix marks the explicit-argument form).  All are
// instantiated for every order in [2, combinatorics::kMaxOrder] in
// result_io.cpp.  File variants write through write_file_durably
// (common/durable.hpp), so neither a crash mid-write nor a power loss right
// after the rename can leave a truncated artifact under the final name; an
// I/O failure throws DurableWriteError (path + errno) and leaves the
// previous file in place.

template <typename Scored>
void write_shard_result(std::ostream& os, const BasicShardResult<Scored>& r);
template <typename Scored>
BasicShardResult<Scored> read_shard_result_as(std::istream& is);
template <typename Scored>
void write_shard_result_file(const std::string& path,
                             const BasicShardResult<Scored>& r);
template <typename Scored>
BasicShardResult<Scored> read_shard_result_file_as(const std::string& path);

template <typename Scored>
void write_checkpoint(std::ostream& os, const BasicCheckpoint<Scored>& c);
template <typename Scored>
BasicCheckpoint<Scored> read_checkpoint_as(std::istream& is);
template <typename Scored>
void write_checkpoint_file(const std::string& path,
                           const BasicCheckpoint<Scored>& c);
template <typename Scored>
BasicCheckpoint<Scored> read_checkpoint_file_as(const std::string& path);

// -- Re-splitting a live shard off its last durable checkpoint ---------------
//
// A partially scanned shard is exactly (a) the completed prefix
// [range.first, watermark), whose checkpointed entries are by construction a
// valid top-k shard result over that interval, plus (b) the untouched
// remainder [watermark, range.last).  clip_to_prefix / remaining_range split
// a checkpoint along that seam; this is what lets a fleet coordinator
// harvest a dead worker's durable progress and re-lease only the remainder:
// merging clip_to_prefix(c) with a scan of remaining_range(c) is
// bit-identical to scanning the whole shard (property-tested at orders 2-4
// in tests/test_fleet.cpp).

/// The completed prefix of a checkpoint as a standalone shard result over
/// [range.first, watermark).  Throws std::invalid_argument when the
/// checkpoint has no completed ranks (watermark == range.first): an empty
/// shard result is unrepresentable, and the caller should simply re-lease
/// the whole range.
template <typename Scored>
BasicShardResult<Scored> clip_to_prefix(const BasicCheckpoint<Scored>& c) {
  if (c.watermark <= c.range.first) {
    throw std::invalid_argument(
        "clip_to_prefix: checkpoint over [" + std::to_string(c.range.first) +
        ", " + std::to_string(c.range.last) + ") has no completed prefix");
  }
  BasicShardResult<Scored> r;
  r.fingerprint = c.fingerprint;
  r.num_snps = c.num_snps;
  r.num_samples = c.num_samples;
  r.objective = c.objective;
  r.top_k = c.top_k;
  r.range = combinatorics::RankRange{c.range.first, c.watermark};
  r.seconds = c.seconds;
  r.entries = c.entries;
  return r;
}

/// The unscanned remainder of a checkpointed shard (possibly empty when the
/// worker checkpointed the full range but died before writing the result).
template <typename Scored>
combinatorics::RankRange remaining_range(const BasicCheckpoint<Scored>& c) {
  return combinatorics::RankRange{c.watermark, c.range.last};
}

/// Reads just enough of a shard-result file to report its interaction
/// order (3 for v1 files, the `order` field for v2) so callers — above
/// all `trigen merge` — can dispatch to the right reader.  Throws
/// std::runtime_error for unreadable files, bad magic or unsupported
/// versions/orders.
unsigned probe_shard_order(const std::string& path);

}  // namespace trigen::shard
