#pragma once
/// \file runner.hpp
/// \brief Checkpointing, resumable execution of one shard of a scan plan.
///
/// The runner cuts its shard into sequential *checkpoint chunks* and runs
/// the detector on each (the detector parallelizes within the chunk).
/// After every chunk it folds the chunk's top-k into the shard accumulator
/// and — when a checkpoint path is set — atomically persists the completed
/// watermark plus the in-progress top-k.  A killed worker therefore loses
/// at most one chunk of work, and because the rank-tie-broken top-k merge
/// is exact under any partition (see scan_driver.hpp), the resumed shard's
/// result is identical to an uninterrupted run, entry for entry and bit
/// for bit.
///
/// The runner is order-generic: `run_shard_of<K>` drives the order-K
/// `core::BasicDetector<K>` for any K in [2, combinatorics::kMaxOrder].

#include <cstdint>
#include <functional>
#include <string>

#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/shard/result_io.hpp"

namespace trigen::shard {

template <typename DetectorOptionsT>
struct BasicShardRunOptions {
  /// Scan configuration (version, ISA, threads, tiling, objective, top_k).
  /// `detector.range` and `detector.progress` are ignored: the runner owns
  /// the range, and progress is reported shard-relative through `progress`
  /// below.  A custom `detector.scorer` is allowed but then `objective`
  /// must still name it truthfully — it is what merge validates across
  /// shards.
  DetectorOptionsT detector;
  /// Combination ranks this shard covers; must be non-empty and within
  /// [0, C(M,k)).
  combinatorics::RankRange range;
  /// Ranks scanned between checkpoints; 0 picks range.size()/64 (>= 1).
  std::uint64_t checkpoint_every = 0;
  /// Checkpoint file; empty disables checkpointing (and resume).
  std::string checkpoint_path;
  /// Forwarded scan progress over the whole shard (resumed ranks count as
  /// already done).
  core::ProgressFn progress;
  /// Polled after each completed (and persisted) checkpoint chunk with the
  /// ranks done so far; returning false stops the run cleanly — the
  /// checkpoint on disk stays valid and a later run resumes from it.
  std::function<bool(std::uint64_t done, std::uint64_t total)> keep_going;
};

template <typename Scored>
struct BasicShardRunReport {
  /// Shard header + top-k.  Complete only when `completed`; on an early
  /// stop it reflects the checkpointed prefix.
  BasicShardResult<Scored> result;
  bool completed = false;
  /// True when a valid checkpoint was adopted instead of starting fresh.
  bool resumed = false;
  std::uint64_t resumed_from = 0;  ///< adopted watermark (range.first if not)
  std::uint64_t checkpoints_written = 0;
};

/// Runs (or resumes) one shard of an order-K scan.  Throws
/// std::invalid_argument for a bad range and std::runtime_error when an
/// existing checkpoint belongs to a different dataset/range/objective/
/// top_k (stale artifacts are never silently overwritten).  An
/// unreadable/truncated checkpoint — the footprint of a crash predating
/// the atomic write, or external damage — is reported via
/// `on_checkpoint_discarded` (when set) and the shard restarts from its
/// beginning, which is always safe.
template <unsigned K>
BasicShardRunReport<core::ScoredOf<K>> run_shard_of(
    const core::BasicDetector<K>& detector, std::uint64_t fingerprint,
    const BasicShardRunOptions<core::BasicDetectorOptions<K>>& options,
    const std::function<void(const std::string& reason)>&
        on_checkpoint_discarded = {});

extern template BasicShardRunReport<core::ScoredOf<2>> run_shard_of<2>(
    const core::BasicDetector<2>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<2>>&,
    const std::function<void(const std::string&)>&);
extern template BasicShardRunReport<core::ScoredOf<3>> run_shard_of<3>(
    const core::BasicDetector<3>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<3>>&,
    const std::function<void(const std::string&)>&);
extern template BasicShardRunReport<core::ScoredOf<4>> run_shard_of<4>(
    const core::BasicDetector<4>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<4>>&,
    const std::function<void(const std::string&)>&);
extern template BasicShardRunReport<core::ScoredOf<5>> run_shard_of<5>(
    const core::BasicDetector<5>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<5>>&,
    const std::function<void(const std::string&)>&);
extern template BasicShardRunReport<core::ScoredOf<6>> run_shard_of<6>(
    const core::BasicDetector<6>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<6>>&,
    const std::function<void(const std::string&)>&);

}  // namespace trigen::shard
