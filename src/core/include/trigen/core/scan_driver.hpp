#pragma once
/// \file scan_driver.hpp
/// \brief Shared fork/join scan driver for every exhaustive detector path.
///
/// Every CPU version at every interaction order shares the same execution
/// skeleton: a dynamic chunk scheduler over contiguous work units, one
/// accumulator per worker thread (no hot-loop synchronization, §IV-A), an
/// optional throttled progress callback, and a deterministic reduction at
/// the end.  `parallel_scan` owns that skeleton; `scan_best` specializes it
/// for top-k accumulation with the rank-tie-broken merge that makes results
/// identical under any thread count, chunk size or rank-range partition.

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/common/numa.hpp"
#include "trigen/core/topk.hpp"

namespace trigen::core {

/// Progress callback: `done` out of `total` progress units.  Invocations
/// are serialized and monotone in `done`; the callback runs on worker
/// threads, so it must not touch the scan's inputs.
using ProgressFn =
    std::function<void(std::uint64_t done, std::uint64_t total)>;

/// Resolved scheduling parameters for one scan.
struct ScanConfig {
  unsigned threads = 1;          ///< resolved worker count (>= 1)
  std::uint64_t chunk_size = 0;  ///< scheduler chunk in work units; 0 = auto
  ProgressFn progress{};         ///< optional progress callback
  std::uint64_t progress_total = 0;  ///< reported as `total` to `progress`
};

/// Runs `body(thread_id, unit_range, accumulator)` over dynamically
/// scheduled chunks of [0, total_units) on `cfg.threads` workers, thread
/// `t` accumulating into `per_thread[t]`.  `body` returns the number of
/// progress units the chunk completed (work units and progress units may
/// differ: the blocked engine schedules block triples but reports
/// triplets).  `per_thread.size()` must be >= `cfg.threads`.
template <typename Accumulator, typename Body>
void parallel_scan(std::uint64_t total_units, const ScanConfig& cfg,
                   std::vector<Accumulator>& per_thread, Body&& body) {
  const std::uint64_t chunk =
      cfg.chunk_size != 0
          ? cfg.chunk_size
          : combinatorics::default_chunk_size(total_units, cfg.threads);
  combinatorics::ChunkScheduler sched(total_units, chunk);
  std::mutex progress_mu;
  std::uint64_t done = 0;  // guarded by progress_mu; monotone by construction
  combinatorics::run_workers(
      sched, cfg.threads,
      [&](unsigned tid, combinatorics::ChunkScheduler& s) {
        // Spread workers round-robin across NUMA nodes (no-op on one-node
        // hosts) before any allocation: the detectors construct per-thread
        // scratch lazily on this thread, so its first touch — and with it
        // the page placement — happens on the node the worker now runs on.
        bind_thread_round_robin(numa_topology(), tid);
        Accumulator& acc = per_thread[tid];
        for (auto r = s.next(); !r.empty(); r = s.next()) {
          const std::uint64_t weight = body(tid, r, acc);
          if (cfg.progress) {
            std::lock_guard<std::mutex> lock(progress_mu);
            done += weight;
            cfg.progress(done, cfg.progress_total);
          }
        }
      });
}

/// Top-k specialization: per-thread `BasicTopK<Scored>` accumulators plus
/// the final rank-ordered merge.  Because the scored types break score ties
/// by combination rank, the merged k-best set is unique — the result is
/// deterministic for any thread count and work split.  `Scored` is
/// `ScoredOf<K>` for an order-K scan.
template <typename Scored, typename Body>
BasicTopK<Scored> scan_best(std::uint64_t total_units, const ScanConfig& cfg,
                            std::size_t top_k, Body&& body) {
  std::vector<BasicTopK<Scored>> per_thread(cfg.threads,
                                            BasicTopK<Scored>(top_k));
  parallel_scan(total_units, cfg, per_thread,
                static_cast<Body&&>(body));
  BasicTopK<Scored> merged(top_k);
  for (const BasicTopK<Scored>& t : per_thread) merged.merge(t);
  return merged;
}

}  // namespace trigen::core
