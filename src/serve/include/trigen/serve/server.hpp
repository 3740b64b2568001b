#pragma once
/// \file server.hpp
/// \brief The resident scan server: one loaded dataset, an async job queue.
///
/// `ScanServer` is the engine behind `trigen serve`.  It loads a dataset
/// (and lazily, one set of bitplanes per interaction order) exactly once
/// and then services a queue of jobs — `scan`/top-k at any order in
/// [2, combinatorics::kMaxOrder] and batched multi-phenotype
/// `significance` (permutation) tests — concurrently on one shared worker
/// pool:
///
///   * Every job's rank range is cut into chunks; the pool's workers pull
///     chunks round-robin across all live jobs, so a short job never
///     starves behind a long one and adding a job never spawns threads.
///     A blocked job's chunks (V3-V5 scans, every significance job) end
///     at block-layer cuts of the grid its runs tile with (unless a layer
///     outgrows the chunk cap), so chunks rarely split a block tuple's
///     last-axis SNPs (see ServeOptions::chunk).
///   * Chunk results commit in rank order into a per-job accumulator with
///     the same rank-tie-broken top-k merge as the standalone CLI, so a
///     job's payload is bit-identical to the equivalent `trigen scan` /
///     `trigen significance` invocation (the smoke tests diff them).
///   * The in-order commit means a job always has a valid contiguous
///     completed prefix — exactly what the shard module's checkpoint
///     format persists.  Graceful shutdown drains in-flight chunks and
///     writes one checkpoint per incomplete scan job; `trigen scan
///     --checkpoint` resumes it to the exact full result.
///
/// Requests and responses are the line protocol of protocol.hpp; the
/// transport (stdin/stdout pipe or a Unix-domain socket) lives in
/// endpoint.hpp.  The engine itself is transport-free and fully
/// in-process-testable: feed lines to submit_line(), collect event lines
/// from the sink.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "trigen/dataset/genotype_matrix.hpp"
#include "trigen/serve/protocol.hpp"

namespace trigen::serve {

/// Receives one protocol response line (no trailing newline).  Called from
/// worker threads and the submitting thread; the sink must serialize its
/// own output.
using EventSink = std::function<void(const std::string& line)>;

/// What an endpoint (endpoint.hpp) needs from the engine it transports:
/// line-in/lines-out request handling plus lifecycle hooks.  Two
/// implementations exist — `ScanServer` below (resident scan jobs) and
/// `fleet::FleetCoordinator` (shard leasing) — sharing the pipe and
/// Unix-socket transports verbatim.
class LineService {
 public:
  virtual ~LineService() = default;

  /// Parses and executes one request line, emitting every response to
  /// `sink` as protocol lines.  Returns false when the request asks the
  /// service to shut down: the endpoint stops feeding lines and calls
  /// shutdown_and_checkpoint().
  virtual bool submit_line(const std::string& line, EventSink sink) = 0;

  /// Called by the endpoint on every poll iteration (~200ms) regardless of
  /// traffic — the hook for time-based housekeeping such as lease expiry.
  virtual void tick() {}

  /// True once the service's work is done and the endpoint should close
  /// down cleanly of its own accord (a coordinator whose last shard
  /// merged).  A resident server is never "finished" — it serves until
  /// told to stop.
  virtual bool finished() const { return false; }

  /// Blocks until outstanding work completes (the EOF path of pipe mode).
  /// Polls `interrupted` when non-null; false means work was still pending
  /// when the flag flipped (or the service cannot make progress without
  /// more clients), true means everything drained.
  virtual bool drain(const std::atomic<bool>* interrupted = nullptr) = 0;

  /// Graceful shutdown: persist whatever makes the session resumable and
  /// stop accepting work.  Returns the number of checkpoint artifacts
  /// written.  Idempotent.
  virtual std::size_t shutdown_and_checkpoint() = 0;

  /// Work items left incomplete by shutdown — nonzero means the session
  /// should exit 3 (resumable interruption) rather than 0.
  virtual std::size_t jobs_interrupted() const = 0;
};

struct ServeOptions {
  /// Worker pool size shared by all jobs; 0 = hardware_concurrency.
  unsigned threads = 0;
  /// Ranks per scheduled chunk, as exact equal chunks.  0 sizes chunks per
  /// job: at least a 64th of it (4 per pool thread past 16 threads), so
  /// the pool interleaves jobs and shutdown drains quickly, and for the
  /// blocked runs extended to the next block-layer cut C(b * B_S, k), up
  /// to 16 times that target.  The measured cost of chunked against whole
  /// runs is at `chunk_for` in server.cpp.
  std::uint64_t chunk = 0;
  /// Directory for shutdown checkpoints of incomplete scan jobs
  /// ("serve-<jobid>.ckpt").  Must exist.
  std::string checkpoint_dir = ".";
};

class ScanServer final : public LineService {
 public:
  /// Takes ownership of the dataset; bitplanes are built once per
  /// interaction order on first use and reused by every later job.
  ScanServer(dataset::GenotypeMatrix dataset, ServeOptions options);
  ~ScanServer() override;

  ScanServer(const ScanServer&) = delete;
  ScanServer& operator=(const ScanServer&) = delete;

  /// Parses and executes one request line.  Every response — acceptance,
  /// rejection, and all later events of an accepted job — goes to `sink`
  /// as protocol lines.  Malformed or semantically invalid requests emit
  /// one `error` line and leave the server fully operational.  Returns
  /// false when the request was `shutdown`: stop feeding lines and call
  /// shutdown_and_checkpoint().
  bool submit_line(const std::string& line, EventSink sink) override;

  /// Blocks until every live job has finished (the EOF path of pipe mode).
  /// Polls `interrupted` when non-null and returns false the moment it
  /// reads true with jobs still live; true when everything drained.
  bool drain(const std::atomic<bool>* interrupted = nullptr) override;

  /// Graceful drain-and-checkpoint shutdown: stops issuing new chunks,
  /// waits for in-flight chunks to land, then checkpoints every incomplete
  /// scan job into `checkpoint_dir` (emitting an `event <id> checkpoint`
  /// line each; significance jobs are not resumable and abort with an
  /// `error` event).  Returns the number of checkpoint files written.
  /// Idempotent; the server accepts no further work afterwards.
  std::size_t shutdown_and_checkpoint() override;

  /// Jobs that were incomplete when shutdown_and_checkpoint ran (whether
  /// checkpointed or aborted) — nonzero means the session should exit 3.
  std::size_t jobs_interrupted() const override;

  /// Currently live (queued or running) jobs.
  std::size_t jobs_live() const;

  const dataset::GenotypeMatrix& data() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace trigen::serve
