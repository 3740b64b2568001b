#include "trigen/shard/runner.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include "trigen/combinatorics/combinations.hpp"

namespace trigen::shard {
namespace {

[[noreturn]] void stale(const std::string& what) {
  throw std::runtime_error("shard runner: stale checkpoint: " + what);
}

/// A transiently failing checkpoint write (EINTR/EAGAIN exhaustion inside
/// the durable writer) must not cost the whole shard's progress: retry the
/// complete write a few times with escalating backoff before giving up.
/// Non-transient failures (missing directory, permissions, disk full) and
/// exhausted retries propagate the writer's DurableWriteError, which already
/// names the path and errno.
template <typename Scored>
void write_checkpoint_with_retry(const std::string& path,
                                 const BasicCheckpoint<Scored>& c) {
  constexpr int kAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    try {
      write_checkpoint_file(path, c);
      return;
    } catch (const DurableWriteError& e) {
      if (!e.transient() || attempt >= kAttempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(10 << attempt));
    }
  }
}

/// Loads and validates an existing checkpoint.  A checkpoint for a
/// *different* scan is a hard error (merging it would corrupt results); an
/// unparseable file is survivable damage — report it and rescan.
template <typename Scored>
std::optional<BasicCheckpoint<Scored>> adopt_checkpoint(
    const std::string& path, std::uint64_t fingerprint,
    const combinatorics::RankRange& range, std::uint64_t top_k,
    const std::string& objective,
    const std::function<void(const std::string&)>& on_discarded) {
  if (!std::ifstream(path).good()) return std::nullopt;  // fresh start
  BasicCheckpoint<Scored> c;
  try {
    c = read_checkpoint_file_as<Scored>(path);
  } catch (const std::runtime_error& e) {
    if (on_discarded) on_discarded(e.what());
    return std::nullopt;
  }
  if (c.fingerprint != fingerprint) {
    stale("'" + path + "' was written for a different dataset (fingerprint " +
          std::to_string(c.fingerprint) + " != " +
          std::to_string(fingerprint) + ")");
  }
  if (c.range.first != range.first || c.range.last != range.last) {
    stale("'" + path + "' covers ranks [" + std::to_string(c.range.first) +
          ", " + std::to_string(c.range.last) + "), this shard covers [" +
          std::to_string(range.first) + ", " + std::to_string(range.last) +
          ")");
  }
  if (c.top_k != top_k) {
    stale("'" + path + "' has top_k " + std::to_string(c.top_k) +
          ", this scan wants " + std::to_string(top_k));
  }
  if (c.objective != objective) {
    stale("'" + path + "' used objective '" + c.objective +
          "', this scan uses '" + objective + "'");
  }
  return c;
}

/// The shared runner body: everything order-specific comes in through
/// `Scored` (entry type + rank space via OrderTraits) and the detector /
/// options types.
template <typename Scored, typename Detector, typename Options>
BasicShardRunReport<Scored> run_shard_impl(
    const Detector& detector, std::uint64_t fingerprint,
    const BasicShardRunOptions<Options>& options,
    const std::function<void(const std::string&)>& on_checkpoint_discarded) {
  using Traits = OrderTraits<Scored>;
  const std::uint64_t total = Traits::space(detector.num_snps());
  const combinatorics::RankRange range = options.range;
  if (range.empty() || range.last > total) {
    throw std::invalid_argument(
        "run_shard: shard range [" + std::to_string(range.first) + ", " +
        std::to_string(range.last) + ") is empty or exceeds C(M," +
        std::to_string(Traits::kOrder) + ") = " + std::to_string(total));
  }
  if (options.detector.top_k == 0) {
    throw std::invalid_argument("run_shard: top_k must be >= 1");
  }

  const std::uint64_t top_k = options.detector.top_k;
  const std::string objective =
      core::objective_name(options.detector.objective);

  BasicShardRunReport<Scored> report;
  report.result.fingerprint = fingerprint;
  report.result.num_snps = detector.num_snps();
  report.result.num_samples = detector.num_samples();
  report.result.objective = objective;
  report.result.top_k = top_k;
  report.result.range = range;
  report.resumed_from = range.first;

  core::BasicTopK<Scored> acc(top_k);
  std::uint64_t watermark = range.first;
  double seconds = 0.0;

  if (!options.checkpoint_path.empty()) {
    if (const auto c = adopt_checkpoint<Scored>(
            options.checkpoint_path, fingerprint, range, top_k, objective,
            on_checkpoint_discarded)) {
      watermark = c->watermark;
      seconds = c->seconds;
      for (const auto& e : c->entries) acc.push(e);
      report.resumed = true;
      report.resumed_from = watermark;
    }
  }

  const std::uint64_t interval =
      options.checkpoint_every != 0
          ? options.checkpoint_every
          : std::max<std::uint64_t>(1, range.size() / 64);

  Options dopt = options.detector;
  // Progress is shard-relative and owned by the runner; a caller-supplied
  // detector.progress would see chunk-local counts, so it is ignored in
  // favor of BasicShardRunOptions::progress.
  dopt.progress = {};
  core::ensure_default_scorer(dopt, detector.num_samples());
  if (options.progress) options.progress(watermark - range.first, range.size());

  while (watermark < range.last) {
    const std::uint64_t next =
        std::min(watermark + interval, range.last);
    dopt.range = {watermark, next};
    if (options.progress) {
      dopt.progress = [&progress = options.progress,
                       offset = watermark - range.first,
                       shard_total = range.size()](std::uint64_t done,
                                                   std::uint64_t) {
        progress(offset + done, shard_total);
      };
    }
    const auto r = detector.run(dopt);
    for (const auto& e : r.best) acc.push(e);
    seconds += r.seconds;
    watermark = next;
    if (!options.checkpoint_path.empty()) {
      BasicCheckpoint<Scored> c;
      c.fingerprint = fingerprint;
      c.num_snps = report.result.num_snps;
      c.num_samples = report.result.num_samples;
      c.objective = objective;
      c.top_k = top_k;
      c.range = range;
      c.watermark = watermark;
      c.seconds = seconds;
      c.entries = acc.sorted();
      write_checkpoint_with_retry(options.checkpoint_path, c);
      ++report.checkpoints_written;
    }
    if (options.keep_going && watermark < range.last &&
        !options.keep_going(watermark - range.first, range.size())) {
      break;
    }
  }

  report.result.seconds = seconds;
  report.result.entries = acc.sorted();
  report.completed = watermark == range.last;
  return report;
}

}  // namespace

template <unsigned K>
BasicShardRunReport<core::ScoredOf<K>> run_shard_of(
    const core::BasicDetector<K>& detector, std::uint64_t fingerprint,
    const BasicShardRunOptions<core::BasicDetectorOptions<K>>& options,
    const std::function<void(const std::string&)>& on_checkpoint_discarded) {
  return run_shard_impl<core::ScoredOf<K>>(detector, fingerprint, options,
                                           on_checkpoint_discarded);
}

template BasicShardRunReport<core::ScoredOf<2>> run_shard_of<2>(
    const core::BasicDetector<2>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<2>>&,
    const std::function<void(const std::string&)>&);
template BasicShardRunReport<core::ScoredOf<3>> run_shard_of<3>(
    const core::BasicDetector<3>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<3>>&,
    const std::function<void(const std::string&)>&);
template BasicShardRunReport<core::ScoredOf<4>> run_shard_of<4>(
    const core::BasicDetector<4>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<4>>&,
    const std::function<void(const std::string&)>&);
template BasicShardRunReport<core::ScoredOf<5>> run_shard_of<5>(
    const core::BasicDetector<5>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<5>>&,
    const std::function<void(const std::string&)>&);
template BasicShardRunReport<core::ScoredOf<6>> run_shard_of<6>(
    const core::BasicDetector<6>&, std::uint64_t,
    const BasicShardRunOptions<core::BasicDetectorOptions<6>>&,
    const std::function<void(const std::string&)>&);

}  // namespace trigen::shard
