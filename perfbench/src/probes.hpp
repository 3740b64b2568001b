#pragma once
/// \file probes.hpp
/// \brief Per-module measurements of the traced run.  Every probe times the
/// module's public functions from outside; nothing inside the library is
/// instrumented.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/topk.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/dataset/genotype_matrix.hpp"
#include "trigen/shard/result_io.hpp"
#include "util.hpp"

namespace perfbench {

namespace dataset = trigen::dataset;

/// Kernel families the traced run times, in report order.
inline const std::vector<std::string>& kernel_families() {
  static const std::vector<std::string> names = {
      "pair_count",    "triple",       "triple_cached", "tuple_direct",
      "prefix_extend", "prefix_final", "batch_final"};
  return names;
}

/// Partitions of the batched probes: observed labels plus the 19 nulls of
/// a default `significance` job.
inline constexpr std::size_t kBatchPartitions = 20;

/// The observed labels of `d` plus kBatchPartitions - 1 shuffled nulls, as
/// a permutation test batches them.
dataset::PhenotypeBatch permutation_batch(const dataset::GenotypeMatrix& d);

/// Benchmark-side name of the kernel family a default scan of `order`
/// runs (core::scan_kernel_family under the library's default version).
std::string default_family(unsigned order, bool batched);

/// Single-thread rate of each kernel family's public function pointer over
/// `planes` (and `d`'s combined planes for the batched family), in words
/// of one phenotype class per second.  Also reports, per family, the
/// computed operations per byte and the fraction of the CARM roof reached,
/// with the CARM roofs measured alongside.  Returns the rates.
std::map<std::string, double> kernel_and_carm_probes(
    const dataset::GenotypeMatrix& d, const dataset::PhenoSplitPlanes& planes,
    trigen::core::KernelIsa isa, Report& rep);

/// Chunk efficiency, parallel efficiency, batching speedup, scorer cost and
/// top-k push cost of an order-K scan over `det`.  `chunk` is the rank
/// count the server or shard runner cuts the workload's job into; the
/// probes run over a prefix of the rank space `job_ranks` long at most.
template <unsigned K>
void order_probes(const trigen::core::BasicDetector<K>& det,
                  const dataset::GenotypeMatrix& d, std::uint64_t job_ranks,
                  std::uint64_t chunk, std::size_t top, unsigned threads,
                  Report& rep) {
  using namespace trigen;
  constexpr std::uint64_t kChunks = 16;
  chunk = std::max<std::uint64_t>(1, chunk);
  const combinatorics::RankRange sub{
      0, std::min<std::uint64_t>(job_ranks, kChunks * chunk)};
  const double elements =
      static_cast<double>(sub.size()) * static_cast<double>(d.num_samples());

  core::BasicDetectorOptions<K> opt;
  opt.top_k = top;
  core::ensure_default_scorer(opt, d.num_samples());
  opt.range = sub;
  opt.threads = 1;
  // Long runs are timed once; short ones repeat for at least 0.2 s.
  const double whole_1t = time_median([&] { det.run(opt); }, 0.2, 1);
  const double chunked_1t = time_median(
      [&] {
        core::BasicDetectorOptions<K> o = opt;
        for (std::uint64_t f = sub.first; f < sub.last; f += chunk) {
          o.range = {f, std::min(f + chunk, sub.last)};
          det.run(o);
        }
      },
      0.2, 1);
  opt.threads = threads;
  const double whole_nt = time_median([&] { det.run(opt); }, 0.3, 3);
  rep.metric("core.range_chunk_eff", whole_1t / chunked_1t, "ratio");
  rep.metric("combinatorics.parallel_eff",
             whole_1t / (static_cast<double>(threads) * whole_nt), "ratio");

  // P dedicated runs cost P times one run (the labels do not change the
  // work), so one timed run stands for each of them.
  const auto batch = permutation_batch(d);
  const double batched =
      time_median([&] { det.run_batched(batch, opt); }, 0.2, 1);
  rep.metric("stats.batch_speedup",
             static_cast<double>(kBatchPartitions) * whole_nt / batched, "ratio");
  rep.metric("stats.batched_gelem_per_s",
             elements * static_cast<double>(kBatchPartitions) / batched / 1e9,
             "Gelem/s");

  // Scorer cost over real tables of this dataset.
  Xoshiro256 rng(11);
  const std::uint64_t space = combinatorics::n_choose_k(d.num_snps(), K);
  std::vector<scoring::BasicContingencyTable<K>> tables;
  for (int i = 0; i < 256; ++i) {
    tables.push_back(det.contingency(
        combinatorics::unrank_combination<K>(rng.bounded(space))));
  }
  const auto scorer = core::make_normalized_scorer_of<K>(
      core::Objective::kK2, static_cast<std::uint32_t>(d.num_samples()));
  const double per_pass = time_median(
      [&] {
        for (const auto& t : tables) keep(scorer(t));
      },
      0.2, 3);
  rep.metric("scoring.ns_per_table",
             per_pass / static_cast<double>(tables.size()) * 1e9, "ns");

  // Top-k pushes of a random score stream (mostly rejected once full, as
  // in a scan).
  std::vector<core::ScoredOf<K>> stream;
  constexpr std::size_t kPushes = 1u << 18;
  stream.reserve(kPushes);
  for (std::size_t i = 0; i < kPushes; ++i) {
    stream.push_back(core::make_scored<K>(
        combinatorics::unrank_combination<K>(rng.bounded(space)),
        rng.uniform()));
  }
  const double push_pass = time_median(
      [&] {
        core::BasicTopK<core::ScoredOf<K>> topk(top);
        for (const auto& s : stream) topk.push(s);
        keep(topk.size());
      },
      0.2, 3);
  rep.metric("core.topk_push_ns",
             push_pass / static_cast<double>(kPushes) * 1e9, "ns");
}

/// Write and read timings of checkpoint `ck` (its `seconds` field zeroed,
/// so the byte count repeats exactly), as the shard runner persists it.
/// The probe writes that one checkpoint.
template <typename Scored>
void checkpoint_probe(trigen::shard::BasicCheckpoint<Scored> ck,
                      const std::string& dir, Report& rep) {
  using namespace trigen;
  ck.seconds = 0.0;
  const std::string path = dir + "/probe.ckpt";
  const double write_s =
      time_median([&] { shard::write_checkpoint_file(path, ck); }, 0.1, 3);
  const double read_s = time_median(
      [&] { keep(shard::read_checkpoint_file_as<Scored>(path).entries.size()); },
      0.1, 3);
  const auto bytes = std::filesystem::file_size(path);
  std::filesystem::remove(path);
  constexpr std::uint64_t written = 1;
  rep.metric("shard.checkpoints_written", static_cast<double>(written), "count");
  rep.metric("shard.checkpoint_bytes", static_cast<double>(bytes), "bytes");
  rep.metric("shard.checkpoint_write_ms", write_s * 1e3, "ms");
  rep.metric("shard.resume_read_ms", read_s * 1e3, "ms");
  rep.exact.push_back({"checkpoints_written", written});
  rep.exact.push_back({"checkpoint_bytes", bytes});
}

}  // namespace perfbench
