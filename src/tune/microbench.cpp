#include "trigen/tune/microbench.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "trigen/common/aligned.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/dataset/synthetic.hpp"

namespace trigen::tune {

namespace {

using core::KernelIsa;
using core::TilingParams;

/// Smallest SNP panel whose C(m, k) meets `target` combinations — keeps
/// the measured work roughly constant across orders (C(200,2), C(50,3)
/// and C(33,4) are all ~20k) so no rung dominates the grid's wall clock.
std::size_t panel_snps(unsigned order, std::uint64_t target) {
  std::size_t m = order + 1;
  for (;; ++m) {
    // C(m, order), bailing early once past target.
    std::uint64_t c = 1;
    for (unsigned i = 0; i < order; ++i) c = c * (m - i) / (i + 1);
    if (c >= target) return m;
    if (m > 4096) return m;  // unreachable for sane targets
  }
}

/// Tiling neighborhood around the analytic point: the analytic point
/// itself (tagged), B_S +/- 1, and B_P at half/double — coarse on purpose;
/// the L1 cliff is what we are probing for, not a 1% plateau.
std::vector<std::pair<TilingParams, bool>> tiling_candidates(
    const TilingParams& analytic, std::size_t vector_words, bool quick) {
  std::vector<std::pair<TilingParams, bool>> out;
  const auto push = [&](std::size_t bs, std::size_t bp, bool is_analytic) {
    if (bs == 0) return;
    bp = std::max(vector_words, bp / vector_words * vector_words);
    for (const auto& [t, a] : out) {
      if (t.bs == bs && t.bp_words == bp) return;
    }
    out.push_back({TilingParams{bs, bp}, is_analytic});
  };
  push(analytic.bs, analytic.bp_words, true);
  push(analytic.bs + 1, analytic.bp_words, false);
  if (!quick) {
    push(analytic.bs - 1, analytic.bp_words, false);
    push(analytic.bs, analytic.bp_words / 2, false);
    push(analytic.bs, analytic.bp_words * 2, false);
  }
  return out;
}

std::vector<KernelIsa> compiled_isas() {
  std::vector<KernelIsa> out;
  for (const KernelIsa isa : core::all_kernel_isas()) {
    if (core::kernel_available(isa)) out.push_back(isa);
  }
  return out;
}

double best_of_reps(unsigned reps, const std::function<double()>& run) {
  double best = 0.0;
  for (unsigned r = 0; r < reps; ++r) best = std::max(best, run());
  return best;
}

struct GridContext {
  const TuneOptions& opt;
  std::vector<KernelIsa> isas;
  core::L1Config l1;
  unsigned reps;
  std::uint64_t target_combos;
  std::vector<FamilyResult>& results;

  void log(const std::string& line) const {
    if (opt.log) opt.log(line);
  }

  /// Runs the (ISA x tiling) grid for one family with `measure(isa,
  /// tiling)` returning elements/second, picks the winner, and records the
  /// analytic baseline (best_kernel_isa + its analytic tiling, which
  /// `analytic_tiling(isa)` supplies per vector width).
  void measure_family(
      const ProfileKey& key,
      const std::function<TilingParams(KernelIsa)>& analytic_tiling,
      const std::function<double(KernelIsa, const TilingParams&)>& measure) {
    FamilyResult fr;
    fr.key = key;
    const KernelIsa model_isa = core::best_kernel_isa();
    for (const KernelIsa isa : isas) {
      const TilingParams base = analytic_tiling(isa);
      for (const auto& [tiling, is_analytic] : tiling_candidates(
               base, core::kernel_vector_words(isa), opt.quick)) {
        TuneCandidate c;
        c.isa = isa;
        c.tiling = tiling;
        c.analytic = is_analytic && isa == model_isa;
        c.throughput =
            best_of_reps(reps, [&] { return measure(isa, tiling); });
        fr.candidates.push_back(c);
      }
    }
    const auto winner = std::max_element(
        fr.candidates.begin(), fr.candidates.end(),
        [](const TuneCandidate& a, const TuneCandidate& b) {
          return a.throughput < b.throughput;
        });
    const auto analytic = std::find_if(
        fr.candidates.begin(), fr.candidates.end(),
        [](const TuneCandidate& c) { return c.analytic; });
    fr.entry.isa = winner->isa;
    fr.entry.tiling = winner->tiling;
    fr.entry.throughput = winner->throughput;
    if (analytic != fr.candidates.end()) {
      fr.entry.analytic_isa = analytic->isa;
      fr.entry.analytic_tiling = analytic->tiling;
      fr.entry.analytic_throughput = analytic->throughput;
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s order %u: winner %s <%zu,%zu> %.3g el/s "
                  "(analytic %s: %.3g el/s)",
                  core::kernel_family_name(key.family).c_str(), key.order,
                  core::kernel_isa_name(fr.entry.isa).c_str(),
                  fr.entry.tiling.bs, fr.entry.tiling.bp_words,
                  fr.entry.throughput,
                  core::kernel_isa_name(fr.entry.analytic_isa).c_str(),
                  fr.entry.analytic_throughput);
    log(line);
    results.push_back(std::move(fr));
  }
};

/// Scan-path measurement for one order: a synthetic dataset sized for the
/// requested sample bucket, one detector, one shared scorer, and runs with
/// the ISA and tiling pinned so the measurement is of exactly the
/// configuration the profile would later resolve.
template <unsigned K>
void measure_order(GridContext& ctx) {
  const std::size_t snps = panel_snps(K, ctx.target_combos);
  const dataset::GenotypeMatrix data = dataset::generate_balanced(
      snps, ctx.opt.n_samples, ctx.opt.seed + K);
  const core::BasicDetector<K> detector(data);
  const auto scorer = core::make_normalized_scorer_of<K>(
      core::Objective::kK2, static_cast<std::uint32_t>(ctx.opt.n_samples));

  const auto scan_throughput = [&](core::CpuVersion version, KernelIsa isa,
                                   const TilingParams& tiling) {
    core::BasicDetectorOptions<K> o;
    o.version = version;
    o.isa = isa;
    o.isa_auto = false;
    o.tiling = tiling;
    o.threads = 1;
    o.scorer = scorer;
    return detector.run(o).elements_per_second();
  };

  const std::uint64_t bucket = sample_bucket_words(ctx.opt.n_samples);
  const auto versions = {core::CpuVersion::kV4Vector,
                         core::CpuVersion::kV5PairCache};
  for (const core::CpuVersion version : versions) {
    // At K = 2 the counts-only pair path makes V5 identical to V4; one
    // measurement covers the single kPairCount family.
    if (K == 2 && version == core::CpuVersion::kV5PairCache) continue;
    const bool cached = version == core::CpuVersion::kV5PairCache;
    ProfileKey key;
    key.family = core::scan_kernel_family(K, version, false);
    key.order = K;
    key.bucket_words = bucket;
    ctx.measure_family(
        key,
        [&](KernelIsa isa) {
          return core::autotune_tiling(ctx.l1, core::kernel_vector_words(isa),
                                       K, cached);
        },
        [&](KernelIsa isa, const TilingParams& tiling) {
          return scan_throughput(version, isa, tiling);
        });
  }

  // The batched finalize rides the order-3 grid pass (its key is
  // per-order anyway; measuring it once at the canonical order keeps the
  // grid small while covering the permutation-testing hot path).
  if (K == 3 && ctx.opt.batch_slots > 0) {
    std::mt19937_64 rng(ctx.opt.seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<std::vector<dataset::Phenotype>> parts(
        ctx.opt.batch_slots,
        std::vector<dataset::Phenotype>(ctx.opt.n_samples));
    for (auto& p : parts) {
      for (auto& v : p) v = static_cast<dataset::Phenotype>(rng() & 1);
    }
    const dataset::PhenotypeBatch batch =
        dataset::PhenotypeBatch::build(ctx.opt.n_samples, parts);
    ProfileKey key;
    key.family = core::KernelFamily::kFinalizeBatched;
    key.order = K;
    key.bucket_words = bucket;
    key.batch_slots = batch_slot_bucket(ctx.opt.batch_slots);
    ctx.measure_family(
        key,
        [&](KernelIsa isa) {
          return core::autotune_tiling(ctx.l1, core::kernel_vector_words(isa),
                                       K, true, batch.size(), batch.stride());
        },
        [&](KernelIsa isa, const TilingParams& tiling) {
          core::BasicDetectorOptions<K> o;
          o.isa = isa;
          o.isa_auto = false;
          o.tiling = tiling;
          o.threads = 1;
          o.scorer = scorer;
          return detector.run_batched(batch, o).elements_per_second();
        });
  }

  // pair_plane_build, timed standalone against the raw kernel: the only
  // family without a dedicated detector path (it also rides inside every
  // V5 number above; this entry exists so the bench fold can compare the
  // build phase across ISAs in isolation).  Throughput is in the same
  // elements metric: pairs x samples.
  if (K == 3) {
    const dataset::PhenoSplitPlanes& planes = detector.planes_split();
    const std::size_t words = planes.words(0);
    ProfileKey key;
    key.family = core::KernelFamily::kPairPlaneBuild;
    key.order = K;
    key.bucket_words = bucket;
    ctx.measure_family(
        key,
        [&](KernelIsa isa) {
          return core::autotune_tiling(ctx.l1, core::kernel_vector_words(isa),
                                       K, true);
        },
        [&](KernelIsa isa, const TilingParams& tiling) {
          const core::CachedKernelSet kset = core::get_cached_kernels(isa);
          const std::size_t stride =
              (std::min(tiling.bp_words, words) + 15) / 16 * 16;
          aligned_vector<core::Word> xy(9 * stride);
          std::uint32_t pop9[9];
          const std::size_t pairs = std::min<std::size_t>(
              snps * (snps - 1) / 2, ctx.opt.quick ? 512 : 2048);
          const auto t0 = std::chrono::steady_clock::now();
          std::size_t measured = 0;
          for (std::size_t x = 0; x < snps && measured < pairs; ++x) {
            for (std::size_t y = x + 1; y < snps && measured < pairs; ++y) {
              for (std::size_t w = 0; w < words; w += tiling.bp_words) {
                const std::size_t w_end =
                    std::min(words, w + tiling.bp_words);
                std::fill(pop9, pop9 + 9, 0u);
                kset.build(planes.plane(0, x, 0), planes.plane(0, x, 1),
                           planes.plane(0, y, 0), planes.plane(0, y, 1), w,
                           w_end, xy.data(), stride, pop9);
              }
              ++measured;
            }
          }
          const double seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
          const double elements = static_cast<double>(measured) *
                                  static_cast<double>(planes.samples(0));
          return seconds > 0.0 ? elements / seconds : 0.0;
        });
  }
}

}  // namespace

TuningProfile TuneReport::to_profile() const {
  TuningProfile profile;
  profile.host = host;
  for (const FamilyResult& fr : results) profile.entries[fr.key] = fr.entry;
  return profile;
}

TuneReport run_tuning_grid(const TuneOptions& options) {
  for (const unsigned k : options.orders) {
    if (k < 2 || k > combinatorics::kMaxOrder)
      throw std::invalid_argument(
          "tune: order " + std::to_string(k) + " out of range [2, " +
          std::to_string(combinatorics::kMaxOrder) + "]");
  }
  if (options.n_samples == 0)
    throw std::invalid_argument("tune: n_samples must be positive");

  TuneReport report;
  report.host = this_host_fingerprint();

  GridContext ctx{options,
                  compiled_isas(),
                  core::detect_l1_config(),
                  options.quick ? 1u : 3u,
                  options.quick ? 2000ull : 20000ull,
                  report.results};

  const std::set<unsigned> orders(options.orders.begin(),
                                  options.orders.end());
  for (const unsigned k : orders) {
    combinatorics::with_order(
        k, [&](auto kc) { measure_order<decltype(kc)::value>(ctx); });
  }
  return report;
}

std::string tune_report_json(const TuneReport& report) {
  std::ostringstream os;
  os << "{\n";
  bool first = true;
  for (const FamilyResult& fr : report.results) {
    if (!first) os << ",\n";
    first = false;
    os << "  \"tune/" << core::kernel_family_name(fr.key.family) << "/order"
       << fr.key.order << "/w" << fr.key.bucket_words;
    if (fr.key.batch_slots > 0) os << "/p" << fr.key.batch_slots;
    os << "\": {";
    char buf[512];
    const double analytic = fr.entry.analytic_throughput;
    std::snprintf(buf, sizeof(buf),
                  "\"elements_per_s\": %.6g, \"analytic_elements_per_s\": "
                  "%.6g, \"speedup\": %.6g, \"isa\": \"%s\", \"bs\": %zu, "
                  "\"bp_words\": %zu, \"analytic_isa\": \"%s\", "
                  "\"analytic_bs\": %zu, \"analytic_bp_words\": %zu",
                  fr.entry.throughput, analytic,
                  analytic > 0.0 ? fr.entry.throughput / analytic : 1.0,
                  core::kernel_isa_name(fr.entry.isa).c_str(),
                  fr.entry.tiling.bs, fr.entry.tiling.bp_words,
                  core::kernel_isa_name(fr.entry.analytic_isa).c_str(),
                  fr.entry.analytic_tiling.bs,
                  fr.entry.analytic_tiling.bp_words);
    os << buf << "}";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace trigen::tune
