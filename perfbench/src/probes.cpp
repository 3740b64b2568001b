#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "trigen/carm/memory_levels.hpp"
#include "trigen/carm/roofs.hpp"
#include "trigen/core/blocked_engine.hpp"
#include "trigen/core/kernel_config.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/stats/permutation.hpp"

namespace perfbench {

using namespace trigen;

dataset::PhenotypeBatch permutation_batch(const dataset::GenotypeMatrix& d) {
  std::vector<std::vector<dataset::Phenotype>> parts;
  parts.emplace_back(d.phenotypes().begin(), d.phenotypes().end());
  SplitMix64 seeds(7);
  while (parts.size() < kBatchPartitions) {
    parts.push_back(stats::shuffled_labels(d, seeds.next()));
  }
  return dataset::PhenotypeBatch::build(d.num_samples(), parts);
}

std::string default_family(unsigned order, bool batched) {
  switch (core::scan_kernel_family(order, core::ScanOptionsBase{}.version,
                                   batched)) {
    case core::KernelFamily::kPairCount: return "pair_count";
    case core::KernelFamily::kTripleBlock: return "triple";
    case core::KernelFamily::kTripleBlockCached: return "triple_cached";
    case core::KernelFamily::kPairPlaneBuild: return "triple_cached";
    case core::KernelFamily::kTupleBlock: return "tuple_direct";
    case core::KernelFamily::kPrefixLadder: return "prefix_final";
    case core::KernelFamily::kFinalizeBatched: return "batch_final";
  }
  return "triple";
}

namespace {

/// Operations and bytes per word of one phenotype class, counted from the
/// scalar reference kernels (kernels_scalar.cpp): a NOR is two operations,
/// every AND, XOR and POPCNT one; bytes are the plane words each call
/// reads plus the ones it writes.
struct Intensity {
  double ops;
  double bytes;
};

Intensity intensity_of(const std::string& family, std::size_t label_stride) {
  if (family == "pair_count") return {2 * 2 + 9 + 9, 4 * 4};
  if (family == "triple") return {3 * 2 + 9 + 27 + 27, 6 * 4};
  if (family == "triple_cached") return {9 * 4, (9 + 2) * 4};
  // Order 4: four NORs, 3 + 9 + 27 + 81 ANDs down the product tree and 81
  // POPCNTs.
  if (family == "tuple_direct") return {4 * 2 + 120 + 81, 8 * 4};
  // Rung 2 -> 3 with popcounts: per plane 2 AND, 2 XOR, 3 POPCNT; reads 9
  // planes and 2 operands, writes 27 planes.
  if (family == "prefix_extend") return {9 * 7, (9 + 2 + 27) * 4};
  if (family == "prefix_final") return {27 * 4, (27 + 2) * 4};
  // Nine prefix planes: 2 AND + 2 POPCNT for the totals and, per label
  // lane, 4 AND + 2 POPCNT; reads the planes, both operands and one label
  // row.
  const double p = static_cast<double>(kBatchPartitions);
  return {9 * (4 + 6 * p),
          (9 + 2 + static_cast<double>(label_stride)) * 4};
}

/// Operand `j` of call `i` in a walk shaped like the blocked engine's: the
/// leading operands cycle through a block of kBlock SNPs (resident in L1),
/// the last operand streams over all `m` SNPs.
constexpr std::size_t kBlock = 8;
std::size_t snp(std::size_t i, std::size_t j, bool last, std::size_t m) {
  return last ? i % m : (j + i / m) % std::min(kBlock, m);
}

/// Words per second of `call(i)`, each call processing `words` words.
template <typename Call>
double rate(Call&& call, std::size_t words) {
  const std::size_t per_batch = std::max<std::size_t>(1, 200000 / words);
  std::size_t i = 0;
  const double t = time_median(
      [&] {
        for (std::size_t b = 0; b < per_batch; ++b) call(i++);
      },
      0.1, 3);
  return static_cast<double>(per_batch * words) / t;
}

}  // namespace

std::map<std::string, double> kernel_and_carm_probes(
    const dataset::GenotypeMatrix& d, const dataset::PhenoSplitPlanes& planes,
    core::KernelIsa isa, Report& rep) {
  const std::size_t m = planes.num_snps();
  const std::size_t w0 = planes.words(0);
  const std::size_t w1 = planes.words(1);
  const core::TripleBlockKernel triple = core::get_kernel(isa);
  const core::CachedKernelSet cached = core::get_cached_kernels(isa);
  const core::GenericKernelSet generic = core::get_generic_kernels(isa);
  const core::BatchKernelSet batched = core::get_batch_kernels(isa);
  std::map<std::string, double> words_per_s;

  std::uint32_t ft[1 + kBatchPartitions][81] = {};
  std::uint32_t pops9[9] = {};
  const auto per_class = [&](auto&& fn) {
    fn(0, w0);
    fn(1, w1);
  };

  words_per_s["pair_count"] = rate(
      [&](std::size_t i) {
        per_class([&](int c, std::size_t w) {
          const std::size_t x = snp(i, 0, false, m), y = snp(i, 1, true, m);
          cached.count(planes.plane(c, x, 0), planes.plane(c, x, 1),
                       planes.plane(c, y, 0), planes.plane(c, y, 1), 0, w,
                       pops9);
        });
        keep(pops9[0]);
      },
      w0 + w1);

  words_per_s["triple"] = rate(
      [&](std::size_t i) {
        per_class([&](int c, std::size_t w) {
          const std::size_t x = snp(i, 0, false, m),
                            y = snp(i, 1, false, m), z = snp(i, 2, true, m);
          triple(planes.plane(c, x, 0), planes.plane(c, x, 1),
                 planes.plane(c, y, 0), planes.plane(c, y, 1),
                 planes.plane(c, z, 0), planes.plane(c, z, 1), 0, w, ft[0]);
        });
        keep(ft[0][0]);
      },
      w0 + w1);

  // The ladder families reuse one prefix per class, as the engine does for
  // every last-axis SNP of a block.
  core::PrefixPlaneCache cache[2];
  per_class([&](int c, std::size_t w) {
    cache[c].ensure(4, w);
    std::fill(cache[c].rung_pops(2), cache[c].rung_pops(2) + 9, 0u);
    cached.build(planes.plane(c, 0, 0), planes.plane(c, 0, 1),
                 planes.plane(c, 1, 0), planes.plane(c, 1, 1), 0, w,
                 cache[c].rung(2), cache[c].stride(), cache[c].rung_pops(2));
    std::fill(cache[c].rung_pops(3), cache[c].rung_pops(3) + 27, 0u);
    generic.extend(cache[c].rung(2), 9, cache[c].stride(),
                   planes.plane(c, 2, 0), planes.plane(c, 2, 1), 0, w,
                   cache[c].rung(3), cache[c].stride(), cache[c].rung_pops(3));
  });

  words_per_s["triple_cached"] = rate(
      [&](std::size_t i) {
        per_class([&](int c, std::size_t w) {
          const std::size_t z = snp(i, 2, true, m);
          cached.cached(cache[c].rung(2), cache[c].stride(),
                        cache[c].rung_pops(2), planes.plane(c, z, 0),
                        planes.plane(c, z, 1), 0, w, ft[0]);
        });
        keep(ft[0][0]);
      },
      w0 + w1);

  words_per_s["tuple_direct"] = rate(
      [&](std::size_t i) {
        per_class([&](int c, std::size_t w) {
          const dataset::Word* g0[4];
          const dataset::Word* g1[4];
          for (std::size_t j = 0; j < 4; ++j) {
            const std::size_t s = snp(i, j, j == 3, m);
            g0[j] = planes.plane(c, s, 0);
            g1[j] = planes.plane(c, s, 1);
          }
          generic.direct(g0, g1, 4, 0, w, ft[0]);
        });
        keep(ft[0][0]);
      },
      w0 + w1);

  // Extend writes rung 3 of a scratch ladder so the timed finalize below
  // keeps reading a consistent rung 3.
  core::PrefixPlaneCache scratch[2];
  per_class([&](int c, std::size_t w) { scratch[c].ensure(4, w); });
  words_per_s["prefix_extend"] = rate(
      [&](std::size_t i) {
        per_class([&](int c, std::size_t w) {
          const std::size_t s = snp(i, 2, true, m);
          std::uint32_t* pops = scratch[c].rung_pops(3);
          std::fill(pops, pops + 27, 0u);
          generic.extend(cache[c].rung(2), 9, cache[c].stride(),
                         planes.plane(c, s, 0), planes.plane(c, s, 1), 0, w,
                         scratch[c].rung(3), scratch[c].stride(), pops);
        });
        keep(scratch[0].rung_pops(3)[0]);
      },
      w0 + w1);

  words_per_s["prefix_final"] = rate(
      [&](std::size_t i) {
        per_class([&](int c, std::size_t w) {
          const std::size_t z = snp(i, 3, true, m);
          generic.finalize(cache[c].rung(3), 27, cache[c].stride(),
                           cache[c].rung_pops(3), planes.plane(c, z, 0),
                           planes.plane(c, z, 1), 0, w, ft[0]);
        });
        keep(ft[0][0]);
      },
      w0 + w1);

  // Batched finalize over the combined planes: observed labels plus
  // shuffled nulls, nine cached prefix planes (the order-3 shape).
  const auto combined = dataset::PhenoSplitPlanes::build_combined(d);
  const auto batch = permutation_batch(d);
  const std::size_t wc = combined.words(0);
  core::PrefixPlaneCache bcache;
  bcache.ensure(3, wc);
  std::fill(bcache.pops(), bcache.pops() + 9, 0u);
  cached.build(combined.plane(0, 0, 0), combined.plane(0, 0, 1),
               combined.plane(0, 1, 0), combined.plane(0, 1, 1), 0, wc,
               bcache.planes(), bcache.stride(), bcache.pops());
  std::vector<std::uint32_t> label_pops(9 * batch.stride(), 0);
  batched.label_pops(bcache.planes(), 9, bcache.stride(), batch.word_labels(),
                     batch.size(), batch.stride(), 0, wc, label_pops.data());
  words_per_s["batch_final"] = rate(
      [&](std::size_t i) {
        const std::size_t z = snp(i, 2, true, m);
        batched.finalize(bcache.planes(), 9, bcache.stride(), bcache.pops(),
                         label_pops.data(), combined.plane(0, z, 0),
                         combined.plane(0, z, 1), batch.word_labels(),
                         batch.size(), batch.stride(), 0, wc, &ft[0][0], 27);
        keep(ft[0][0]);
      },
      wc);

  // CARM roofs of one core, measured in the same run.
  std::size_t l1_bytes = 16 * 1024, l2_bytes = 512 * 1024;
  for (const auto& level : carm::detect_memory_levels()) {
    if (level.name == "L1") l1_bytes = level.probe_bytes;
    if (level.name == "L2") l2_bytes = level.probe_bytes;
  }
  const double l1 = carm::measure_load_bandwidth(l1_bytes);
  const double l2 = carm::measure_load_bandwidth(l2_bytes);
  const double vec = carm::measure_vector_add_peak();
  rep.metric("carm.l1_gb_s", l1 / 1e9, "GB/s");
  rep.metric("carm.l2_gb_s", l2 / 1e9, "GB/s");
  rep.metric("carm.vector_add_gops", vec / 1e9, "Gop/s");

  for (const std::string& f : kernel_families()) {
    const Intensity in = intensity_of(f, batch.stride());
    const double ops_per_byte = in.ops / in.bytes;
    const double roof = std::min(ops_per_byte * l1, vec);
    rep.metric("core.kernel_gwords_per_s." + f, words_per_s[f] / 1e9,
               "Gword/s");
    rep.metric("core.ops_per_byte." + f, ops_per_byte, "op/B");
    rep.metric("core.roof_frac." + f, words_per_s[f] * in.ops / roof, "ratio");
  }
  return words_per_s;
}

}  // namespace perfbench
