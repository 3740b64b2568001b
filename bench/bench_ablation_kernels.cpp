/// \file bench_ablation_kernels.cpp
/// \brief Ablation: triple-block contingency kernel throughput per ISA
/// (google-benchmark).
///
/// Measures the exact hot loop of the paper's V4 detector (6 loads, 3 NOR,
/// 27 AND, 27 POPCNT per word) for every vectorization strategy, in
/// words/second — the microscopic version of Fig. 3's per-ISA comparison.
/// The V5 order-3 path (`triple_final01`: the extend01 rung of one (x, y)
/// prefix plus finalize with count 4 for each of B_S z-SNPs, 8 AND + 8
/// POPCNT per triplet word) is measured alongside, as are the nine-plane
/// cached kernel (18 AND, 18 POPCNT per word) with its build phase, still
/// used by the k >= 4 ladder and the batched engines, and the pair scans'
/// count kernel (4 AND, 4 POPCNT per word: only the genotype-0/1 cells
/// are counted).

#include <benchmark/benchmark.h>

#include <vector>

#include "trigen/common/rng.hpp"
#include "trigen/core/blocked_engine.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/dataset/synthetic.hpp"

namespace {

using namespace trigen;

void bench_kernel(benchmark::State& state, core::KernelIsa isa) {
  if (!core::kernel_available(isa)) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto d = dataset::generate_balanced(4, samples, 7);
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const core::TripleBlockKernel kernel = core::get_kernel(isa);

  std::uint32_t ft[27] = {};
  for (auto _ : state) {
    kernel(planes.plane(0, 0, 0), planes.plane(0, 0, 1),
           planes.plane(0, 1, 0), planes.plane(0, 1, 1),
           planes.plane(0, 2, 0), planes.plane(0, 2, 1), 0, planes.words(0),
           ft);
    benchmark::DoNotOptimize(ft);
  }
  state.counters["words/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(planes.words(0)),
      benchmark::Counter::kIsRate);
  state.counters["elements/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(planes.words(0)) * 32,
      benchmark::Counter::kIsRate);
}

void bench_cached_kernel(benchmark::State& state, core::KernelIsa isa) {
  if (!core::kernel_available(isa)) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto d = dataset::generate_balanced(4, samples, 7);
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const core::CachedKernelSet ks = core::get_cached_kernels(isa);
  core::PrefixPlaneCache cache;
  cache.ensure(3, planes.words(0));
  std::fill(cache.pops(), cache.pops() + 9, 0u);
  ks.build(planes.plane(0, 0, 0), planes.plane(0, 0, 1),
           planes.plane(0, 1, 0), planes.plane(0, 1, 1), 0, planes.words(0),
           cache.planes(), cache.stride(), cache.pops());

  std::uint32_t ft[27] = {};
  for (auto _ : state) {
    ks.cached(cache.planes(), cache.stride(), cache.pops(),
              planes.plane(0, 2, 0), planes.plane(0, 2, 1), 0,
              planes.words(0), ft);
    benchmark::DoNotOptimize(ft);
  }
  state.counters["words/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(planes.words(0)),
      benchmark::Counter::kIsRate);
  state.counters["elements/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(planes.words(0)) * 32,
      benchmark::Counter::kIsRate);
}

/// The V5 order-3 hot path of one (x, y) prefix and sample chunk: the
/// extend01 rung (the four xa∩yb planes, a, b in {0, 1}) amortized over a
/// B_S-wide z walk of finalize calls with count 4.  Rates count triplet
/// words (B_S per iteration and plane word).
void bench_triple_final01(benchmark::State& state, core::KernelIsa isa) {
  if (!core::kernel_available(isa)) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  constexpr std::size_t kBs = 5;
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto d = dataset::generate_balanced(2 + kBs, samples, 7);
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const std::size_t words = planes.words(0);
  const core::GenericKernelSet gk = core::get_generic_kernels(isa);
  core::PrefixPlaneCache cache;
  cache.ensure(3, words);

  std::uint32_t ft[kBs][12] = {};
  for (auto _ : state) {
    std::fill(cache.rung_pops(2), cache.rung_pops(2) + 4, 0u);
    gk.extend01(planes.plane(0, 0, 0), 2, words, planes.plane(0, 1, 0),
                planes.plane(0, 1, 1), 0, words, cache.rung(2),
                cache.stride(), cache.rung_pops(2));
    for (std::size_t z = 0; z < kBs; ++z) {
      gk.finalize(cache.rung(2), 4, cache.stride(), cache.rung_pops(2),
                  planes.plane(0, 2 + z, 0), planes.plane(0, 2 + z, 1), 0,
                  words, ft[z]);
    }
    benchmark::DoNotOptimize(ft);
  }
  const double triplet_words = static_cast<double>(state.iterations()) *
                               static_cast<double>(words * kBs);
  state.counters["words/s"] =
      benchmark::Counter(triplet_words, benchmark::Counter::kIsRate);
  state.counters["elements/s"] =
      benchmark::Counter(triplet_words * 32, benchmark::Counter::kIsRate);
}

void bench_build_kernel(benchmark::State& state, core::KernelIsa isa) {
  if (!core::kernel_available(isa)) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto d = dataset::generate_balanced(4, samples, 7);
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const core::CachedKernelSet ks = core::get_cached_kernels(isa);
  core::PrefixPlaneCache cache;
  cache.ensure(3, planes.words(0));

  for (auto _ : state) {
    std::fill(cache.pops(), cache.pops() + 9, 0u);
    ks.build(planes.plane(0, 0, 0), planes.plane(0, 0, 1),
             planes.plane(0, 1, 0), planes.plane(0, 1, 1), 0,
             planes.words(0), cache.planes(), cache.stride(), cache.pops());
    benchmark::DoNotOptimize(cache.planes());
  }
  state.counters["words/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(planes.words(0)),
      benchmark::Counter::kIsRate);
}

/// The k = 2 count kernel: the four genotype-0/1 cells of one SNP pair over
/// one class's planes (the other five cells come from per-SNP counts).
void bench_pair_count_kernel(benchmark::State& state, core::KernelIsa isa) {
  if (!core::kernel_available(isa)) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto d = dataset::generate_balanced(2, samples, 7);
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const core::PairPlaneCountKernel count = core::get_cached_kernels(isa).count;

  std::uint32_t row[9] = {};
  for (auto _ : state) {
    count(planes.plane(0, 0, 0), planes.plane(0, 0, 1),
          planes.plane(0, 1, 0), planes.plane(0, 1, 1), 0, planes.words(0),
          row);
    benchmark::DoNotOptimize(row);
    benchmark::ClobberMemory();
  }
  state.counters["words/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(planes.words(0)),
      benchmark::Counter::kIsRate);
  state.counters["elements/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(planes.words(0)) * 32,
      benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------------------------
// Order 4: the generic kernel family (K >= 4 rungs of the prefix ladder)
// ---------------------------------------------------------------------------

/// Direct order-4 contingency accumulation (the V4 analogue for K >= 4):
/// 8 loads, 4 NOR, 81 AND-trees, 81 POPCNT per word.
void bench_tuple_kernel_k4(benchmark::State& state, core::KernelIsa isa) {
  if (!core::kernel_available(isa)) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto d = dataset::generate_balanced(5, samples, 7);
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const core::GenericKernelSet ks = core::get_generic_kernels(isa);
  std::array<const core::Word*, 4> g0;
  std::array<const core::Word*, 4> g1;
  for (std::size_t i = 0; i < 4; ++i) {
    g0[i] = planes.plane(0, i, 0);
    g1[i] = planes.plane(0, i, 1);
  }

  std::uint32_t ft[81] = {};
  for (auto _ : state) {
    ks.direct(g0.data(), g1.data(), 4, 0, planes.words(0), ft);
    benchmark::DoNotOptimize(ft);
  }
  state.counters["words/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(planes.words(0)),
      benchmark::Counter::kIsRate);
  state.counters["elements/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(planes.words(0)) * 32,
      benchmark::Counter::kIsRate);
}

/// Order-4 prefix ladder, finalize phase: the 27 cached (x∩y∩z) planes
/// against the last SNP's operands — 54 AND, 54 POPCNT per word, with the
/// 27 genotype-2 cells derived from the partition identity.
void bench_tuple_cached_kernel_k4(benchmark::State& state,
                                  core::KernelIsa isa) {
  if (!core::kernel_available(isa)) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto d = dataset::generate_balanced(5, samples, 7);
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const core::CachedKernelSet cached = core::get_cached_kernels(isa);
  const core::GenericKernelSet ks = core::get_generic_kernels(isa);
  const std::size_t words = planes.words(0);
  core::PrefixPlaneCache cache;
  cache.ensure(4, words);
  std::fill(cache.rung_pops(2), cache.rung_pops(2) + 9, 0u);
  cached.build(planes.plane(0, 0, 0), planes.plane(0, 0, 1),
               planes.plane(0, 1, 0), planes.plane(0, 1, 1), 0, words,
               cache.rung(2), cache.stride(), cache.rung_pops(2));
  std::fill(cache.rung_pops(3), cache.rung_pops(3) + 27, 0u);
  ks.extend(cache.rung(2), 9, cache.stride(), planes.plane(0, 2, 0),
            planes.plane(0, 2, 1), 0, words, cache.rung(3), cache.stride(),
            cache.rung_pops(3));

  std::uint32_t ft[81] = {};
  for (auto _ : state) {
    ks.finalize(cache.rung(3), 27, cache.stride(), cache.rung_pops(3),
                planes.plane(0, 3, 0), planes.plane(0, 3, 1), 0, words, ft);
    benchmark::DoNotOptimize(ft);
  }
  state.counters["words/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(words),
      benchmark::Counter::kIsRate);
  state.counters["elements/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(words) * 32,
      benchmark::Counter::kIsRate);
}

/// Order-4 prefix ladder, extend phase: growing the 9 x∩y planes into the
/// 27 x∩y∩z planes (18 AND + 9 derived XOR per word, plus the final-rung
/// popcounts) — the amortized cost the finalize savings pay for.
void bench_prefix_extend_k4(benchmark::State& state, core::KernelIsa isa) {
  if (!core::kernel_available(isa)) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto d = dataset::generate_balanced(5, samples, 7);
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const core::CachedKernelSet cached = core::get_cached_kernels(isa);
  const core::GenericKernelSet ks = core::get_generic_kernels(isa);
  const std::size_t words = planes.words(0);
  core::PrefixPlaneCache cache;
  cache.ensure(4, words);
  std::fill(cache.rung_pops(2), cache.rung_pops(2) + 9, 0u);
  cached.build(planes.plane(0, 0, 0), planes.plane(0, 0, 1),
               planes.plane(0, 1, 0), planes.plane(0, 1, 1), 0, words,
               cache.rung(2), cache.stride(), cache.rung_pops(2));

  for (auto _ : state) {
    std::fill(cache.rung_pops(3), cache.rung_pops(3) + 27, 0u);
    ks.extend(cache.rung(2), 9, cache.stride(), planes.plane(0, 2, 0),
              planes.plane(0, 2, 1), 0, words, cache.rung(3), cache.stride(),
              cache.rung_pops(3));
    benchmark::DoNotOptimize(cache.rung(3));
  }
  state.counters["words/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(words),
      benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------------------------
// Batched multi-phenotype finalize (P partitions per prefix)
// ---------------------------------------------------------------------------

/// Batched finalize at order 3: the 9 cached x∩y planes against one z and
/// P = 16 label planes at once — label popcounts amortized per prefix, the
/// per-partition genotype-2 cells derived from the partition identity.
/// Emits 1 + P contingency tables per iteration; compare tables/s against
/// triple_block_cached (one table per iteration) for the amortization win.
void bench_batch_finalize(benchmark::State& state, core::KernelIsa isa) {
  if (!core::kernel_available(isa)) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  constexpr std::size_t kSlots = 16;
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto d = dataset::generate_balanced(4, samples, 7);
  const auto planes = dataset::PhenoSplitPlanes::build_combined(d);
  const std::size_t words = planes.words(0);

  // P shuffled copies of the real phenotype, word-interleaved.
  std::vector<std::vector<dataset::Phenotype>> parts;
  Xoshiro256 rng(11);
  for (std::size_t p = 0; p < kSlots; ++p) {
    std::vector<dataset::Phenotype> labels(samples);
    for (auto& l : labels) l = static_cast<dataset::Phenotype>(rng.bounded(2));
    parts.push_back(std::move(labels));
  }
  const auto batch = dataset::PhenotypeBatch::build(samples, parts);

  const core::CachedKernelSet cached = core::get_cached_kernels(isa);
  const core::BatchKernelSet bk = core::get_batch_kernels(isa);
  core::PrefixPlaneCache cache;
  cache.ensure(3, words);
  std::fill(cache.pops(), cache.pops() + 9, 0u);
  cached.build(planes.plane(0, 0, 0), planes.plane(0, 0, 1),
               planes.plane(0, 1, 0), planes.plane(0, 1, 1), 0, words,
               cache.planes(), cache.stride(), cache.pops());

  std::vector<std::uint32_t> label_pops(9 * batch.stride());
  std::vector<std::uint32_t> ft((1 + kSlots) * 27, 0);
  for (auto _ : state) {
    std::fill(label_pops.begin(), label_pops.end(), 0u);
    bk.label_pops(cache.planes(), 9, cache.stride(), batch.word_labels(),
                  batch.size(), batch.stride(), 0, words, label_pops.data());
    bk.finalize(cache.planes(), 9, cache.stride(), cache.pops(),
                label_pops.data(), planes.plane(0, 2, 0),
                planes.plane(0, 2, 1), batch.word_labels(), batch.size(),
                batch.stride(), 0, words, ft.data(), 27);
    benchmark::DoNotOptimize(ft.data());
  }
  state.counters["words/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(words),
      benchmark::Counter::kIsRate);
  state.counters["tables/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * (1.0 + kSlots),
      benchmark::Counter::kIsRate);
}

void register_all() {
  for (const auto isa : core::all_kernel_isas()) {
    benchmark::RegisterBenchmark(
        ("triple_block/" + core::kernel_isa_name(isa)).c_str(),
        [isa](benchmark::State& s) { bench_kernel(s, isa); })
        ->Arg(2048)     // one L1-resident plane set
        ->Arg(65536);   // L2-resident
  }
  for (const auto isa : core::all_kernel_isas()) {
    benchmark::RegisterBenchmark(
        ("triple_block_cached/" + core::kernel_isa_name(isa)).c_str(),
        [isa](benchmark::State& s) { bench_cached_kernel(s, isa); })
        ->Arg(2048)
        ->Arg(65536);
    benchmark::RegisterBenchmark(
        ("triple_final01/" + core::kernel_isa_name(isa)).c_str(),
        [isa](benchmark::State& s) { bench_triple_final01(s, isa); })
        ->Arg(2048)
        ->Arg(65536);
    benchmark::RegisterBenchmark(
        ("pair_plane_build/" + core::kernel_isa_name(isa)).c_str(),
        [isa](benchmark::State& s) { bench_build_kernel(s, isa); })
        ->Arg(2048)
        ->Arg(65536);
    benchmark::RegisterBenchmark(
        ("pair_count/" + core::kernel_isa_name(isa)).c_str(),
        [isa](benchmark::State& s) { bench_pair_count_kernel(s, isa); })
        ->Arg(2048)
        ->Arg(65536);
    benchmark::RegisterBenchmark(
        ("finalize_batched/" + core::kernel_isa_name(isa)).c_str(),
        [isa](benchmark::State& s) { bench_batch_finalize(s, isa); })
        ->Arg(2048)
        ->Arg(65536);
  }
  // The order-4 generic family.  Its extend and direct kernels are the
  // widest compiled generic path for every vector strategy (see
  // get_generic_kernels; only finalize has AVX-512 bodies), so one vector
  // ISA representative plus scalar covers the direct and extend paths.
  std::vector<core::KernelIsa> generic_isas = {core::KernelIsa::kScalar};
  if (core::best_kernel_isa() != core::KernelIsa::kScalar) {
    generic_isas.push_back(core::best_kernel_isa());
  }
  for (const auto isa : generic_isas) {
    const std::string tag = core::kernel_isa_name(isa);
    benchmark::RegisterBenchmark(
        ("tuple_block_k4/" + tag).c_str(),
        [isa](benchmark::State& s) { bench_tuple_kernel_k4(s, isa); })
        ->Arg(2048)
        ->Arg(65536);
    benchmark::RegisterBenchmark(
        ("tuple_block_k4_cached/" + tag).c_str(),
        [isa](benchmark::State& s) { bench_tuple_cached_kernel_k4(s, isa); })
        ->Arg(2048)
        ->Arg(65536);
    benchmark::RegisterBenchmark(
        ("prefix_extend_k4/" + tag).c_str(),
        [isa](benchmark::State& s) { bench_prefix_extend_k4(s, isa); })
        ->Arg(2048)
        ->Arg(65536);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
