#include "trigen/core/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <mutex>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

#include "trigen/dataset/bitplanes.hpp"

namespace trigen::core {

namespace {

/// B_S of the V5 ladder at order >= 4.  The engine streams sample chunks
/// on the outer loop, so each (z, chunk) finalize reads 3^(k-1) last-rung
/// planes of B_P words but writes only one 3^k-cell table, and each
/// prefix's last rung is rebuilt once per chunk and shared by the B_S
/// last-axis SNPs after it.  The tables therefore stream (they never needed
/// L1), and B_S only has to amortize the rebuild.  At B_S = 1 every block
/// tuple is one combination and every rung is rebuilt per combination.
/// One-thread V5 scans on a 4-vCPU AVX-512 Xeon (48 kB 12-way L1D) ran
/// k = 4 (48 SNPs x 8192) 0.47-0.59 s at (2, 96) and 0.27-0.41 s at
/// (3..6, 256); k = 5 (30 x 4096) 0.96-1.70 s at (1, 32) and 0.46-0.64 s
/// at (3, 64..512); k = 6 (24 x 4096) 4.0-5.4 s at (1, 16) and 1.37-2.0 s
/// at (3, 256).  B_S = 4 was no faster at k = 6, and its B_S^k * 2 * 3^k *
/// 4-byte tables take 24 MB per thread against 4.3 MB at B_S = 3.
constexpr std::size_t kLadderBlockSnps = 3;

}  // namespace

TilingParams autotune_tiling(const L1Config& l1, std::size_t vector_words,
                             unsigned order, bool cached) {
  const double way_bytes =
      static_cast<double>(l1.size_bytes) / std::max(1u, l1.ways);
  const double size_ft = way_bytes * l1.ways_for_tables;
  const double size_block = way_bytes * l1.ways_for_block;

  if (cached && order >= 4) {
    // The rungs stream from L2 like the tables: holding even the last one
    // (3^(k-1) planes) in a 16 kB block budget would cap B_P at three
    // AVX-512 granules at k = 5 and one at k = 6, and each finalize call
    // reduces 3^(k-1) plane accumulators however few words it covers.  So
    // only the paper's two-plane block formula, B_S * B_P * 4 * 2 <=
    // size_Block, sizes B_P.
    std::size_t bp = static_cast<std::size_t>(
        size_block / (4.0 * 2 * static_cast<double>(kLadderBlockSnps)));
    const std::size_t granule =
        std::max(vector_words, dataset::kWordsPerVector);
    bp = std::max(granule, bp / granule * granule);
    return TilingParams{kLadderBlockSnps, bp};
  }

  // B_S^order * 4 * 2 * 3^order <= size_FT
  const double cells = static_cast<double>(pow3(order));
  std::size_t bs = static_cast<std::size_t>(
      std::pow(size_ft / (4.0 * 2 * cells), 1.0 / order));
  bs = std::max<std::size_t>(1, bs);
  while (tuple_tables_bytes(bs + 1, order) <=
         static_cast<std::size_t>(size_ft)) {
    ++bs;
  }
  while (bs > 1 &&
         tuple_tables_bytes(bs, order) > static_cast<std::size_t>(size_ft)) {
    --bs;
  }

  // B_S * B_P * 4 * 2 <= size_Block, B_P a multiple of the vector width.
  // The cached engine at order 3 keeps the four {0,1} planes of rung 2 hot
  // alongside the streamed block, so its chunk adds them to the budget.
  // PrefixPlaneCache rounds its per-plane stride up to a whole number of
  // AVX-512 registers, so B_P itself is rounded to that granularity —
  // stride == B_P and the budgeted footprint is the one the scan touches.
  const bool has_cache_planes = cached && order == 3;
  const double bytes_per_bp =
      4.0 * 2 * static_cast<double>(bs) +
      (has_cache_planes ? static_cast<double>(pair_cache_bytes(1)) : 0.0);
  std::size_t bp = static_cast<std::size_t>(size_block / bytes_per_bp);
  const std::size_t granule =
      has_cache_planes ? std::max(vector_words, dataset::kWordsPerVector)
                       : vector_words;
  if (granule > 1) bp = bp / granule * granule;
  bp = std::max<std::size_t>(std::max<std::size_t>(1, granule), bp);

  return TilingParams{bs, bp};
}

TilingParams autotune_tiling(const L1Config& l1, std::size_t vector_words,
                             unsigned order, bool cached,
                             std::size_t batch_slots,
                             std::size_t label_stride) {
  if (batch_slots == 0) return autotune_tiling(l1, vector_words, order, cached);

  const double way_bytes =
      static_cast<double>(l1.size_bytes) / std::max(1u, l1.ways);
  const double size_block = way_bytes * l1.ways_for_block;

  // The batched engine holds 1 + P tables per live tuple (totals plus one
  // case table per partition), but unlike the sequential engine those
  // tables are only touched in a sequential writeback after each chunk's
  // word loop — they stream, they do not need L1 residency.  At every
  // order B_S is sized for completion reuse (every extra z amortizes the
  // per-chunk prefix planes and label popcounts) against an L2-scale table
  // budget.
  constexpr double kBatchTableBudget = 512.0 * 1024.0;
  const double per_z = (1.0 + static_cast<double>(batch_slots)) *
                       static_cast<double>(pow3(order)) * 4.0;
  std::size_t bs = static_cast<std::size_t>(kBatchTableBudget / per_z);
  bs = std::min<std::size_t>(std::max<std::size_t>(4, bs), 64);

  // Streamed-block budget per word: one completion's two genotype planes
  // (only one z is hot at a time), the prefix-plane ladder (none at
  // order 2), and the label rows.  At real partition counts the label
  // rows cannot be L1-resident for any usable chunk anyway — they stream
  // linearly from L2 — so the chunk is floored at sixteen granules: tiny
  // chunks only multiply the per-chunk ladder builds, label-pops passes
  // and table writebacks.
  const bool has_cache_planes = cached && order >= 3;
  const double bytes_per_bp =
      4.0 * 2 +
      (has_cache_planes ? static_cast<double>(prefix_cache_bytes(1, order))
                        : 0.0) +
      4.0 * static_cast<double>(label_stride);
  std::size_t bp = static_cast<std::size_t>(size_block / bytes_per_bp);
  const std::size_t granule =
      std::max(vector_words, dataset::kWordsPerVector);
  bp = bp / granule * granule;
  bp = std::max<std::size_t>(16 * granule, bp);

  return TilingParams{bs, bp};
}

namespace {

/// Parses e.g. "48K" from sysfs cache size files.
std::size_t parse_size(const std::string& s) {
  if (s.empty()) return 0;
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(s[i] - '0');
    ++i;
  }
  if (i < s.size() && (s[i] == 'K' || s[i] == 'k')) value *= 1024;
  if (i < s.size() && (s[i] == 'M' || s[i] == 'm')) value *= 1024 * 1024;
  return value;
}

std::string read_line(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  if (is) std::getline(is, line);
  return line;
}

}  // namespace

L1Config detect_l1_config() {
  int cpu = -1;
#if defined(__linux__)
  cpu = sched_getcpu();
#endif
  if (cpu < 0) cpu = 0;
  // Every run() reads the geometry, and a served or sharded job makes one
  // run() per chunk: read sysfs once per CPU, not once per call.
  static std::mutex mu;
  static std::map<int, L1Config> by_cpu;
  const std::lock_guard<std::mutex> lock(mu);
  auto it = by_cpu.find(cpu);
  if (it == by_cpu.end()) {
    it = by_cpu.emplace(cpu, detect_l1_config("/sys/devices/system/cpu", cpu))
             .first;
  }
  return it->second;
}

L1Config detect_l1_config(const std::string& sysfs_cpu_root, int cpu) {
  L1Config cfg;
  cfg.size_bytes = 32 * 1024;
  cfg.ways = 8;

  if (cpu < 0) {
#if defined(__linux__)
    cpu = sched_getcpu();
#endif
    if (cpu < 0) cpu = 0;
  }

  // Scan the CPU's cache index entries for the level-1 data cache rather
  // than assuming index0 — sysfs does not guarantee the ordering, and
  // per-CPU entries are what differ on hybrid parts.
  const auto probe = [&](int c) -> bool {
    const std::string base =
        sysfs_cpu_root + "/cpu" + std::to_string(c) + "/cache/index";
    for (int idx = 0; idx < 8; ++idx) {
      const std::string dir = base + std::to_string(idx) + "/";
      const std::string level = read_line(dir + "level");
      if (level.empty()) break;  // no further index entries
      if (level != "1") continue;
      const std::string type = read_line(dir + "type");
      if (type != "Data" && type != "Unified") continue;
      const std::size_t size = parse_size(read_line(dir + "size"));
      if (size == 0) return false;
      cfg.size_bytes = size;
      const unsigned w = static_cast<unsigned>(
          parse_size(read_line(dir + "ways_of_associativity")));
      if (w > 0) cfg.ways = w;
      return true;
    }
    return false;
  };
  if (!probe(cpu) && cpu != 0) probe(0);

  // Paper's split: 7 ways of tables everywhere; on wide (>=12-way) caches
  // keep one spare way for the hardware prefetcher, on 8-way caches use the
  // single remaining way for the block.
  cfg.ways_for_tables = std::min(7u, cfg.ways > 1 ? cfg.ways - 1 : 1u);
  if (cfg.ways >= 12) {
    cfg.ways_for_block = cfg.ways - cfg.ways_for_tables - 1;
  } else {
    cfg.ways_for_block = std::max(1u, cfg.ways - cfg.ways_for_tables);
  }
  return cfg;
}

}  // namespace trigen::core
