#pragma once
/// \file tiling.hpp
/// \brief Loop-tiling parameter selection (paper §IV-A).
///
/// The blocked kernels process B_S^3 SNP triplets against B_P sample words
/// at a time.  The paper sizes both so the frequency-table array and the
/// data block fit in the L1 data cache:
///
///   B_S^3 * beta_int * 2 * 27      <= size_FT      (frequency tables)
///   B_S   * B_P * beta_int * 2     <= size_Block   (bit-plane block)
///
/// with beta_int = 4 B.  E.g. Ice Lake SP (48 kB, 12-way L1D): 7 ways for
/// the tables (28 kB) and 4 ways for the block (16 kB) give B_S <= 5.1 and
/// B_P <= 409.6, i.e. the paper's <5, 400> configuration.

#include <cstddef>
#include <string>

namespace trigen::core {

/// Block sizes for the tiled engine.  `bp_words` counts 32-bit sample words
/// (the beta_int units of the paper's formula).
struct TilingParams {
  std::size_t bs = 5;         ///< SNPs per block (B_S)
  std::size_t bp_words = 400; ///< sample words per block (B_P)

  bool valid() const { return bs > 0 && bp_words > 0; }
};

/// Description of the L1 data cache used to derive tiling parameters.
struct L1Config {
  std::size_t size_bytes = 48 * 1024;
  unsigned ways = 12;
  unsigned ways_for_tables = 7;  ///< ways reserved for the frequency tables
  unsigned ways_for_block = 4;   ///< ways reserved for the streamed block
};

/// Applies the paper's sizing formulas to `l1` at interaction order
/// `order`.  `vector_words` rounds bp_words down to a multiple of the
/// kernel's vector width ("B_P is rounded to the closest multiple of the
/// number of 32-bit integers that fit in the vector registers").  B_S
/// solves B_S^order * 4 * 2 * 3^order <= size_FT (the tables of one block
/// tuple hold 3^order cells per class), and B_P solves the streamed-block
/// formula B_S*B_P*4*2 <= size_Block.  When `cached` is set (the V5
/// engine) at order 3, the block budget also covers the four {0,1} planes
/// of rung 2 (pair_cache_bytes): B_S*B_P*4*2 + 4*B_P*4 <= size_Block.  At
/// order >= 4 the V5 ladder's tables and rungs stream instead of staying
/// L1-resident, so it takes B_S = 3 (enough last-axis SNPs to amortize each
/// per-prefix rung rebuild; see tiling.cpp for the measurement) and B_P
/// from the plain two-plane formula at that B_S.
TilingParams autotune_tiling(const L1Config& l1, std::size_t vector_words,
                             unsigned order, bool cached);

/// Batch-aware sizing for multi-phenotype scans: the frequency-table budget
/// covers 1 + `batch_slots` tables per tuple (totals plus one case table per
/// partition; at every order the batched engine keeps the tables of all
/// B_S final-axis SNPs of a prefix live, so B_S is sized, within [4, 64],
/// against a 512 kB budget of (1+P)*3^order*4 bytes per SNP), and the
/// streamed-block budget adds the resident label planes — `label_stride`
/// lanes (the PhenotypeBatch stride) per sample word.  `batch_slots == 0`
/// degrades to the overload above.
TilingParams autotune_tiling(const L1Config& l1, std::size_t vector_words,
                             unsigned order, bool cached,
                             std::size_t batch_slots,
                             std::size_t label_stride);

/// Reads the host's L1D geometry from sysfs; falls back to 32 kB / 8-way
/// when unavailable.  Way split follows the paper: 7 ways for tables, the
/// remainder minus one (prefetcher headroom on >=12-way caches) for blocks.
/// The geometry is read for the CPU the calling thread is currently
/// running on (sched_getcpu) — not cpu0, which reports the wrong L1 for
/// worker threads pinned to E-cores on hybrid parts — scanning that CPU's
/// cache index entries for the level-1 data cache instead of assuming
/// index0.  Memoized per CPU index (thread-safe), so calling it once per
/// scan chunk costs a map lookup, not a sysfs read.
L1Config detect_l1_config();

/// Injectable form for unit tests and explicit pinning: `sysfs_cpu_root`
/// replaces "/sys/devices/system/cpu" (the directory holding cpuN/), and
/// `cpu` picks the CPU to read (-1 = the calling thread's current CPU,
/// falling back to cpu0 when its entries are missing).  Never cached:
/// every call reads the tree.
L1Config detect_l1_config(const std::string& sysfs_cpu_root, int cpu = -1);

/// 3^k, the genotype-cell count of one class at interaction order k.
constexpr std::size_t pow3(unsigned k) {
  std::size_t v = 1;
  for (unsigned i = 0; i < k; ++i) v *= 3;
  return v;
}

/// Bytes the frequency tables of one order-k block tuple occupy:
/// B_S^k * 4 * 2 * 3^k.
constexpr std::size_t tuple_tables_bytes(std::size_t bs, unsigned order) {
  std::size_t tuples = 1;
  for (unsigned i = 0; i < order; ++i) tuples *= bs;
  return tuples * 4 * 2 * pow3(order);
}

/// Bytes the nine-plane prefix-plane ladder occupies for a B_P-word chunk
/// at order k: rungs 2..k-1 hold sum 3^j intersection planes of 32-bit
/// words (zero for k <= 2; the batched engine's nine planes at k == 3).
constexpr std::size_t prefix_cache_bytes(std::size_t bp_words, unsigned order) {
  std::size_t planes = 0;
  for (unsigned j = 2; j < order; ++j) planes += pow3(j);
  return planes * bp_words * 4;
}

/// Bytes the frequency tables of one block-triple occupy.
constexpr std::size_t tables_bytes(std::size_t bs) {
  return bs * bs * bs * 4 * 2 * 27;
}

/// Bytes one B_S x B_P bit-plane block occupies.
constexpr std::size_t block_bytes(std::size_t bs, std::size_t bp_words) {
  return bs * bp_words * 4 * 2;
}

/// Bytes the V5 order-3 rung occupies for a B_P-word chunk (the four
/// {0,1} x∩y intersection planes of 32-bit words).
constexpr std::size_t pair_cache_bytes(std::size_t bp_words) {
  return 4 * bp_words * 4;
}

}  // namespace trigen::core
