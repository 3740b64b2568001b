#pragma once
/// \file mpi3snp.hpp
/// \brief MPI3SNP-style baseline engine (Ponte-Fernandez et al., IJHPCA'20).
///
/// Strategy-faithful reimplementation of the reference third-order tool the
/// paper compares against in Table III.  What it shares with trigen:
/// binary encoding and bitwise AND + POPCNT table construction.  What it
/// deliberately lacks (the paper's contributions):
///
///  * no genotype-2 inference — all three genotype planes are stored and
///    loaded (1.5x the memory traffic);
///  * no cache blocking — each triplet streams its planes end-to-end;
///  * no vectorization — scalar 64-bit words and scalar POPCNT;
///  * static triangular distribution of (x, y) pairs over workers
///    (MPI-rank style), not dynamic chunk scheduling;
///  * mutual-information objective (MPI3SNP's score).
///
/// Table III's CPU rows measure exactly the gap these absences open.

#include <cstdint>
#include <memory>
#include <vector>

#include "trigen/core/topk.hpp"
#include "trigen/dataset/genotype_matrix.hpp"
#include "trigen/scoring/contingency.hpp"

namespace trigen::baseline {

/// Result of a baseline run (same shape as core::DetectionResult).
struct BaselineResult {
  std::vector<core::ScoredOf<3>> best;  ///< normalized (lower = better)
  std::uint64_t triplets_evaluated = 0;
  std::uint64_t elements = 0;
  double seconds = 0.0;
  unsigned threads_used = 1;

  double elements_per_second() const {
    return seconds > 0.0 ? static_cast<double>(elements) / seconds : 0.0;
  }
};

/// MPI3SNP-style engine bound to one dataset.
class Mpi3SnpEngine {
 public:
  explicit Mpi3SnpEngine(const dataset::GenotypeMatrix& d);
  ~Mpi3SnpEngine();

  Mpi3SnpEngine(const Mpi3SnpEngine&) = delete;
  Mpi3SnpEngine& operator=(const Mpi3SnpEngine&) = delete;

  /// Exhaustive scan with MI scoring and static pair distribution.
  BaselineResult run(unsigned threads = 1, std::size_t top_k = 1) const;

  /// Contingency table for one triplet (tests cross-check this against the
  /// trigen kernels and the brute-force reference).
  scoring::ContingencyTable contingency(std::size_t x, std::size_t y,
                                        std::size_t z) const;

  std::size_t num_snps() const;
  std::size_t num_samples() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace trigen::baseline
