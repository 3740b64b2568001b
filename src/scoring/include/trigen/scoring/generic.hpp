#pragma once
/// \file generic.hpp
/// \brief The objective functions, at any interaction order.
///
/// The paper's objective functions are defined for any interaction order k
/// (Eq. 1 sums over I = 3^k genotype combinations).  These span-based
/// functions over the control/case cell arrays of a 3^k x 2 contingency
/// table are the one implementation of each objective;
/// core::make_normalized_scorer_of wraps them for the engines.
///
///  * **K2** (paper Eq. 1, lower is better):
///      K2 = sum_i [ log((r_i + 1)!) - sum_j log(r_ij!) ]
///    with i over the genotype combinations, j over the two classes and
///    r_i = r_i0 + r_i1.  The log-factorials come from a precomputed table
///    covering every count the dataset can produce, so scoring a table is
///    3^k additions of table lookups — the "residual ~4% of runtime" the
///    paper reports for get_score.
///  * **Mutual information** I(G; C) = H(G) + H(C) - H(G, C) with plug-in
///    probabilities — MPI3SNP's objective (higher is better), which the
///    baseline engine uses so Table III compares like against like.
///  * **Pearson X^2** (higher is better), the BOOST-style alternative.

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace trigen::scoring {

/// Precomputed ln(n!) for n in [0, max_n].
class LogFactorialTable {
 public:
  /// Builds a table covering factorials up to `max_n` inclusive.
  explicit LogFactorialTable(std::uint32_t max_n)
      : table_(static_cast<std::size_t>(max_n) + 1) {
    double acc = 0.0;  // ln(0!) = 0
    for (std::uint32_t n = 1; n <= max_n; ++n) {
      acc += std::log(static_cast<double>(n));
      table_[n] = acc;
    }
  }

  /// ln(n!).  Falls back to lgamma for n beyond the table (exact but slow).
  double operator()(std::uint32_t n) const {
    if (n < table_.size()) return table_[n];
    return std::lgamma(static_cast<double>(n) + 1.0);
  }

  std::uint32_t max_n() const {
    return static_cast<std::uint32_t>(table_.size() - 1);
  }

 private:
  std::vector<double> table_;
};

/// K2 score (Eq. 1) over parallel control/case cell arrays of any length.
/// Lower is better.
inline double k2_score_cells(const LogFactorialTable& logfact,
                             std::span<const std::uint32_t> controls,
                             std::span<const std::uint32_t> cases) {
  double score = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    score += logfact(controls[i] + cases[i] + 1) - logfact(controls[i]) -
             logfact(cases[i]);
  }
  return score;
}

/// Plug-in mutual information I(G; C) in nats over cell arrays of any
/// length.  Higher is better.
inline double mutual_information_cells(std::span<const std::uint32_t> controls,
                                       std::span<const std::uint32_t> cases) {
  double n = 0.0, n0 = 0.0, n1 = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    n0 += controls[i];
    n1 += cases[i];
  }
  n = n0 + n1;
  if (n == 0.0) return 0.0;

  double h_c = 0.0;
  if (n0 > 0.0) h_c -= n0 / n * std::log(n0 / n);
  if (n1 > 0.0) h_c -= n1 / n * std::log(n1 / n);

  double h_g = 0.0, h_gc = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    const double j0 = controls[i] / n;
    const double j1 = cases[i] / n;
    const double marg = j0 + j1;
    if (marg > 0.0) h_g -= marg * std::log(marg);
    if (j0 > 0.0) h_gc -= j0 * std::log(j0);
    if (j1 > 0.0) h_gc -= j1 * std::log(j1);
  }
  return h_g + h_c - h_gc;
}

/// Pearson X^2 over cell arrays of any length.  Higher is better.
inline double chi_squared_cells(std::span<const std::uint32_t> controls,
                                std::span<const std::uint32_t> cases) {
  double n0 = 0.0, n1 = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    n0 += controls[i];
    n1 += cases[i];
  }
  const double n = n0 + n1;
  if (n == 0.0) return 0.0;
  double stat = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    const double row = static_cast<double>(controls[i]) + cases[i];
    if (row == 0.0) continue;
    const double e0 = row * n0 / n;
    const double e1 = row * n1 / n;
    if (e0 > 0.0) {
      const double d = controls[i] - e0;
      stat += d * d / e0;
    }
    if (e1 > 0.0) {
      const double d = cases[i] - e1;
      stat += d * d / e1;
    }
  }
  return stat;
}

}  // namespace trigen::scoring
