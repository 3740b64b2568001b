#pragma once
/// \file topk.hpp
/// \brief Bounded best-K accumulator for detection results (any order).
///
/// Each worker thread keeps its own accumulator (no synchronization in the
/// hot loop, §IV-A) and the detector merges them at the end.  Ordering is
/// normalized to lower-is-better; ties break on combination rank so results
/// are deterministic under any thread count.  The accumulator is generic
/// over the scored-combination type: `ScoredOf<K>` at every order, or
/// anything else with a strict-weak `<` whose tie-break is a total order.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trigen/combinatorics/combinations.hpp"

namespace trigen::core {

/// One scored order-K SNP combination, any K in [2, kMaxOrder].
template <unsigned K>
struct ScoredOf {
  static constexpr unsigned kOrder = K;
  combinatorics::Combination<K> snps{};
  double score = 0.0;  ///< normalized: lower is better

  friend bool operator<(const ScoredOf& a, const ScoredOf& b) {
    if (a.score != b.score) return a.score < b.score;
    return combinatorics::rank_combination<K>(a.snps) <
           combinatorics::rank_combination<K>(b.snps);
  }
};

/// Builds a ScoredOf<K> from a combination and its score.
template <unsigned K>
ScoredOf<K> make_scored(const combinatorics::Combination<K>& c, double score) {
  return {c, score};
}

/// The SNP indices of a ScoredOf<K>.
template <unsigned K>
combinatorics::Combination<K> snps_of(const ScoredOf<K>& s) {
  return s.snps;
}

/// Keeps the K best (lowest-ordered) combinations seen so far.
template <typename Scored>
class BasicTopK {
 public:
  explicit BasicTopK(std::size_t k) : k_(k == 0 ? 1 : k) {}

  void push(const Scored& s) {
    if (entries_.size() < k_) {
      entries_.push_back(s);
      std::push_heap(entries_.begin(), entries_.end());  // max-heap on worst
      return;
    }
    if (s < entries_.front()) {
      std::pop_heap(entries_.begin(), entries_.end());
      entries_.back() = s;
      std::push_heap(entries_.begin(), entries_.end());
    }
  }

  /// Merge another accumulator into this one.
  void merge(const BasicTopK& other) {
    for (const auto& e : other.entries_) push(e);
  }

  /// Entries best-first.
  std::vector<Scored> sorted() const {
    std::vector<Scored> out = entries_;
    std::sort(out.begin(), out.end());
    return out;
  }

  std::size_t capacity() const { return k_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  std::size_t k_;
  std::vector<Scored> entries_;  // max-heap: front() is the worst kept
};

}  // namespace trigen::core
