#include "trigen/baseline/mpi3snp.hpp"

#include <bit>
#include <stdexcept>
#include <thread>

#include "trigen/common/aligned.hpp"
#include "trigen/common/stopwatch.hpp"
#include "trigen/core/detector.hpp"

namespace trigen::baseline {

using dataset::GenotypeMatrix;
using scoring::ContingencyTable;

namespace {

/// MPI3SNP packs 64 samples per word, one plane per genotype value and
/// phenotype class — no inference, no padding tricks.
struct BaselinePlanes {
  std::size_t num_snps = 0;
  std::array<std::size_t, 2> samples{};
  std::array<std::size_t, 2> words{};
  std::array<trigen::aligned_vector<std::uint64_t>, 2> planes;  // [snp][g][word]

  const std::uint64_t* plane(int c, std::size_t snp, int g) const {
    const auto cs = static_cast<std::size_t>(c);
    return planes[cs].data() +
           (snp * 3 + static_cast<std::size_t>(g)) * words[cs];
  }

  static BaselinePlanes build(const GenotypeMatrix& d) {
    BaselinePlanes out;
    out.num_snps = d.num_snps();
    std::array<std::vector<std::size_t>, 2> members;
    for (std::size_t j = 0; j < d.num_samples(); ++j) {
      members[d.phenotype(j)].push_back(j);
    }
    for (int c = 0; c < 2; ++c) {
      const auto cs = static_cast<std::size_t>(c);
      out.samples[cs] = members[cs].size();
      out.words[cs] = (members[cs].size() + 63) / 64;
      out.planes[cs].assign(out.num_snps * 3 * out.words[cs], 0);
    }
    for (std::size_t m = 0; m < d.num_snps(); ++m) {
      for (int c = 0; c < 2; ++c) {
        const auto cs = static_cast<std::size_t>(c);
        for (std::size_t p = 0; p < members[cs].size(); ++p) {
          const auto g = static_cast<std::size_t>(d.at(m, members[cs][p]));
          out.planes[cs][(m * 3 + g) * out.words[cs] + p / 64] |=
              std::uint64_t{1} << (p % 64);
        }
      }
    }
    return out;
  }
};

ContingencyTable contingency_baseline(const BaselinePlanes& p, std::size_t x,
                                      std::size_t y, std::size_t z) {
  ContingencyTable t;
  for (int c = 0; c < 2; ++c) {
    auto& row = t.counts[static_cast<std::size_t>(c)];
    const std::size_t words = p.words[static_cast<std::size_t>(c)];
    for (int gx = 0; gx < 3; ++gx) {
      const std::uint64_t* px = p.plane(c, x, gx);
      for (int gy = 0; gy < 3; ++gy) {
        const std::uint64_t* py = p.plane(c, y, gy);
        for (int gz = 0; gz < 3; ++gz) {
          const std::uint64_t* pz = p.plane(c, z, gz);
          std::uint32_t acc = 0;
          for (std::size_t w = 0; w < words; ++w) {
            acc += static_cast<std::uint32_t>(
                std::popcount(px[w] & py[w] & pz[w]));
          }
          row[static_cast<std::size_t>(scoring::cell_index(gx, gy, gz))] = acc;
        }
      }
    }
  }
  return t;
}

}  // namespace

struct Mpi3SnpEngine::Impl {
  std::size_t num_snps;
  std::size_t num_samples;
  BaselinePlanes planes;
};

Mpi3SnpEngine::Mpi3SnpEngine(const GenotypeMatrix& d)
    : impl_(std::make_unique<Impl>(
          Impl{d.num_snps(), d.num_samples(), BaselinePlanes::build(d)})) {
  if (d.num_snps() < 3) {
    throw std::invalid_argument("Mpi3SnpEngine: need at least 3 SNPs");
  }
}

Mpi3SnpEngine::~Mpi3SnpEngine() = default;

std::size_t Mpi3SnpEngine::num_snps() const { return impl_->num_snps; }
std::size_t Mpi3SnpEngine::num_samples() const { return impl_->num_samples; }

ContingencyTable Mpi3SnpEngine::contingency(std::size_t x, std::size_t y,
                                            std::size_t z) const {
  if (x >= impl_->num_snps || y >= impl_->num_snps || z >= impl_->num_snps) {
    throw std::out_of_range("Mpi3SnpEngine::contingency: SNP out of range");
  }
  return contingency_baseline(impl_->planes, x, y, z);
}

BaselineResult Mpi3SnpEngine::run(unsigned threads, std::size_t top_k) const {
  if (top_k == 0) {
    throw std::invalid_argument("Mpi3SnpEngine::run: top_k must be >= 1");
  }
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  const std::size_t m = impl_->num_snps;

  BaselineResult result;
  result.threads_used = threads;
  result.triplets_evaluated = combinatorics::n_choose_k(m, 3);
  result.elements = result.triplets_evaluated * impl_->num_samples;

  const auto scorer = core::make_normalized_scorer_of<3>(
      core::Objective::kMutualInformation,
      static_cast<std::uint32_t>(impl_->num_samples));

  using Top = core::BasicTopK<core::ScoredOf<3>>;
  std::vector<Top> per_thread(threads, Top(top_k));

  // Static triangular distribution: (x, y) pairs are dealt round-robin to
  // workers (the MPI3SNP rank distribution); each worker runs all z > y.
  auto worker = [&](unsigned tid) {
    Top& top = per_thread[tid];
    std::uint64_t pair_index = 0;
    for (std::size_t x = 0; x + 2 < m; ++x) {
      for (std::size_t y = x + 1; y + 1 < m; ++y, ++pair_index) {
        if (pair_index % threads != tid) continue;
        for (std::size_t z = y + 1; z < m; ++z) {
          const ContingencyTable t =
              contingency_baseline(impl_->planes, x, y, z);
          top.push({{static_cast<std::uint32_t>(x),
                     static_cast<std::uint32_t>(y),
                     static_cast<std::uint32_t>(z)},
                    scorer(t)});
        }
      }
    }
  };

  Stopwatch sw;
  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }
  result.seconds = sw.seconds();

  Top merged(top_k);
  for (const auto& t : per_thread) merged.merge(t);
  result.best = merged.sorted();
  return result;
}

}  // namespace trigen::baseline
