#include "trigen/shard/result_io.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/durable.hpp"

namespace trigen::shard {
namespace {

constexpr char kShardMagic[] = "TRIGEN-SHARD";
constexpr char kCheckpointMagic[] = "TRIGEN-CHECKPOINT";
/// Writers emit v2 (with the `order` field); readers also accept the
/// pre-pairwise v1, whose order is 3 by definition.
constexpr unsigned kFormatVersion = 2;

/// Plausibility bounds mirroring dataset I/O: a corrupted header must fail
/// with a parse error, not an absurd allocation or a 64-bit overflow in
/// C(M,k).
constexpr std::uint64_t kMaxSnps = 1u << 22;
constexpr std::uint64_t kMaxSamples = 1u << 22;
constexpr std::uint64_t kMaxTopK = 1u << 24;

/// Header fields shared by both formats, in file order.
struct Header {
  std::uint64_t fingerprint = 0;
  std::uint64_t num_snps = 0;
  std::uint64_t num_samples = 0;
  std::string objective;
  std::uint64_t top_k = 0;
  combinatorics::RankRange range;
};

void write_header(std::ostream& os, const char* magic, unsigned order,
                  const Header& h) {
  os << magic << " v" << kFormatVersion << '\n'
     << "order " << order << '\n'
     << "fingerprint " << hex16(h.fingerprint) << '\n'
     << "snps " << h.num_snps << '\n'
     << "samples " << h.num_samples << '\n'
     << "objective " << h.objective << '\n'
     << "top_k " << h.top_k << '\n'
     << "range " << h.range.first << ' ' << h.range.last << '\n';
}

/// Reads magic + version + order (v2) or magic + version (v1, order 3).
/// Fails on anything else; a wrong-order file is rejected here with a
/// precise message rather than misread downstream.  `expected_order` 0
/// accepts any supported order (the probing mode of probe_shard_order).
unsigned read_preamble(RecordReader& in, const char* magic,
                       unsigned expected_order) {
  unsigned order = 3;  // v1 predates pairwise shards: always a triplet scan
  if (in.preamble(magic, kFormatVersion) == kFormatVersion) {
    const std::uint64_t o = in.u64_field("order");
    if (o < 2 || o > combinatorics::kMaxOrder) {
      in.fail("unsupported order " + std::to_string(o) +
              " (this build reads orders 2.." +
              std::to_string(combinatorics::kMaxOrder) + ")");
    }
    order = static_cast<unsigned>(o);
  }
  if (expected_order != 0 && order != expected_order) {
    in.fail("order mismatch: file holds an order-" + std::to_string(order) +
            " scan, but an order-" + std::to_string(expected_order) +
            " artifact was requested");
  }
  return order;
}

template <unsigned Order>
Header read_header(RecordReader& in, const char* magic) {
  read_preamble(in, magic, Order);
  Header h;
  h.fingerprint = in.hex16_field("fingerprint");
  h.num_snps = in.u64_field("snps");
  h.num_samples = in.u64_field("samples");
  if (h.num_snps < Order || h.num_snps > kMaxSnps || h.num_samples == 0 ||
      h.num_samples > kMaxSamples) {
    in.fail("implausible dataset shape (" + std::to_string(h.num_snps) +
            " x " + std::to_string(h.num_samples) + ")");
  }
  in.expect_key("objective");
  h.objective = in.token("objective name");
  h.top_k = in.u64_field("top_k");
  if (h.top_k == 0 || h.top_k > kMaxTopK) {
    in.fail("implausible top_k " + std::to_string(h.top_k));
  }
  in.expect_key("range");
  h.range.first = in.u64("range first");
  h.range.last = in.u64("range last");
  // At order >= 4 a plausible SNP count can still overflow the u64 rank
  // fields; such a scan is unrepresentable in this format.
  std::uint64_t total = 0;
  try {
    total = combinatorics::n_choose_k(h.num_snps, Order);
  } catch (const std::overflow_error&) {
    in.fail("rank space exceeds 2^64: C(" + std::to_string(h.num_snps) +
            "," + std::to_string(Order) + ") is not addressable");
  }
  if (h.range.first >= h.range.last || h.range.last > total) {
    in.fail("invalid range [" + std::to_string(h.range.first) + ", " +
            std::to_string(h.range.last) + ") for C(" +
            std::to_string(h.num_snps) + "," + std::to_string(Order) +
            ") = " + std::to_string(total));
  }
  return h;
}

template <typename Scored>
void write_entries(std::ostream& os, const std::vector<Scored>& entries) {
  os << "entries " << entries.size() << '\n';
  for (const auto& e : entries) {
    os << 'e';
    for (const std::uint32_t snp : e.snps) os << ' ' << snp;
    os << ' ' << format_hexfloat(e.score) << '\n';
  }
}

/// Reads and validates the entry list: count == min(top_k, covered ranks),
/// each combination strictly increasing and inside the covered rank
/// interval, list strictly ascending in (score, rank) — i.e. exactly a
/// top-k dump.
template <typename Scored>
std::vector<Scored> read_entries(RecordReader& in, const Header& h,
                                 std::uint64_t covered) {
  constexpr unsigned K = Scored::kOrder;
  const std::uint64_t expected = std::min<std::uint64_t>(h.top_k, covered);
  const std::uint64_t n = in.u64_field("entries");
  if (n != expected) {
    in.fail("entry count " + std::to_string(n) + " != min(top_k=" +
            std::to_string(h.top_k) + ", covered=" + std::to_string(covered) +
            ") = " + std::to_string(expected));
  }
  std::vector<Scored> entries;
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    in.expect_key("e");
    combinatorics::Combination<K> snps{};
    bool valid = true;
    for (unsigned j = 0; j < K; ++j) {
      // Bounds are checked on the u64 so no value wraps into range.
      const std::uint64_t snp = in.u64("entry snp");
      if (snp >= h.num_snps || (j > 0 && snp <= snps[j - 1])) valid = false;
      snps[j] = static_cast<std::uint32_t>(snp);
    }
    const double score = in.hexfloat("entry score");
    if (!valid) {
      in.fail("entry " + std::to_string(i) + " is not a strictly " +
              "increasing order-" + std::to_string(K) +
              " combination below " + std::to_string(h.num_snps));
    }
    const Scored s{snps, score};
    const std::uint64_t rank = combinatorics::rank_combination<K>(snps);
    if (rank < h.range.first || rank >= h.range.first + covered) {
      in.fail("entry " + std::to_string(i) + " rank " + std::to_string(rank) +
              " outside the covered ranks [" + std::to_string(h.range.first) +
              ", " + std::to_string(h.range.first + covered) + ")");
    }
    if (!entries.empty() && !(entries.back() < s)) {
      in.fail("entries are not strictly ascending in (score, rank) at "
              "index " + std::to_string(i));
    }
    entries.push_back(s);
  }
  return entries;
}

}  // namespace

template <typename Scored>
void write_shard_result(std::ostream& os, const BasicShardResult<Scored>& r) {
  write_header(os, kShardMagic, Scored::kOrder,
               Header{r.fingerprint, r.num_snps, r.num_samples, r.objective,
                      r.top_k, r.range});
  os << "seconds " << format_hexfloat(r.seconds) << '\n';
  write_entries(os, r.entries);
  os << "end " << kShardMagic << '\n';
}

template <typename Scored>
BasicShardResult<Scored> read_shard_result_as(std::istream& is) {
  RecordReader in(is, "shard-result");
  const Header h = read_header<Scored::kOrder>(in, kShardMagic);
  BasicShardResult<Scored> r;
  r.fingerprint = h.fingerprint;
  r.num_snps = h.num_snps;
  r.num_samples = h.num_samples;
  r.objective = h.objective;
  r.top_k = h.top_k;
  r.range = h.range;
  in.expect_key("seconds");
  r.seconds = in.hexfloat("seconds");
  r.entries = read_entries<Scored>(in, h, h.range.size());
  in.end(kShardMagic);
  return r;
}

template <typename Scored>
void write_shard_result_file(const std::string& path,
                             const BasicShardResult<Scored>& r) {
  std::ostringstream os;
  write_shard_result(os, r);
  write_file_durably(path, "shard-result", os.str());
}

template <typename Scored>
BasicShardResult<Scored> read_shard_result_file_as(const std::string& path) {
  auto is = open_record_file(path, "shard-result");
  return read_shard_result_as<Scored>(is);
}

template <typename Scored>
void write_checkpoint(std::ostream& os, const BasicCheckpoint<Scored>& c) {
  write_header(os, kCheckpointMagic, Scored::kOrder,
               Header{c.fingerprint, c.num_snps, c.num_samples, c.objective,
                      c.top_k, c.range});
  os << "watermark " << c.watermark << '\n';
  os << "seconds " << format_hexfloat(c.seconds) << '\n';
  write_entries(os, c.entries);
  os << "end " << kCheckpointMagic << '\n';
}

template <typename Scored>
BasicCheckpoint<Scored> read_checkpoint_as(std::istream& is) {
  RecordReader in(is, "checkpoint");
  const Header h =
      read_header<Scored::kOrder>(in, kCheckpointMagic);
  BasicCheckpoint<Scored> c;
  c.fingerprint = h.fingerprint;
  c.num_snps = h.num_snps;
  c.num_samples = h.num_samples;
  c.objective = h.objective;
  c.top_k = h.top_k;
  c.range = h.range;
  c.watermark = in.u64_field("watermark");
  if (c.watermark < c.range.first || c.watermark > c.range.last) {
    in.fail("watermark " + std::to_string(c.watermark) + " outside range [" +
            std::to_string(c.range.first) + ", " +
            std::to_string(c.range.last) + "]");
  }
  in.expect_key("seconds");
  c.seconds = in.hexfloat("seconds");
  c.entries = read_entries<Scored>(in, h, c.watermark - c.range.first);
  in.end(kCheckpointMagic);
  return c;
}

template <typename Scored>
void write_checkpoint_file(const std::string& path,
                           const BasicCheckpoint<Scored>& c) {
  std::ostringstream os;
  write_checkpoint(os, c);
  write_file_durably(path, "checkpoint", os.str());
}

template <typename Scored>
BasicCheckpoint<Scored> read_checkpoint_file_as(const std::string& path) {
  auto is = open_record_file(path, "checkpoint");
  return read_checkpoint_as<Scored>(is);
}

// One instantiation per supported interaction order.
#define TRIGEN_SHARD_IO_INSTANTIATE(S)                                        \
  template void write_shard_result<S>(std::ostream&,                          \
                                      const BasicShardResult<S>&);            \
  template BasicShardResult<S> read_shard_result_as<S>(std::istream&);        \
  template void write_shard_result_file<S>(const std::string&,               \
                                           const BasicShardResult<S>&);       \
  template BasicShardResult<S> read_shard_result_file_as<S>(                  \
      const std::string&);                                                    \
  template void write_checkpoint<S>(std::ostream&, const BasicCheckpoint<S>&);\
  template BasicCheckpoint<S> read_checkpoint_as<S>(std::istream&);           \
  template void write_checkpoint_file<S>(const std::string&,                  \
                                         const BasicCheckpoint<S>&);          \
  template BasicCheckpoint<S> read_checkpoint_file_as<S>(const std::string&);

TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredOf<2>)
TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredOf<3>)
TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredOf<4>)
TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredOf<5>)
TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredOf<6>)
#undef TRIGEN_SHARD_IO_INSTANTIATE

unsigned probe_shard_order(const std::string& path) {
  const char* kind = "shard-result";
  auto is = open_record_file(path, kind);
  RecordReader in(is, kind);
  return read_preamble(in, kShardMagic, /*expected_order=*/0);
}

}  // namespace trigen::shard
