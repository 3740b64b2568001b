#include "trigen/dataset/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

namespace trigen::dataset {
namespace {

constexpr char kTextMagic[] = "TRIGEN1";
constexpr char kBinMagic[] = "TGBIN1\n";

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("trigen dataset I/O: " + what);
}

/// Upper bounds on header-declared shapes.  A corrupted header must fail
/// with a parse error, not an attempted multi-terabyte allocation.
constexpr std::uint64_t kMaxSnps = 1u << 22;       // 4M SNPs (paper max: 40k)
constexpr std::uint64_t kMaxSamples = 1u << 22;    // 4M samples
constexpr std::uint64_t kMaxEntries = 1ull << 29;  // 512M genotypes (~512 MB)

void check_shape(std::uint64_t snps, std::uint64_t samples) {
  if (snps == 0 || samples == 0) fail("zero-sized dataset in header");
  if (snps > kMaxSnps || samples > kMaxSamples ||
      snps * samples > kMaxEntries) {
    fail("implausible dataset shape in header (" + std::to_string(snps) +
         " x " + std::to_string(samples) + ")");
  }
}

std::ofstream open_out(const std::string& path, std::ios_base::openmode mode) {
  std::ofstream os(path, mode);
  if (!os) fail("cannot open '" + path + "' for writing");
  return os;
}

std::ifstream open_in(const std::string& path, std::ios_base::openmode mode) {
  std::ifstream is(path, mode);
  if (!is) fail("cannot open '" + path + "' for reading");
  return is;
}

void write_u64(std::ostream& os, std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  os.write(reinterpret_cast<const char*>(buf), 8);
}

std::uint64_t read_u64(std::istream& is) {
  unsigned char buf[8];
  is.read(reinterpret_cast<char*>(buf), 8);
  if (!is) fail("truncated binary header");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{buf[i]} << (8 * i);
  return v;
}

/// Subtracts `base` from the `n` bytes at `p` in place.  Returns the first
/// byte, as read, whose value is above `top`, if any.  The check is a
/// branch-free max reduction that -O3 turns into SSE2, 16 bytes a step.
std::optional<char> to_values(std::uint8_t* p, std::size_t n,
                              std::uint8_t base, std::uint8_t top) {
  std::uint8_t high = 0;
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(p[i] - base);
    high = std::max(high, p[i]);
  }
  if (high <= top) return std::nullopt;
  const auto* bad = std::find_if(p, p + n, [top](auto v) { return v > top; });
  return static_cast<char>(*bad + base);
}

/// Reads up to `buf.size()` bytes; returns how many arrived.
std::size_t read_into(std::istream& is, std::vector<std::uint8_t>& buf) {
  is.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  return static_cast<std::size_t>(is.gcount());
}

/// Reads the next line into `buf` and returns its length as std::getline
/// would see it: up to its '\n', or to the end of an unterminated last
/// line; a line longer than `buf` is measured by reading on to its end.
/// std::string::npos when the input has no bytes left.
std::size_t next_line(std::istream& is, std::vector<std::uint8_t>& buf) {
  const std::size_t got = read_into(is, buf);
  if (got == 0) return std::string::npos;
  if (const void* nl = std::memchr(buf.data(), '\n', got)) {
    return static_cast<std::size_t>(static_cast<const std::uint8_t*>(nl) -
                                    buf.data());
  }
  if (got < buf.size()) return got;
  std::string rest;
  std::getline(is, rest);
  return got + rest.size();
}

}  // namespace

void write_text(std::ostream& os, const GenotypeMatrix& d) {
  os << kTextMagic << ' ' << d.num_snps() << ' ' << d.num_samples() << '\n';
  std::string line;
  const auto put = [&](std::span<const std::uint8_t> values) {
    line.assign(values.begin(), values.end());
    for (char& ch : line) ch = static_cast<char>(ch + '0');
    os << line << '\n';
  };
  for (std::size_t m = 0; m < d.num_snps(); ++m) put(d.snp_row(m));
  put(d.phenotypes());
  if (!os) fail("write failure (text)");
}

GenotypeMatrix read_text(std::istream& is) {
  std::string magic;
  std::size_t snps = 0, samples = 0;
  if (!(is >> magic >> snps >> samples)) fail("malformed text header");
  if (magic != kTextMagic) fail("bad magic, expected TRIGEN1");
  check_shape(snps, samples);
  is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');  // header end

  // One line at a time into a reused buffer of a row and its '\n'.
  GenotypeMatrix d(snps, samples);
  std::vector<std::uint8_t> line(samples + 1);
  for (std::size_t m = 0; m < snps; ++m) {
    const std::size_t length = next_line(is, line);
    const auto at = [m] { return "SNP line " + std::to_string(m + 1); };
    if (length == std::string::npos) fail("truncated at " + at());
    if (length != samples) {
      fail(at() + " has " + std::to_string(length) + " chars, expected " +
           std::to_string(samples));
    }
    if (const auto bad = to_values(line.data(), samples, '0', 2)) {
      fail("invalid genotype '" + std::string(1, *bad) + "' at " + at());
    }
    d.set_row(m, {line.data(), samples});
  }
  const std::size_t length = next_line(is, line);
  if (length == std::string::npos) fail("missing phenotype line");
  if (length != samples) fail("phenotype line length mismatch");
  if (const auto bad = to_values(line.data(), samples, '0', 1)) {
    fail("invalid phenotype '" + std::string(1, *bad) + "'");
  }
  for (std::size_t j = 0; j < samples; ++j) d.set_phenotype(j, line[j]);
  return d;
}

void write_text_file(const std::string& path, const GenotypeMatrix& d) {
  auto os = open_out(path, std::ios_base::out);
  write_text(os, d);
}

GenotypeMatrix read_text_file(const std::string& path) {
  auto is = open_in(path, std::ios_base::in);
  return read_text(is);
}

void write_binary(std::ostream& os, const GenotypeMatrix& d) {
  os.write(kBinMagic, sizeof(kBinMagic) - 1);
  write_u64(os, d.num_snps());
  write_u64(os, d.num_samples());
  const auto put = [&](std::span<const std::uint8_t> bytes) {
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  };
  for (std::size_t m = 0; m < d.num_snps(); ++m) put(d.snp_row(m));
  put(d.phenotypes());
  if (!os) fail("write failure (binary)");
}

GenotypeMatrix read_binary(std::istream& is) {
  char magic[sizeof(kBinMagic) - 1];
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kBinMagic, sizeof magic) != 0) {
    fail("bad binary magic");
  }
  const std::uint64_t snps = read_u64(is);
  const std::uint64_t samples = read_u64(is);
  check_shape(snps, samples);

  GenotypeMatrix d(snps, samples);
  std::vector<std::uint8_t> row(samples);
  for (std::size_t m = 0; m < snps; ++m) {
    if (read_into(is, row) != samples) fail("truncated genotype payload");
    if (to_values(row.data(), samples, 0, 2)) {
      fail("invalid genotype byte in binary payload");
    }
    d.set_row(m, row);
  }
  if (read_into(is, row) != samples) fail("truncated phenotype payload");
  if (to_values(row.data(), samples, 0, 1)) {
    fail("invalid phenotype byte in binary payload");
  }
  for (std::size_t j = 0; j < samples; ++j) d.set_phenotype(j, row[j]);
  return d;
}

void write_binary_file(const std::string& path, const GenotypeMatrix& d) {
  auto os = open_out(path, std::ios_base::binary);
  write_binary(os, d);
}

GenotypeMatrix read_binary_file(const std::string& path) {
  auto is = open_in(path, std::ios_base::binary);
  return read_binary(is);
}

}  // namespace trigen::dataset
