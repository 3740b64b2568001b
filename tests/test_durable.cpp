/// Tests for the durable-record layer (common/durable.hpp) and the formats
/// built on it: the strict codec and record reader, golden files that pin
/// every writer's bytes (TRIGEN-SHARD v1/v2, TRIGEN-CHECKPOINT v2,
/// TRIGEN-FLEET v1, TRIGEN-TUNE v1), the all-or-nothing writer under a
/// file-size limit, and a seeded mutation fuzzer over the golden files and
/// the serve/fleet protocol lines.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "trigen/common/durable.hpp"
#include "trigen/dataset/genotype_matrix.hpp"
#include "trigen/fleet/state.hpp"
#include "trigen/serve/protocol.hpp"
#include "trigen/shard/plan.hpp"
#include "trigen/shard/result_io.hpp"
#include "trigen/tune/profile.hpp"

namespace trigen {
namespace {

// --------------------------------------------------------------------------
// Golden artifacts
// --------------------------------------------------------------------------
//
// tests/data/*.golden hold the bytes of exactly the objects below, as
// files already on disk spell them: the writers must reproduce them and
// the readers must accept them.  Each object exercises a codec edge:
// hexfloat negative zero, a subnormal and DBL_MAX, a fingerprint with
// leading zero digits, a quarantined shard and a leased one that persists
// as pending.

shard::ShardResult golden_shard_result() {
  shard::ShardResult r;
  r.fingerprint = 0x0123456789abcdefull;
  r.num_snps = 12;
  r.num_samples = 64;
  r.objective = "k2";
  r.top_k = 5;
  r.range = {40, 180};
  r.seconds = 1.0 / 3.0;
  r.entries = {{{0, 5, 7}, -123.456},
               {{1, 2, 8}, -1e-5},
               {{2, 3, 9}, -5e-324},
               {{0, 1, 10}, -0.0},
               {{3, 4, 10}, 0.0}};
  return r;
}

shard::PairCheckpoint golden_checkpoint() {
  shard::PairCheckpoint c;
  c.fingerprint = 0xfedcba9876543210ull;
  c.num_snps = 20;
  c.num_samples = 100;
  c.objective = "mi";
  c.top_k = 3;
  c.range = {10, 150};
  c.watermark = 100;
  c.seconds = 2.75;
  c.entries = {{2, 5, -2.5},
               {0, 10, 0.5},
               {7, 13, std::numeric_limits<double>::max()}};
  return c;
}

fleet::FleetState golden_fleet_state() {
  fleet::FleetState s;
  s.order = 3;
  s.fingerprint = 0x00000000deadbeefull;
  s.num_snps = 12;
  s.num_samples = 64;
  s.objective = "chi2";
  s.top_k = 10;
  s.next_shard = 7;
  fleet::ShardEntry pending;
  pending.id = 4;
  pending.range = {0, 30};
  fleet::ShardEntry quarantined;
  quarantined.id = 5;
  quarantined.range = {90, 120};
  quarantined.state = fleet::ShardState::kQuarantined;
  quarantined.failures = 5;
  fleet::ShardEntry leased;
  leased.id = 6;
  leased.range = {150, 220};
  leased.state = fleet::ShardState::kLeased;
  leased.failures = 2;
  leased.worker = "w1";
  s.shards = {pending, quarantined, leased};
  s.done = {{{30, 90}, "fleet-a.shard"}, {{120, 150}, "fleet-b.shard"}};
  return s;
}

tune::TuningProfile golden_profile() {
  tune::TuningProfile p;
  p.host.cpu_brand = "Golden CPU Model 9 @ 1.00GHz";
  p.host.feature_mask = 0x3f;
  p.host.l1_size_bytes = 49152;
  p.host.l1_ways = 12;
  p.host.numa_nodes = 2;
  tune::ProfileKey k1;
  k1.family = core::KernelFamily::kTripleBlockCached;
  k1.order = 3;
  k1.bucket_words = 16;
  tune::ProfileEntry e1;
  e1.isa = core::KernelIsa::kScalar;
  e1.tiling = {6, 208};
  e1.throughput = 2.2377941e9;
  e1.analytic_isa = core::KernelIsa::kScalar;
  e1.analytic_tiling = {5, 208};
  e1.analytic_throughput = 2.0840306e9;
  p.entries[k1] = e1;
  tune::ProfileKey k2;
  k2.family = core::KernelFamily::kFinalizeBatched;
  k2.order = 2;
  k2.bucket_words = 2048;
  k2.batch_slots = 16;
  tune::ProfileEntry e2;
  e2.isa = core::KernelIsa::kScalar;
  e2.tiling = {64, 256};
  e2.throughput = 0.125;
  e2.analytic_isa = core::KernelIsa::kScalar;
  e2.analytic_tiling = {64, 256};
  e2.analytic_throughput = 0.0625;
  p.entries[k2] = e2;
  return p;
}

/// A 5 x 37 dataset with a fixed genotype/phenotype pattern, so its
/// FNV-1a fingerprint is a constant.
dataset::GenotypeMatrix golden_dataset() {
  dataset::GenotypeMatrix d(5, 37);
  for (std::size_t m = 0; m < 5; ++m) {
    for (std::size_t j = 0; j < 37; ++j) {
      d.set(m, j, static_cast<dataset::Genotype>((m * 7 + j * 3) % 3));
    }
  }
  for (std::size_t j = 0; j < 37; ++j) {
    d.set_phenotype(j, static_cast<dataset::Phenotype>(j % 2));
  }
  return d;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::string golden(const std::string& name) {
  const std::string text =
      read_file(std::string(TRIGEN_TEST_DATA_DIR) + "/" + name + ".golden");
  EXPECT_FALSE(text.empty()) << "missing golden file " << name;
  return text;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "trigen_durable_" + name;
}

/// One text format seen as a pair of functions: `parse` (throws
/// std::runtime_error on rejection) and `write`, composed so that
/// round_trip(text) = write(parse(text)).
struct Format {
  std::string name;     ///< golden file stem
  std::function<std::string(const std::string&)> round_trip;
};

template <typename T>
std::string render(void (*write)(std::ostream&, const T&), const T& value) {
  std::ostringstream os;
  write(os, value);
  return os.str();
}

std::string fleet_round_trip(const std::string& text) {
  const std::string path = temp_path("fleet_rt.state");
  std::ofstream(path, std::ios::binary) << text;
  const fleet::FleetState s = fleet::read_fleet_state_file(path);
  fleet::write_fleet_state_file(path, s);
  return read_file(path);
}

const std::vector<Format>& formats() {
  static const std::vector<Format> all = {
      {"shard_v2",
       [](const std::string& t) {
         std::istringstream is(t);
         return render(&shard::write_shard_result<core::ScoredTriplet>,
                       shard::read_shard_result(is));
       }},
      {"shard_v1",
       [](const std::string& t) {
         std::istringstream is(t);
         return render(&shard::write_shard_result<core::ScoredTriplet>,
                       shard::read_shard_result(is));
       }},
      {"checkpoint_v2",
       [](const std::string& t) {
         std::istringstream is(t);
         return render(&shard::write_checkpoint<core::ScoredPair>,
                       shard::read_pair_checkpoint(is));
       }},
      {"fleet_v1", fleet_round_trip},
      {"tune_v1",
       [](const std::string& t) {
         return tune::serialize_profile(tune::parse_profile(t));
       }},
  };
  return all;
}

// --------------------------------------------------------------------------
// Codec
// --------------------------------------------------------------------------

TEST(DurableCodec, ParseU64IsWholeStringAndUnsigned) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_u64("ff", 16), 255u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "x",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_u64("0x10", 16).has_value());
  EXPECT_FALSE(parse_u64(std::string_view("12\0", 3)).has_value());
}

TEST(DurableCodec, HexfloatRoundTripsEveryDoubleExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           -123.456,
                           5e-324,
                           -5e-324,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    const auto back = parse_hexfloat(format_hexfloat(v));
    ASSERT_TRUE(back.has_value()) << format_hexfloat(v);
    EXPECT_EQ(std::memcmp(&v, &*back, sizeof v), 0) << format_hexfloat(v);
  }
  EXPECT_EQ(format_hexfloat(0.125), "0x1p-3");
  for (const char* bad : {"", " 0x1p+0", "0x1p+0 ", "0x1p+0x", "p", "--1"}) {
    EXPECT_FALSE(parse_hexfloat(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(
      parse_hexfloat(std::string_view("0x1p+0\0junk", 11)).has_value());
}

TEST(DurableCodec, Hex16IsExactlySixteenLowercaseDigits) {
  EXPECT_EQ(hex16(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(parse_hex16("00000000deadbeef"), 0xdeadbeefull);
  EXPECT_EQ(parse_hex16("ffffffffffffffff"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"deadbeef", "00000000DEADBEEF", "0x000000deadbeef",
                          "00000000deadbeef0", "00000000deadbeeg", ""}) {
    EXPECT_FALSE(parse_hex16(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(DurableCodec, Fnv1aMatchesReferenceVectorsAndPinnedDigests) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(kFnv1aBasis, "", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64(kFnv1aBasis, "a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64(kFnv1aBasis, "foobar", 6), 0x85944171f73967e8ull);
  // Folding is associative over byte runs.
  EXPECT_EQ(fnv1a64(fnv1a64(kFnv1aBasis, "foo", 3), "bar", 3),
            fnv1a64(kFnv1aBasis, "foobar", 6));
  // Pinned digests: every fingerprint already on disk depends on them.
  EXPECT_EQ(shard::dataset_fingerprint(golden_dataset()),
            0x3be0ba002a6153b9ull);
  EXPECT_EQ(golden_profile().host.digest(), 0xa13ead21a3a3060bull);
}

// --------------------------------------------------------------------------
// Record reader
// --------------------------------------------------------------------------

std::string reader_error(const std::string& text,
                         const std::function<void(RecordReader&)>& fn) {
  std::istringstream is(text);
  RecordReader in(is, "test-kind");
  try {
    fn(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(DurableReader, PreambleNamesMagicAndVersion) {
  const auto preamble = [](RecordReader& in) { in.preamble("MAGIC", 2); };
  EXPECT_EQ(reader_error("", preamble), "test-kind: empty file");
  EXPECT_NE(reader_error("OTHER v1", preamble).find("bad magic 'OTHER'"),
            std::string::npos);
  EXPECT_NE(reader_error("MAGIC v3", preamble)
                .find("unsupported format version 'v3'"),
            std::string::npos);
  EXPECT_NE(reader_error("MAGIC v01", preamble).find("unsupported"),
            std::string::npos);
  std::istringstream is("MAGIC v2");
  RecordReader in(is, "test-kind");
  EXPECT_EQ(in.preamble("MAGIC", 2), 2u);
}

TEST(DurableReader, CountIsBoundedBeforeAnyUse) {
  std::istringstream is("n 4\nn 5\n");
  RecordReader in(is, "test-kind");
  EXPECT_EQ(in.count("n", 4), 4u);
  EXPECT_NE(reader_error("n 5", [](RecordReader& r) { r.count("n", 4); })
                .find("n count 5 exceeds the limit of 4"),
            std::string::npos);
  EXPECT_NE(reader_error("n -1", [](RecordReader& r) { r.count("n", 4); })
                .find("malformed n '-1'"),
            std::string::npos);
}

TEST(DurableReader, RestOfLineAndTrailer) {
  std::istringstream is("cpu  Two  Spaces \nend X\n\n");
  RecordReader in(is, "test-kind");
  in.expect_key("cpu");
  EXPECT_EQ(in.rest_of_line("cpu"), " Two  Spaces ");
  EXPECT_NO_THROW(in.end("X"));
  EXPECT_NE(reader_error("end X tail", [](RecordReader& r) { r.end("X"); })
                .find("trailing content after the end trailer: 'tail'"),
            std::string::npos);
  EXPECT_NE(reader_error("end Y", [](RecordReader& r) { r.end("X"); })
                .find("trailer names 'Y'"),
            std::string::npos);
  EXPECT_NE(reader_error("end", [](RecordReader& r) { r.end("X"); })
                .find("truncated file"),
            std::string::npos);
}

// --------------------------------------------------------------------------
// Golden files: the writers reproduce them byte for byte
// --------------------------------------------------------------------------

TEST(DurableGolden, WritersReproduceGoldenFilesByteForByte) {
  std::ostringstream shard_text;
  shard::write_shard_result(shard_text, golden_shard_result());
  EXPECT_EQ(shard_text.str(), golden("shard_v2"));

  std::ostringstream ckpt_text;
  shard::write_checkpoint(ckpt_text, golden_checkpoint());
  EXPECT_EQ(ckpt_text.str(), golden("checkpoint_v2"));

  const std::string fleet_path = temp_path("golden_fleet.state");
  fleet::write_fleet_state_file(fleet_path, golden_fleet_state());
  EXPECT_EQ(read_file(fleet_path), golden("fleet_v1"));

  EXPECT_EQ(tune::serialize_profile(golden_profile()), golden("tune_v1"));

  // The file writers emit the same bytes as the stream writers.
  const std::string shard_path = temp_path("golden.shard");
  shard::write_shard_result_file(shard_path, golden_shard_result());
  EXPECT_EQ(read_file(shard_path), golden("shard_v2"));
  const std::string ckpt_path = temp_path("golden.ckpt");
  shard::write_checkpoint_file(ckpt_path, golden_checkpoint());
  EXPECT_EQ(read_file(ckpt_path), golden("checkpoint_v2"));
  const std::string tune_path = temp_path("golden.profile");
  tune::write_profile_file(tune_path, golden_profile());
  EXPECT_EQ(read_file(tune_path), golden("tune_v1"));
}

TEST(DurableGolden, ReadersAcceptGoldenFilesAndRoundTripThem) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    // v1 shard files are read and rewritten as v2; every other format
    // round-trips to itself.
    const std::string want = golden(f.name == "shard_v1" ? "shard_v2" : f.name);
    EXPECT_EQ(f.round_trip(golden(f.name)), want);
  }
  const shard::ShardResult v1 =
      shard::read_shard_result_file(std::string(TRIGEN_TEST_DATA_DIR) +
                                    "/shard_v1.golden");
  EXPECT_EQ(v1.fingerprint, golden_shard_result().fingerprint);
  EXPECT_EQ(v1.entries.size(), 5u);
}

// --------------------------------------------------------------------------
// All-or-nothing writes under a file-size limit
// --------------------------------------------------------------------------

/// Lowers RLIMIT_FSIZE to `bytes` with SIGXFSZ ignored, so a write past the
/// limit fails with EFBIG instead of killing the process; restores both.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = SIG_DFL;
};

/// Writes the previous artifact with `write_ok`, then asserts that
/// `write_big` under a 16-byte limit throws a permanent EFBIG
/// DurableWriteError naming `path`, keeps the previous bytes and leaves no
/// temp file.
void expect_all_or_nothing(const std::string& path,
                           const std::function<void()>& write_ok,
                           const std::function<void()>& write_big) {
  std::filesystem::remove(path + ".tmp");
  write_ok();
  const std::string before = read_file(path);
  ASSERT_GT(before.size(), 16u);
  bool threw = false;
  {
    FileSizeLimit limit(16);
    try {
      write_big();
    } catch (const DurableWriteError& e) {
      threw = true;
      EXPECT_EQ(e.error_number(), EFBIG) << e.what();
      EXPECT_FALSE(e.transient());
      EXPECT_EQ(e.path().rfind(path, 0), 0u) << e.path();
    }
  }
  EXPECT_TRUE(threw) << "no DurableWriteError for " << path;
  EXPECT_EQ(read_file(path), before) << path;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << path;
}

TEST(DurableWrite, EveryWriterIsAllOrNothingUnderEfbig) {
  shard::ShardResult r2 = golden_shard_result();
  r2.seconds = 9.0;
  const std::string shard_path = temp_path("efbig.shard");
  expect_all_or_nothing(
      shard_path,
      [&] {
        shard::write_shard_result_file(shard_path, golden_shard_result());
      },
      [&] { shard::write_shard_result_file(shard_path, r2); });

  shard::PairCheckpoint c2 = golden_checkpoint();
  c2.seconds = 9.0;
  const std::string ckpt_path = temp_path("efbig.ckpt");
  expect_all_or_nothing(
      ckpt_path,
      [&] { shard::write_checkpoint_file(ckpt_path, golden_checkpoint()); },
      [&] { shard::write_checkpoint_file(ckpt_path, c2); });

  fleet::FleetState s2 = golden_fleet_state();
  s2.next_shard = 99;
  const std::string fleet_path = temp_path("efbig.state");
  expect_all_or_nothing(
      fleet_path,
      [&] { fleet::write_fleet_state_file(fleet_path, golden_fleet_state()); },
      [&] { fleet::write_fleet_state_file(fleet_path, s2); });

  tune::TuningProfile p2 = golden_profile();
  p2.host.numa_nodes = 4;
  const std::string tune_path = temp_path("efbig.profile");
  expect_all_or_nothing(
      tune_path, [&] { tune::write_profile_file(tune_path, golden_profile()); },
      [&] { tune::write_profile_file(tune_path, p2); });
}

// --------------------------------------------------------------------------
// Seeded mutation fuzzer
// --------------------------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

/// A mutant and how it was made (printed on failure).
struct Mutant {
  std::string how;
  std::string text;
  bool truncated = false;  ///< lost its tail: must be rejected
};

/// Truncation at every line; deleting, duplicating and swapping lines; and
/// `flips` single-bit flips drawn from `seed`.
std::vector<Mutant> mutants_of(const std::string& text, std::uint64_t seed,
                               int flips) {
  const std::vector<std::string> lines = split_lines(text);
  std::vector<Mutant> out;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    out.push_back({"truncate to " + std::to_string(k) + " lines",
                   join_lines({lines.begin(), lines.begin() + k}), true});
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto del = lines;
    del.erase(del.begin() + i);
    out.push_back({"delete line " + std::to_string(i), join_lines(del)});
    auto dup = lines;
    dup.insert(dup.begin() + i, lines[i]);
    out.push_back({"duplicate line " + std::to_string(i), join_lines(dup)});
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      auto swp = lines;
      std::swap(swp[i], swp[j]);
      out.push_back({"swap lines " + std::to_string(i) + "," +
                         std::to_string(j),
                     join_lines(swp)});
    }
  }
  std::mt19937_64 rng(seed);
  for (int f = 0; f < flips && !text.empty(); ++f) {
    std::string m = text;
    const std::size_t pos = rng() % m.size();
    const int bit = static_cast<int>(rng() % 8);
    m[pos] = static_cast<char>(m[pos] ^ (1 << bit));
    out.push_back({"flip bit " + std::to_string(bit) + " of byte " +
                       std::to_string(pos),
                   m});
  }
  return out;
}

constexpr std::uint64_t kFuzzSeed = 0x7d1a5eedull;

TEST(DurableFuzz, FormatMutantsParseStablyOrThrowRuntimeError) {
  for (const Format& f : formats()) {
    for (const Mutant& m : mutants_of(golden(f.name), kFuzzSeed, 400)) {
      SCOPED_TRACE(f.name + " [seed " + std::to_string(kFuzzSeed) + "]: " +
                   m.how);
      std::string once;
      try {
        once = f.round_trip(m.text);
      } catch (const std::runtime_error&) {
        continue;  // rejected with a parse error: fine
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-runtime_error exception: " << e.what();
        continue;
      }
      EXPECT_FALSE(m.truncated) << "accepted a truncated file";
      // Whatever parsed is a fixed point of write(parse(.)).
      EXPECT_EQ(f.round_trip(once), once);
    }
  }
}

std::string verb_of(serve::RequestKind k) {
  switch (k) {
    case serve::RequestKind::kScan: return "scan";
    case serve::RequestKind::kSignificance: return "significance";
    case serve::RequestKind::kCancel: return "cancel";
    case serve::RequestKind::kStatus: return "status";
    case serve::RequestKind::kPing: return "ping";
    case serve::RequestKind::kShutdown: return "shutdown";
    case serve::RequestKind::kLease: return "lease";
    case serve::RequestKind::kRenew: return "renew";
    case serve::RequestKind::kComplete: return "complete";
    case serve::RequestKind::kAbandon: return "abandon";
  }
  return "?";
}

/// The canonical line of a parsed request.
std::string render_request(const serve::Request& r) {
  std::string line = verb_of(r.kind);
  if (!r.id.empty()) line += " " + r.id;
  for (const auto& [key, value] : r.params) line += " " + key + "=" + value;
  return line;
}

TEST(DurableFuzz, ProtocolLineMutantsParseStablyOrThrowInvalidArgument) {
  const std::vector<std::string> lines = {
      "scan job-1 order=3 objective=mi top=25 version=2 range=10:500",
      "significance s.1 order=2 objective=chi2 permutations=64 seed=7",
      "cancel job-1",
      "status",
      "lease worker-3",
      "renew worker-3 shard=12 watermark=4096",
      "complete worker-3 shard=12",
      "abandon worker-3 shard=12 reason=oom",
  };
  for (const std::string& line : lines) {
    // Each line is one "file" of words: mutate it as a file of one word
    // per line, then join the words back with spaces.
    std::string words;
    std::istringstream is(line);
    for (std::string w; is >> w;) words += w + "\n";
    for (const Mutant& m : mutants_of(words, kFuzzSeed, 200)) {
      std::string mutated = m.text;
      for (char& c : mutated) {
        if (c == '\n') c = ' ';
      }
      SCOPED_TRACE("'" + line + "' [seed " + std::to_string(kFuzzSeed) +
                   "]: " + m.how + " -> '" + mutated + "'");
      try {
        const serve::Request r = serve::parse_request(mutated);
        const serve::Request again = serve::parse_request(render_request(r));
        EXPECT_EQ(render_request(again), render_request(r));
        if (const auto it = r.params.find("range"); it != r.params.end()) {
          const auto range = serve::parse_rank_range(it->second);
          if (range) {
            EXPECT_LT(range->first, range->last);
          }
        }
      } catch (const std::invalid_argument&) {
        // rejected with a client-facing message: fine
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-invalid_argument exception: " << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace trigen
