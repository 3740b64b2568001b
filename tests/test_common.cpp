#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "trigen/common/aligned.hpp"
#include "trigen/common/args.hpp"
#include "trigen/common/cpuid.hpp"
#include "trigen/common/log.hpp"
#include "trigen/common/numa.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/common/stopwatch.hpp"
#include "trigen/common/table.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/tune/profile.hpp"

namespace trigen {
namespace {

// --------------------------------------------------------------------------
// aligned
// --------------------------------------------------------------------------

TEST(Aligned, VectorDataIsCacheLineAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u, 4096u}) {
    aligned_vector<std::uint32_t> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kVectorAlign, 0u)
        << "n=" << n;
  }
}

TEST(Aligned, SurvivesGrowth) {
  aligned_vector<std::uint64_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(static_cast<std::uint64_t>(i));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kVectorAlign, 0u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(v[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST(Aligned, DifferentTypesAlign) {
  aligned_vector<char> c(3);
  aligned_vector<double> d(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % kVectorAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % kVectorAlign, 0u);
}

TEST(Aligned, AllocatorEquality) {
  AlignedAllocator<int> a, b;
  EXPECT_TRUE(a == b);
}

TEST(Aligned, HugeAllocationThrows) {
  AlignedAllocator<std::uint64_t> a;
  EXPECT_THROW((void)a.allocate(~std::size_t{0} / 2), std::bad_alloc);
}

// --------------------------------------------------------------------------
// cpuid
// --------------------------------------------------------------------------

TEST(Cpuid, FeaturesAreCachedAndStable) {
  const CpuFeatures& a = cpu_features();
  const CpuFeatures& b = cpu_features();
  EXPECT_EQ(&a, &b);
}

TEST(Cpuid, FeatureStringNonEmpty) {
  EXPECT_FALSE(cpu_features().to_string().empty());
}

TEST(Cpuid, FeatureImplications) {
  const CpuFeatures& f = cpu_features();
  // Any AVX-512 CPU also supports AVX2 and SSE4.2.
  if (f.avx512f) {
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.sse42);
  }
  if (f.avx512vpopcntdq) {
    EXPECT_TRUE(f.avx512f);
  }
}

TEST(Cpuid, BrandStringNonEmpty) {
  EXPECT_FALSE(cpu_brand_string().empty());
}

// --------------------------------------------------------------------------
// rng
// --------------------------------------------------------------------------

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixSeedSensitivity) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, XoshiroDeterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 rng(13);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BoundedStaysInBounds) {
  Xoshiro256 rng(17);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.bounded(bound), bound) << "bound=" << bound;
    }
  }
}

TEST(Rng, BoundedZeroReturnsZero) {
  Xoshiro256 rng(19);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, BoundedCoversAllResidues) {
  Xoshiro256 rng(23);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliExtremes) {
  Xoshiro256 rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Xoshiro256 rng(31);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

// --------------------------------------------------------------------------
// stopwatch
// --------------------------------------------------------------------------

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = sw.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sw.reset();
  EXPECT_LT(sw.seconds(), 0.015);
}

TEST(Stopwatch, UnitsConsistent) {
  Stopwatch sw;
  const double s = sw.seconds();
  const double ms = sw.millis();
  EXPECT_GE(ms, s * 1e3);  // millis sampled later, must not be smaller
}

TEST(Stopwatch, TimeBestOfRunsAtLeastMinReps) {
  int calls = 0;
  (void)time_best_of([&] { ++calls; }, 5, 0.0);
  EXPECT_GE(calls, 5);
}

TEST(Stopwatch, TimeBestOfReturnsPositive) {
  const double t = time_best_of([] {
    volatile int x = 0;
    for (int i = 0; i < 10000; ++i) x = x + i;
  });
  EXPECT_GT(t, 0.0);
}

// --------------------------------------------------------------------------
// table
// --------------------------------------------------------------------------

TEST(Table, AsciiContainsHeadersAndCells) {
  TextTable t({"device", "perf"});
  t.add_row({"GN1", "45.3"});
  const std::string s = t.to_ascii();
  EXPECT_NE(s.find("device"), std::string::npos);
  EXPECT_NE(s.find("GN1"), std::string::npos);
  EXPECT_NE(s.find("45.3"), std::string::npos);
}

TEST(Table, CsvRendering) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"x,y", "q\"z"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("a,b\n1,2\n"), std::string::npos);
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"z\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(1.0, 0), "1");
}

TEST(Table, RowsCount) {
  TextTable t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, SiFormat) {
  EXPECT_EQ(si_format(2.5e9, 2), "2.50 G");
  EXPECT_EQ(si_format(1.0, 1), "1.0 ");
  EXPECT_EQ(si_format(1500.0, 1), "1.5 k");
  EXPECT_EQ(si_format(3.2e12, 1), "3.2 T");
}

// --------------------------------------------------------------------------
// log
// --------------------------------------------------------------------------

TEST(Log, LevelFilterRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

TEST(Log, EmitDoesNotCrash) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  log_debug("debug ", 1);
  log_info("info ", 2.5);
  log_warn("warn");
  log_error("error ", "concat", '!');
  set_log_level(before);
}

// --------------------------------------------------------------------------
// args
// --------------------------------------------------------------------------

Args parse_args(std::initializer_list<const char*> argv,
                const std::set<std::string>& switches = {}) {
  std::vector<const char*> v(argv);
  return Args::parse(static_cast<int>(v.size()), v.data(), 0, switches);
}

TEST(Args, KeyValuePairsAndPositionals) {
  const Args a =
      parse_args({"data.tg", "--top", "5", "--objective", "mi", "out.tg"});
  ASSERT_EQ(a.positional.size(), 2u);
  EXPECT_EQ(a.positional[0], "data.tg");
  EXPECT_EQ(a.positional[1], "out.tg");
  EXPECT_EQ(a.get_int("top", 0), 5);
  EXPECT_EQ(a.get("objective", ""), "mi");
  EXPECT_FALSE(a.has("missing"));
  EXPECT_EQ(a.get("missing", "fb"), "fb");
  EXPECT_DOUBLE_EQ(a.get_double("missing", 1.5), 1.5);
}

TEST(Args, NegativeNumbersAreValuesNotSwitches) {
  // The old heuristic (next token must not start with '-') parsed
  // `--seed -5` as a bare switch and reshuffled the remaining arguments.
  const Args a = parse_args({"--seed", "-5", "--effect", "-0.25", "in.tg"});
  EXPECT_EQ(a.get_int("seed", 0), -5);
  EXPECT_DOUBLE_EQ(a.get_double("effect", 0.0), -0.25);
  ASSERT_EQ(a.positional.size(), 1u);
  EXPECT_EQ(a.positional[0], "in.tg");
}

TEST(Args, SingleDashIsAValue) {
  const Args a = parse_args({"--range", "-"});
  EXPECT_EQ(a.get("range", ""), "-");
}

TEST(Args, DeclaredSwitchesNeverConsumeAValue) {
  // Without the declaration, `--progress data.tg` would swallow the
  // dataset path as the switch's value.
  const Args a = parse_args({"--progress", "data.tg"}, {"progress"});
  EXPECT_EQ(a.get("progress", ""), "1");
  ASSERT_EQ(a.positional.size(), 1u);
  EXPECT_EQ(a.positional[0], "data.tg");
}

TEST(Args, FlagFollowedByFlagTakesNoValue) {
  const Args a = parse_args({"--verbose", "--top", "3"});
  EXPECT_EQ(a.get("verbose", ""), "1");
  EXPECT_EQ(a.get_int("top", 0), 3);
}

TEST(Args, TrailingFlagBecomesASwitch) {
  const Args a = parse_args({"in.tg", "--progress"});
  EXPECT_EQ(a.get("progress", ""), "1");
  ASSERT_EQ(a.positional.size(), 1u);
}

TEST(Args, LaterOccurrenceWins) {
  const Args a = parse_args({"--top", "3", "--top", "9"});
  EXPECT_EQ(a.get_int("top", 0), 9);
}

TEST(Args, GetUintParsesValuesAndFallback) {
  const Args a = parse_args({"--stop-after", "5000", "--checkpoint-every",
                             "18446744073709551615"});
  EXPECT_EQ(a.get_uint("stop-after", 0), 5000u);
  // The full uint64 range is representable — no silent truncation at 2^63.
  EXPECT_EQ(a.get_uint("checkpoint-every", 0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(a.get_uint("absent", 42), 42u);
}

TEST(Args, GetUintRejectsNegative) {
  // The historical bug: static_cast<uint64_t>(get_int(...)) turned
  // `--stop-after -1` into ~2^64 ranks, i.e. "never stop".  get_uint must
  // reject the sign instead of wrapping.
  const Args a = parse_args({"--stop-after", "-1"});
  EXPECT_THROW(a.get_uint("stop-after", 0), std::invalid_argument);
}

TEST(Args, GetUintRejectsGarbageAndOverflow) {
  const Args a = parse_args({"--shards", "4x", "--shard", "",
                             "--checkpoint-every", "18446744073709551616"});
  EXPECT_THROW(a.get_uint("shards", 0), std::invalid_argument);
  EXPECT_THROW(a.get_uint("shard", 0), std::invalid_argument);
  EXPECT_THROW(a.get_uint("checkpoint-every", 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// NUMA topology from injectable (fake) sysfs trees
// ---------------------------------------------------------------------------

TEST(NumaSysfs, TopologyFromFakeTree) {
  const std::string root = ::testing::TempDir() + "trigen_common_sysfs_node";
  ::mkdir(root.c_str(), 0777);
  ::mkdir((root + "/node0").c_str(), 0777);
  ::mkdir((root + "/node2").c_str(), 0777);  // sparse numbering
  const auto write_file = [](const std::string& path, const char* content) {
    std::ofstream(path) << content;
  };
  write_file(root + "/online", "0,2");
  write_file(root + "/node0/cpulist", "0-3");
  write_file(root + "/node2/cpulist", "4-5,8");
  const NumaTopology topo = read_numa_topology(root);
  ASSERT_EQ(topo.nodes(), 2u);
  EXPECT_EQ(topo.node_cpus[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.node_cpus[1], (std::vector<int>{4, 5, 8}));
}

TEST(NumaSysfs, MissingTreeYieldsOneNode) {
  const NumaTopology topo =
      read_numa_topology(::testing::TempDir() + "trigen_common_no_such_dir");
  EXPECT_EQ(topo.nodes(), 1u);
  // One-node topologies never bind (the no-op contract).
  EXPECT_EQ(bind_thread_round_robin(topo, 0), -1);
}

TEST(NumaSysfs, ParseCpuList) {
  EXPECT_EQ(parse_cpu_list("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list("7"), (std::vector<int>{7}));
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_TRUE(parse_cpu_list("banana").empty());
  // Inverted ranges stop the parse instead of exploding.
  EXPECT_EQ(parse_cpu_list("5-2"), (std::vector<int>{}));
}

// ---------------------------------------------------------------------------
// Host fingerprint (the benchmark stamps it into every report)
// ---------------------------------------------------------------------------

tune::HostFingerprint sample_fingerprint() {
  tune::HostFingerprint f;
  f.cpu_brand = "Sample CPU @ 2.00GHz";
  f.feature_mask = 0x1f;
  f.l1_size_bytes = 32 * 1024;
  f.l1_ways = 8;
  f.numa_nodes = 2;
  return f;
}

TEST(HostFingerprint, DigestCoversEveryField) {
  // Two hosts that differ in any one field must not share a digest, or a
  // report from one would be compared as if it came from the other.
  const tune::HostFingerprint base = sample_fingerprint();
  std::vector<tune::HostFingerprint> variants(5, base);
  variants[0].cpu_brand += "X";
  variants[1].feature_mask ^= 0x20;
  variants[2].l1_size_bytes = 48 * 1024;
  variants[3].l1_ways = 12;
  variants[4].numa_nodes = 1;
  std::set<std::uint64_t> digests = {base.digest()};
  for (const tune::HostFingerprint& v : variants) {
    EXPECT_FALSE(v == base);
    digests.insert(v.digest());
  }
  EXPECT_EQ(digests.size(), variants.size() + 1);
}

TEST(HostFingerprint, EqualFingerprintsShareADigest) {
  const tune::HostFingerprint a = sample_fingerprint();
  tune::HostFingerprint b;
  b.cpu_brand = std::string("Sample CPU") + " @ 2.00GHz";
  b.feature_mask = 0x1f;
  b.l1_size_bytes = 32 * 1024;
  b.l1_ways = 8;
  b.numa_nodes = 2;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.digest(), b.digest());
  // The digest is a pure function of the fields: stable across calls.
  EXPECT_EQ(a.digest(), a.digest());
}

TEST(HostFingerprint, ThisHostDescribesTheExecutingHostOnce) {
  const tune::HostFingerprint& fp = tune::this_host_fingerprint();
  EXPECT_EQ(&fp, &tune::this_host_fingerprint());
  EXPECT_EQ(fp.cpu_brand, cpu_brand_string());
  const CpuFeatures& f = cpu_features();
  EXPECT_EQ((fp.feature_mask & 1u) != 0, f.sse42);
  EXPECT_EQ((fp.feature_mask & 2u) != 0, f.avx2);
  EXPECT_EQ((fp.feature_mask & 4u) != 0, f.avx512f);
  EXPECT_EQ((fp.feature_mask & 8u) != 0, f.avx512bw);
  EXPECT_EQ((fp.feature_mask & 16u) != 0, f.avx512vl);
  EXPECT_EQ((fp.feature_mask & 32u) != 0, f.avx512vpopcntdq);
  EXPECT_EQ(fp.feature_mask >> 6, 0u);
  EXPECT_EQ(fp.numa_nodes, numa_topology().nodes());
  // The L1 geometry is the one some CPU of this host reports.
  bool matched = false;
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned c = 0; c < cpus && !matched; ++c) {
    const core::L1Config l1 =
        core::detect_l1_config("/sys/devices/system/cpu", static_cast<int>(c));
    matched = l1.size_bytes == fp.l1_size_bytes && l1.ways == fp.l1_ways;
  }
  EXPECT_TRUE(matched) << fp.l1_size_bytes << " B " << fp.l1_ways << "-way";
}

}  // namespace
}  // namespace trigen
