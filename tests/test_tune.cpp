/// Tests for the empirical autotuner: the TRIGEN-TUNE profile format
/// (round-trip exactness, the corruption/rejection battery mirroring the
/// shard formats), the bucket functions, the resolver seam through the
/// detector (bit-identity against the analytic configuration, and that a
/// resolved choice actually lands in isa_used/tiling_used), the injectable
/// sysfs parsers (L1 geometry, NUMA topology), and a tiny end-to-end grid.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "test_util.hpp"
#include "trigen/common/numa.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/tune/microbench.hpp"
#include "trigen/tune/profile.hpp"

namespace trigen::tune {
namespace {

using trigen::test::random_dataset;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "trigen_tune_" + name;
}

template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

void expect_error_contains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "message '" << msg << "' lacks '" << needle << "'";
}

/// A two-entry profile stamped with this host's fingerprint (so the
/// host-gated loader accepts it).
TuningProfile sample_profile() {
  TuningProfile p;
  p.host = this_host_fingerprint();
  ProfileKey k1;
  k1.family = core::KernelFamily::kTripleBlockCached;
  k1.order = 3;
  k1.bucket_words = 16;
  ProfileEntry e1;
  e1.isa = core::KernelIsa::kScalar;
  e1.tiling = {6, 208};
  e1.throughput = 2.2377941e9;
  e1.analytic_isa = core::KernelIsa::kScalar;
  e1.analytic_tiling = {5, 208};
  e1.analytic_throughput = 2.0840306e9;
  p.entries[k1] = e1;
  ProfileKey k2;
  k2.family = core::KernelFamily::kFinalizeBatched;
  k2.order = 3;
  k2.bucket_words = 2048;
  k2.batch_slots = 16;
  ProfileEntry e2;
  e2.isa = core::KernelIsa::kScalar;
  e2.tiling = {64, 256};
  e2.throughput = 0.125;  // exact in binary: survives any float round-trip
  e2.analytic_isa = core::KernelIsa::kScalar;
  e2.analytic_tiling = {64, 256};
  e2.analytic_throughput = 0.0625;
  p.entries[k2] = e2;
  return p;
}

// ---------------------------------------------------------------------------
// Buckets
// ---------------------------------------------------------------------------

TEST(TuneBuckets, SampleBucketIsPow2PaddedWordsWithFloor) {
  EXPECT_EQ(sample_bucket_words(1), 16u);     // floor
  EXPECT_EQ(sample_bucket_words(512), 16u);   // exactly one padded plane
  EXPECT_EQ(sample_bucket_words(513), 32u);   // 17 padded words -> 32
  EXPECT_EQ(sample_bucket_words(4096), 128u);
  EXPECT_EQ(sample_bucket_words(65536), 2048u);
}

TEST(TuneBuckets, BatchSlotBucketClampsToPow2Range) {
  EXPECT_EQ(batch_slot_bucket(0), 0u);  // unbatched stays unbatched
  EXPECT_EQ(batch_slot_bucket(1), 8u);
  EXPECT_EQ(batch_slot_bucket(8), 8u);
  EXPECT_EQ(batch_slot_bucket(9), 16u);
  EXPECT_EQ(batch_slot_bucket(64), 64u);
  EXPECT_EQ(batch_slot_bucket(1000), 64u);  // cap
}

// ---------------------------------------------------------------------------
// Name parsers
// ---------------------------------------------------------------------------

TEST(TuneNames, KernelIsaParsesEveryName) {
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    const auto parsed = core::parse_kernel_isa(core::kernel_isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(core::parse_kernel_isa("sse9").has_value());
  EXPECT_FALSE(core::parse_kernel_isa("").has_value());
}

TEST(TuneNames, KernelFamilyRoundTrips) {
  const core::KernelFamily families[] = {
      core::KernelFamily::kPairCount,       core::KernelFamily::kTripleBlock,
      core::KernelFamily::kTripleBlockCached,
      core::KernelFamily::kPairPlaneBuild,  core::KernelFamily::kTupleBlock,
      core::KernelFamily::kPrefixLadder,    core::KernelFamily::kFinalizeBatched,
  };
  for (const core::KernelFamily f : families) {
    const auto parsed = core::parse_kernel_family(core::kernel_family_name(f));
    ASSERT_TRUE(parsed.has_value()) << core::kernel_family_name(f);
    EXPECT_EQ(*parsed, f);
  }
  EXPECT_FALSE(core::parse_kernel_family("quad_block").has_value());
}

TEST(TuneNames, ScanKernelFamilyMatchesLadder) {
  using core::CpuVersion;
  using core::KernelFamily;
  EXPECT_EQ(core::scan_kernel_family(2, CpuVersion::kV4Vector, false),
            KernelFamily::kPairCount);
  EXPECT_EQ(core::scan_kernel_family(3, CpuVersion::kV4Vector, false),
            KernelFamily::kTripleBlock);
  EXPECT_EQ(core::scan_kernel_family(3, CpuVersion::kV5PairCache, false),
            KernelFamily::kTripleBlockCached);
  EXPECT_EQ(core::scan_kernel_family(4, CpuVersion::kV4Vector, false),
            KernelFamily::kTupleBlock);
  EXPECT_EQ(core::scan_kernel_family(5, CpuVersion::kV5PairCache, false),
            KernelFamily::kPrefixLadder);
  EXPECT_EQ(core::scan_kernel_family(3, CpuVersion::kV4Vector, true),
            KernelFamily::kFinalizeBatched);
}

// ---------------------------------------------------------------------------
// Profile format: round-trip + corruption battery
// ---------------------------------------------------------------------------

TEST(TuneProfileIo, RoundTripIsExact) {
  const TuningProfile p = sample_profile();
  const TuningProfile q = parse_profile(serialize_profile(p));
  EXPECT_EQ(q.host, p.host);
  ASSERT_EQ(q.entries.size(), p.entries.size());
  for (const auto& [key, e] : p.entries) {
    const ProfileEntry* r = q.find(key);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->isa, e.isa);
    EXPECT_EQ(r->tiling.bs, e.tiling.bs);
    EXPECT_EQ(r->tiling.bp_words, e.tiling.bp_words);
    // Hexfloat rendering: bit-exact double round-trip, not "close".
    EXPECT_EQ(std::memcmp(&r->throughput, &e.throughput, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&r->analytic_throughput, &e.analytic_throughput,
                          sizeof(double)),
              0);
  }
}

TEST(TuneProfileIo, FileRoundTripThroughDisk) {
  const std::string path = temp_path("roundtrip.profile");
  const TuningProfile p = sample_profile();
  write_profile_file(path, p);
  const TuningProfile q = read_profile_file(path);
  EXPECT_EQ(q.entries.size(), p.entries.size());
  EXPECT_EQ(q.host.digest(), p.host.digest());
  // The host-gated loader accepts its own host's profile.
  EXPECT_NO_THROW(load_profile_for_this_host(path));
  std::remove(path.c_str());
}

TEST(TuneProfileIo, WriteCreatesMissingParentDirectories) {
  const std::string dir = temp_path("nested_dir");
  const std::string path = dir + "/deeper/tune.profile";
  write_profile_file(path, sample_profile());
  EXPECT_NO_THROW(read_profile_file(path));
  std::remove(path.c_str());
}

TEST(TuneProfileIo, RejectsBadMagic) {
  expect_error_contains(
      error_of([] { parse_profile("TRIGEN-SHARD v1\n"); }), "bad magic");
}

TEST(TuneProfileIo, RejectsVersionSkew) {
  std::string text = serialize_profile(sample_profile());
  text.replace(text.find("v1"), 2, "v2");
  expect_error_contains(error_of([&] { parse_profile(text); }),
                        "unsupported version");
}

TEST(TuneProfileIo, RejectsTruncationAtEveryLine) {
  const std::string text = serialize_profile(sample_profile());
  // Dropping the trailer, any entry, or any header line must be detected.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  for (std::size_t keep = 0; keep < lines.size(); ++keep) {
    std::string truncated;
    for (std::size_t i = 0; i < keep; ++i) truncated += lines[i] + "\n";
    EXPECT_THROW(parse_profile(truncated), std::runtime_error)
        << "accepted a file truncated to " << keep << " lines";
  }
  // The untruncated file parses (sanity check of the loop above).
  EXPECT_NO_THROW(parse_profile(text));
}

TEST(TuneProfileIo, RejectsEntryCountMismatch) {
  std::string text = serialize_profile(sample_profile());
  text.replace(text.find("entries 2"), 9, "entries 3");
  expect_error_contains(error_of([&] { parse_profile(text); }),
                        "tune-profile");
}

TEST(TuneProfileIo, RejectsUnknownFamilyAndIsa) {
  std::string text = serialize_profile(sample_profile());
  std::string bad = text;
  bad.replace(bad.find("finalize_batched"), 16, "finalize_batchXX");
  expect_error_contains(error_of([&] { parse_profile(bad); }),
                        "unknown kernel family");
  bad = text;
  bad.replace(bad.find(" scalar "), 8, " scalr8 ");
  expect_error_contains(error_of([&] { parse_profile(bad); }),
                        "unknown kernel isa");
}

TEST(TuneProfileIo, RejectsTamperedHostFields) {
  // Flipping any fingerprint-covered field breaks the digest check.
  std::string text = serialize_profile(sample_profile());
  text.replace(text.find("numa 1"), 6, "numa 2");
  expect_error_contains(error_of([&] { parse_profile(text); }),
                        "host digest mismatch");
}

TEST(TuneProfileIo, RejectsForeignHostProfile) {
  TuningProfile foreign = sample_profile();
  foreign.host.cpu_brand = "Totally Different CPU @ 9.99GHz";
  const std::string path = temp_path("foreign.profile");
  write_profile_file(path, foreign);
  // Readable as a file...
  EXPECT_NO_THROW(read_profile_file(path));
  // ...but the host gate rejects it with both identities in the message.
  const std::string msg =
      error_of([&] { load_profile_for_this_host(path); });
  expect_error_contains(msg, "different host");
  expect_error_contains(msg, "Totally Different CPU");
  expect_error_contains(msg, "trigen tune");
  std::remove(path.c_str());
}

TEST(TuneProfileIo, MissingFileErrorNamesThePath) {
  expect_error_contains(
      error_of([] { read_profile_file("/nonexistent/tune.profile"); }),
      "/nonexistent/tune.profile");
}

TEST(TuneProfileIo, MergeFromPrefersNewEntries) {
  TuningProfile base = sample_profile();
  TuningProfile update;
  update.host = base.host;
  const ProfileKey key = base.entries.begin()->first;
  ProfileEntry changed = base.entries.begin()->second;
  changed.tiling.bs += 1;
  update.entries[key] = changed;
  base.merge_from(update);
  EXPECT_EQ(base.entries.size(), 2u);  // no duplicates created
  EXPECT_EQ(base.find(key)->tiling.bs, changed.tiling.bs);
}

// ---------------------------------------------------------------------------
// Resolver -> detector seam
// ---------------------------------------------------------------------------

TEST(TuneResolver, StaleBucketMissesAndExactBucketHits) {
  auto profile = std::make_shared<TuningProfile>(sample_profile());
  const core::ConfigResolver resolve = make_resolver(profile);
  // 100 samples -> bucket 16: hits the kTripleBlockCached entry.
  core::KernelConfigRequest req;
  req.family = core::KernelFamily::kTripleBlockCached;
  req.order = 3;
  req.n_samples = 100;
  const auto hit = resolve(req);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tiling.bs, 6u);
  // A dataset ~100x larger lands in another bucket: the profile is stale
  // for that scale and must miss (analytic fallback), not mis-configure.
  req.n_samples = 10000;
  EXPECT_FALSE(resolve(req).has_value());
  // Same bucket, different family: miss.
  req.n_samples = 100;
  req.family = core::KernelFamily::kTripleBlock;
  EXPECT_FALSE(resolve(req).has_value());
}

TEST(TuneResolver, ResolvedChoiceLandsInScanStatsAndIsBitIdentical) {
  const auto d = random_dataset({12, 100, 11});
  const core::Detector det(d);

  core::DetectorOptions analytic;
  analytic.version = core::CpuVersion::kV5PairCache;
  analytic.top_k = 5;
  const auto base = det.run(analytic);

  // Resolver answering with a deliberately non-analytic tiling.
  core::DetectorOptions tuned = analytic;
  tuned.config = [&](const core::KernelConfigRequest& req)
      -> std::optional<core::KernelConfigChoice> {
    EXPECT_EQ(req.family, core::KernelFamily::kTripleBlockCached);
    EXPECT_EQ(req.order, 3u);
    EXPECT_EQ(req.n_samples, d.num_samples());
    EXPECT_EQ(req.batch_slots, 0u);
    return core::KernelConfigChoice{core::KernelIsa::kScalar, {3, 64}};
  };
  const auto resolved = det.run(tuned);

  // The measured choice is what actually ran...
  EXPECT_EQ(resolved.isa_used, core::KernelIsa::kScalar);
  EXPECT_EQ(resolved.tiling_used.bs, 3u);
  EXPECT_EQ(resolved.tiling_used.bp_words, 64u);
  // ...and the results are bit-identical to the analytic configuration.
  ASSERT_EQ(resolved.best.size(), base.best.size());
  for (std::size_t i = 0; i < base.best.size(); ++i) {
    EXPECT_EQ(resolved.best[i].snps, base.best[i].snps);
    EXPECT_EQ(std::memcmp(&resolved.best[i].score, &base.best[i].score,
                          sizeof(double)),
              0);
  }
}

TEST(TuneResolver, ExplicitPinsBypassTheResolver) {
  const auto d = random_dataset({10, 64, 3});
  const core::Detector det(d);
  bool consulted = false;
  core::DetectorOptions opt;
  opt.version = core::CpuVersion::kV4Vector;
  opt.config = [&](const core::KernelConfigRequest&)
      -> std::optional<core::KernelConfigChoice> {
    consulted = true;
    return std::nullopt;
  };
  // Pinned ISA: the configuration is explicit, the resolver stays silent.
  opt.isa = core::KernelIsa::kScalar;
  opt.isa_auto = false;
  (void)det.run(opt);
  EXPECT_FALSE(consulted);
  // Pinned tiling, auto ISA: still explicit, still silent.
  opt.isa_auto = true;
  opt.tiling = {4, 64};
  (void)det.run(opt);
  EXPECT_FALSE(consulted);
  // Fully auto: consulted (and a nullopt answer falls back analytically).
  opt.tiling = {0, 0};
  (void)det.run(opt);
  EXPECT_TRUE(consulted);
}

TEST(TuneResolver, UnavailableIsaFallsBackToAnalytic) {
  const auto d = random_dataset({10, 64, 4});
  const core::Detector det(d);
  core::DetectorOptions opt;
  opt.version = core::CpuVersion::kV4Vector;
  // An ISA outside all_kernel_isas' availability can't be faked portably,
  // so answer with an available ISA but verify the fallback contract via
  // the analytic baseline: a resolver miss must reproduce best_kernel_isa.
  opt.config = [](const core::KernelConfigRequest&)
      -> std::optional<core::KernelConfigChoice> { return std::nullopt; };
  const auto r = det.run(opt);
  EXPECT_EQ(r.isa_used, core::best_kernel_isa());
}

TEST(TuneResolver, BatchedScanResolvesTheBatchedFamily) {
  const auto d = random_dataset({10, 100, 5});
  const core::Detector det(d);
  std::vector<std::vector<dataset::Phenotype>> parts(
      3, std::vector<dataset::Phenotype>(d.num_samples(), 0));
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::size_t s = p; s < parts[p].size(); s += p + 2) parts[p][s] = 1;
  }
  const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
  bool asked_batched = false;
  core::DetectorOptions opt;
  opt.config = [&](const core::KernelConfigRequest& req)
      -> std::optional<core::KernelConfigChoice> {
    EXPECT_EQ(req.family, core::KernelFamily::kFinalizeBatched);
    EXPECT_EQ(req.batch_slots, batch.size());
    asked_batched = true;
    return std::nullopt;
  };
  (void)det.run_batched(batch, opt);
  EXPECT_TRUE(asked_batched);
}

// ---------------------------------------------------------------------------
// Injectable sysfs parsers (fake trees)
// ---------------------------------------------------------------------------

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  os << content;
}

TEST(TuneSysfs, L1ConfigReadsRequestedCpuFromFakeTree) {
  const std::string root = temp_path("sysfs_cpu");
  ::mkdir(root.c_str(), 0777);
  // cpu0: a 32K/8-way L1D at index0.  cpu1: instruction cache at index0
  // (must be skipped) and a 48K/12-way Unified L1 at index1.
  for (const char* d :
       {"/cpu0", "/cpu0/cache", "/cpu0/cache/index0", "/cpu1", "/cpu1/cache",
        "/cpu1/cache/index0", "/cpu1/cache/index1"}) {
    ::mkdir((root + d).c_str(), 0777);
  }
  write_file(root + "/cpu0/cache/index0/level", "1");
  write_file(root + "/cpu0/cache/index0/type", "Data");
  write_file(root + "/cpu0/cache/index0/size", "32K");
  write_file(root + "/cpu0/cache/index0/ways_of_associativity", "8");
  write_file(root + "/cpu1/cache/index0/level", "1");
  write_file(root + "/cpu1/cache/index0/type", "Instruction");
  write_file(root + "/cpu1/cache/index0/size", "32K");
  write_file(root + "/cpu1/cache/index0/ways_of_associativity", "8");
  write_file(root + "/cpu1/cache/index1/level", "1");
  write_file(root + "/cpu1/cache/index1/type", "Unified");
  write_file(root + "/cpu1/cache/index1/size", "48K");
  write_file(root + "/cpu1/cache/index1/ways_of_associativity", "12");

  const core::L1Config c0 = core::detect_l1_config(root, 0);
  EXPECT_EQ(c0.size_bytes, 32u * 1024);
  EXPECT_EQ(c0.ways, 8u);
  const core::L1Config c1 = core::detect_l1_config(root, 1);
  EXPECT_EQ(c1.size_bytes, 48u * 1024);
  EXPECT_EQ(c1.ways, 12u);
  // A CPU with no entries falls back to cpu0's geometry.
  const core::L1Config c9 = core::detect_l1_config(root, 9);
  EXPECT_EQ(c9.size_bytes, 32u * 1024);
  EXPECT_EQ(c9.ways, 8u);
}

TEST(TuneSysfs, NumaTopologyFromFakeTree) {
  const std::string root = temp_path("sysfs_node");
  ::mkdir(root.c_str(), 0777);
  ::mkdir((root + "/node0").c_str(), 0777);
  ::mkdir((root + "/node2").c_str(), 0777);  // sparse numbering
  write_file(root + "/online", "0,2");
  write_file(root + "/node0/cpulist", "0-3");
  write_file(root + "/node2/cpulist", "4-5,8");
  const NumaTopology topo = read_numa_topology(root);
  ASSERT_EQ(topo.nodes(), 2u);
  EXPECT_EQ(topo.node_cpus[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.node_cpus[1], (std::vector<int>{4, 5, 8}));
}

TEST(TuneSysfs, MissingNumaTreeYieldsOneNode) {
  const NumaTopology topo = read_numa_topology(temp_path("no_such_dir"));
  EXPECT_EQ(topo.nodes(), 1u);
  // One-node topologies never bind (the no-op contract).
  EXPECT_EQ(bind_thread_round_robin(topo, 0), -1);
}

TEST(TuneSysfs, ParseCpuList) {
  EXPECT_EQ(parse_cpu_list("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list("7"), (std::vector<int>{7}));
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_TRUE(parse_cpu_list("banana").empty());
  // Inverted ranges stop the parse instead of exploding.
  EXPECT_EQ(parse_cpu_list("5-2"), (std::vector<int>{}));
}

// ---------------------------------------------------------------------------
// End-to-end: a tiny grid produces a usable, host-accepted profile
// ---------------------------------------------------------------------------

TEST(TuneGrid, QuickGridProducesResolvableProfile) {
  TuneOptions opt;
  opt.n_samples = 64;
  opt.orders = {3};
  opt.batch_slots = 2;
  opt.quick = true;
  const TuneReport report = run_tuning_grid(opt);
  // Four order-3 families: triple_block, triple_block_cached,
  // finalize_batched, pair_plane_build.
  ASSERT_EQ(report.results.size(), 4u);
  for (const FamilyResult& fr : report.results) {
    EXPECT_GT(fr.entry.throughput, 0.0)
        << core::kernel_family_name(fr.key.family);
    EXPECT_GE(fr.entry.throughput, fr.entry.analytic_throughput)
        << "winner slower than a measured grid point";
    EXPECT_TRUE(fr.entry.tiling.valid());
    EXPECT_FALSE(fr.candidates.empty());
  }

  // Winners round-trip through the file format and resolve.
  const std::string path = temp_path("grid.profile");
  write_profile_file(path, report.to_profile());
  const auto profile = std::make_shared<TuningProfile>(
      load_profile_for_this_host(path));
  const core::ConfigResolver resolve = make_resolver(profile);
  core::KernelConfigRequest req;
  req.family = core::KernelFamily::kTripleBlockCached;
  req.order = 3;
  req.n_samples = opt.n_samples;
  EXPECT_TRUE(resolve(req).has_value());
  std::remove(path.c_str());

  // The JSON fold names every family with gate-compatible rate keys.
  const std::string json = tune_report_json(report);
  EXPECT_NE(json.find("\"tune/triple_block_cached/order3/w16\""),
            std::string::npos);
  EXPECT_NE(json.find("elements_per_s"), std::string::npos);
  EXPECT_NE(json.find("speedup"), std::string::npos);
}

TEST(TuneGrid, RejectsBadOptions) {
  TuneOptions opt;
  opt.orders = {7};
  EXPECT_THROW(run_tuning_grid(opt), std::invalid_argument);
  opt.orders = {3};
  opt.n_samples = 0;
  EXPECT_THROW(run_tuning_grid(opt), std::invalid_argument);
}

}  // namespace
}  // namespace trigen::tune
