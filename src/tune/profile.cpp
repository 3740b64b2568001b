#include "trigen/tune/profile.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "trigen/common/cpuid.hpp"
#include "trigen/common/durable.hpp"
#include "trigen/common/numa.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/dataset/bitplanes.hpp"

namespace trigen::tune {

namespace {

constexpr char kKind[] = "tune-profile";
constexpr char kMagic[] = "TRIGEN-TUNE";
constexpr unsigned kVersion = 1;
constexpr std::uint64_t kMaxEntries = 100000;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(std::string(kKind) + ": " + what);
}

}  // namespace

std::uint64_t HostFingerprint::digest() const {
  std::uint64_t h = kFnv1aBasis;
  h = fnv1a64(h, cpu_brand.data(), cpu_brand.size());
  h = fnv1a64_u64(h, feature_mask);
  h = fnv1a64_u64(h, l1_size_bytes);
  h = fnv1a64_u64(h, l1_ways);
  h = fnv1a64_u64(h, numa_nodes);
  return h;
}

const HostFingerprint& this_host_fingerprint() {
  static const HostFingerprint fp = [] {
    HostFingerprint f;
    f.cpu_brand = cpu_brand_string();
    const CpuFeatures& feats = cpu_features();
    f.feature_mask = (feats.sse42 ? 1u : 0u) | (feats.avx2 ? 2u : 0u) |
                     (feats.avx512f ? 4u : 0u) | (feats.avx512bw ? 8u : 0u) |
                     (feats.avx512vl ? 16u : 0u) |
                     (feats.avx512vpopcntdq ? 32u : 0u);
    const core::L1Config l1 = core::detect_l1_config();
    f.l1_size_bytes = l1.size_bytes;
    f.l1_ways = l1.ways;
    f.numa_nodes = numa_topology().nodes();
    return f;
  }();
  return fp;
}

std::uint64_t sample_bucket_words(std::size_t n_samples) {
  const std::size_t words = dataset::padded_words_for(n_samples);
  std::uint64_t bucket = 16;  // floor: tiny inputs share one bucket
  while (bucket < words) bucket <<= 1;
  return bucket;
}

std::uint64_t batch_slot_bucket(std::size_t slots) {
  if (slots == 0) return 0;
  std::uint64_t bucket = 8;
  while (bucket < slots && bucket < 64) bucket <<= 1;
  return bucket;
}

const ProfileEntry* TuningProfile::find(const ProfileKey& key) const {
  const auto it = entries.find(key);
  return it == entries.end() ? nullptr : &it->second;
}

void TuningProfile::merge_from(const TuningProfile& other) {
  for (const auto& [key, entry] : other.entries) entries[key] = entry;
}

std::string serialize_profile(const TuningProfile& profile) {
  std::ostringstream os;
  os << kMagic << " v" << kVersion << "\n";
  os << "host " << hex16(profile.host.digest()) << "\n";
  os << "cpu " << profile.host.cpu_brand << "\n";
  char mask[16];
  std::snprintf(mask, sizeof(mask), "%x", profile.host.feature_mask);
  os << "features " << mask << "\n";
  os << "l1 " << profile.host.l1_size_bytes << " " << profile.host.l1_ways
     << "\n";
  os << "numa " << profile.host.numa_nodes << "\n";
  os << "entries " << profile.entries.size() << "\n";
  for (const auto& [key, e] : profile.entries) {
    os << "entry " << core::kernel_family_name(key.family) << " " << key.order
       << " " << key.bucket_words << " " << key.batch_slots << " "
       << core::kernel_isa_name(e.isa) << " " << e.tiling.bs << " "
       << e.tiling.bp_words << " " << format_hexfloat(e.throughput) << " "
       << core::kernel_isa_name(e.analytic_isa) << " " << e.analytic_tiling.bs
       << " " << e.analytic_tiling.bp_words << " "
       << format_hexfloat(e.analytic_throughput) << "\n";
  }
  os << "end\n";
  return os.str();
}

namespace {

TuningProfile parse_profile(std::istream& is) {
  RecordReader in(is, kKind);
  in.preamble(kMagic, kVersion);

  TuningProfile profile;
  const std::uint64_t claimed_digest = in.hex16_field("host");
  in.expect_key("cpu");
  profile.host.cpu_brand = in.rest_of_line("cpu");
  const std::uint64_t mask = in.u64_field("features", 16);
  if (mask > std::numeric_limits<std::uint32_t>::max())
    in.fail("implausible feature mask " + std::to_string(mask));
  profile.host.feature_mask = static_cast<std::uint32_t>(mask);

  in.expect_key("l1");
  const std::uint64_t l1_size = in.u64("l1 size");
  const std::uint64_t l1_ways = in.u64("l1 ways");
  if (l1_size == 0 || l1_size > (64u << 20) || l1_ways == 0 || l1_ways > 64)
    in.fail("implausible l1 geometry " + std::to_string(l1_size) + "/" +
            std::to_string(l1_ways));
  profile.host.l1_size_bytes = static_cast<std::size_t>(l1_size);
  profile.host.l1_ways = static_cast<unsigned>(l1_ways);

  const std::uint64_t numa = in.u64_field("numa");
  if (numa == 0 || numa > 1024)
    in.fail("implausible numa node count " + std::to_string(numa));
  profile.host.numa_nodes = static_cast<unsigned>(numa);

  if (profile.host.digest() != claimed_digest)
    in.fail("host digest mismatch: header claims " + hex16(claimed_digest) +
            " but the host fields hash to " + hex16(profile.host.digest()) +
            " (corrupt or hand-edited profile)");

  const std::uint64_t count = in.count("entries", kMaxEntries);
  for (std::uint64_t i = 0; i < count; ++i) {
    in.expect_key("entry");
    ProfileKey key;
    const std::string family_name = in.token("kernel family");
    const auto family = core::parse_kernel_family(family_name);
    if (!family) in.fail("unknown kernel family '" + family_name + "'");
    key.family = *family;
    const std::uint64_t order = in.u64("order");
    if (order < 2 || order > 16)
      in.fail("implausible order " + std::to_string(order));
    key.order = static_cast<unsigned>(order);
    key.bucket_words = in.u64("bucket words");
    key.batch_slots = in.u64("batch slots");
    ProfileEntry e;
    const std::string isa_name = in.token("kernel isa");
    const auto isa = core::parse_kernel_isa(isa_name);
    if (!isa) in.fail("unknown kernel isa '" + isa_name + "'");
    e.isa = *isa;
    e.tiling.bs = in.u64("tiling bs");
    e.tiling.bp_words = in.u64("tiling bp_words");
    if (!e.tiling.valid())
      in.fail("invalid tiling " + std::to_string(e.tiling.bs) + "/" +
              std::to_string(e.tiling.bp_words) + " in entry " +
              std::to_string(i));
    e.throughput = in.hexfloat("throughput");
    const std::string analytic_name = in.token("analytic isa");
    const auto aisa = core::parse_kernel_isa(analytic_name);
    if (!aisa) in.fail("unknown analytic isa '" + analytic_name + "'");
    e.analytic_isa = *aisa;
    e.analytic_tiling.bs = in.u64("analytic bs");
    e.analytic_tiling.bp_words = in.u64("analytic bp_words");
    e.analytic_throughput = in.hexfloat("analytic throughput");
    if (e.throughput < 0.0 || e.analytic_throughput < 0.0)
      in.fail("negative throughput in entry " + std::to_string(i));
    if (!profile.entries.emplace(key, e).second)
      in.fail("duplicate entry for " + core::kernel_family_name(key.family) +
              " order " + std::to_string(key.order));
  }
  in.end(nullptr);
  return profile;
}

}  // namespace

TuningProfile parse_profile(const std::string& text) {
  std::istringstream is(text);
  return parse_profile(is);
}

TuningProfile read_profile_file(const std::string& path) {
  auto is = open_record_file(path, kKind);
  return parse_profile(is);
}

void write_profile_file(const std::string& path, const TuningProfile& profile) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  write_file_durably(path, kKind, serialize_profile(profile));
}

TuningProfile load_profile_for_this_host(const std::string& path) {
  TuningProfile profile = read_profile_file(path);
  const HostFingerprint& here = this_host_fingerprint();
  if (profile.host.digest() != here.digest())
    fail("profile '" + path + "' was tuned for a different host (its cpu: '" +
         profile.host.cpu_brand + "', digest " + hex16(profile.host.digest()) +
         "; this host: '" + here.cpu_brand + "', digest " +
         hex16(here.digest()) + ") — re-run `trigen tune`");
  return profile;
}

core::ConfigResolver make_resolver(
    std::shared_ptr<const TuningProfile> profile) {
  return [profile = std::move(profile)](const core::KernelConfigRequest& req)
             -> std::optional<core::KernelConfigChoice> {
    if (!profile) return std::nullopt;
    ProfileKey key;
    key.family = req.family;
    key.order = req.order;
    key.bucket_words = sample_bucket_words(req.n_samples);
    key.batch_slots = batch_slot_bucket(req.batch_slots);
    const ProfileEntry* e = profile->find(key);
    if (!e) return std::nullopt;
    return core::KernelConfigChoice{e->isa, e->tiling};
  };
}

std::string default_profile_path() {
  if (const char* env = std::getenv("TRIGEN_TUNE_PROFILE"); env && *env)
    return env;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
    return std::string(xdg) + "/trigen/tune-v1.profile";
  if (const char* home = std::getenv("HOME"); home && *home)
    return std::string(home) + "/.cache/trigen/tune-v1.profile";
  return "trigen-tune.profile";
}

}  // namespace trigen::tune
