#pragma once
/// \file profile.hpp
/// \brief Per-host empirical tuning profiles: the TRIGEN-TUNE file format.
///
/// A tuning profile records, for one host, the measured-fastest
/// (ISA, tiling) per kernel family, interaction order, sample-size bucket
/// and batch-slot bucket — the output of the microbench grid
/// (microbench.hpp) and the input of the ConfigResolver seam the scans
/// consult (core/kernel_config.hpp).  Entries also carry what the analytic
/// model (best_kernel_isa + autotune_tiling) would have picked and how
/// fast that measured, so reports and the bench gate can show the win.
///
/// File format, versioned and strict like the TRIGEN-SHARD formats
/// (parse-or-reject with precise messages, no partial reads):
///
///   TRIGEN-TUNE v1
///   host <fingerprint-hex16>
///   cpu <brand string to end of line>
///   features <hex feature mask>
///   l1 <size_bytes> <ways>
///   numa <node count>
///   entries <N>
///   entry <family> <order> <bucket_words> <batch_slots>
///         <isa> <bs> <bp_words> <throughput-hexfloat>
///         <analytic_isa> <analytic_bs> <analytic_bp> <analytic-hexfloat>
///   ...                             (N entry lines; one line each — the
///                                    three rows above wrap for this doc)
///   end
///
/// Throughputs are C99 hex floats (`%a`): exact round-trips, no locale.
/// The codec, the record reader and the crash-durable writer are the ones
/// every trigen artifact uses (common/durable.hpp).
///
/// Staleness is structural, not timestamped: the host fingerprint (CPU
/// brand + feature mask + L1 geometry + NUMA node count) gates the whole
/// file — `load_profile_for_this_host` rejects a foreign profile — and the
/// per-entry size buckets gate lookups, so a profile tuned at one dataset
/// scale simply misses (falls back to the analytic model) at another.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "trigen/core/kernel_config.hpp"

namespace trigen::tune {

/// What makes a tuning measurement transferable: same CPU, same compiled
/// feature set, same L1 geometry, same node count.
struct HostFingerprint {
  std::string cpu_brand;
  std::uint32_t feature_mask = 0;  ///< CpuFeatures bits, see host.cpp
  std::size_t l1_size_bytes = 0;
  unsigned l1_ways = 0;
  unsigned numa_nodes = 1;

  bool operator==(const HostFingerprint&) const = default;

  /// FNV-1a 64 over every field — the `host` line of the file format.
  std::uint64_t digest() const;
};

/// Fingerprint of the executing host (cached after the first call).
const HostFingerprint& this_host_fingerprint();

/// Power-of-two bucket (in padded sample words, >= 16) that `n_samples`
/// falls into.  Lookup and measurement both key by this, so a profile
/// tuned for one dataset scale never configures a very different one.
std::uint64_t sample_bucket_words(std::size_t n_samples);

/// Batch-slot bucket: 0 for unbatched, else the next power of two clamped
/// to [8, 64] (the marginal cost per slot flattens past a vector register
/// of label lanes, so coarse buckets suffice).
std::uint64_t batch_slot_bucket(std::size_t slots);

/// Lookup key of one measured winner.
struct ProfileKey {
  core::KernelFamily family = core::KernelFamily::kTripleBlock;
  unsigned order = 0;
  std::uint64_t bucket_words = 0;
  std::uint64_t batch_slots = 0;  ///< bucketed; 0 = unbatched

  auto operator<=>(const ProfileKey&) const = default;
};

/// One measured winner plus the analytic baseline it beat (or tied).
struct ProfileEntry {
  core::KernelIsa isa = core::KernelIsa::kScalar;
  core::TilingParams tiling{0, 0};
  double throughput = 0.0;  ///< combination-samples (elements) per second
  core::KernelIsa analytic_isa = core::KernelIsa::kScalar;
  core::TilingParams analytic_tiling{0, 0};
  double analytic_throughput = 0.0;
};

struct TuningProfile {
  HostFingerprint host;
  std::map<ProfileKey, ProfileEntry> entries;

  /// Entry for `key`, or nullptr (→ analytic fallback).
  const ProfileEntry* find(const ProfileKey& key) const;

  /// Inserts or overwrites `other`'s entries (same-key wins for `other`);
  /// used by `trigen tune` to extend an existing profile bucket by bucket.
  void merge_from(const TuningProfile& other);
};

/// Renders the TRIGEN-TUNE v1 text form.
std::string serialize_profile(const TuningProfile& profile);

/// Strict parse of the text form; throws std::runtime_error with a
/// "tune-profile: ..." message on any malformation (bad magic, version
/// skew, truncation, unknown names, implausible values, count mismatch).
TuningProfile parse_profile(const std::string& text);

/// Reads and parses `path` (throws on I/O errors and malformations alike).
TuningProfile read_profile_file(const std::string& path);

/// Crash-durable write through write_file_durably (throws
/// DurableWriteError on I/O failure).  Parent directories are created when
/// missing.
void write_profile_file(const std::string& path, const TuningProfile& profile);

/// read_profile_file + host gate: throws when the profile's fingerprint
/// differs from this host's (the foreign-profile rejection).
TuningProfile load_profile_for_this_host(const std::string& path);

/// ConfigResolver over `profile` for ScanOptionsBase::config: buckets the
/// request and looks it up; misses return nullopt (analytic fallback).
core::ConfigResolver make_resolver(
    std::shared_ptr<const TuningProfile> profile);

/// Where scans look for a profile when none is named explicitly:
/// $TRIGEN_TUNE_PROFILE if set, else $XDG_CACHE_HOME/trigen/tune-v1.profile
/// (falling back through $HOME/.cache to ./trigen-tune.profile).
std::string default_profile_path();

}  // namespace trigen::tune
