#include "trigen/fleet/state.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/durable.hpp"

namespace trigen::fleet {
namespace {

constexpr char kMagic[] = "TRIGEN-FLEET";
constexpr unsigned kVersion = 1;
constexpr char kKind[] = "fleet-state";

/// Plausibility bound on the shard and done-range counts: far above any
/// real plan, low enough that a corrupted count fails as a parse error
/// instead of an absurd allocation.
constexpr std::uint64_t kMaxRecords = 1u << 24;

bool has_whitespace(const std::string& s) {
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return true;
  }
  return s.empty();
}

}  // namespace

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kPending: return "pending";
    case ShardState::kLeased: return "leased";
    case ShardState::kQuarantined: return "quarantined";
  }
  return "?";
}

void write_fleet_state_file(const std::string& path, const FleetState& s) {
  std::ostringstream os;
  os << kMagic << " v" << kVersion << '\n'
     << "order " << s.order << '\n'
     << "fingerprint " << hex16(s.fingerprint) << '\n'
     << "snps " << s.num_snps << '\n'
     << "samples " << s.num_samples << '\n'
     << "objective " << s.objective << '\n'
     << "top_k " << s.top_k << '\n'
     << "next_shard " << s.next_shard << '\n';
  os << "shards " << s.shards.size() << '\n';
  for (const ShardEntry& e : s.shards) {
    // A lease is a promise this process made; a restarted coordinator
    // cannot honor it, so leased persists as pending (the worker's next
    // renew gets `lease-lost` and it comes back for a fresh lease).
    const ShardState persisted =
        e.state == ShardState::kLeased ? ShardState::kPending : e.state;
    os << "s " << e.id << ' ' << e.range.first << ' ' << e.range.last << ' '
       << shard_state_name(persisted) << ' ' << e.failures << '\n';
  }
  os << "done " << s.done.size() << '\n';
  for (const DoneRange& d : s.done) {
    if (has_whitespace(d.file)) {
      throw std::invalid_argument(
          std::string(kKind) + ": spool file name '" + d.file +
          "' is empty or contains whitespace (unrepresentable in the "
          "token-oriented state format)");
    }
    os << "d " << d.range.first << ' ' << d.range.last << ' ' << d.file
       << '\n';
  }
  os << "end " << kMagic << '\n';
  write_file_durably(path, kKind, os.str());
}

FleetState read_fleet_state_file(const std::string& path) {
  auto is = open_record_file(path, kKind);
  RecordReader in(is, kKind);
  in.preamble(kMagic, kVersion);

  FleetState s;
  const std::uint64_t order = in.u64_field("order");
  if (order < 2 || order > combinatorics::kMaxOrder) {
    in.fail("unsupported order " + std::to_string(order));
  }
  s.order = static_cast<unsigned>(order);
  s.fingerprint = in.hex16_field("fingerprint");
  s.num_snps = in.u64_field("snps");
  s.num_samples = in.u64_field("samples");
  in.expect_key("objective");
  s.objective = in.token("objective name");
  s.top_k = in.u64_field("top_k");
  if (s.top_k == 0) in.fail("top_k must be >= 1");
  s.next_shard = in.u64_field("next_shard");

  std::uint64_t total = 0;
  try {
    total = combinatorics::n_choose_k(s.num_snps, s.order);
  } catch (const std::overflow_error&) {
    in.fail("rank space exceeds 2^64: C(" + std::to_string(s.num_snps) +
            "," + std::to_string(s.order) + ") is not addressable");
  }

  const std::uint64_t n_shards = in.count("shards", kMaxRecords);
  s.shards.reserve(n_shards);
  for (std::uint64_t i = 0; i < n_shards; ++i) {
    in.expect_key("s");
    ShardEntry e;
    e.id = in.u64("shard id");
    e.range.first = in.u64("shard first");
    e.range.last = in.u64("shard last");
    const std::string state = in.token("shard state");
    if (state == "pending") {
      e.state = ShardState::kPending;
    } else if (state == "quarantined") {
      e.state = ShardState::kQuarantined;
    } else {
      in.fail("unknown shard state '" + state + "' (pending|quarantined)");
    }
    const std::uint64_t failures = in.u64("shard failures");
    if (failures > std::numeric_limits<std::uint32_t>::max()) {
      in.fail("implausible shard failures " + std::to_string(failures));
    }
    e.failures = static_cast<std::uint32_t>(failures);
    if (e.range.first >= e.range.last || e.range.last > total) {
      in.fail("shard " + std::to_string(e.id) + " has invalid range [" +
              std::to_string(e.range.first) + ", " +
              std::to_string(e.range.last) + ") for a rank space of " +
              std::to_string(total));
    }
    if (e.id >= s.next_shard) {
      in.fail("shard id " + std::to_string(e.id) + " >= next_shard " +
              std::to_string(s.next_shard));
    }
    s.shards.push_back(e);
  }

  const std::uint64_t n_done = in.count("done", kMaxRecords);
  s.done.reserve(n_done);
  for (std::uint64_t i = 0; i < n_done; ++i) {
    in.expect_key("d");
    DoneRange d;
    d.range.first = in.u64("done first");
    d.range.last = in.u64("done last");
    d.file = in.token("done file");
    if (d.range.first >= d.range.last || d.range.last > total) {
      in.fail("done range [" + std::to_string(d.range.first) + ", " +
              std::to_string(d.range.last) +
              ") is invalid for a rank space of " + std::to_string(total));
    }
    if (!s.done.empty() && d.range.first < s.done.back().range.last) {
      in.fail("done ranges are unsorted or overlap at [" +
              std::to_string(d.range.first) + ", " +
              std::to_string(d.range.last) + ")");
    }
    s.done.push_back(d);
  }

  in.end(kMagic);
  return s;
}

}  // namespace trigen::fleet
