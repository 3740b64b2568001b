/// Fleet orchestration tests: the durable lease table, the checkpoint
/// clip/merge exactness property behind straggler harvesting, and the
/// coordinator's full failure matrix (expiry, harvest, backoff,
/// quarantine, restart/resume, stale-lease fencing) driven in-process with
/// a fake clock — plus a real socket fleet of run_worker threads whose
/// final CSV must be bit-identical to the single-process scan.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "test_util.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/scan_csv.hpp"
#include "trigen/fleet/coordinator.hpp"
#include "trigen/fleet/state.hpp"
#include "trigen/fleet/worker.hpp"
#include "trigen/serve/endpoint.hpp"
#include "trigen/serve/protocol.hpp"
#include "trigen/shard/merge.hpp"
#include "trigen/shard/plan.hpp"
#include "trigen/shard/result_io.hpp"
#include "trigen/shard/runner.hpp"

namespace trigen::fleet {
namespace {

using combinatorics::RankRange;

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
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

/// Per-test scratch directory, wiped at entry (TempDir survives runs).
std::string fresh_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("trigen_fleet_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// --------------------------------------------------------------------------
// TRIGEN-FLEET state file
// --------------------------------------------------------------------------

FleetState sample_state() {
  FleetState s;
  s.order = 3;
  s.fingerprint = 0xfeedfacecafef00dull;
  s.num_snps = 10;
  s.num_samples = 64;
  s.objective = "k2";
  s.top_k = 8;
  s.next_shard = 7;
  ShardEntry pending;
  pending.id = 4;
  pending.range = {30, 60};
  pending.failures = 1;
  ShardEntry quarantined;
  quarantined.id = 6;
  quarantined.range = {90, 120};
  quarantined.state = ShardState::kQuarantined;
  quarantined.failures = 5;
  s.shards = {pending, quarantined};
  s.done = {{{0, 30}, "fleet-m3.shard"}, {{60, 90}, "fleet-s2.shard"}};
  return s;
}

TEST(FleetWorker, DefaultOptionsRunTheLibraryDefaultRung) {
  EXPECT_EQ(WorkerOptions{}.version, core::ScanOptionsBase{}.version);
}

TEST(FleetState, RoundTripsThroughFile) {
  const std::string path = fresh_dir("state_rt") + "/fleet.state";
  const FleetState s = sample_state();
  write_fleet_state_file(path, s);
  const FleetState r = read_fleet_state_file(path);
  EXPECT_EQ(r.order, s.order);
  EXPECT_EQ(r.fingerprint, s.fingerprint);
  EXPECT_EQ(r.num_snps, s.num_snps);
  EXPECT_EQ(r.num_samples, s.num_samples);
  EXPECT_EQ(r.objective, s.objective);
  EXPECT_EQ(r.top_k, s.top_k);
  EXPECT_EQ(r.next_shard, s.next_shard);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.shards[0].id, 4u);
  EXPECT_EQ(r.shards[0].range.first, 30u);
  EXPECT_EQ(r.shards[0].range.last, 60u);
  EXPECT_EQ(r.shards[0].state, ShardState::kPending);
  EXPECT_EQ(r.shards[0].failures, 1u);
  EXPECT_EQ(r.shards[1].state, ShardState::kQuarantined);
  EXPECT_EQ(r.shards[1].failures, 5u);
  ASSERT_EQ(r.done.size(), 2u);
  EXPECT_EQ(r.done[0].file, "fleet-m3.shard");
  EXPECT_EQ(r.done[1].range.first, 60u);
}

TEST(FleetState, LeasedPersistsAsPending) {
  // A lease is a promise the writing process made; a restarted coordinator
  // cannot honor it, so the durable form must already say pending.
  const std::string path = fresh_dir("state_lease") + "/fleet.state";
  FleetState s = sample_state();
  s.shards[0].state = ShardState::kLeased;
  s.shards[0].worker = "w1";
  s.shards[0].lease_deadline_ms = 999;
  write_fleet_state_file(path, s);
  const FleetState r = read_fleet_state_file(path);
  EXPECT_EQ(r.shards[0].state, ShardState::kPending);
  EXPECT_TRUE(r.shards[0].worker.empty());
}

TEST(FleetState, RejectsUnrepresentableSpoolNames) {
  const std::string path = fresh_dir("state_badname") + "/fleet.state";
  FleetState s = sample_state();
  s.done[0].file = "has space.shard";
  EXPECT_THROW(write_fleet_state_file(path, s), std::invalid_argument);
  s.done[0].file = "";
  EXPECT_THROW(write_fleet_state_file(path, s), std::invalid_argument);
}

TEST(FleetState, ReaderRejectsCorruptFiles) {
  const std::string dir = fresh_dir("state_corrupt");
  const std::string path = dir + "/fleet.state";
  const auto write_raw = [&](const std::string& body) {
    std::ofstream(path) << body;
  };
  const auto render = [&] {
    write_fleet_state_file(path, sample_state());
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  const std::string good = render();

  expect_error_contains(
      error_of([&] { read_fleet_state_file(dir + "/nope"); }),
      "cannot open");
  write_raw("TRIGEN-WRONG v1\n");
  expect_error_contains(error_of([&] { read_fleet_state_file(path); }),
                        "bad magic");
  write_raw("TRIGEN-FLEET v9\n");
  expect_error_contains(error_of([&] { read_fleet_state_file(path); }),
                        "version");
  // Truncation anywhere is caught by the end trailer or an earlier field.
  write_raw(good.substr(0, good.size() / 2));
  EXPECT_THROW(read_fleet_state_file(path), std::runtime_error);
  write_raw(good + "tail\n");
  expect_error_contains(error_of([&] { read_fleet_state_file(path); }),
                        "trailing");
  // A shard whose id escaped the allocator.
  std::string bad = good;
  const auto at = bad.find("s 4 ");
  bad.replace(at, 4, "s 9 ");
  write_raw(bad);
  expect_error_contains(error_of([&] { read_fleet_state_file(path); }),
                        "next_shard");
  // Overlapping done ranges.
  bad = good;
  const auto d = bad.find("d 60 90");
  bad.replace(d, 7, "d 20 50");
  write_raw(bad);
  expect_error_contains(error_of([&] { read_fleet_state_file(path); }),
                        "overlap");
}

TEST(FleetState, CorruptRecordCountsAreParseErrors) {
  // A count read from the file must be bounded before anything is
  // reserved for it: an absurd count is a `fleet-state:` parse error, not
  // std::bad_alloc or std::length_error.
  const std::string path = fresh_dir("state_counts") + "/fleet.state";
  write_fleet_state_file(path, sample_state());
  std::string good;
  {
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    good = ss.str();
  }
  for (const std::string key : {"shards ", "done "}) {
    for (const char* count : {"1000000000000", "18446744073709551615"}) {
      std::string bad = good;
      bad.replace(bad.find("\n" + key + "2\n") + 1, key.size() + 1,
                  key + count);
      std::ofstream(path) << bad;
      try {
        read_fleet_state_file(path);
        ADD_FAILURE() << "accepted " << key << count;
      } catch (const std::runtime_error& e) {
        expect_error_contains(e.what(), "fleet-state:");
        expect_error_contains(e.what(), "exceeds the limit");
      } catch (const std::exception& e) {
        ADD_FAILURE() << "wrong exception for " << count << ": " << e.what();
      }
    }
  }
}

// --------------------------------------------------------------------------
// clip-at-the-kill-point exactness (the harvest property)
// --------------------------------------------------------------------------

/// For a random kill point: checkpoint a shard up to (at least) the kill
/// point, clip the checkpoint into a prefix result, scan only the
/// remainder, and the contiguous merge of the two must equal the
/// uninterrupted full scan bit for bit.  This is the property that makes
/// the coordinator's harvest-and-re-lease path exact rather than merely
/// approximately right.
template <unsigned K>
void check_clip_merge_exactness(std::uint64_t seed) {
  const auto d = test::random_dataset({12, 100, seed});
  const core::BasicDetector<K> det(d);
  const std::uint64_t fp = shard::dataset_fingerprint(d);
  const std::uint64_t total = combinatorics::n_choose_k(d.num_snps(), K);
  const std::string dir = fresh_dir("clip_k" + std::to_string(K));

  shard::BasicShardRunOptions<core::BasicDetectorOptions<K>> base;
  base.detector.top_k = 9;
  base.range = {0, total};
  const auto full = shard::run_shard_of<K>(det, fp, base);
  ASSERT_TRUE(full.completed);

  std::mt19937_64 rng(7919 * K + seed);
  for (int trial = 0; trial < 4; ++trial) {
    // Strictly inside the range, with headroom: the run stops at the first
    // checkpoint boundary >= kill, which must stay < total or the "killed"
    // worker would in fact finish.
    const std::uint64_t kill = 1 + rng() % (total - 9);
    auto ro = base;
    ro.checkpoint_path =
        dir + "/t" + std::to_string(trial) + ".ckpt";
    ro.checkpoint_every = 1 + kill % 7;
    ro.keep_going = [kill](std::uint64_t done, std::uint64_t) {
      return done < kill;
    };
    const auto partial = shard::run_shard_of<K>(det, fp, ro);
    ASSERT_FALSE(partial.completed);

    const auto ckpt = shard::read_checkpoint_file_as<core::ScoredOf<K>>(
        ro.checkpoint_path);
    ASSERT_GE(ckpt.watermark, kill);
    ASSERT_LT(ckpt.watermark, total);

    auto rest = base;
    rest.range = shard::remaining_range(ckpt);
    const auto remainder = shard::run_shard_of<K>(det, fp, rest);
    ASSERT_TRUE(remainder.completed);

    const auto merged = shard::merge_shards_of<K>(
        {shard::clip_to_prefix(ckpt), remainder.result},
        shard::MergeCoverage::kFullScan);
    const auto& got = merged.result.best;
    const auto& want = full.result.entries;
    ASSERT_EQ(got.size(), want.size()) << "kill=" << kill;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(core::snps_of<K>(got[i]), core::snps_of<K>(want[i]))
          << "kill=" << kill << " entry " << i;
      EXPECT_TRUE(same_bits(got[i].score, want[i].score))
          << "kill=" << kill << " entry " << i;
    }
  }
}

TEST(FleetClip, KillPointMergesExactlyOrder2) {
  check_clip_merge_exactness<2>(21);
}
TEST(FleetClip, KillPointMergesExactlyOrder3) {
  check_clip_merge_exactness<3>(22);
}
TEST(FleetClip, KillPointMergesExactlyOrder4) {
  check_clip_merge_exactness<4>(23);
}

// --------------------------------------------------------------------------
// coordinator (in-process, fake clock)
// --------------------------------------------------------------------------

/// One parsed coordinator reply line.
struct Reply {
  std::string kind;
  std::string who;
  std::string verb;
  std::map<std::string, std::string> params;
  std::string raw;
};

/// Harness: a coordinator on a fake clock plus a scripted worker that
/// scans granted shards in-process (the real shard runner, no transport).
struct Rig {
  dataset::GenotypeMatrix data;
  std::uint64_t clock = 1000;
  std::string spool;
  std::unique_ptr<FleetCoordinator> coord;
  core::Detector det;
  std::uint64_t fp;

  /// Builds the dataset and spool only; tests call reopen() to construct
  /// the coordinator (and again to simulate a coordinator restart).
  explicit Rig(const std::string& tag)
      : data(test::planted_dataset(10, 64, 5)),
        spool(fresh_dir(tag)),
        det(data),
        fp(shard::dataset_fingerprint(data)) {}

  CoordinatorOptions base_options() {
    CoordinatorOptions co;
    co.top_k = 8;
    co.shards = 4;
    co.lease_ms = 1000;
    co.backoff_base_ms = 100;
    co.backoff_cap_ms = 400;
    return co;
  }

  void reopen(CoordinatorOptions co) {
    co.spool = spool;
    co.now_ms = [this] { return clock; };
    coord = std::make_unique<FleetCoordinator>(data, std::move(co));
  }

  Reply submit(const std::string& line) {
    std::vector<std::string> out;
    coord->submit_line(line,
                       [&](const std::string& l) { out.push_back(l); });
    EXPECT_EQ(out.size(), 1u) << "for request: " << line;
    Reply r;
    if (out.empty()) return r;
    r.raw = out[0];
    std::istringstream is(out[0]);
    is >> r.kind >> r.who >> r.verb;
    std::string tok;
    while (is >> tok) {
      const auto eq = tok.find('=');
      if (eq != std::string::npos) {
        r.params[tok.substr(0, eq)] = tok.substr(eq + 1);
      }
    }
    return r;
  }

  static std::uint64_t num(const Reply& r, const std::string& key) {
    const auto it = r.params.find(key);
    EXPECT_NE(it, r.params.end()) << key << " missing in: " << r.raw;
    return it == r.params.end() ? 0 : std::strtoull(it->second.c_str(),
                                                    nullptr, 10);
  }

  static RankRange range_of(const Reply& r) {
    const std::string spec = r.params.at("range");
    const auto colon = spec.find(':');
    return {std::strtoull(spec.c_str(), nullptr, 10),
            std::strtoull(spec.c_str() + colon + 1, nullptr, 10)};
  }

  /// Scans a granted shard like a worker would — optionally only until
  /// `stop_after` ranks are done (leaving a durable checkpoint behind) —
  /// and writes the result file iff the scan completed.
  bool scan_grant(const Reply& grant, std::uint64_t stop_after = 0) {
    shard::BasicShardRunOptions<core::DetectorOptions> ro;
    ro.detector.top_k = static_cast<std::size_t>(num(grant, "top"));
    ro.range = range_of(grant);
    ro.checkpoint_path = grant.params.at("ckpt");
    ro.checkpoint_every = num(grant, "checkpoint_every");
    if (stop_after != 0) {
      ro.keep_going = [stop_after](std::uint64_t done, std::uint64_t) {
        return done < stop_after;
      };
    }
    const auto rep = shard::run_shard_of<3>(det, fp, ro);
    if (rep.completed) {
      shard::write_shard_result_file(grant.params.at("out"), rep.result);
    }
    return rep.completed;
  }

  /// Lease + scan + complete until the fleet reports drained.
  void drain_as(const std::string& worker) {
    for (int guard = 0; guard < 64; ++guard) {
      const Reply r = submit("lease " + worker);
      ASSERT_EQ(r.kind, "ok") << r.raw;
      if (r.verb == "drained") return;
      if (r.verb == "wait") {
        clock += num(r, "ms");
        continue;
      }
      ASSERT_EQ(r.verb, "lease") << r.raw;
      ASSERT_TRUE(scan_grant(r));
      const Reply done = submit("complete " + worker + " shard=" +
                                std::to_string(num(r, "shard")));
      ASSERT_EQ(done.kind, "ok") << done.raw;
    }
    FAIL() << "fleet did not drain";
  }

  std::vector<std::string> reference_csv(
      core::Objective objective = core::Objective::kK2) {
    core::DetectorOptions opt;
    opt.top_k = 8;
    opt.objective = objective;
    return core::scan_csv_lines<3>(det.run(opt).best);
  }
};

TEST(FleetCoordinator, HappyPathIsBitIdenticalToSingleScan) {
  Rig rig("happy");
  rig.reopen(rig.base_options());
  rig.drain_as("w1");
  EXPECT_TRUE(rig.coord->finished());
  EXPECT_EQ(rig.coord->jobs_interrupted(), 0u);
  EXPECT_EQ(rig.coord->final_csv(), rig.reference_csv());
  // Completion is durable: a fresh coordinator over the same spool comes
  // up already finished and serves the same CSV.
  rig.reopen(rig.base_options());
  EXPECT_TRUE(rig.coord->finished());
  EXPECT_EQ(rig.coord->final_csv(), rig.reference_csv());
}

TEST(FleetCoordinator, GrantCarriesTheScanContract) {
  Rig rig("grant");
  rig.reopen(rig.base_options());
  const Reply r = rig.submit("lease w1");
  ASSERT_EQ(r.verb, "lease");
  EXPECT_EQ(Rig::num(r, "order"), 3u);
  EXPECT_EQ(r.params.at("objective"), "k2");
  EXPECT_EQ(Rig::num(r, "top"), 8u);
  EXPECT_EQ(Rig::num(r, "lease_ms"), 1000u);
  EXPECT_GT(Rig::num(r, "checkpoint_every"), 0u);
  EXPECT_EQ(r.params.at("fingerprint").size(), 16u);
  EXPECT_EQ(rig.coord->shards_leased(), 1u);
  // Same worker asking again stacks a second lease (elastic workers may
  // run several processes); ranges never overlap.
  const Reply r2 = rig.submit("lease w1");
  ASSERT_EQ(r2.verb, "lease");
  EXPECT_EQ(Rig::range_of(r).last, Rig::range_of(r2).first);
}

TEST(FleetCoordinator, ExpiredLeaseIsReassignedWithBackoff) {
  Rig rig("expiry");
  rig.reopen(rig.base_options());
  const Reply r = rig.submit("lease w1");
  const RankRange granted = Rig::range_of(r);
  // No renewals arrive; the deadline passes.
  rig.clock += 1001;
  rig.coord->tick();
  EXPECT_EQ(rig.coord->shards_leased(), 0u);
  EXPECT_EQ(rig.coord->reassignments(), 1u);
  // The range is under failure backoff: other shards are granted first,
  // and once they are gone the worker is told to wait...
  std::vector<Reply> grants;
  for (int i = 0; i < 3; ++i) grants.push_back(rig.submit("lease w2"));
  const Reply wait = rig.submit("lease w2");
  ASSERT_EQ(wait.verb, "wait") << wait.raw;
  // ...until the backoff passes and the dead worker's range comes back
  // under a fresh shard id (stale-lease fencing).
  rig.clock += Rig::num(wait, "ms");
  const Reply again = rig.submit("lease w2");
  ASSERT_EQ(again.verb, "lease") << again.raw;
  EXPECT_EQ(Rig::range_of(again).first, granted.first);
  EXPECT_EQ(Rig::range_of(again).last, granted.last);
  EXPECT_NE(Rig::num(again, "shard"), Rig::num(r, "shard"));
}

TEST(FleetCoordinator, RenewalsKeepALeaseAliveAndFenceStaleHolders) {
  Rig rig("renew");
  rig.reopen(rig.base_options());
  const Reply r = rig.submit("lease w1");
  const std::uint64_t id = Rig::num(r, "shard");
  for (int i = 0; i < 5; ++i) {
    rig.clock += 900;  // just inside the deadline each time
    rig.coord->tick();
    const Reply renewed = rig.submit(
        "renew w1 shard=" + std::to_string(id) +
        " watermark=" + std::to_string(Rig::range_of(r).first + i));
    ASSERT_EQ(renewed.kind, "ok") << renewed.raw;
  }
  EXPECT_EQ(rig.coord->reassignments(), 0u);
  // Another worker cannot renew or complete someone else's lease.
  EXPECT_EQ(rig.submit("renew w2 shard=" + std::to_string(id) +
                       " watermark=0").raw,
            "error w2 lease-lost shard=" + std::to_string(id));
  EXPECT_EQ(rig.submit("complete w2 shard=" + std::to_string(id)).verb,
            "lease-lost");
  // After expiry the original holder is fenced too.
  rig.clock += 1001;
  rig.coord->tick();
  EXPECT_EQ(rig.submit("renew w1 shard=" + std::to_string(id) +
                       " watermark=0").verb,
            "lease-lost");
}

TEST(FleetCoordinator, HarvestsCheckpointPrefixAndReLeasesOnlyTheRemainder) {
  Rig rig("harvest");
  auto co = rig.base_options();
  co.checkpoint_every = 5;
  rig.reopen(co);
  const Reply r = rig.submit("lease w1");
  const RankRange granted = Rig::range_of(r);
  // The worker checkpoints partway, then dies (no result, no renewals).
  ASSERT_FALSE(rig.scan_grant(r, /*stop_after=*/7));
  rig.clock += 1001;
  rig.coord->tick();
  // Its durable prefix was folded into the merge tree; only the remainder
  // is waiting for a lease.
  const Reply st = rig.submit("status");
  EXPECT_GE(Rig::num(st, "done_ranks"), 7u);
  rig.clock += 400;  // past backoff
  const Reply rest = rig.submit("lease w2");
  ASSERT_EQ(rest.verb, "lease");
  EXPECT_GT(Rig::range_of(rest).first, granted.first);
  EXPECT_EQ(Rig::range_of(rest).last, granted.last);
  // And the fleet still converges exactly.
  ASSERT_TRUE(rig.scan_grant(rest));
  ASSERT_EQ(rig.submit("complete w2 shard=" +
                       std::to_string(Rig::num(rest, "shard"))).kind,
            "ok");
  rig.drain_as("w2");
  EXPECT_EQ(rig.coord->final_csv(), rig.reference_csv());
}

TEST(FleetCoordinator, AbandonHandsBackWithoutAFailureCharge) {
  Rig rig("abandon");
  rig.reopen(rig.base_options());
  const Reply r = rig.submit("lease w1");
  const Reply ab = rig.submit(
      "abandon w1 shard=" + std::to_string(Rig::num(r, "shard")) +
      " reason=interrupted");
  EXPECT_EQ(ab.kind, "ok") << ab.raw;
  // Immediately leasable again (no backoff), full range, fresh id.
  const Reply again = rig.submit("lease w2");
  ASSERT_EQ(again.verb, "lease");
  EXPECT_EQ(Rig::range_of(again).first, Rig::range_of(r).first);
}

TEST(FleetCoordinator, PoisonShardIsQuarantinedAndReportedAsAStall) {
  Rig rig("poison");
  auto co = rig.base_options();
  co.shards = 1;       // one shard, so its death stalls the fleet
  co.max_failures = 2;
  rig.reopen(co);
  for (int i = 0; i < 2; ++i) {
    Reply r = rig.submit("lease w1");
    if (r.verb == "wait") {  // round 2 starts inside the failure backoff
      rig.clock += Rig::num(r, "ms");
      r = rig.submit("lease w1");
    }
    ASSERT_EQ(r.verb, "lease") << "round " << i << ": " << r.raw;
    rig.clock += 2000;  // let it die
    rig.coord->tick();
  }
  EXPECT_EQ(rig.coord->shards_quarantined(), 1u);
  EXPECT_EQ(rig.submit("lease w1").verb, "abort");
  // finished-but-stalled: the endpoint winds down and exits 3 (resumable).
  EXPECT_TRUE(rig.coord->finished());
  EXPECT_GT(rig.coord->jobs_interrupted(), 0u);
}

TEST(FleetCoordinator, BadResultFileIsRejectedAndRescanned) {
  Rig rig("badresult");
  rig.reopen(rig.base_options());
  const Reply r = rig.submit("lease w1");
  const std::uint64_t id = Rig::num(r, "shard");
  // Worker claims completion without writing the result file.
  const Reply bad =
      rig.submit("complete w1 shard=" + std::to_string(id));
  EXPECT_EQ(bad.kind, "error");
  EXPECT_EQ(bad.verb, "bad-result");
  // The shard is requeued (fresh id, failure charged), not lost; the
  // fleet still converges once honest workers take over.
  rig.clock += 500;
  rig.drain_as("w2");
  EXPECT_EQ(rig.coord->final_csv(), rig.reference_csv());
}

TEST(FleetCoordinator, RestartResumesWithoutDoubleCounting) {
  Rig rig("restart");
  rig.reopen(rig.base_options());
  // Complete one shard, checkpoint another partway, then kill the
  // coordinator (drop it on the floor; the state file is the survivor).
  const Reply a = rig.submit("lease w1");
  ASSERT_TRUE(rig.scan_grant(a));
  ASSERT_EQ(rig.submit("complete w1 shard=" +
                       std::to_string(Rig::num(a, "shard"))).kind,
            "ok");
  const Reply b = rig.submit("lease w1");
  ASSERT_FALSE(rig.scan_grant(b, /*stop_after=*/3));

  rig.reopen(rig.base_options());
  // The completed shard stays done; the leased one came back as pending
  // with its checkpoint intact, so the next worker resumes mid-shard
  // rather than rescanning.
  const Reply st = rig.submit("status");
  EXPECT_GT(Rig::num(st, "done_ranks"), 0u);
  EXPECT_EQ(Rig::num(st, "leased"), 0u);
  rig.drain_as("w2");
  EXPECT_EQ(rig.coord->final_csv(), rig.reference_csv());
}

TEST(FleetCoordinator, RefusesAForeignSpool) {
  Rig rig("foreign");
  rig.reopen(rig.base_options());
  auto other = rig.base_options();
  other.top_k = 99;
  expect_error_contains(error_of([&] { rig.reopen(other); }),
                        "refusing to resume");
}

TEST(FleetCoordinator, RejectsScanJobsAndScanServersRejectFleetVerbs) {
  Rig rig("crossed");
  rig.reopen(rig.base_options());
  const Reply r = rig.submit("scan j1 top=4");
  EXPECT_EQ(r.kind, "error");
  expect_error_contains(r.raw, "fleet coordinator");
  EXPECT_EQ(rig.submit("ping").verb, "pong");
  const Reply st = rig.submit("status");
  EXPECT_EQ(st.verb, "fleet");
  EXPECT_EQ(Rig::num(st, "reassignments"), 0u);
}

TEST(FleetProtocol, ParsesFleetVerbs) {
  const auto lease = serve::parse_request("lease w-1");
  EXPECT_EQ(lease.kind, serve::RequestKind::kLease);
  EXPECT_EQ(lease.id, "w-1");
  const auto renew =
      serve::parse_request("renew w1 shard=4 watermark=900");
  EXPECT_EQ(renew.kind, serve::RequestKind::kRenew);
  EXPECT_EQ(renew.params.at("shard"), "4");
  EXPECT_EQ(renew.params.at("watermark"), "900");
  const auto complete = serve::parse_request("complete w1 shard=4");
  EXPECT_EQ(complete.kind, serve::RequestKind::kComplete);
  const auto abandon =
      serve::parse_request("abandon w1 shard=4 reason=interrupted");
  EXPECT_EQ(abandon.kind, serve::RequestKind::kAbandon);
  EXPECT_EQ(abandon.params.at("reason"), "interrupted");

  EXPECT_THROW(serve::parse_request("lease"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("lease bad/worker"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request("renew w1 nope=1"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request("complete w1 shard=1 shard=2"),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// socket fleet (real workers, real transport)
// --------------------------------------------------------------------------

#ifndef _WIN32

/// Drains a six-shard coordinator with options `co` (real clock) through
/// a real Unix socket with two run_worker threads; returns the
/// coordinator's final CSV after checking every exit code and the CSV file
/// it wrote.  A worker that gives up (a fleet stalled on quarantined
/// shards) still ends the session: the endpoint is interrupted once both
/// workers are gone.
std::vector<std::string> drain_socket_fleet(Rig& rig, CoordinatorOptions co) {
  const core::Objective objective = co.objective;
  co.shards = 6;
  co.now_ms = {};
  co.spool = rig.spool;
  co.out = rig.spool + "/fleet.csv";
  FleetCoordinator coordinator(rig.data, std::move(co));

  const std::string sock = rig.spool + "/coord.sock";
  std::atomic<bool> interrupted{false};
  int endpoint_rc = -1;
  std::thread endpoint([&] {
    endpoint_rc =
        serve::run_socket_endpoint(coordinator, sock, interrupted);
  });

  // Workers start once the endpoint listens.  (One that never reaches a
  // coordinator rightly waits out its whole reconnect budget.)
  for (int i = 0; i < 1000 && !std::filesystem::exists(sock); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  struct Exit {
    int rc = -1;
    bool scanned = false;      ///< took part in the session
    bool unreachable = false;  ///< gave up on the coordinator
  };
  auto worker = [&](const std::string& id, Exit& exit) {
    WorkerOptions wo;
    wo.id = id;
    wo.threads = 1;
    wo.reconnect_ms = 10000;
    wo.interrupted = &interrupted;
    wo.log = [&exit](const std::string& line) {
      exit.scanned |= line.find("scanning") != std::string::npos;
      exit.unreachable |= line.find("unreachable") != std::string::npos;
    };
    exit.rc = run_worker(rig.data, sock, wo);
  };
  Exit e1, e2;
  std::thread w1(worker, "w1", std::ref(e1));
  std::thread w2(worker, "w2", std::ref(e2));
  w1.join();
  w2.join();
  if (!coordinator.finished()) interrupted = true;
  endpoint.join();
  // A worker of the session reads the drained endpoint's `bye`, also when
  // it was waiting between requests as the endpoint closed; it does not
  // wait out its reconnect budget as if the coordinator had crashed.
  for (const Exit* e : {&e1, &e2}) {
    EXPECT_FALSE(e->scanned && e->unreachable);
  }
  const int rc1 = e1.rc, rc2 = e2.rc;

  EXPECT_TRUE(coordinator.finished()) << core::objective_name(objective);
  EXPECT_EQ(endpoint_rc, 0);
  EXPECT_EQ(rc1, 0);
  EXPECT_EQ(rc2, 0);
  // The CSV file the coordinator wrote matches its final CSV line for line.
  std::ifstream csv(rig.spool + "/fleet.csv");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(csv, line)) lines.push_back(line);
  EXPECT_EQ(lines, coordinator.final_csv());
  return coordinator.final_csv();
}

TEST(FleetSocket, TwoWorkersDrainTheFleetBitIdentically) {
  Rig rig("socket");  // only borrowing the dataset/reference helpers
  auto co = rig.base_options();
  co.lease_ms = 30000;  // real clock from here on; no fake expiries
  EXPECT_EQ(drain_socket_fleet(rig, co), rig.reference_csv());
}

/// Which socket a killed coordinator closes first.
enum class CloseOrder { kListenerFirst, kConnectionFirst };

/// A coordinator dies with the worker's lease request unanswered and comes
/// back 300 ms later; the worker must drain the fleet through it.
void expect_worker_reaches_restarted_coordinator(CloseOrder order) {
  const bool connection_first = order == CloseOrder::kConnectionFirst;
  Rig rig(connection_first ? "socket-restart-conn" : "socket-restart-lsn");
  auto co = rig.base_options();
  co.shards = 6;
  co.lease_ms = 30000;
  co.now_ms = {};
  co.spool = rig.spool;
  co.out = rig.spool + "/fleet.csv";
  FleetCoordinator coordinator(rig.data, std::move(co));
  const std::string sock = rig.spool + "/coord.sock";

  // A coordinator that dies with the worker's lease request unanswered:
  // no `bye`, and its socket file stays behind, as after a kill.
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  std::atomic<bool> interrupted{false};
  int endpoint_rc = -1;
  std::thread endpoint([&] {
    const int conn = ::accept(listener, nullptr, nullptr);
    char request[256];
    if (conn >= 0) {
      EXPECT_GT(::read(conn, request, sizeof request), 0);
    }
    // Connection first: the worker's resend lands in the backlog of the
    // listener, which then closes, so the resent request drops too.
    if (connection_first && conn >= 0) {
      ::close(conn);
      pollfd pending{listener, POLLIN, 0};
      EXPECT_EQ(::poll(&pending, 1, 5000), 1);
    }
    ::close(listener);
    if (!connection_first && conn >= 0) ::close(conn);
    // The restart, well inside the worker's reconnect budget.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    endpoint_rc = serve::run_socket_endpoint(coordinator, sock, interrupted);
  });

  WorkerOptions wo;
  wo.id = "w1";
  wo.threads = 1;
  wo.reconnect_ms = 10000;
  wo.interrupted = &interrupted;
  const int rc = run_worker(rig.data, sock, wo);
  if (!coordinator.finished()) interrupted = true;
  endpoint.join();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(endpoint_rc, 0);
  EXPECT_TRUE(coordinator.finished());
  EXPECT_EQ(coordinator.final_csv(), rig.reference_csv());
}

TEST(FleetSocket, WorkerReachesARestartedCoordinatorWithinItsBudget) {
  for (const CloseOrder order :
       {CloseOrder::kListenerFirst, CloseOrder::kConnectionFirst}) {
    SCOPED_TRACE(order == CloseOrder::kListenerFirst ? "listener first"
                                                     : "connection first");
    expect_worker_reaches_restarted_coordinator(order);
  }
}

TEST(FleetSocket, EveryObjectiveDrainsToTheSingleProcessCsv) {
  // The grant spells the objective by its canonical name
  // ("mutual-information", "chi-squared"); the workers must accept it.
  for (const core::Objective o :
       {core::Objective::kMutualInformation, core::Objective::kChiSquared}) {
    Rig rig("socket-" + core::objective_name(o));
    auto co = rig.base_options();
    co.objective = o;
    co.lease_ms = 5000;   // a rejected grant fails fast: its lease
    co.max_failures = 1;  // expires and the shard is quarantined
    EXPECT_EQ(drain_socket_fleet(rig, co), rig.reference_csv(o))
        << core::objective_name(o);
  }
}

#endif  // !_WIN32

}  // namespace
}  // namespace trigen::fleet
