#include "trigen/fleet/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#ifndef _WIN32
#include <sys/stat.h>
#endif

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/durable.hpp"
#include "trigen/core/scan_csv.hpp"
#include "trigen/serve/protocol.hpp"
#include "trigen/shard/merge.hpp"
#include "trigen/shard/result_io.hpp"

namespace trigen::fleet {
namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument(what);
}

/// Runtime order -> compile-time instantiation (same dispatch shape as the
/// CLI and the scan server).
template <typename Fn>
void with_order(unsigned order, Fn&& fn) {
  switch (order) {
    case 2: fn(std::integral_constant<unsigned, 2>{}); return;
    case 3: fn(std::integral_constant<unsigned, 3>{}); return;
    case 4: fn(std::integral_constant<unsigned, 4>{}); return;
    case 5: fn(std::integral_constant<unsigned, 5>{}); return;
    case 6: fn(std::integral_constant<unsigned, 6>{}); return;
    default: break;
  }
  reject("order expects an interaction order in [2, " +
         std::to_string(combinatorics::kMaxOrder) + "]");
}

std::string response(const char* kind, const std::string& id,
                     const std::string& rest) {
  std::string out = kind;
  out += ' ';
  out += id.empty() ? "-" : id;
  if (!rest.empty()) {
    out += ' ';
    out += rest;
  }
  return out;
}

std::string range_str(const combinatorics::RankRange& r) {
  return "[" + std::to_string(r.first) + ", " + std::to_string(r.last) + ")";
}

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t required_u64(const std::map<std::string, std::string>& params,
                           const char* verb, const char* key) {
  const auto it = params.find(key);
  if (it == params.end()) {
    reject(std::string(verb) + " needs " + key + "=<value>");
  }
  const auto v = parse_u64(it->second);
  if (!v) {
    reject(std::string(verb) + " " + key + " expects an unsigned integer, "
           "got '" + it->second + "'");
  }
  return *v;
}

bool has_whitespace(const std::string& s) {
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

struct FleetCoordinator::Impl {
  CoordinatorOptions opt;
  std::string objective_name;
  std::uint64_t fingerprint = 0;
  std::uint64_t num_snps = 0;
  std::uint64_t num_samples = 0;
  std::uint64_t total = 0;

  std::string state_path;
  FleetState st;

  bool complete = false;  ///< every rank merged, final CSV rendered
  std::vector<std::string> final_lines;
  std::uint64_t reassignment_count = 0;

  mutable std::mutex mu;

  std::uint64_t now() const {
    return opt.now_ms ? opt.now_ms() : steady_now_ms();
  }
  void log(const std::string& msg) const {
    if (opt.log) opt.log(msg);
  }
  std::string spool_file(const std::string& name) const {
    return opt.spool + "/" + name;
  }
  std::string ckpt_name(std::uint64_t id) const {
    return "fleet-s" + std::to_string(id) + ".ckpt";
  }
  std::string result_name(std::uint64_t id) const {
    return "fleet-s" + std::to_string(id) + ".shard";
  }
  void persist() { write_fleet_state_file(state_path, st); }

  ShardEntry* find_shard(std::uint64_t id) {
    for (ShardEntry& e : st.shards) {
      if (e.id == id) return &e;
    }
    return nullptr;
  }

  std::uint64_t backoff_ms(std::uint32_t failures) const {
    const std::uint32_t shift = failures < 20 ? failures : 20;
    const std::uint64_t raw = opt.backoff_base_ms << shift;
    return raw < opt.backoff_cap_ms ? raw : opt.backoff_cap_ms;
  }

  /// Sorted insert + rolling compaction of the done list: any two adjacent
  /// intervals merge (shard::merge_shards_of, kContiguous) into one spool
  /// file and the inputs are unlinked once the new table is durable, so
  /// the list — and the spool — stays O(active shards) long.  Finishes
  /// with persist(); callers rely on that.
  template <unsigned K>
  void fold_done(DoneRange nd) {
    auto pos = std::lower_bound(
        st.done.begin(), st.done.end(), nd,
        [](const DoneRange& a, const DoneRange& b) {
          return a.range.first < b.range.first;
        });
    if ((pos != st.done.end() && nd.range.last > pos->range.first) ||
        (pos != st.done.begin() &&
         std::prev(pos)->range.last > nd.range.first)) {
      throw std::runtime_error(
          "fleet: completed range " + range_str(nd.range) +
          " overlaps already-merged work (internal invariant violated)");
    }
    st.done.insert(pos, std::move(nd));

    std::vector<std::string> obsolete;
    for (std::size_t i = 0; i + 1 < st.done.size();) {
      if (st.done[i].range.last != st.done[i + 1].range.first) {
        ++i;
        continue;
      }
      using Scored = core::ScoredOf<K>;
      std::vector<shard::BasicShardResult<Scored>> pair;
      pair.push_back(
          shard::read_shard_result_file_as<Scored>(spool_file(st.done[i].file)));
      pair.push_back(shard::read_shard_result_file_as<Scored>(
          spool_file(st.done[i + 1].file)));
      const auto merged =
          shard::merge_shards_of<K>(pair, shard::MergeCoverage::kContiguous);
      const std::string name =
          "fleet-m" + std::to_string(st.next_shard++) + ".shard";
      shard::write_shard_result_file(spool_file(name),
                                     shard::to_shard_result<K>(merged));
      obsolete.push_back(st.done[i].file);
      obsolete.push_back(st.done[i + 1].file);
      st.done[i] = DoneRange{merged.range, name};
      st.done.erase(st.done.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    }
    persist();
    // Unlink only after the table that no longer references them is
    // durable; a crash in between leaves harmless orphans, never a
    // referenced-but-missing file.
    for (const std::string& name : obsolete) {
      std::remove(spool_file(name).c_str());
    }
  }

  /// Revokes shard `id`'s lease: harvests the worker's last durable
  /// checkpoint (its completed prefix folds into the merge tree exactly —
  /// shard::clip_to_prefix), then re-queues the remainder under a fresh
  /// shard id so the straggler's stale renew/complete/checkpoint can never
  /// collide with the new lease.  `count_failure` distinguishes crashes
  /// and bad results (backoff + quarantine accounting) from voluntary
  /// abandon (no penalty).  `rescan_from_scratch` drops the checkpoint
  /// too — used when the worker's *result* was bad, which taints its
  /// checkpoints.  Ends persisted.
  template <unsigned K>
  void requeue(std::uint64_t id, bool count_failure, bool rescan_from_scratch,
               const char* cause) {
    ShardEntry* e = find_shard(id);
    if (e == nullptr || e->state != ShardState::kLeased) return;
    using Scored = core::ScoredOf<K>;

    std::uint64_t harvested_to = e->range.first;
    if (!rescan_from_scratch) {
      const std::string ckpt = spool_file(ckpt_name(id));
      if (std::ifstream(ckpt).good()) {
        try {
          const auto c = shard::read_checkpoint_file_as<Scored>(ckpt);
          if (c.fingerprint == fingerprint && c.objective == objective_name &&
              c.top_k == st.top_k && c.range.first == e->range.first &&
              c.range.last == e->range.last &&
              c.watermark > c.range.first) {
            const std::string name =
                "fleet-p" + std::to_string(st.next_shard++) + ".shard";
            shard::write_shard_result_file(spool_file(name),
                                           shard::clip_to_prefix(c));
            harvested_to = c.watermark;
            log("harvested checkpoint prefix: shard " + std::to_string(id) +
                " ranks " +
                range_str({e->range.first, c.watermark}));
            fold_done<K>(DoneRange{{e->range.first, c.watermark}, name});
            e = find_shard(id);  // fold_done may reallocate st.shards? no,
                                 // but keep the invariant explicit
            if (e == nullptr) return;
          }
        } catch (const std::exception& ex) {
          log("discarding unusable checkpoint of shard " + std::to_string(id) +
              ": " + ex.what());
        }
      }
    }

    if (harvested_to == e->range.last) {
      // The dead worker had in fact finished scanning; its checkpoint was
      // the whole shard.  Nothing left to re-lease.
      log("shard " + std::to_string(id) +
          " fully recovered from its checkpoint; nothing to re-lease");
      st.shards.erase(st.shards.begin() + (e - st.shards.data()));
      persist();
      return;
    }

    const std::uint32_t failures = e->failures + (count_failure ? 1u : 0u);
    const std::uint64_t new_id = st.next_shard++;
    e->id = new_id;
    e->range.first = harvested_to;
    e->failures = failures;
    e->worker.clear();
    e->lease_deadline_ms = 0;
    e->watermark = harvested_to;
    if (count_failure && failures >= opt.max_failures) {
      e->state = ShardState::kQuarantined;
      e->backoff_until_ms = 0;
      log("quarantined: shard " + std::to_string(new_id) + " ranks " +
          range_str(e->range) + " after " + std::to_string(failures) +
          " failures (poison; cause: " + cause + ")");
    } else {
      e->state = ShardState::kPending;
      e->backoff_until_ms = count_failure ? now() + backoff_ms(failures) : 0;
      log("requeued: shard " + std::to_string(new_id) + " ranks " +
          range_str(e->range) + " failures " + std::to_string(failures) +
          (count_failure
               ? " backoff " + std::to_string(backoff_ms(failures)) + "ms"
               : "") +
          " (cause: " + cause + ")");
    }
    persist();
  }

  /// Lease-expiry sweep (the tick body).  Lock held.
  void expire() {
    const std::uint64_t t = now();
    std::vector<std::uint64_t> expired;
    for (const ShardEntry& e : st.shards) {
      if (e.state == ShardState::kLeased && e.lease_deadline_ms <= t) {
        expired.push_back(e.id);
      }
    }
    for (const std::uint64_t id : expired) {
      const ShardEntry* e = find_shard(id);
      if (e == nullptr) continue;
      log("lease expired: shard " + std::to_string(id) + " worker " +
          e->worker + " watermark " + std::to_string(e->watermark));
      ++reassignment_count;
      with_order(st.order, [&](auto kc) {
        this->requeue<decltype(kc)::value>(
            id, /*count_failure=*/true, /*rescan_from_scratch=*/false,
            "lease expired");
      });
    }
  }

  bool stalled() const {
    if (complete || st.shards.empty()) return false;
    for (const ShardEntry& e : st.shards) {
      if (e.state != ShardState::kQuarantined) return false;
    }
    return true;
  }

  /// When the done list has collapsed to [0, total), renders the final CSV
  /// and writes `out` durably.  Lock held.
  void maybe_finalize() {
    if (complete || !st.shards.empty()) return;
    if (st.done.size() != 1 || st.done[0].range.first != 0 ||
        st.done[0].range.last != total) {
      throw std::runtime_error(
          "fleet: no shards left but coverage is incomplete (internal "
          "invariant violated)");
    }
    with_order(st.order, [&](auto kc) {
      constexpr unsigned K = decltype(kc)::value;
      const auto r = shard::read_shard_result_file_as<core::ScoredOf<K>>(
          spool_file(st.done[0].file));
      final_lines = core::scan_csv_lines<K>(r.entries);
    });
    if (!opt.out.empty()) {
      std::string body;
      for (const std::string& line : final_lines) {
        body += line;
        body += '\n';
      }
      write_file_durably(opt.out, "fleet-out", body);
    }
    complete = true;
    log("fleet complete: " + std::to_string(total) + " ranks merged" +
        (opt.out.empty() ? "" : "; wrote " + opt.out));
  }

  // -- Request handlers (lock held) ------------------------------------------

  std::string handle_lease(const std::string& worker) {
    expire();
    if (complete) return response("ok", worker, "drained");
    if (stalled()) return response("ok", worker, "abort reason=quarantined");

    const std::uint64_t t = now();
    ShardEntry* best = nullptr;
    for (ShardEntry& e : st.shards) {
      if (e.state != ShardState::kPending || e.backoff_until_ms > t) continue;
      if (best == nullptr || e.range.first < best->range.first) best = &e;
    }
    if (best == nullptr) {
      // Nothing leasable right now: tell the worker when to come back
      // (soonest lease deadline or backoff expiry).
      std::uint64_t next = t + 1000;
      for (const ShardEntry& e : st.shards) {
        if (e.state == ShardState::kLeased) {
          next = std::min(next, e.lease_deadline_ms);
        } else if (e.state == ShardState::kPending) {
          next = std::min(next, e.backoff_until_ms);
        }
      }
      const std::uint64_t wait =
          next > t ? std::max<std::uint64_t>(next - t, 50) : 50;
      return response("ok", worker, "wait ms=" + std::to_string(wait));
    }

    best->state = ShardState::kLeased;
    best->worker = worker;
    best->lease_deadline_ms = t + opt.lease_ms;
    best->watermark = best->range.first;
    const std::uint64_t ce =
        opt.checkpoint_every != 0
            ? opt.checkpoint_every
            : std::max<std::uint64_t>(1, best->range.size() / 64);
    log("lease granted: shard " + std::to_string(best->id) + " ranks " +
        range_str(best->range) + " -> worker " + worker);
    return response(
        "ok", worker,
        "lease shard=" + std::to_string(best->id) + " order=" +
            std::to_string(st.order) + " range=" +
            std::to_string(best->range.first) + ":" +
            std::to_string(best->range.last) + " objective=" +
            objective_name + " top=" + std::to_string(st.top_k) +
            " checkpoint_every=" + std::to_string(ce) + " lease_ms=" +
            std::to_string(opt.lease_ms) + " fingerprint=" +
            hex16(fingerprint) + " ckpt=" +
            spool_file(ckpt_name(best->id)) + " out=" +
            spool_file(result_name(best->id)));
  }

  std::string handle_renew(const std::string& worker,
                           const std::map<std::string, std::string>& params) {
    const std::uint64_t id = required_u64(params, "renew", "shard");
    const std::uint64_t wm = required_u64(params, "renew", "watermark");
    expire();
    ShardEntry* e = find_shard(id);
    if (e == nullptr || e->state != ShardState::kLeased ||
        e->worker != worker) {
      return response("error", worker,
                      "lease-lost shard=" + std::to_string(id));
    }
    if (wm < e->range.first || wm > e->range.last) {
      return response("error", worker,
                      "bad-watermark shard=" + std::to_string(id) + " " +
                          std::to_string(wm) + " outside " +
                          range_str(e->range));
    }
    e->lease_deadline_ms = now() + opt.lease_ms;
    e->watermark = std::max(e->watermark, wm);
    return response("ok", worker,
                    "renewed shard=" + std::to_string(id) +
                        " lease_ms=" + std::to_string(opt.lease_ms));
  }

  std::string handle_complete(const std::string& worker,
                              const std::map<std::string, std::string>& params) {
    const std::uint64_t id = required_u64(params, "complete", "shard");
    expire();
    ShardEntry* e = find_shard(id);
    if (e == nullptr || e->state != ShardState::kLeased ||
        e->worker != worker) {
      return response("error", worker,
                      "lease-lost shard=" + std::to_string(id));
    }

    std::string verdict;
    with_order(st.order, [&](auto kc) {
      constexpr unsigned K = decltype(kc)::value;
      using Scored = core::ScoredOf<K>;
      const std::string file = result_name(id);
      shard::BasicShardResult<Scored> r;
      try {
        r = shard::read_shard_result_file_as<Scored>(spool_file(file));
      } catch (const std::exception& ex) {
        verdict = ex.what();
        return;
      }
      if (r.fingerprint != fingerprint) {
        verdict = "result fingerprint mismatch";
      } else if (r.objective != objective_name || r.top_k != st.top_k) {
        verdict = "result objective/top_k mismatch";
      } else if (r.range.first != e->range.first ||
                 r.range.last != e->range.last) {
        verdict = "result covers " + range_str(r.range) +
                  ", lease covers " + range_str(e->range);
      } else {
        const combinatorics::RankRange range = e->range;
        log("complete: shard " + std::to_string(id) + " ranks " +
            range_str(range) + " worker " + worker);
        st.shards.erase(st.shards.begin() + (e - st.shards.data()));
        this->fold_done<K>(DoneRange{range, file});
        this->maybe_finalize();
      }
    });
    if (!verdict.empty()) {
      // The worker is alive but produced an unusable artifact — treat it
      // exactly like a failed lease (its checkpoints are equally suspect,
      // so the range rescans from scratch, with backoff + quarantine
      // accounting against repeat offenders).
      log("bad result: shard " + std::to_string(id) + " worker " + worker +
          ": " + verdict);
      with_order(st.order, [&](auto kc) {
        this->requeue<decltype(kc)::value>(
            id, /*count_failure=*/true, /*rescan_from_scratch=*/true,
            "bad result");
      });
      return response("error", worker,
                      "bad-result shard=" + std::to_string(id) + " " +
                          verdict);
    }
    return response("ok", worker, "complete shard=" + std::to_string(id));
  }

  std::string handle_abandon(const std::string& worker,
                             const std::map<std::string, std::string>& params) {
    const std::uint64_t id = required_u64(params, "abandon", "shard");
    const auto reason = params.find("reason");
    expire();
    ShardEntry* e = find_shard(id);
    if (e == nullptr || e->state != ShardState::kLeased ||
        e->worker != worker) {
      return response("error", worker,
                      "lease-lost shard=" + std::to_string(id));
    }
    log("abandoned: shard " + std::to_string(id) + " worker " + worker +
        (reason == params.end() ? "" : " reason " + reason->second));
    with_order(st.order, [&](auto kc) {
      this->requeue<decltype(kc)::value>(
          id, /*count_failure=*/false, /*rescan_from_scratch=*/false,
          "abandoned");
    });
    return response("ok", worker, "abandoned shard=" + std::to_string(id));
  }

  std::string handle_status() const {
    std::size_t pending = 0, leased = 0, quarantined = 0;
    for (const ShardEntry& e : st.shards) {
      if (e.state == ShardState::kPending) ++pending;
      if (e.state == ShardState::kLeased) ++leased;
      if (e.state == ShardState::kQuarantined) ++quarantined;
    }
    std::uint64_t done_ranks = 0;
    for (const DoneRange& d : st.done) done_ranks += d.range.size();
    std::ostringstream os;
    os << "fleet order=" << st.order << " shards=" << st.shards.size()
       << " pending=" << pending << " leased=" << leased
       << " quarantined=" << quarantined << " done_ranks=" << done_ranks
       << " total=" << total << " reassignments=" << reassignment_count
       << " complete=" << (complete ? 1 : 0);
    return response("ok", "", os.str());
  }
};

FleetCoordinator::FleetCoordinator(const dataset::GenotypeMatrix& dataset,
                                   CoordinatorOptions options)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.opt = std::move(options);
  if (im.opt.spool.empty() || has_whitespace(im.opt.spool)) {
    reject("fleet: spool directory '" + im.opt.spool +
           "' is empty or contains whitespace (spool paths travel inside "
           "protocol lines)");
  }
  if (im.opt.order < 2 || im.opt.order > combinatorics::kMaxOrder) {
    reject("fleet: order " + std::to_string(im.opt.order) +
           " outside [2, " + std::to_string(combinatorics::kMaxOrder) + "]");
  }
  if (im.opt.top_k == 0) reject("fleet: top_k must be >= 1");
  if (im.opt.lease_ms == 0) reject("fleet: lease_ms must be >= 1");
  if (im.opt.max_failures == 0) reject("fleet: max_failures must be >= 1");

  im.objective_name = core::objective_name(im.opt.objective);
  im.fingerprint = shard::dataset_fingerprint(dataset);
  im.num_snps = dataset.num_snps();
  im.num_samples = dataset.num_samples();
  try {
    im.total = combinatorics::n_choose_k(im.num_snps, im.opt.order);
  } catch (const std::overflow_error&) {
    reject("fleet: rank space exceeds 2^64: C(" +
           std::to_string(im.num_snps) + "," +
           std::to_string(im.opt.order) + ") is not addressable");
  }
#ifndef _WIN32
  ::mkdir(im.opt.spool.c_str(), 0755);  // best-effort; persist() reports
#endif
  im.state_path = im.spool_file("fleet.state");

  if (std::ifstream(im.state_path).good()) {
    im.st = read_fleet_state_file(im.state_path);
    if (im.st.fingerprint != im.fingerprint || im.st.order != im.opt.order ||
        im.st.objective != im.objective_name ||
        im.st.top_k != im.opt.top_k || im.st.num_snps != im.num_snps ||
        im.st.num_samples != im.num_samples) {
      throw std::runtime_error(
          "fleet: '" + im.state_path +
          "' belongs to a different scan (dataset fingerprint, order, "
          "objective or top_k mismatch); refusing to resume — use a fresh "
          "spool directory");
    }
    std::uint64_t done_ranks = 0;
    for (const DoneRange& d : im.st.done) done_ranks += d.range.size();
    im.log("resume: " + std::to_string(im.st.shards.size()) +
           " shards left, " + std::to_string(done_ranks) + "/" +
           std::to_string(im.total) + " ranks already merged");
  } else {
    const auto plan = shard::plan_shards(im.num_snps, im.opt.shards,
                                         im.opt.split, im.opt.block_size,
                                         im.opt.order);
    im.st.order = im.opt.order;
    im.st.fingerprint = im.fingerprint;
    im.st.num_snps = im.num_snps;
    im.st.num_samples = im.num_samples;
    im.st.objective = im.objective_name;
    im.st.top_k = im.opt.top_k;
    im.st.next_shard = plan.size();
    im.st.shards.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      ShardEntry e;
      e.id = i;
      e.range = plan[i];
      e.watermark = plan[i].first;
      im.st.shards.push_back(e);
    }
    im.persist();
    im.log("plan: " + std::to_string(plan.size()) + " shards over " +
           std::to_string(im.total) + " ranks (order " +
           std::to_string(im.opt.order) + ", fingerprint " +
           hex16(im.fingerprint) + ")");
  }
  im.maybe_finalize();
}

FleetCoordinator::~FleetCoordinator() = default;

bool FleetCoordinator::submit_line(const std::string& line,
                                   serve::EventSink sink) {
  serve::Request req;
  try {
    req = serve::parse_request(line);
  } catch (const std::invalid_argument& e) {
    sink(response("error", "", e.what()));
    return true;
  }
  std::lock_guard<std::mutex> lk(impl_->mu);
  try {
    switch (req.kind) {
      case serve::RequestKind::kPing:
        sink(response("ok", "", "pong"));
        return true;
      case serve::RequestKind::kStatus:
        sink(impl_->handle_status());
        return true;
      case serve::RequestKind::kShutdown:
        sink(response("ok", "", "shutting-down"));
        return false;
      case serve::RequestKind::kLease:
        sink(impl_->handle_lease(req.id));
        return true;
      case serve::RequestKind::kRenew:
        sink(impl_->handle_renew(req.id, req.params));
        return true;
      case serve::RequestKind::kComplete:
        sink(impl_->handle_complete(req.id, req.params));
        return true;
      case serve::RequestKind::kAbandon:
        sink(impl_->handle_abandon(req.id, req.params));
        return true;
      case serve::RequestKind::kScan:
      case serve::RequestKind::kSignificance:
      case serve::RequestKind::kCancel:
        sink(response("error", req.id,
                      "scan jobs are not served here; this is a fleet "
                      "coordinator (lease|renew|complete|abandon|status|"
                      "ping|shutdown)"));
        return true;
    }
  } catch (const std::exception& e) {
    sink(response("error", req.id, e.what()));
  }
  return true;
}

void FleetCoordinator::tick() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->expire();
}

bool FleetCoordinator::finished() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->complete || impl_->stalled();
}

bool FleetCoordinator::drain(const std::atomic<bool>*) {
  // A coordinator cannot make progress on its own — workers do the work —
  // so the EOF path of pipe mode either already finished or never will.
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->complete;
}

std::size_t FleetCoordinator::shutdown_and_checkpoint() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->persist();
  return impl_->complete ? 0 : 1;
}

std::size_t FleetCoordinator::jobs_interrupted() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (impl_->complete) return 0;
  return std::max<std::size_t>(1, impl_->st.shards.size());
}

std::vector<std::string> FleetCoordinator::final_csv() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->final_lines;
}

std::size_t FleetCoordinator::shards_pending() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::size_t n = 0;
  for (const ShardEntry& e : impl_->st.shards) {
    if (e.state == ShardState::kPending) ++n;
  }
  return n;
}

std::size_t FleetCoordinator::shards_leased() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::size_t n = 0;
  for (const ShardEntry& e : impl_->st.shards) {
    if (e.state == ShardState::kLeased) ++n;
  }
  return n;
}

std::size_t FleetCoordinator::shards_quarantined() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::size_t n = 0;
  for (const ShardEntry& e : impl_->st.shards) {
    if (e.state == ShardState::kQuarantined) ++n;
  }
  return n;
}

std::uint64_t FleetCoordinator::reassignments() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->reassignment_count;
}

}  // namespace trigen::fleet
