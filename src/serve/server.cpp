#include "trigen/serve/server.hpp"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "trigen/common/durable.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/scan_csv.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/shard/plan.hpp"
#include "trigen/shard/result_io.hpp"
#include "trigen/stats/report.hpp"

namespace trigen::serve {
namespace {

// -- Small protocol-side helpers --------------------------------------------

std::string response(const char* kind, const std::string& id,
                     const std::string& rest) {
  std::string s = kind;
  s += ' ';
  s += id.empty() ? "-" : id;
  if (!rest.empty()) {
    s += ' ';
    s += rest;
  }
  return s;
}

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument(what);
}

/// Strict non-negative integer parse for a request parameter; mirrors the
/// CLI's Args::get_uint contract (a `permutations=-1` must fail loudly).
std::uint64_t param_u64(const std::map<std::string, std::string>& params,
                        const char* key, std::uint64_t fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const auto parsed = parse_u64(it->second);
  if (!parsed) {
    reject(std::string(key) + " expects a non-negative integer, got '" +
           it->second + "'");
  }
  return *parsed;
}

core::Objective param_objective(
    const std::map<std::string, std::string>& params) {
  const auto it = params.find("objective");
  const std::string v = it == params.end() ? "k2" : it->second;
  if (v == "k2") return core::Objective::kK2;
  if (v == "mi") return core::Objective::kMutualInformation;
  if (v == "chi2") return core::Objective::kChiSquared;
  reject("unknown objective '" + v + "' (k2|mi|chi2)");
}

core::CpuVersion param_version(
    const std::map<std::string, std::string>& params) {
  switch (param_u64(params, "version", 4)) {
    case 1: return core::CpuVersion::kV1Naive;
    case 2: return core::CpuVersion::kV2Split;
    case 3: return core::CpuVersion::kV3Blocked;
    case 4: return core::CpuVersion::kV4Vector;
    case 5: return core::CpuVersion::kV5PairCache;
    default: reject("version expects 1..5");
  }
}

/// Runtime order -> compile-time instantiation (same dispatch shape as the
/// CLI's cmd_scan).
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

/// C(M, K), with the >2^64 overflow turned into a client-facing rejection.
std::uint64_t rank_space(std::uint64_t num_snps, unsigned order) {
  try {
    return combinatorics::n_choose_k(num_snps, order);
  } catch (const std::overflow_error&) {
    reject("rank space exceeds 2^64: C(" + std::to_string(num_snps) + "," +
           std::to_string(order) + ") is not addressable");
  }
}

// -- Jobs -------------------------------------------------------------------

/// One queued/running job.  Scheduling state (chunk cursor, in-flight
/// count, cancellation request) is guarded by the *server* mutex; result
/// state (pending chunk results, committed prefix, emitted events) by the
/// per-job mutex.  Lock order is always server -> job, and run_chunk takes
/// only the job mutex, so workers never serialize on the server lock while
/// computing.
class JobBase {
 public:
  JobBase(std::string id, combinatorics::RankRange range, std::uint64_t chunk)
      : id(std::move(id)),
        range(range),
        chunk(chunk),
        next_issue(range.first) {}
  virtual ~JobBase() = default;

  // --- scheduling; caller holds the server mutex ---
  bool has_claimable() const { return !cancelled && next_issue < range.last; }
  combinatorics::RankRange claim() {
    const std::uint64_t first = next_issue;
    next_issue = std::min(first + chunk, range.last);
    return {first, next_issue};
  }

  /// Runs one claimed chunk on a worker thread and commits its result.
  virtual void run_chunk(const combinatorics::RankRange& r) = 0;
  /// All events emitted (completed, failed or cancelled) — nothing left to
  /// do once in-flight chunks land.
  virtual bool settled() = 0;
  /// Would lose work if the server stopped now.
  virtual bool incomplete() = 0;
  /// Suppresses any further result events (cancel / shutdown-abort).
  virtual void mark_cancelled() = 0;
  /// Persists shutdown state: scan jobs write a shard-module checkpoint
  /// into `dir` and return true; non-resumable jobs emit an error event
  /// and return false.
  virtual bool shutdown_persist(const std::string& dir) = 0;
  /// Committed progress (done, total) for status reports.
  virtual std::pair<std::uint64_t, std::uint64_t> progress_snapshot() = 0;

  const std::string id;
  const combinatorics::RankRange range;
  const std::uint64_t chunk;
  std::uint64_t next_issue;      ///< server-mutex guarded chunk cursor
  std::uint64_t inflight = 0;    ///< server-mutex guarded
  bool cancelled = false;        ///< server-mutex guarded (claim barrier)
};

/// Shared chunk-commit skeleton: chunk results land in a pending map and
/// commit strictly in rank order, so the job always consists of a fully
/// merged contiguous prefix [range.first, watermark) plus in-flight /
/// out-of-order suffix chunks.  That prefix is simultaneously (a) the
/// deterministic partial result the same rank-split would produce in the
/// standalone CLI and (b) a valid shard-module checkpoint.
template <typename ChunkValue, typename Derived>
class OrderedCommitJob : public JobBase {
 public:
  OrderedCommitJob(std::string id, EventSink sink,
                   combinatorics::RankRange range, std::uint64_t chunk)
      : JobBase(std::move(id), range, chunk),
        sink_(std::move(sink)),
        watermark_(range.first) {}

  void run_chunk(const combinatorics::RankRange& r) override {
    ChunkValue value{};
    double secs = 0.0;
    std::string err;
    try {
      value = static_cast<Derived*>(this)->execute(r, secs);
    } catch (const std::exception& e) {
      err = e.what();
    }
    std::lock_guard<std::mutex> lk(jm_);
    if (failed_ || cancelled_events_) return;
    if (!err.empty()) {
      failed_ = true;
      sink_(response("error", id, err));
      return;
    }
    seconds_ += secs;
    pending_.emplace(r.first, std::make_pair(r.last, std::move(value)));
    const std::uint64_t before = watermark_;
    while (!pending_.empty() && pending_.begin()->first == watermark_) {
      static_cast<Derived*>(this)->fold(pending_.begin()->second.second);
      watermark_ = pending_.begin()->second.first;
      pending_.erase(pending_.begin());
    }
    if (watermark_ != before) {
      sink_(response("event", id,
                     "progress " + std::to_string(watermark_ - range.first) +
                         " " + std::to_string(range.size())));
    }
    if (watermark_ == range.last && !done_) {
      done_ = true;
      for (const std::string& line : static_cast<Derived*>(this)->payload()) {
        sink_(response("data", id, line));
      }
      sink_(response("done", id, static_cast<Derived*>(this)->done_detail()));
    }
  }

  bool settled() override {
    std::lock_guard<std::mutex> lk(jm_);
    return done_ || failed_ || cancelled_events_;
  }
  bool incomplete() override {
    std::lock_guard<std::mutex> lk(jm_);
    return !done_ && !failed_ && !cancelled_events_;
  }
  void mark_cancelled() override {
    std::lock_guard<std::mutex> lk(jm_);
    cancelled_events_ = true;
  }
  std::pair<std::uint64_t, std::uint64_t> progress_snapshot() override {
    std::lock_guard<std::mutex> lk(jm_);
    return {watermark_ - range.first, range.size()};
  }

 protected:
  EventSink sink_;
  std::mutex jm_;
  std::map<std::uint64_t, std::pair<std::uint64_t, ChunkValue>> pending_;
  std::uint64_t watermark_;  ///< commit frontier: [range.first, watermark_) merged
  double seconds_ = 0.0;
  bool done_ = false;
  bool failed_ = false;
  bool cancelled_events_ = false;
};

/// An order-K top-k scan job; payload = the CLI's scan CSV section.
template <unsigned K>
class ScanJob final
    : public OrderedCommitJob<std::vector<core::ScoredOf<K>>, ScanJob<K>> {
  using Scored = core::ScoredOf<K>;
  using Base = OrderedCommitJob<std::vector<Scored>, ScanJob<K>>;

 public:
  ScanJob(std::string id, EventSink sink,
          std::shared_ptr<const core::BasicDetector<K>> det,
          core::BasicDetectorOptions<K> dopt, combinatorics::RankRange range,
          std::uint64_t chunk, std::uint64_t fingerprint)
      : Base(std::move(id), std::move(sink), range, chunk),
        det_(std::move(det)),
        dopt_(std::move(dopt)),
        fingerprint_(fingerprint),
        committed_(dopt_.top_k) {}

  std::vector<Scored> execute(const combinatorics::RankRange& r,
                              double& secs) {
    core::BasicDetectorOptions<K> o = dopt_;
    o.range = r;
    auto res = det_->run(o);
    secs = res.seconds;
    return std::move(res.best);
  }
  void fold(std::vector<Scored>& entries) {
    for (const Scored& e : entries) committed_.push(e);
  }
  std::vector<std::string> payload() {
    return core::scan_csv_lines<K>(committed_.sorted());
  }
  std::string done_detail() {
    return "scanned=" + std::to_string(this->range.size());
  }

  bool shutdown_persist(const std::string& dir) override {
    std::lock_guard<std::mutex> lk(this->jm_);
    if (this->done_ || this->failed_ || this->cancelled_events_) return false;
    shard::BasicCheckpoint<Scored> c;
    c.fingerprint = fingerprint_;
    c.num_snps = det_->num_snps();
    c.num_samples = det_->num_samples();
    c.objective = core::objective_name(dopt_.objective);
    c.top_k = dopt_.top_k;
    c.range = this->range;
    c.watermark = this->watermark_;
    c.seconds = this->seconds_;
    c.entries = committed_.sorted();
    const std::string path = dir + "/serve-" + this->id + ".ckpt";
    try {
      shard::write_checkpoint_file(path, c);
    } catch (const std::exception& e) {
      this->sink_(response("error", this->id,
                           std::string("checkpoint failed: ") + e.what()));
      return false;
    }
    this->sink_(response("event", this->id,
                         "checkpoint " + path + " watermark=" +
                             std::to_string(this->watermark_)));
    this->cancelled_events_ = true;  // no further events after persisting
    return true;
  }

 private:
  std::shared_ptr<const core::BasicDetector<K>> det_;
  core::BasicDetectorOptions<K> dopt_;
  std::uint64_t fingerprint_;
  core::BasicTopK<Scored> committed_;  ///< jm-guarded with the base state
};

/// A batched multi-phenotype permutation test job: partition 0 is the
/// observed labeling, partitions 1..P the shuffled nulls (same SplitMix64
/// seed stream as stats::permutation_test_of), all scored in one batched
/// pass chunked over the rank space.  Payload = the CLI's significance
/// report.  Not resumable: the per-partition state has no checkpoint
/// format, so shutdown aborts it with an error event.
template <unsigned K>
class SignificanceJob final
    : public OrderedCommitJob<std::vector<std::vector<core::ScoredOf<K>>>,
                              SignificanceJob<K>> {
  using Scored = core::ScoredOf<K>;
  using Base =
      OrderedCommitJob<std::vector<std::vector<Scored>>, SignificanceJob<K>>;

 public:
  SignificanceJob(std::string id, EventSink sink,
                  std::shared_ptr<const core::BasicDetector<K>> det,
                  core::BasicDetectorOptions<K> dopt,
                  dataset::PhenotypeBatch batch, unsigned permutations,
                  combinatorics::RankRange range, std::uint64_t chunk)
      : Base(std::move(id), std::move(sink), range, chunk),
        det_(std::move(det)),
        dopt_(std::move(dopt)),
        batch_(std::move(batch)),
        permutations_(permutations),
        part_best_(batch_.size(), core::BasicTopK<Scored>(1)) {}

  std::vector<std::vector<Scored>> execute(const combinatorics::RankRange& r,
                                           double& secs) {
    core::BasicDetectorOptions<K> o = dopt_;
    o.range = r;
    auto res = det_->run_batched(batch_, o);
    secs = res.seconds;
    return std::move(res.best);
  }
  void fold(std::vector<std::vector<Scored>>& best) {
    for (std::size_t p = 0; p < best.size(); ++p) {
      for (const Scored& e : best[p]) part_best_[p].push(e);
    }
  }
  std::vector<std::string> payload() {
    stats::BasicPermutationTestResult<K> r;
    r.observed = part_best_[0].sorted().front();
    r.null_scores.reserve(permutations_);
    unsigned as_good = 0;
    for (std::size_t p = 1; p < part_best_.size(); ++p) {
      const double s = part_best_[p].sorted().front().score;
      r.null_scores.push_back(s);
      if (s <= r.observed.score) ++as_good;
    }
    r.p_value = static_cast<double>(1 + as_good) /
                static_cast<double>(permutations_ + 1);
    return stats::significance_report<K>(r, permutations_);
  }
  std::string done_detail() {
    return "permutations=" + std::to_string(permutations_);
  }

  bool shutdown_persist(const std::string&) override {
    std::lock_guard<std::mutex> lk(this->jm_);
    if (this->done_ || this->failed_ || this->cancelled_events_) return false;
    this->sink_(response("error", this->id,
                         "interrupted before completion; significance jobs "
                         "are not resumable"));
    this->cancelled_events_ = true;
    return false;
  }

 private:
  std::shared_ptr<const core::BasicDetector<K>> det_;
  core::BasicDetectorOptions<K> dopt_;
  const dataset::PhenotypeBatch batch_;
  const unsigned permutations_;
  std::vector<core::BasicTopK<Scored>> part_best_;  ///< jm-guarded
};

}  // namespace

// -- Server -----------------------------------------------------------------

struct ScanServer::Impl {
  dataset::GenotypeMatrix d;
  ServeOptions opt;
  std::uint64_t fingerprint = 0;
  unsigned pool_size = 1;

  /// One detector (= one set of bitplanes) per interaction order, built on
  /// first use and shared by every later job of that order.
  std::mutex det_mu;
  std::array<std::shared_ptr<void>, combinatorics::kMaxOrder + 1> det_slots;

  mutable std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable idle_cv;
  std::vector<std::shared_ptr<JobBase>> jobs;
  std::size_t rr = 0;  ///< round-robin job cursor: no job starves another
  bool accepting = true;
  bool stopping = false;
  bool shutdown_ran = false;
  std::size_t interrupted = 0;
  std::vector<std::thread> workers;

  template <unsigned K>
  std::shared_ptr<const core::BasicDetector<K>> detector() {
    std::lock_guard<std::mutex> lk(det_mu);
    auto& slot = det_slots[K];
    if (!slot) slot = std::make_shared<core::BasicDetector<K>>(d);
    return std::static_pointer_cast<const core::BasicDetector<K>>(slot);
  }

  std::uint64_t chunk_for(std::uint64_t ranks) const {
    if (opt.chunk != 0) return opt.chunk;
    // Enough chunks that the pool interleaves concurrent jobs and a
    // shutdown only waits for small in-flight pieces, few enough that the
    // per-chunk detector-call overhead stays small.  Each chunk is one
    // ranged run(), and the blocked engines compute only the chunk's own
    // combinations, so what a chunk adds is the fixed cost of a run: on a
    // 4-vCPU AVX-512 Xeon VM, one thread, 200 SNPs x 4096 samples, 64
    // chunks took 1.15x one whole run both for a full k = 2 scan (about
    // 9 us per chunk) and for a k = 3 scan over a 32nd of the space (about
    // 45 us per chunk).
    return std::max<std::uint64_t>(
        1, ranks / std::max<std::uint64_t>(64, 4ull * pool_size));
  }

  bool any_claimable() const {
    for (const auto& j : jobs) {
      if (j->has_claimable()) return true;
    }
    return false;
  }

  std::uint64_t inflight_total() const {
    std::uint64_t n = 0;
    for (const auto& j : jobs) n += j->inflight;
    return n;
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      work_cv.wait(lk, [&] {
        return stopping || (accepting && any_claimable());
      });
      if (stopping) return;
      std::shared_ptr<JobBase> job;
      combinatorics::RankRange r;
      const std::size_t n = jobs.size();
      for (std::size_t i = 0; i < n; ++i) {
        auto& candidate = jobs[(rr + i) % n];
        if (!candidate->has_claimable()) continue;
        r = candidate->claim();
        job = candidate;
        rr = (rr + i + 1) % n;
        break;
      }
      if (!job) continue;
      ++job->inflight;
      lk.unlock();
      job->run_chunk(r);
      lk.lock();
      --job->inflight;
      if (job->inflight == 0 && job->settled()) {
        jobs.erase(std::find(jobs.begin(), jobs.end(), job));
        if (rr >= jobs.size()) rr = 0;
      }
      idle_cv.notify_all();
    }
  }

  void add_job(std::shared_ptr<JobBase> job, const EventSink& sink,
               const std::string& accepted_detail) {
    std::lock_guard<std::mutex> lk(mu);
    if (!accepting) reject("server is shutting down");
    for (const auto& j : jobs) {
      if (j->id == job->id) reject("job id '" + job->id + "' is in use");
    }
    // `ok` is emitted under the lock so it always precedes the job's first
    // worker event on this sink.
    sink(response("ok", job->id, accepted_detail));
    jobs.push_back(std::move(job));
    work_cv.notify_all();
  }

  void submit_scan(const Request& req, const EventSink& sink) {
    const unsigned order =
        static_cast<unsigned>(param_u64(req.params, "order", 3));
    with_order(order, [&](auto kc) {
      constexpr unsigned K = decltype(kc)::value;
      core::BasicDetectorOptions<K> dopt;
      dopt.objective = param_objective(req.params);
      dopt.top_k =
          static_cast<std::size_t>(param_u64(req.params, "top", 10));
      if (dopt.top_k == 0) reject("top expects >= 1");
      dopt.version = param_version(req.params);
      dopt.threads = 1;  // parallelism comes from the shared pool
      dopt.config = opt.config;
      core::ensure_default_scorer(dopt, d.num_samples());
      const std::uint64_t total = rank_space(d.num_snps(), K);
      combinatorics::RankRange range{0, total};
      if (const auto it = req.params.find("range"); it != req.params.end()) {
        const auto parsed = parse_rank_range(it->second);
        if (!parsed || parsed->last > total) {
          reject("range expects FIRST:LAST with FIRST < LAST <= " +
                 std::to_string(total));
        }
        range = *parsed;
      }
      if (total == 0) reject("dataset has no order-" + std::to_string(K) +
                             " combinations");
      auto job = std::make_shared<ScanJob<K>>(
          req.id, sink, detector<K>(), std::move(dopt), range,
          chunk_for(range.size()), fingerprint);
      add_job(std::move(job), sink,
              "accepted scan order=" + std::to_string(K) +
                  " ranks=" + std::to_string(range.size()));
    });
  }

  void submit_significance(const Request& req, const EventSink& sink) {
    const unsigned order =
        static_cast<unsigned>(param_u64(req.params, "order", 3));
    with_order(order, [&](auto kc) {
      constexpr unsigned K = decltype(kc)::value;
      const auto permutations =
          static_cast<unsigned>(param_u64(req.params, "permutations", 19));
      if (permutations == 0) reject("permutations expects >= 1");
      const std::uint64_t seed = param_u64(req.params, "seed", 7);
      core::BasicDetectorOptions<K> dopt;
      dopt.objective = param_objective(req.params);
      dopt.top_k = 1;
      dopt.threads = 1;
      dopt.config = opt.config;
      core::ensure_default_scorer(dopt, d.num_samples());
      const std::uint64_t total = rank_space(d.num_snps(), K);
      if (total == 0) reject("dataset has no order-" + std::to_string(K) +
                             " combinations");
      // Partition 0 = observed labels; 1..P = nulls off the same SplitMix64
      // stream as stats::permutation_test_of, so the payload is
      // bit-identical to `trigen significance`.
      std::vector<std::vector<dataset::Phenotype>> parts;
      parts.reserve(permutations + 1);
      std::vector<dataset::Phenotype> observed(d.num_samples());
      for (std::size_t j = 0; j < d.num_samples(); ++j) {
        observed[j] = d.phenotype(j);
      }
      parts.push_back(std::move(observed));
      SplitMix64 seeds(seed);
      for (unsigned p = 0; p < permutations; ++p) {
        parts.push_back(stats::shuffled_labels(d, seeds.next()));
      }
      auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
      auto job = std::make_shared<SignificanceJob<K>>(
          req.id, sink, detector<K>(), std::move(dopt), std::move(batch),
          permutations, combinatorics::RankRange{0, total},
          chunk_for(total));
      add_job(std::move(job), sink,
              "accepted significance order=" + std::to_string(K) +
                  " permutations=" + std::to_string(permutations) +
                  " ranks=" + std::to_string(total));
    });
  }

  void cancel(const Request& req, const EventSink& sink) {
    std::lock_guard<std::mutex> lk(mu);
    for (auto it = jobs.begin(); it != jobs.end(); ++it) {
      if ((*it)->id != req.id) continue;
      (*it)->cancelled = true;       // stop issuing chunks
      (*it)->mark_cancelled();       // suppress further result events
      sink(response("ok", req.id, "cancelled"));
      if ((*it)->inflight == 0) {
        jobs.erase(it);
        if (rr >= jobs.size()) rr = 0;
        idle_cv.notify_all();
      }
      return;
    }
    sink(response("error", req.id, "no live job '" + req.id + "'"));
  }

  void status(const EventSink& sink) {
    std::lock_guard<std::mutex> lk(mu);
    for (const auto& j : jobs) {
      const auto [done, total] = j->progress_snapshot();
      sink(response("event", j->id,
                    "progress " + std::to_string(done) + " " +
                        std::to_string(total)));
    }
    sink(response("ok", "", "jobs=" + std::to_string(jobs.size())));
  }
};

ScanServer::ScanServer(dataset::GenotypeMatrix dataset, ServeOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->d = std::move(dataset);
  impl_->opt = std::move(options);
  impl_->fingerprint = shard::dataset_fingerprint(impl_->d);
  impl_->pool_size = impl_->opt.threads != 0
                         ? impl_->opt.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  if (impl_->opt.checkpoint_dir.empty()) impl_->opt.checkpoint_dir = ".";
  impl_->workers.reserve(impl_->pool_size);
  for (unsigned t = 0; t < impl_->pool_size; ++t) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ScanServer::~ScanServer() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->accepting = false;
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
}

bool ScanServer::submit_line(const std::string& line, EventSink sink) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::invalid_argument& e) {
    sink(response("error", "", e.what()));
    return true;
  }
  try {
    switch (req.kind) {
      case RequestKind::kPing:
        sink(response("ok", "", "pong"));
        return true;
      case RequestKind::kStatus:
        impl_->status(sink);
        return true;
      case RequestKind::kShutdown:
        sink(response("ok", "", "shutting-down"));
        return false;
      case RequestKind::kCancel:
        impl_->cancel(req, sink);
        return true;
      case RequestKind::kScan:
        impl_->submit_scan(req, sink);
        return true;
      case RequestKind::kSignificance:
        impl_->submit_significance(req, sink);
        return true;
      case RequestKind::kLease:
      case RequestKind::kRenew:
      case RequestKind::kComplete:
      case RequestKind::kAbandon:
        sink(response("error", req.id,
                      "fleet-coordination request on a scan server; connect "
                      "to a `trigen coordinate` endpoint instead"));
        return true;
    }
  } catch (const std::exception& e) {
    sink(response("error", req.id, e.what()));
  }
  return true;
}

bool ScanServer::drain(const std::atomic<bool>* interrupted) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  while (!impl_->jobs.empty()) {
    if (interrupted != nullptr && interrupted->load()) return false;
    impl_->idle_cv.wait_for(lk, std::chrono::milliseconds(50));
  }
  return true;
}

std::size_t ScanServer::shutdown_and_checkpoint() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  if (impl_->shutdown_ran) return 0;
  impl_->shutdown_ran = true;
  impl_->accepting = false;  // workers stop claiming chunks
  impl_->idle_cv.wait(lk, [&] { return impl_->inflight_total() == 0; });
  std::size_t written = 0;
  for (const auto& j : impl_->jobs) {
    if (!j->incomplete()) continue;
    ++impl_->interrupted;
    if (j->shutdown_persist(impl_->opt.checkpoint_dir)) ++written;
  }
  impl_->jobs.clear();
  impl_->rr = 0;
  return written;
}

std::size_t ScanServer::jobs_interrupted() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->interrupted;
}

std::size_t ScanServer::jobs_live() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->jobs.size();
}

const dataset::GenotypeMatrix& ScanServer::data() const { return impl_->d; }

}  // namespace trigen::serve
