#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/scan_csv.hpp"
#include "trigen/dataset/io.hpp"
#include "trigen/dataset/synthetic.hpp"
#include "trigen/serve/server.hpp"
#include "trigen/shard/merge.hpp"
#include "trigen/shard/plan.hpp"
#include "trigen/shard/runner.hpp"
#include "trigen/stats/permutation.hpp"
#include "trigen/stats/report.hpp"

namespace perfbench {

using namespace trigen;

namespace {

// ---------------------------------------------------------------------------
// Shapes and inputs
// ---------------------------------------------------------------------------

struct Shape {
  std::size_t snps;
  std::size_t samples;
  std::size_t top;
  const char* file;  ///< .tg is the text format, .tgb the binary one
};

/// Jobs of one serve_mix session (each client keeps one outstanding), and
/// the jobs a run completes at least, so that the 90th latency percentile
/// has more than ten samples beyond it.
std::size_t session_jobs(bool tiny) { return tiny ? 24 : 20; }
constexpr std::size_t kMinServeJobs = 120;
/// Distinct request shapes the session cycles through.
std::size_t serve_specs(bool tiny) { return tiny ? 8 : 20; }

Shape shape_of(const std::string& w, bool tiny) {
  if (w == "triplets") {
    return tiny ? Shape{40, 1024, 10, "data.tg"}
                : Shape{200, 16384, 100, "data.tg"};
  }
  if (w == "pairs_wide") {
    return tiny ? Shape{200, 1024, 50, "data.tg"}
                : Shape{3000, 4096, 1000, "data.tg"};
  }
  return tiny ? Shape{40, 1024, 10, "data.tgb"}
              : Shape{200, 4096, 10, "data.tgb"};
}

dataset::GenotypeMatrix load(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".tgb") {
    return dataset::read_binary_file(path);
  }
  return dataset::read_text_file(path);
}

std::vector<std::uint32_t> read_planted(const std::string& dir) {
  std::ifstream is(dir + "/planted.txt");
  std::vector<std::uint32_t> v;
  std::uint32_t s = 0;
  while (is >> s) v.push_back(s);
  if (v.size() != 3) throw std::runtime_error("planted.txt is malformed");
  return v;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(is, l);) {
    if (!l.empty()) lines.push_back(l);
  }
  return lines;
}

/// The serve chunking rule (ScanServer's per-job chunk size).
std::uint64_t server_chunk(std::uint64_t ranks, unsigned pool) {
  return std::max<std::uint64_t>(
      1, ranks / std::max<std::uint64_t>(64, 4ull * pool));
}

/// A disabled tracer records nothing, so all threads may share it.
Tracer& off_tracer() {
  static Tracer t(false);
  return t;
}

/// The tracer a job records into: the run's own when the job is traced,
/// a disabled one otherwise.
Tracer& tracer_for(Tracer& tr, bool traced) {
  return traced ? tr : off_tracer();
}

/// Per-job phase timings shared by the scan workloads.
struct JobTimes {
  double total = 0, load = 0, bitplanes = 0, scan = 0, cpu = 0;
  bool traced = false;
};

struct LoopStats {
  std::vector<JobTimes> jobs;
  double loop_s = 0;
  double rss_mb = 0;  ///< peak resident set of the fresh process's first job

  std::vector<double> field(double JobTimes::*f, bool traced_only = false,
                            bool untraced_only = false) const {
    std::vector<double> v;
    for (const auto& j : jobs) {
      if ((traced_only && !j.traced) || (untraced_only && j.traced)) continue;
      v.push_back(j.*f);
    }
    return v;
  }
  std::vector<double> setups() const {
    std::vector<double> v;
    for (const auto& j : jobs) v.push_back(j.load + j.bitplanes);
    return v;
  }
};

/// Runs `job(traced)` once as a warm-up, whose peak resident set is that
/// of a fresh process running one job (as `trigen scan` does), then in a
/// closed loop for `cfg.seconds` (at least three jobs).  In a traced run
/// every other job is traced, so the two halves give the tracing overhead.
template <typename Job>
LoopStats closed_loop(const RunConfig& cfg, Job&& job) {
  LoopStats s;
  job(false);
  s.rss_mb = peak_rss_mb();
  const auto start = Clock::now();
  while (s.jobs.size() < 3 || since(start) < cfg.seconds) {
    const bool traced = cfg.trace && s.jobs.size() % 2 == 0;
    s.jobs.push_back(job(traced));
    s.jobs.back().traced = traced;
  }
  s.loop_s = since(start);
  return s;
}

void emit_end_to_end(Report& rep, const std::vector<double>& setups,
                     const std::vector<double>& totals, double gelem_per_s,
                     double rss_mb, const std::vector<double>& latencies,
                     double jobs_per_s) {
  rep.metric("setup_s", median(setups), "s");
  rep.metric("total_s", median(totals), "s");
  rep.metric("gelem_per_s", gelem_per_s, "Gelem/s");
  rep.metric("peak_rss_mb", rss_mb, "MB");
  rep.metric("ok_rate",
             static_cast<double>(rep.attempted - rep.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, rep.attempted)),
             "fraction");
  rep.metric("job_p50_s", median(latencies), "s");
  rep.metric("job_p90_s", quantile(latencies, 0.9), "s");
  rep.metric("jobs_per_s", jobs_per_s, "1/s");
  rep.info.push_back({"latency_samples", std::to_string(latencies.size())});
}

/// Tracing overhead and per-span self times of the traced half of a loop.
void emit_trace(Report& rep, const Tracer& tr, const char* root,
                const std::vector<double>& traced_totals,
                const std::vector<double>& untraced_totals) {
  const auto self = tr.median_self_seconds(root);
  for (const char* name : {"load", "bitplanes", "scan", "output"}) {
    const auto it = self.find(name);
    rep.metric(std::string("trace.self_s.") + name,
               it == self.end() ? 0.0 : it->second, "s");
  }
  const auto it = self.find(root);
  rep.metric("trace.self_s.rest", it == self.end() ? 0.0 : it->second, "s");
  rep.metric("trace.overhead_ratio",
             median(traced_totals) / median(untraced_totals), "ratio");
}

void emit_dataset(Report& rep, double load_s, std::uint64_t file_bytes,
                  double bitplanes_s) {
  rep.metric("dataset.load_s", load_s, "s");
  rep.metric("dataset.load_mb_per_s",
             static_cast<double>(file_bytes) / 1e6 / load_s, "MB/s");
  rep.metric("dataset.bitplanes_s", bitplanes_s, "s");
}

double metric_value(const Report& rep, const std::string& name) {
  for (const auto& [n, v] : rep.metrics) {
    if (n == name) return v.first;
  }
  throw std::logic_error("metric not reported: " + name);
}

// ---------------------------------------------------------------------------
// Serve clients
// ---------------------------------------------------------------------------

/// One request of a serve session and everything its caller observed.
struct JobRecord {
  std::string line;
  std::string key;  ///< the request without its id: selects the reference
  Clock::time_point submitted{}, first_progress{}, done{};
  double submit_s = 0;
  unsigned progress_events = 0;
  bool finished = false;
  bool error = false;
  std::vector<std::string> data;
};

std::string strip_id(const std::string& line) {
  std::istringstream is(line);
  std::string verb, id, rest, tok;
  is >> verb >> id;
  rest = verb;
  while (is >> tok) rest += " " + tok;
  return rest;
}

/// Closed loop of `clients` callers over `records`: each caller submits a
/// request and waits for its `done` (or `error`) line before the next.
void drive(serve::ScanServer& server, std::vector<JobRecord>& records,
           unsigned clients, Tracer& tr, int parent) {
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    std::mutex mu;
    std::condition_variable cv;
    JobRecord* cur = nullptr;
    int span = -1;
    const serve::EventSink sink = [&](const std::string& line) {
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lk(mu);
      const int out = tr.begin("output", span);
      JobRecord& r = *cur;
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 = line.find(' ', sp1 + 1);
      const std::string kind = line.substr(0, sp1);
      const std::string rest =
          sp2 == std::string::npos ? std::string() : line.substr(sp2 + 1);
      if (kind == "event" && rest.rfind("progress ", 0) == 0) {
        if (r.progress_events++ == 0) r.first_progress = now;
      } else if (kind == "data") {
        r.data.push_back(rest);
      } else if (kind == "done" || kind == "error") {
        r.done = now;
        r.error = kind == "error";
        r.finished = true;
        cv.notify_one();
      }
      tr.end(out);
    };
    for (std::size_t i; (i = next.fetch_add(1)) < records.size();) {
      JobRecord& r = records[i];
      {
        std::lock_guard<std::mutex> lk(mu);
        cur = &r;
        span = tr.begin("scan", parent);
      }
      r.submitted = Clock::now();
      server.submit_line(r.line, sink);
      r.submit_s = since(r.submitted);
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return r.finished; });
      tr.end(span);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned c = 0; c < clients; ++c) pool.emplace_back(client);
  for (auto& t : pool) t.join();
}

/// Queue wait, submit cost and progress events of finished records.
void emit_serve(Report& rep, const std::vector<JobRecord>& records,
                double cpu_ratio) {
  std::vector<double> wait, submit;
  double events = 0;
  for (const auto& r : records) {
    if (r.progress_events > 0) {
      wait.push_back(seconds_between(r.submitted, r.first_progress));
    }
    submit.push_back(r.submit_s);
    events += r.progress_events;
  }
  rep.metric("serve.queue_wait_s", median(wait), "s");
  rep.metric("serve.submit_line_us", median(submit) * 1e6, "us");
  rep.metric("serve.cpu_ratio", cpu_ratio, "ratio");
  rep.metric("serve.progress_events_per_job",
             events / static_cast<double>(records.size()), "count");
}

/// One order-K scan job of the workload's shape, served by a fresh
/// ScanServer with an `threads`-worker pool; checks the payload against
/// `ref` and reports the serve metrics.
template <unsigned K>
void serve_probe(const dataset::GenotypeMatrix& d, const RunConfig& cfg,
                 std::size_t top, const std::vector<std::string>& ref,
                 double standalone_cpu, Report& rep) {
  serve::ServeOptions so;
  so.threads = cfg.threads;
  so.checkpoint_dir = cfg.dir;
  std::vector<JobRecord> records(1);
  records[0].line = "scan probe order=" + std::to_string(K) +
                    " top=" + std::to_string(top);
  const double cpu0 = process_cpu_s();
  {
    serve::ScanServer server(d, so);
    drive(server, records, 1, off_tracer(), -1);
  }
  const double cpu = process_cpu_s() - cpu0;
  rep.check(!records[0].error && records[0].data == ref);
  emit_serve(rep, records, cpu / standalone_cpu);
}

// ---------------------------------------------------------------------------
// triplets / pairs_wide: load -> bitplanes -> scan -> CSV
// ---------------------------------------------------------------------------

template <unsigned K>
Report scan_workload(const RunConfig& cfg) {
  const Shape sh = shape_of(cfg.workload, cfg.tiny);
  const std::string path = cfg.dir + "/" + sh.file;
  Report rep;
  Tracer tr(cfg.trace);
  std::vector<std::vector<std::string>> outputs;
  core::KernelIsa isa = core::KernelIsa::kScalar;
  std::vector<double> gelem;

  const LoopStats loop = closed_loop(cfg, [&](bool traced) {
    Tracer& t = tracer_for(tr, traced);
    JobTimes jt;
    const auto t0 = Clock::now();
    Scope job(t, "job", -1);
    dataset::GenotypeMatrix d;
    {
      Scope s(t, "load", job.id());
      d = load(path);
    }
    const auto t1 = Clock::now();
    std::unique_ptr<core::BasicDetector<K>> det;
    {
      Scope s(t, "bitplanes", job.id());
      det = std::make_unique<core::BasicDetector<K>>(d);
    }
    const auto t2 = Clock::now();
    core::BasicDetectionResult<K> res;
    const double cpu0 = process_cpu_s();
    {
      Scope s(t, "scan", job.id());
      core::BasicDetectorOptions<K> opt;
      opt.top_k = sh.top;
      opt.threads = cfg.threads;
      res = det->run(opt);
    }
    jt.cpu = process_cpu_s() - cpu0;
    const auto t3 = Clock::now();
    {
      Scope s(t, "output", job.id());
      outputs.push_back(core::scan_csv_lines<K>(res.best));
    }
    jt.total = since(t0);
    jt.load = seconds_between(t0, t1);
    jt.bitplanes = seconds_between(t1, t2);
    jt.scan = seconds_between(t2, t3);
    isa = res.isa_used;
    gelem.push_back(static_cast<double>(res.elements) / jt.scan / 1e9);
    return jt;
  });

  // Reference: a W-way rank split through the shard runner, folded by the
  // exact merge; the planted interaction must rank first.
  const dataset::GenotypeMatrix d = load(path);
  const core::BasicDetector<K> det(d);
  const std::uint64_t fp = shard::dataset_fingerprint(d);
  std::vector<shard::BasicShardResult<core::ScoredOf<K>>> parts;
  for (const auto& r :
       shard::plan_shards(d.num_snps(), cfg.nproc,
                          shard::SplitStrategy::kEvenRanks, 0, K)) {
    shard::BasicShardRunOptions<core::BasicDetectorOptions<K>> ropt;
    ropt.detector.top_k = sh.top;
    ropt.detector.threads = cfg.nproc;
    ropt.range = r;
    ropt.checkpoint_every = r.size();
    parts.push_back(shard::run_shard_of<K>(det, fp, ropt).result);
  }
  const auto merged = shard::merge_shards_of<K>(parts);
  const auto ref = core::scan_csv_lines<K>(merged.result.best);
  const auto planted = read_planted(cfg.dir);
  const auto top1 = core::snps_of<K>(merged.result.best.front());
  rep.check(std::equal(top1.begin(), top1.end(), planted.begin()));
  // outputs[0] is the warm-up job's.
  for (const auto& o : outputs) rep.check(o == ref);

  rep.info.push_back({"isa", core::kernel_isa_name(isa)});
  rep.exact.push_back({"combinations", merged.result.combinations_evaluated});
  if (!cfg.trace) {
    const auto totals = loop.field(&JobTimes::total);
    emit_end_to_end(rep, loop.setups(), totals, median(gelem), loop.rss_mb,
                    totals,
                    static_cast<double>(loop.jobs.size()) / loop.loop_s);
    return rep;
  }

  const double load_s = median(loop.field(&JobTimes::load));
  const double scan_s = median(loop.field(&JobTimes::scan));
  emit_dataset(rep, load_s, std::filesystem::file_size(path),
               median(loop.field(&JobTimes::bitplanes)));
  emit_trace(rep, tr, "job", loop.field(&JobTimes::total, true),
             loop.field(&JobTimes::total, false, true));
  const auto rates = kernel_and_carm_probes(d, det.planes_split(), isa, rep);
  const std::uint64_t space = combinatorics::n_choose_k(d.num_snps(), K);
  order_probes<K>(det, d, space, server_chunk(space, cfg.threads), sh.top,
                  cfg.nproc, rep);
  const double words = static_cast<double>(det.planes_split().words(0) +
                                           det.planes_split().words(1));
  rep.metric("core.kernel_share",
             static_cast<double>(space) * words /
                 rates.at(default_family(K, false)) / cfg.threads / scan_s,
             "ratio");
  rep.metric("scoring.share",
             metric_value(rep, "scoring.ns_per_table") * 1e-9 *
                 static_cast<double>(space) / cfg.threads / scan_s,
             "ratio");
  shard::BasicCheckpoint<core::ScoredOf<K>> ck;
  ck.fingerprint = fp;
  ck.num_snps = d.num_snps();
  ck.num_samples = d.num_samples();
  ck.objective = core::objective_name(core::Objective::kK2);
  ck.top_k = sh.top;
  ck.range = {0, space};
  ck.watermark = space;
  ck.entries = merged.result.best;
  checkpoint_probe(ck, cfg.dir, rep);
  serve_probe<K>(d, cfg, sh.top, ref,
                 median(loop.field(&JobTimes::cpu)), rep);
  return rep;
}

// ---------------------------------------------------------------------------
// serve_mix: a resident server under a closed loop of nproc clients
// ---------------------------------------------------------------------------

std::map<std::string, std::string> params_of(const std::string& key) {
  std::map<std::string, std::string> p;
  std::istringstream is(key);
  std::string tok;
  is >> tok;
  p["verb"] = tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    p[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return p;
}

/// What a standalone run of one request shape returns and costs.
struct Reference {
  std::vector<std::string> lines;
  double cpu_s = 0;
  double elements = 0;
  double tables = 0;       ///< contingency tables scored
  double kernel_words = 0; ///< class words streamed by the dominant kernel
  std::string family;
};

Reference reference_of(const std::string& key, const dataset::GenotypeMatrix& d,
                       const core::BasicDetector<2>& det2,
                       const core::BasicDetector<3>& det3) {
  const auto p = params_of(key);
  Reference ref;
  const double n = static_cast<double>(d.num_samples());
  const double cpu0 = process_cpu_s();
  if (p.at("verb") == "significance") {
    stats::BasicPermutationTestOptions<2> popt;
    popt.permutations = static_cast<unsigned>(std::stoul(p.at("permutations")));
    popt.seed = std::stoull(p.at("seed"));
    popt.detector.threads = 1;
    ref.lines = stats::significance_report<2>(
        stats::permutation_test_of<2>(d, popt), popt.permutations);
    const double c = static_cast<double>(combinatorics::n_choose_k(d.num_snps(), 2));
    ref.elements = c * n;
    ref.tables = c * (popt.permutations + 1);
    ref.family = default_family(2, true);
    ref.kernel_words = c * static_cast<double>(det2.planes_split().words(0) +
                                               det2.planes_split().words(1));
  } else if (p.at("order") == "2") {
    core::BasicDetectorOptions<2> opt;
    opt.top_k = std::stoul(p.at("top"));
    opt.threads = 1;
    const auto r = det2.run(opt);
    ref.lines = core::scan_csv_lines<2>(r.best);
    ref.elements = static_cast<double>(r.elements);
    ref.tables = static_cast<double>(r.combinations_evaluated);
    ref.family = default_family(2, false);
    ref.kernel_words = ref.tables * static_cast<double>(
                                        det2.planes_split().words(0) +
                                        det2.planes_split().words(1));
  } else {
    core::BasicDetectorOptions<3> opt;
    opt.top_k = std::stoul(p.at("top"));
    opt.threads = 1;
    unsigned long long first = 0, last = 0;
    std::sscanf(p.at("range").c_str(), "%llu:%llu", &first, &last);
    opt.range = {first, last};
    const auto r = det3.run(opt);
    ref.lines = core::scan_csv_lines<3>(r.best);
    ref.elements = static_cast<double>(r.elements);
    ref.tables = static_cast<double>(r.combinations_evaluated);
    ref.family = default_family(3, false);
    ref.kernel_words = ref.tables * static_cast<double>(
                                        det3.planes_split().words(0) +
                                        det3.planes_split().words(1));
  }
  ref.cpu_s = process_cpu_s() - cpu0;
  return ref;
}

Report serve_workload(const RunConfig& cfg) {
  const Shape sh = shape_of(cfg.workload, cfg.tiny);
  const std::string path = cfg.dir + "/" + sh.file;
  const std::vector<std::string> requests = read_lines(cfg.dir + "/requests.txt");
  Report rep;
  Tracer tr(cfg.trace);
  serve::ServeOptions so;
  so.threads = cfg.threads;
  so.checkpoint_dir = cfg.dir;

  struct Session {
    double total = 0, setup = 0, cpu = 0;
    bool traced = false;
    std::vector<JobRecord> records;
  };
  std::vector<Session> sessions;
  const auto run_session = [&](bool traced, std::size_t jobs) {
    Tracer& t = tracer_for(tr, traced);
    Session s;
    s.traced = traced;
    for (std::size_t i = 0; i < jobs; ++i) {
      JobRecord r;
      r.line = requests[i];
      r.key = strip_id(requests[i]);
      s.records.push_back(std::move(r));
    }
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    {
      Scope root(t, "session", -1);
      dataset::GenotypeMatrix d;
      {
        Scope sp(t, "load", root.id());
        d = load(path);
      }
      std::unique_ptr<serve::ScanServer> server;
      {
        Scope sp(t, "bitplanes", root.id());
        server = std::make_unique<serve::ScanServer>(std::move(d), so);
      }
      s.setup = since(t0);
      drive(*server, s.records, cfg.nproc, t, root.id());
      server.reset();
    }
    s.cpu = process_cpu_s() - cpu0;
    s.total = since(t0);
    return s;
  };

  // Warm-up: the first request of every client, one of each kind.  Its
  // peak resident set is that of a fresh server process.
  run_session(false, std::min<std::size_t>(cfg.nproc, requests.size()));
  const double rss_mb = peak_rss_mb();
  const auto start = Clock::now();
  const std::size_t min_sessions = cfg.tiny ? 2 : kMinServeJobs / requests.size();
  while (sessions.size() < min_sessions || since(start) < cfg.seconds) {
    sessions.push_back(
        run_session(cfg.trace && sessions.size() % 2 == 0, requests.size()));
  }

  // More set-up samples: load plus server construction, as a session does.
  std::vector<double> setups;
  for (const auto& s : sessions) setups.push_back(s.setup);
  while (setups.size() < 5) {
    const auto t0 = Clock::now();
    serve::ScanServer server(load(path), so);
    setups.push_back(since(t0));
  }

  // References: every request shape run standalone on one thread.
  const dataset::GenotypeMatrix d = load(path);
  const core::BasicDetector<2> det2(d);
  const core::BasicDetector<3> det3(d);
  std::map<std::string, Reference> refs;
  for (const auto& line : requests) {
    const std::string key = strip_id(line);
    if (!refs.count(key)) refs.emplace(key, reference_of(key, d, det2, det3));
  }

  std::vector<double> latencies, totals;
  double elements = 0, session_s = 0, standalone_cpu = 0, session_cpu = 0;
  double tables = 0;
  std::size_t jobs = 0;
  for (const auto& s : sessions) {
    totals.push_back(s.total);
    session_s += s.total;
    session_cpu += s.cpu;
    for (const auto& r : s.records) {
      const Reference& ref = refs.at(r.key);
      const bool ok = r.finished && !r.error && r.data == ref.lines;
      rep.check(ok);
      if (!ok) continue;
      ++jobs;
      latencies.push_back(seconds_between(r.submitted, r.done));
      elements += ref.elements;
      standalone_cpu += ref.cpu_s;
      tables += ref.tables;
    }
  }
  rep.info.push_back({"isa", core::kernel_isa_name(core::best_kernel_isa())});
  rep.info.push_back({"sessions", std::to_string(sessions.size())});
  rep.exact.push_back({"jobs_per_session", sessions.front().records.size()});
  rep.exact.push_back({"distinct_requests", refs.size()});
  if (!cfg.trace) {
    emit_end_to_end(rep, setups, totals, elements / session_s / 1e9, rss_mb,
                    latencies, static_cast<double>(jobs) / session_s);
    return rep;
  }

  // Bitplanes: the server builds one detector per order on first use.
  const double bitplanes_s = time_median(
      [&] {
        const core::BasicDetector<2> a(d);
        const core::BasicDetector<3> b(d);
      },
      0.1, 3);
  const double load_s = time_median([&] { load(path); }, 0.1, 3);
  emit_dataset(rep, load_s, std::filesystem::file_size(path), bitplanes_s);
  std::vector<double> traced_totals, untraced_totals;
  for (const auto& s : sessions) {
    (s.traced ? traced_totals : untraced_totals).push_back(s.total);
  }
  emit_trace(rep, tr, "session", traced_totals, untraced_totals);
  const auto rates = kernel_and_carm_probes(d, det3.planes_split(),
                                            core::best_kernel_isa(), rep);
  double kernel_s = 0;
  for (const auto& s : sessions) {
    for (const auto& r : s.records) {
      const Reference& ref = refs.at(r.key);
      kernel_s += ref.kernel_words / rates.at(ref.family);
    }
  }
  // The k = 3 requests carry the range chunking: probe at their size.
  std::uint64_t range3 = 0;
  for (const auto& [key, ref] : refs) {
    const auto p = params_of(key);
    if (p.count("range")) {
      unsigned long long first = 0, last = 0;
      std::sscanf(p.at("range").c_str(), "%llu:%llu", &first, &last);
      range3 = last - first;
    }
  }
  order_probes<3>(det3, d, range3, server_chunk(range3, cfg.threads), sh.top,
                  cfg.nproc, rep);
  const double busy = static_cast<double>(cfg.threads) * session_s;
  rep.metric("core.kernel_share", kernel_s / busy, "ratio");
  rep.metric("scoring.share",
             metric_value(rep, "scoring.ns_per_table") * 1e-9 * tables / busy,
             "ratio");
  core::BasicDetectorOptions<3> opt;
  opt.top_k = sh.top;
  opt.threads = cfg.nproc;
  shard::BasicCheckpoint<core::ScoredOf<3>> ck;
  ck.fingerprint = shard::dataset_fingerprint(d);
  ck.num_snps = d.num_snps();
  ck.num_samples = d.num_samples();
  ck.objective = core::objective_name(core::Objective::kK2);
  ck.top_k = sh.top;
  ck.range = {0, combinatorics::n_choose_k(d.num_snps(), 3)};
  ck.watermark = ck.range.last;
  ck.entries = det3.run(opt).best;
  checkpoint_probe(ck, cfg.dir, rep);
  std::vector<JobRecord> all;
  for (const auto& s : sessions) {
    all.insert(all.end(), s.records.begin(), s.records.end());
  }
  emit_serve(rep, all, session_cpu / standalone_cpu);
  return rep;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "triplets" || name == "pairs_wide" || name == "serve_mix";
}

void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir, bool tiny) {
  const Shape sh = shape_of(workload, tiny);
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> planted;
  while (planted.size() < 3) {
    const auto s = static_cast<std::uint32_t>(rng.bounded(sh.snps));
    if (std::find(planted.begin(), planted.end(), s) == planted.end()) {
      planted.push_back(s);
    }
  }
  std::sort(planted.begin(), planted.end());
  dataset::SyntheticSpec spec;
  spec.num_snps = sh.snps;
  spec.num_samples = sh.samples;
  spec.seed = seed;
  spec.maf_min = 0.2;
  dataset::PlantedInteraction p;
  p.snps = {planted[0], planted[1], planted[2]};
  p.penetrance =
      workload == "pairs_wide"
          ? dataset::make_penetrance_pairwise(dataset::InteractionModel::kXor3,
                                              0.05, 0.8)
          : dataset::make_penetrance(dataset::InteractionModel::kXor3, 0.05,
                                     0.8);
  spec.interaction = p;
  const auto d = dataset::generate(spec);
  const std::string path = dir + "/" + sh.file;
  if (std::string(sh.file).ends_with(".tgb")) {
    dataset::write_binary_file(path, d);
  } else {
    dataset::write_text_file(path, d);
  }
  std::ofstream(dir + "/planted.txt")
      << planted[0] << ' ' << planted[1] << ' ' << planted[2] << '\n';
  if (workload != "serve_mix") return;

  // A fixed mix of request shapes: half short k = 2 scans, a quarter k = 3
  // scans over consecutive 32nds of the space, a quarter k = 2 permutation
  // tests.  Only the data and the permutation seeds depend on the seed, so
  // every seed asks for the same work.
  const std::uint64_t c3 = combinatorics::n_choose_k(sh.snps, 3);
  const std::uint64_t len3 = c3 / 32;
  std::vector<std::string> specs;
  for (std::size_t j = 0; j < serve_specs(tiny); ++j) {
    switch (j % 4) {
      case 0:
      case 1:
        specs.push_back("scan ID order=2 top=" + std::to_string(5 + j));
        break;
      case 2: {
        const std::uint64_t first = (j / 4) * len3;
        specs.push_back("scan ID order=3 top=10 range=" +
                        std::to_string(first) + ":" +
                        std::to_string(first + len3));
        break;
      }
      default:
        specs.push_back("significance ID order=2 permutations=19 seed=" +
                        std::to_string(1 + rng.bounded(1000)));
    }
  }
  std::ofstream os(dir + "/requests.txt");
  for (std::size_t i = 0; i < session_jobs(tiny); ++i) {
    std::string line = specs[i % specs.size()];
    std::string id = "j";
    id += std::to_string(i);
    line.replace(line.find("ID"), 2, id);
    os << line << '\n';
  }
}

Report run_workload(const RunConfig& cfg) {
  if (cfg.workload == "triplets") return scan_workload<3>(cfg);
  if (cfg.workload == "pairs_wide") return scan_workload<2>(cfg);
  if (cfg.workload == "serve_mix") return serve_workload(cfg);
  throw std::invalid_argument("unknown workload " + cfg.workload);
}

}  // namespace perfbench
