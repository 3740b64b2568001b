#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "test_util.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/scan_csv.hpp"
#include "trigen/serve/endpoint.hpp"
#include "trigen/serve/protocol.hpp"
#include "trigen/serve/server.hpp"
#include "trigen/shard/plan.hpp"
#include "trigen/shard/runner.hpp"
#include "trigen/stats/permutation.hpp"
#include "trigen/stats/report.hpp"

namespace trigen {
namespace {

// --------------------------------------------------------------------------
// protocol
// --------------------------------------------------------------------------

TEST(ServeProtocol, ParsesScanWithOptions) {
  const auto r = serve::parse_request(
      "scan job-1 order=4 objective=mi top=25 version=2 range=10:500");
  EXPECT_EQ(r.kind, serve::RequestKind::kScan);
  EXPECT_EQ(r.id, "job-1");
  EXPECT_EQ(r.params.at("order"), "4");
  EXPECT_EQ(r.params.at("objective"), "mi");
  EXPECT_EQ(r.params.at("top"), "25");
  EXPECT_EQ(r.params.at("version"), "2");
  EXPECT_EQ(r.params.at("range"), "10:500");
}

TEST(ServeProtocol, ParsesBareVerbs) {
  EXPECT_EQ(serve::parse_request("ping").kind, serve::RequestKind::kPing);
  EXPECT_EQ(serve::parse_request("status").kind, serve::RequestKind::kStatus);
  EXPECT_EQ(serve::parse_request("shutdown").kind,
            serve::RequestKind::kShutdown);
  const auto c = serve::parse_request("cancel a.b_c-9");
  EXPECT_EQ(c.kind, serve::RequestKind::kCancel);
  EXPECT_EQ(c.id, "a.b_c-9");
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  // Every rejection is a thrown std::invalid_argument with a client-facing
  // message; the server turns these into one `error` line each.
  EXPECT_THROW(serve::parse_request(""), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("bogus j1"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("scan"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("scan bad/id"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("scan j1 order"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("scan j1 order="), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("scan j1 nope=3"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("scan j1 order=3 order=4"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request("significance j1 version=2"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request("ping extra"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("cancel"), std::invalid_argument);
}

TEST(ServeProtocol, RankRangeIsStrict) {
  const auto r = serve::parse_rank_range("3:10");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 3u);
  EXPECT_EQ(r->last, 10u);
  const auto wide = serve::parse_rank_range("0:18446744073709551615");
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->last, ~std::uint64_t{0});
  // Trailing junk, non-digits, signs, an inverted or empty range, a
  // missing side, overflow and extra colons are all refused.
  for (const char* bad : {"3:10x", "x:10", "-1:5", "10:3", ":5", "5:", "5:5",
                          "+1:5", " 1:5", "1:5 ", "3", "", "1:2:3",
                          "0:18446744073709551616"}) {
    EXPECT_FALSE(serve::parse_rank_range(bad).has_value()) << bad;
  }
}

TEST(ServeProtocol, JobIdCharset) {
  EXPECT_TRUE(serve::valid_job_id("a"));
  EXPECT_TRUE(serve::valid_job_id("Job_1.retry-2"));
  EXPECT_FALSE(serve::valid_job_id(""));
  EXPECT_FALSE(serve::valid_job_id("has space"));
  // Ids name checkpoint files ("serve-<id>.ckpt"), so path characters are
  // out.
  EXPECT_FALSE(serve::valid_job_id("../escape"));
  EXPECT_FALSE(serve::valid_job_id(std::string(65, 'x')));
}

// --------------------------------------------------------------------------
// server
// --------------------------------------------------------------------------

/// Thread-safe line collector standing in for a transport.
class Collector {
 public:
  serve::EventSink sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lk(mu_);
      lines_.push_back(line);
    };
  }
  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lk(mu_);
    return lines_;
  }
  /// The job's `data <id> ` lines with the prefix stripped — the payload
  /// that must be byte-identical to the standalone CLI's output.
  std::vector<std::string> payload(const std::string& id) const {
    const std::string prefix = "data " + id + " ";
    std::vector<std::string> out;
    for (const auto& l : lines()) {
      if (l.compare(0, prefix.size(), prefix) == 0) {
        out.push_back(l.substr(prefix.size()));
      }
    }
    return out;
  }
  bool any_starts_with(const std::string& prefix) const {
    for (const auto& l : lines()) {
      if (l.compare(0, prefix.size(), prefix) == 0) return true;
    }
    return false;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("trigen_serve_" + tag + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(ServeServer, PingAndShutdownHandshake) {
  serve::ScanServer server(test::planted_dataset(8, 64, 1), {});
  Collector c;
  EXPECT_TRUE(server.submit_line("ping", c.sink()));
  EXPECT_FALSE(server.submit_line("shutdown", c.sink()));
  ASSERT_EQ(c.lines().size(), 2u);
  EXPECT_EQ(c.lines()[0], "ok - pong");
  EXPECT_EQ(c.lines()[1], "ok - shutting-down");
}

TEST(ServeServer, ScanPayloadIsBitIdenticalToDetector) {
  const auto d = test::planted_dataset(14, 120, 3);
  serve::ScanServer server(d, {});
  Collector c;
  ASSERT_TRUE(server.submit_line("scan j1 order=3 top=5", c.sink()));
  ASSERT_TRUE(server.drain());

  core::BasicDetector<3> det(d);
  core::BasicDetectorOptions<3> opt;
  opt.top_k = 5;
  core::ensure_default_scorer(opt, d.num_samples());
  const auto expected = core::scan_csv_lines<3>(det.run(opt).best);
  EXPECT_EQ(c.payload("j1"), expected);
  EXPECT_TRUE(c.any_starts_with("done j1 "));
}

TEST(ServeServer, ScanWithoutVersionRunsTheLibraryDefaultRung) {
  const auto d = test::planted_dataset(8, 64, 2);
  serve::ScanServer server(d, {});
  Collector c;
  ASSERT_TRUE(server.submit_line("scan j1 order=3 top=3", c.sink()));
  ASSERT_TRUE(server.submit_line("scan j2 order=3 top=3 version=4", c.sink()));
  ASSERT_TRUE(server.drain());
  const std::string rung = std::to_string(
      core::cpu_version_number(core::ScanOptionsBase{}.version));
  EXPECT_TRUE(c.any_starts_with(
      "ok j1 accepted scan order=3 ranks=56 version=" + rung));
  EXPECT_TRUE(
      c.any_starts_with("ok j2 accepted scan order=3 ranks=56 version=4"));
  EXPECT_EQ(c.payload("j1"), c.payload("j2"));
}

TEST(ServeServer, SignificancePayloadIsBitIdenticalToPermutationTest) {
  const auto d = test::planted_dataset(10, 96, 5);
  serve::ScanServer server(d, {});
  Collector c;
  ASSERT_TRUE(server.submit_line(
      "significance s1 order=2 permutations=7 seed=11", c.sink()));
  ASSERT_TRUE(server.drain());

  stats::BasicPermutationTestOptions<2> opt;
  opt.permutations = 7;
  opt.seed = 11;
  const auto r = stats::permutation_test_of<2>(d, opt);
  EXPECT_EQ(c.payload("s1"), stats::significance_report<2>(r, 7));
}

TEST(ServeServer, ConcurrentJobsAllMatchStandaloneRuns) {
  const auto d = test::planted_dataset(12, 100, 7);
  serve::ServeOptions so;
  so.threads = 4;
  so.chunk = 3;  // force heavy interleaving across the three jobs
  serve::ScanServer server(d, so);
  Collector c;
  ASSERT_TRUE(server.submit_line("scan j1 order=3 top=4", c.sink()));
  ASSERT_TRUE(server.submit_line(
      "significance j2 order=2 permutations=5 seed=3", c.sink()));
  ASSERT_TRUE(server.submit_line("scan j3 order=2 top=6", c.sink()));
  ASSERT_TRUE(server.drain());

  core::BasicDetector<3> det3(d);
  core::BasicDetectorOptions<3> o3;
  o3.top_k = 4;
  core::ensure_default_scorer(o3, d.num_samples());
  EXPECT_EQ(c.payload("j1"), core::scan_csv_lines<3>(det3.run(o3).best));

  stats::BasicPermutationTestOptions<2> po;
  po.permutations = 5;
  po.seed = 3;
  const auto pr = stats::permutation_test_of<2>(d, po);
  EXPECT_EQ(c.payload("j2"), stats::significance_report<2>(pr, 5));

  core::BasicDetector<2> det2(d);
  core::BasicDetectorOptions<2> o2;
  o2.top_k = 6;
  core::ensure_default_scorer(o2, d.num_samples());
  EXPECT_EQ(c.payload("j3"), core::scan_csv_lines<2>(det2.run(o2).best));
}

TEST(ServeServer, RangeRestrictedScanMatchesRangeRestrictedDetector) {
  const auto d = test::planted_dataset(12, 80, 9);
  serve::ScanServer server(d, {});
  Collector c;
  ASSERT_TRUE(server.submit_line("scan r1 order=3 top=3 range=20:150",
                                 c.sink()));
  ASSERT_TRUE(server.drain());

  core::BasicDetector<3> det(d);
  core::BasicDetectorOptions<3> opt;
  opt.top_k = 3;
  opt.range = {20, 150};
  core::ensure_default_scorer(opt, d.num_samples());
  EXPECT_EQ(c.payload("r1"), core::scan_csv_lines<3>(det.run(opt).best));
}

TEST(ServeServer, RejectsBadRequestsAndStaysOperational) {
  serve::ScanServer server(test::planted_dataset(8, 64, 2), {});
  Collector c;
  // One `error` line per rejection, no job state created.
  EXPECT_TRUE(server.submit_line("bogus", c.sink()));
  EXPECT_TRUE(server.submit_line("scan j1 order=9", c.sink()));
  EXPECT_TRUE(server.submit_line("scan j1 order=x", c.sink()));
  EXPECT_TRUE(server.submit_line("scan j1 top=0", c.sink()));
  EXPECT_TRUE(server.submit_line("scan j1 version=7", c.sink()));
  EXPECT_TRUE(server.submit_line("scan j1 objective=nope", c.sink()));
  EXPECT_TRUE(server.submit_line("scan j1 range=5:4", c.sink()));
  EXPECT_TRUE(server.submit_line("scan j1 range=0:999999", c.sink()));
  EXPECT_TRUE(server.submit_line("scan j1 range=3:10x", c.sink()));
  EXPECT_TRUE(server.submit_line("significance j1 permutations=-3",
                                 c.sink()));
  EXPECT_TRUE(server.submit_line("cancel ghost", c.sink()));
  for (const auto& l : c.lines()) {
    EXPECT_EQ(l.compare(0, 6, "error "), 0) << l;
  }
  EXPECT_EQ(c.lines().size(), 11u);
  EXPECT_EQ(server.jobs_live(), 0u);

  // The server is still fully operational afterwards.
  Collector ok;
  ASSERT_TRUE(server.submit_line("scan j1 order=2 top=2", ok.sink()));
  ASSERT_TRUE(server.drain());
  EXPECT_TRUE(ok.any_starts_with("done j1 "));
}

TEST(ServeServer, RejectsDuplicateLiveJobId) {
  serve::ServeOptions so;
  so.threads = 1;
  so.chunk = 1;  // plenty of chunks: the first job is still live
  serve::ScanServer server(test::planted_dataset(16, 128, 4), so);
  Collector c;
  ASSERT_TRUE(server.submit_line("scan dup order=3", c.sink()));
  ASSERT_TRUE(server.submit_line("scan dup order=2", c.sink()));
  EXPECT_TRUE(c.any_starts_with("error dup job id 'dup' is in use"));
  ASSERT_TRUE(server.drain());
}

TEST(ServeServer, CancelSuppressesFurtherEvents) {
  serve::ServeOptions so;
  so.threads = 1;
  so.chunk = 1;
  serve::ScanServer server(test::planted_dataset(16, 128, 6), so);
  Collector c;
  ASSERT_TRUE(server.submit_line("scan victim order=3", c.sink()));
  ASSERT_TRUE(server.submit_line("cancel victim", c.sink()));
  ASSERT_TRUE(server.drain());
  EXPECT_TRUE(c.any_starts_with("ok victim cancelled"));
  EXPECT_FALSE(c.any_starts_with("done victim"));
  EXPECT_FALSE(c.any_starts_with("data victim"));
  EXPECT_EQ(server.jobs_live(), 0u);
}

TEST(ServeServer, ShutdownCheckpointsIncompleteScanAndResumesExactly) {
  const auto d = test::planted_dataset(40, 200, 8);  // 9880 order-3 ranks
  const std::string dir = fresh_dir("ckpt");
  serve::ServeOptions so;
  so.threads = 2;
  so.chunk = 4;
  so.checkpoint_dir = dir;
  serve::ScanServer server(d, so);
  Collector c;
  ASSERT_TRUE(server.submit_line("scan big order=3", c.sink()));
  // Shut down immediately: with ~2470 chunks outstanding the job cannot
  // have finished, so it must be checkpointed, not completed.
  const std::size_t written = server.shutdown_and_checkpoint();
  ASSERT_EQ(written, 1u);
  EXPECT_EQ(server.jobs_interrupted(), 1u);
  EXPECT_TRUE(c.any_starts_with("event big checkpoint "));
  EXPECT_FALSE(c.any_starts_with("done big"));

  // The server accepts nothing afterwards.
  Collector after;
  EXPECT_TRUE(server.submit_line("scan late order=2", after.sink()));
  EXPECT_TRUE(after.any_starts_with("error late server is shutting down"));

  // Resuming the checkpoint through the shard runner completes the scan to
  // the exact full-space result.
  core::BasicDetector<3> det(d);
  core::BasicDetectorOptions<3> opt;
  opt.top_k = 10;  // the serve job's default top
  core::ensure_default_scorer(opt, d.num_samples());
  shard::BasicShardRunOptions<core::BasicDetectorOptions<3>> ropt;
  ropt.detector = opt;
  ropt.range = {0, combinatorics::n_choose_k(d.num_snps(), 3)};
  ropt.checkpoint_path = dir + "/serve-big.ckpt";
  bool discarded = false;
  const auto report = shard::run_shard_of<3>(
      det, shard::dataset_fingerprint(d), ropt,
      [&](const std::string&) { discarded = true; });
  EXPECT_FALSE(discarded) << "serve checkpoint failed validation";
  EXPECT_TRUE(report.resumed);
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(core::scan_csv_lines<3>(report.result.entries),
            core::scan_csv_lines<3>(det.run(opt).best));
  std::filesystem::remove_all(dir);
}

TEST(ServeServer, RejectsFleetVerbsPrecisely) {
  // The fleet verbs share the protocol but not the service: a plain scan
  // server must turn them away with a pointer to `trigen coordinate`,
  // not misinterpret them or fall over.
  serve::ScanServer server(test::planted_dataset(8, 64, 1), {});
  for (const std::string req :
       {"lease w1", "renew w1 shard=0 watermark=5", "complete w1 shard=0",
        "abandon w1 shard=0 reason=interrupted"}) {
    Collector c;
    ASSERT_TRUE(server.submit_line(req, c.sink())) << req;
    ASSERT_EQ(c.lines().size(), 1u) << req;
    EXPECT_EQ(c.lines()[0].compare(0, 9, "error w1 "), 0) << c.lines()[0];
    EXPECT_NE(c.lines()[0].find("scan server"), std::string::npos)
        << c.lines()[0];
    EXPECT_NE(c.lines()[0].find("trigen coordinate"), std::string::npos)
        << c.lines()[0];
  }
  // And the server is still operational afterwards.
  Collector c;
  ASSERT_TRUE(server.submit_line("ping", c.sink()));
  EXPECT_EQ(c.lines(), std::vector<std::string>{"ok - pong"});
}

#ifndef _WIN32

TEST(ServeEndpoint, SurvivesClientDisconnectMidWrite) {
  // The client vanishes before the server writes anything: every response
  // write lands on a pipe with no reader.  Without the endpoint's
  // process-wide SIGPIPE ignore the default disposition would kill the
  // whole process mid-write; with it, write() fails with EPIPE, the sink
  // closes, and the endpoint finishes the job and exits cleanly.
  int in_pipe[2], out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  const std::string req = "scan j1 order=3 top=4\n";
  ASSERT_EQ(::write(in_pipe[1], req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  ::close(in_pipe[1]);  // EOF after the one request
  ::close(out_pipe[0]); // the reader is already gone

  serve::ServeOptions so;
  so.threads = 1;
  serve::ScanServer server(test::planted_dataset(8, 64, 1), so);
  std::atomic<bool> interrupted{false};
  const int rc =
      serve::run_pipe_endpoint(server, in_pipe[0], out_pipe[1], interrupted);
  // Reaching this line at all proves SIGPIPE did not kill us; the job
  // itself ran to completion, so the session ends with exit 0.
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(server.jobs_interrupted(), 0u);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
}

#endif  // !_WIN32

TEST(ServeServer, StatusReportsLiveJobs) {
  serve::ServeOptions so;
  so.threads = 1;
  so.chunk = 1;
  serve::ScanServer server(test::planted_dataset(16, 96, 9), so);
  Collector c;
  ASSERT_TRUE(server.submit_line("scan s1 order=3", c.sink()));
  Collector st;
  ASSERT_TRUE(server.submit_line("status", st.sink()));
  EXPECT_TRUE(st.any_starts_with("event s1 progress "));
  EXPECT_TRUE(st.any_starts_with("ok - jobs=1"));
  ASSERT_TRUE(server.drain());
}

}  // namespace
}  // namespace trigen
