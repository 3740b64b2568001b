#include "trigen/fleet/worker.hpp"

#include <cstdio>

#ifndef _WIN32

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "trigen/common/durable.hpp"
#include "trigen/serve/protocol.hpp"
#include "trigen/shard/plan.hpp"
#include "trigen/shard/result_io.hpp"
#include "trigen/shard/runner.hpp"

namespace trigen::fleet {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 2;
constexpr int kExitInterrupted = 3;
constexpr int kExitAborted = 4;

/// How long to wait for the coordinator's one-line reply before treating
/// the connection as lost.  Replies are computed synchronously and are
/// tiny; anything this slow means the coordinator is gone.
constexpr int kReplyTimeoutMs = 10000;

bool is_interrupted(const WorkerOptions& opt) {
  return opt.interrupted != nullptr && opt.interrupted->load();
}

/// Interrupt-aware sleep in poll-sized slices.
void sleep_ms(const WorkerOptions& opt, std::uint64_t ms) {
  const std::uint64_t slice = 50;
  while (ms > 0 && !is_interrupted(opt)) {
    const std::uint64_t step = ms < slice ? ms : slice;
    std::this_thread::sleep_for(std::chrono::milliseconds(step));
    ms -= step;
  }
}

/// One line-oriented protocol connection to the coordinator socket.
class Connection {
 public:
  ~Connection() { close(); }

  bool connected() const { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  /// One connect attempt (the caller owns retry pacing/budget).
  bool connect(const std::string& path) {
    close();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      ::close(fd);
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      return false;
    }
    fd_ = fd;
    return true;
  }

  /// Sends one request line and reads one reply line.  Empty optional =
  /// connection lost (already closed).
  std::optional<std::string> exchange(const std::string& line) {
    if (fd_ < 0) return std::nullopt;
    std::string out = line;
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t w =
          ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        close();
        return std::nullopt;
      }
      off += static_cast<std::size_t>(w);
    }
    return read_line();
  }

 private:
  std::optional<std::string> read_line() {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kReplyTimeoutMs);
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        close();
        return std::nullopt;
      }
      struct pollfd p{};
      p.fd = fd_;
      p.events = POLLIN;
      const int pr = ::poll(&p, 1, static_cast<int>(left.count()));
      if (pr < 0) {
        if (errno == EINTR) continue;
        close();
        return std::nullopt;
      }
      if (pr == 0) continue;
      char chunk[4096];
      const ssize_t r = ::read(fd_, chunk, sizeof chunk);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) {
        close();
        return std::nullopt;
      }
      buf_.append(chunk, static_cast<std::size_t>(r));
    }
  }

  int fd_ = -1;
  std::string buf_;
};

/// A coordinator reply, split into head tokens and key=value params.
struct Reply {
  std::string kind;    ///< ok | error
  std::string verb;    ///< lease | wait | drained | abort | renewed | ...
  std::map<std::string, std::string> params;
};

Reply parse_reply(const std::string& line) {
  std::istringstream is(line);
  Reply r;
  std::string tok;
  is >> r.kind;
  is >> tok;  // the worker-name echo (or '-'); not needed
  is >> r.verb;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      r.params[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }
  return r;
}

std::uint64_t param_u64(const Reply& r, const char* key) {
  const auto it = r.params.find(key);
  if (it == r.params.end()) {
    throw std::runtime_error(std::string("coordinator reply misses ") + key);
  }
  const auto v = parse_u64(it->second);
  if (!v) {
    throw std::runtime_error(std::string("malformed ") + key + "='" +
                             it->second + "' in coordinator reply");
  }
  return *v;
}

std::string param_str(const Reply& r, const char* key) {
  const auto it = r.params.find(key);
  if (it == r.params.end()) {
    throw std::runtime_error(std::string("coordinator reply misses ") + key);
  }
  return it->second;
}

core::Objective parse_objective_token(const std::string& s) {
  if (s == "k2") return core::Objective::kK2;
  if (s == "mi") return core::Objective::kMutualInformation;
  if (s == "chi2") return core::Objective::kChiSquared;
  throw std::runtime_error("coordinator granted unknown objective '" + s +
                           "'");
}

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
  throw std::runtime_error("coordinator granted unsupported order " +
                           std::to_string(order));
}

/// Per-order detectors, built lazily (a fleet has one order, so exactly
/// one slot ever fills).
struct DetectorCache {
  std::unique_ptr<core::BasicDetector<2>> d2;
  std::unique_ptr<core::BasicDetector<3>> d3;
  std::unique_ptr<core::BasicDetector<4>> d4;
  std::unique_ptr<core::BasicDetector<5>> d5;
  std::unique_ptr<core::BasicDetector<6>> d6;

  template <unsigned K>
  const core::BasicDetector<K>& get(const dataset::GenotypeMatrix& d) {
    auto& slot = [this]() -> std::unique_ptr<core::BasicDetector<K>>& {
      if constexpr (K == 2) return d2;
      else if constexpr (K == 3) return d3;
      else if constexpr (K == 4) return d4;
      else if constexpr (K == 5) return d5;
      else return d6;
    }();
    if (!slot) slot = std::make_unique<core::BasicDetector<K>>(d);
    return *slot;
  }
};

/// Everything run_worker keeps across one session.
struct Session {
  const dataset::GenotypeMatrix& dataset;
  const std::string& socket_path;
  const WorkerOptions& opt;
  std::uint64_t fingerprint;
  Connection conn;
  DetectorCache detectors;

  void log(const std::string& msg) const {
    if (opt.log) opt.log(msg);
  }

  /// (Re)establishes the connection within the reconnect budget.  False =
  /// budget exhausted or interrupted.
  bool ensure_connected() {
    if (conn.connected()) return true;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opt.reconnect_ms);
    while (!is_interrupted(opt)) {
      if (conn.connect(socket_path)) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      sleep_ms(opt, opt.poll_ms);
    }
    return false;
  }

  /// Request/reply with one transparent reconnect-and-resend.  All fleet
  /// requests are idempotent or safely re-askable (a duplicated lease ask
  /// just gets the next shard; a duplicated renew/complete/abandon gets
  /// `lease-lost` at worst), so the retry never double-applies work.
  std::optional<Reply> request(const std::string& line) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (!ensure_connected()) return std::nullopt;
      const auto raw = conn.exchange(line);
      if (raw) return parse_reply(*raw);
      // connection dropped mid-exchange; one reconnect, then resend
    }
    return std::nullopt;
  }
};

/// Outcome of scanning one granted shard.
enum class ShardOutcome {
  kCompleted,     ///< result file written, `complete` acknowledged
  kLeaseLost,     ///< coordinator re-owned the range; just move on
  kInterrupted,   ///< SIGINT/SIGTERM landed; stop the worker (exit 3)
  kDisconnected,  ///< coordinator unreachable past the budget (exit 0)
  kFailed,        ///< scan error; drop the lease and let expiry charge it
};

template <unsigned K>
ShardOutcome run_granted_shard(Session& s, const Reply& grant) {
  const std::uint64_t shard_id = param_u64(grant, "shard");
  const std::string range_spec = param_str(grant, "range");
  const auto parsed = serve::parse_rank_range(range_spec);
  if (!parsed) {
    throw std::runtime_error("malformed range='" + range_spec +
                             "' in lease grant");
  }
  const combinatorics::RankRange range = *parsed;

  shard::BasicShardRunOptions<core::BasicDetectorOptions<K>> ro;
  ro.detector.objective = parse_objective_token(param_str(grant, "objective"));
  ro.detector.top_k = static_cast<std::size_t>(param_u64(grant, "top"));
  ro.detector.threads = s.opt.threads;
  ro.detector.version = s.opt.version;
  if (s.opt.isa) {
    ro.detector.isa = *s.opt.isa;
    ro.detector.isa_auto = false;
  } else {
    ro.detector.config = s.opt.config;
  }
  ro.range = range;
  ro.checkpoint_every = param_u64(grant, "checkpoint_every");
  ro.checkpoint_path = param_str(grant, "ckpt");

  const std::string shard_tag = "shard " + std::to_string(shard_id);
  bool lease_lost = false;
  bool disconnected = false;
  ro.keep_going = [&](std::uint64_t done, std::uint64_t) {
    if (is_interrupted(s.opt)) return false;
    // The renew after every durable chunk doubles as the liveness
    // heartbeat; its watermark tells the coordinator how much of the
    // shard survives us if we die right now.
    const auto reply =
        s.request("renew " + s.opt.id + " shard=" +
                  std::to_string(shard_id) + " watermark=" +
                  std::to_string(range.first + done));
    if (!reply) {
      disconnected = true;
      return false;
    }
    if (reply->kind != "ok") {
      s.log(shard_tag + ": lease lost; stopping at the checkpoint");
      lease_lost = true;
      return false;
    }
    return true;
  };

  s.log(shard_tag + ": scanning ranks [" + std::to_string(range.first) +
        ", " + std::to_string(range.last) + ")");
  const auto report = shard::run_shard_of<K>(
      s.detectors.get<K>(s.dataset), s.fingerprint, ro,
      [&](const std::string& reason) {
        s.log(shard_tag + ": discarding checkpoint (" + reason + ")");
      });

  if (!report.completed) {
    if (lease_lost) return ShardOutcome::kLeaseLost;
    if (is_interrupted(s.opt)) {
      // Best-effort hand-back so the coordinator harvests the checkpoint
      // now instead of at lease expiry.
      s.request("abandon " + s.opt.id + " shard=" + std::to_string(shard_id) +
                " reason=interrupted");
      return ShardOutcome::kInterrupted;
    }
    if (disconnected) {
      // One more reconnect attempt purely to hand the shard back.
      if (s.request("abandon " + s.opt.id + " shard=" +
                    std::to_string(shard_id) + " reason=disconnect")) {
        return ShardOutcome::kLeaseLost;  // handed back; keep working
      }
      return ShardOutcome::kDisconnected;
    }
    return ShardOutcome::kFailed;
  }

  shard::write_shard_result_file(param_str(grant, "out"), report.result);
  const auto reply = s.request("complete " + s.opt.id +
                               " shard=" + std::to_string(shard_id));
  if (!reply) return ShardOutcome::kDisconnected;
  if (reply->kind == "ok") {
    s.log(shard_tag + ": complete");
  } else {
    // lease-lost (someone else re-owned it — harmless, results are
    // deterministic) or bad-result (the coordinator rejected the file and
    // will rescan; nothing for us to fix here).
    s.log(shard_tag + ": completion not accepted: " + reply->verb);
  }
  return ShardOutcome::kCompleted;
}

}  // namespace

int run_worker(const dataset::GenotypeMatrix& dataset,
               const std::string& socket_path, const WorkerOptions& options) {
  Session s{dataset, socket_path, options,
            shard::dataset_fingerprint(dataset), {}, {}};

  while (!is_interrupted(options)) {
    const auto reply = s.request("lease " + options.id);
    if (!reply) {
      if (is_interrupted(options)) break;
      s.log("coordinator unreachable for " +
            std::to_string(options.reconnect_ms) +
            "ms; exiting (its durable state resumes the fleet)");
      return kExitOk;
    }
    if (reply->kind != "ok") {
      s.log("lease rejected: " + reply->verb);
      sleep_ms(options, options.poll_ms);
      continue;
    }
    if (reply->verb == "drained") {
      s.log("fleet drained; exiting");
      return kExitOk;
    }
    if (reply->verb == "abort") {
      s.log("fleet stalled on quarantined shards; aborting");
      return kExitAborted;
    }
    if (reply->verb == "wait") {
      sleep_ms(options, param_u64(*reply, "ms"));
      continue;
    }
    if (reply->verb == "bye") {
      // The endpoint broadcast its end-of-session farewell: the
      // coordinator finished (or was told to shut down) while our lease
      // request was in flight.  Session over either way.
      s.log("coordinator session ended; exiting");
      return kExitOk;
    }
    if (reply->verb != "lease") {
      s.log("unexpected coordinator reply verb '" + reply->verb + "'");
      sleep_ms(options, options.poll_ms);
      continue;
    }

    const std::string granted_fp = param_str(*reply, "fingerprint");
    if (granted_fp != hex16(s.fingerprint)) {
      s.log("dataset mismatch: coordinator scans fingerprint " + granted_fp +
            ", this worker loaded " + hex16(s.fingerprint));
      return kExitError;
    }

    ShardOutcome outcome = ShardOutcome::kFailed;
    try {
      with_order(static_cast<unsigned>(param_u64(*reply, "order")),
                 [&](auto kc) {
                   outcome =
                       run_granted_shard<decltype(kc)::value>(s, *reply);
                 });
    } catch (const std::exception& e) {
      // Deliberately no abandon: letting the lease expire charges the
      // shard a failure, which is what drives the coordinator's backoff
      // and poison-shard quarantine.
      s.log(std::string("shard scan failed: ") + e.what());
      s.conn.close();
      sleep_ms(options, options.poll_ms);
      continue;
    }
    switch (outcome) {
      case ShardOutcome::kCompleted:
      case ShardOutcome::kLeaseLost:
        continue;
      case ShardOutcome::kInterrupted:
        return kExitInterrupted;
      case ShardOutcome::kDisconnected:
        s.log("coordinator unreachable; exiting (the shard checkpoint "
              "survives for harvest)");
        return kExitOk;
      case ShardOutcome::kFailed:
        sleep_ms(options, options.poll_ms);
        continue;
    }
  }
  return kExitInterrupted;
}

}  // namespace trigen::fleet

#else  // _WIN32

namespace trigen::fleet {

int run_worker(const dataset::GenotypeMatrix&, const std::string&,
               const WorkerOptions&) {
  std::fprintf(stderr, "trigen work: fleet workers require POSIX sockets\n");
  return 2;
}

}  // namespace trigen::fleet

#endif
