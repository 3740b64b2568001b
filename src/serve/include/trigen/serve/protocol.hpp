#pragma once
/// \file protocol.hpp
/// \brief The line-delimited request protocol of the resident scan server.
///
/// One request per line, whitespace-separated tokens:
///
///     scan <id> [order=K] [objective=k2|mi|chi2] [top=N] [version=1..5]
///               [range=FIRST:LAST]
///     significance <id> [order=K] [objective=k2|mi|chi2]
///               [permutations=N] [seed=S]
///     cancel <id>
///     status
///     ping
///     shutdown
///
/// plus the fleet-coordination verbs spoken by `trigen work` against a
/// `trigen coordinate` service (same transports, same response shapes; a
/// plain scan server rejects them with a precise error and vice versa):
///
///     lease <worker>
///     renew <worker> shard=<id> watermark=<rank>
///     complete <worker> shard=<id>
///     abandon <worker> shard=<id> [reason=<token>]
///
/// `<id>` is a client-chosen job token of [A-Za-z0-9_.-]{1,64} — it tags
/// every event the server emits for the job and names the job's shutdown
/// checkpoint file, hence the conservative charset.  The fleet verbs reuse
/// the same slot and charset for the *worker* name.  Responses are
/// line-delimited too, first token = kind, second = job id (`-` when no job
/// is involved):
///
///     ok <id|-> <detail...>          request accepted / acknowledged
///     event <id> progress <done> <total>
///     event <id> checkpoint <path> watermark=<rank>
///     data <id> <payload line>       one line of the job's result payload
///     done <id> <detail...>          job complete; payload fully streamed
///     error <id|-> <message>         rejected request or failed job
///
/// A scan job's payload is exactly the CSV section `trigen scan` prints
/// (core/scan_csv.hpp); a significance job's payload is exactly the report
/// `trigen significance` prints (stats/report.hpp).  Stripping the
/// `data <id> ` prefix therefore yields output diffable byte-for-byte
/// against the standalone CLI.
///
/// Parsing is purely syntactic here (verb shape, id charset, key=value
/// form, no duplicate/unknown keys); semantic validation (ranges, orders,
/// value bounds) happens in the server, which knows the dataset.

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "trigen/combinatorics/scheduler.hpp"

namespace trigen::serve {

enum class RequestKind {
  kScan,
  kSignificance,
  kCancel,
  kStatus,
  kPing,
  kShutdown,
  // Fleet-coordination verbs (lease-based shard orchestration).
  kLease,
  kRenew,
  kComplete,
  kAbandon,
};

/// One parsed request line.
struct Request {
  RequestKind kind = RequestKind::kPing;
  std::string id;  ///< job token (or worker name); empty for status/ping/shutdown
  std::map<std::string, std::string> params;  ///< key=value options, verbatim
};

/// True when `id` is a well-formed job token: [A-Za-z0-9_.-]{1,64}.
bool valid_job_id(const std::string& id);

/// Parses one request line.  Throws std::invalid_argument with a precise,
/// client-facing message on anything malformed: unknown verb, missing or
/// invalid job id, a token that is not key=value, an unknown or duplicate
/// key for the verb, or trailing tokens on verbs that take none.
Request parse_request(const std::string& line);

/// Strict `FIRST:LAST` rank range, the one spelling shared by a scan's
/// `range=` parameter, a lease grant's `range=` and the CLI's `--range`:
/// two unsigned decimals (parse_u64) with FIRST < LAST.  Returns nullopt
/// for anything else; bounding LAST by the rank space is the caller's job.
std::optional<combinatorics::RankRange> parse_rank_range(std::string_view spec);

}  // namespace trigen::serve
