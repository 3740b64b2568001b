#include "trigen/serve/protocol.hpp"

#include <set>
#include <sstream>
#include <vector>

#include "trigen/common/durable.hpp"

namespace trigen::serve {
namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument(what);
}

const std::set<std::string>& keys_of(RequestKind kind) {
  static const std::set<std::string> scan = {"order", "objective", "top",
                                             "version", "range"};
  static const std::set<std::string> significance = {
      "order", "objective", "permutations", "seed"};
  static const std::set<std::string> renew = {"shard", "watermark"};
  static const std::set<std::string> complete = {"shard"};
  static const std::set<std::string> abandon = {"shard", "reason"};
  static const std::set<std::string> none;
  switch (kind) {
    case RequestKind::kScan: return scan;
    case RequestKind::kSignificance: return significance;
    case RequestKind::kRenew: return renew;
    case RequestKind::kComplete: return complete;
    case RequestKind::kAbandon: return abandon;
    default: return none;
  }
}

}  // namespace

bool valid_job_id(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Request parse_request(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  for (std::string tok; is >> tok;) tokens.push_back(tok);
  if (tokens.empty()) reject("empty request");

  Request r;
  const std::string& verb = tokens[0];
  if (verb == "scan") {
    r.kind = RequestKind::kScan;
  } else if (verb == "significance") {
    r.kind = RequestKind::kSignificance;
  } else if (verb == "cancel") {
    r.kind = RequestKind::kCancel;
  } else if (verb == "status") {
    r.kind = RequestKind::kStatus;
  } else if (verb == "ping") {
    r.kind = RequestKind::kPing;
  } else if (verb == "shutdown") {
    r.kind = RequestKind::kShutdown;
  } else if (verb == "lease") {
    r.kind = RequestKind::kLease;
  } else if (verb == "renew") {
    r.kind = RequestKind::kRenew;
  } else if (verb == "complete") {
    r.kind = RequestKind::kComplete;
  } else if (verb == "abandon") {
    r.kind = RequestKind::kAbandon;
  } else {
    reject("unknown request '" + verb +
           "' (scan|significance|cancel|status|ping|shutdown"
           "|lease|renew|complete|abandon)");
  }

  const bool takes_id =
      r.kind == RequestKind::kScan || r.kind == RequestKind::kSignificance ||
      r.kind == RequestKind::kCancel || r.kind == RequestKind::kLease ||
      r.kind == RequestKind::kRenew || r.kind == RequestKind::kComplete ||
      r.kind == RequestKind::kAbandon;
  std::size_t next = 1;
  if (takes_id) {
    const char* noun = r.kind == RequestKind::kScan ||
                               r.kind == RequestKind::kSignificance ||
                               r.kind == RequestKind::kCancel
                           ? "job id"
                           : "worker name";
    if (tokens.size() < 2) reject(verb + " needs a " + noun);
    r.id = tokens[1];
    if (!valid_job_id(r.id)) {
      reject("invalid " + std::string(noun) + " '" + r.id +
             "' ([A-Za-z0-9_.-]{1,64})");
    }
    next = 2;
  }

  const std::set<std::string>& allowed = keys_of(r.kind);
  for (; next < tokens.size(); ++next) {
    const std::string& tok = tokens[next];
    if (allowed.empty()) {
      reject(verb + " takes no options, got '" + tok + "'");
    }
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size()) {
      reject("expected key=value, got '" + tok + "'");
    }
    const std::string key = tok.substr(0, eq);
    if (allowed.count(key) == 0) {
      std::string names;
      for (const std::string& k : allowed) {
        if (!names.empty()) names += '|';
        names += k;
      }
      reject("unknown " + verb + " option '" + key + "' (" + names + ")");
    }
    if (!r.params.emplace(key, tok.substr(eq + 1)).second) {
      reject("duplicate option '" + key + "'");
    }
  }
  return r;
}

std::optional<combinatorics::RankRange> parse_rank_range(
    std::string_view spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto first = parse_u64(spec.substr(0, colon));
  const auto last = parse_u64(spec.substr(colon + 1));
  if (!first || !last || *first >= *last) return std::nullopt;
  return combinatorics::RankRange{*first, *last};
}

}  // namespace trigen::serve
