#include "trigen/common/durable.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

namespace trigen {
namespace {

/// EINTR/EAGAIN-class errno values: the syscall may succeed if simply
/// retried, so the writer retries them with bounded backoff instead of
/// failing the artifact (and ultimately the whole shard) on the first
/// signal-interrupted write.
bool transient_errno(int e) {
  return e == EINTR || e == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
         || e == EWOULDBLOCK
#endif
      ;
}

/// Every durable-write failure surfaces the path, strerror(errno), the raw
/// errno, and — when retries were spent — how many, as a DurableWriteError
/// whose transient() classification tells callers whether re-attempting
/// the whole write is worthwhile.
[[noreturn]] void fail_io(const char* kind, const char* op,
                          const std::string& path, int err, int retries = 0) {
  std::string msg = std::string(kind) + ": " + op + " '" + path +
                    "' failed: " + std::strerror(err) + " (errno " +
                    std::to_string(err) + ")";
  if (retries > 0) {
    msg += " after " + std::to_string(retries) + " retries";
  }
  throw DurableWriteError(msg, path, err, transient_errno(err));
}

/// Retry budget for EAGAIN-class failures on one durable write; EINTR
/// retries are free (immediate) and uncounted, since a signal storm should
/// never translate into artifact loss.
constexpr int kMaxTransientRetries = 8;

void backoff_sleep(int attempt) {
  // 1, 2, 4, ... ms, capped at 64ms: ~127ms worst-case total, long enough
  // to ride out a transient EAGAIN without stalling a scan noticeably.
  struct timespec ts = {0, (1L << (attempt < 6 ? attempt : 6)) * 1000000L};
  ::nanosleep(&ts, nullptr);
}

/// Durably writes `data` to `tmp`: the file contents are fsynced before the
/// caller renames, so a crash or power loss after the rename can never land
/// a truncated/empty file under the final name — the corruption the `end`
/// trailers exist to detect must come from outside, never from us.
void write_and_sync(const std::string& tmp, const char* kind,
                    const std::string& data) {
  int fd = -1;
  for (int attempt = 0;; ++attempt) {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) break;
    if (errno == EINTR) continue;
    if (transient_errno(errno) && attempt < kMaxTransientRetries) {
      backoff_sleep(attempt);
      continue;
    }
    fail_io(kind, "open for writing", tmp, errno, attempt);
  }
  std::size_t off = 0;
  int retries = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (transient_errno(err) && retries < kMaxTransientRetries) {
        backoff_sleep(retries++);
        continue;
      }
      ::close(fd);
      fail_io(kind, "write", tmp, err, retries);
    }
    off += static_cast<std::size_t>(n);
  }
  while (::fsync(fd) != 0) {
    const int err = errno;
    if (err == EINTR) continue;
    ::close(fd);
    fail_io(kind, "fsync", tmp, err);
  }
  if (::close(fd) != 0 && errno != EINTR) {
    // EINTR on close counts as closed (POSIX leaves the fd state
    // unspecified; retrying risks closing a reused descriptor).
    fail_io(kind, "close", tmp, errno);
  }
}

/// Best-effort fsync of the directory holding `path`, making the rename
/// itself durable (POSIX only persists the new directory entry once the
/// directory is synced).  Failure is not fatal: the file contents are
/// already safe, and some filesystems refuse directory fsync.
void sync_parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void write_file_durably(const std::string& path, const char* kind,
                        const std::string& body) {
  const std::string tmp = path + ".tmp";
  try {
    write_and_sync(tmp, kind, body);
  } catch (const DurableWriteError&) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail_io(kind, "rename over", path, err);
  }
  sync_parent_directory(path);
}

// -- Strict codec ------------------------------------------------------------

std::optional<std::uint64_t> parse_u64(std::string_view s, int base) {
  // from_chars takes no sign, no whitespace and no base prefix.
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, base);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::string format_hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::optional<double> parse_hexfloat(std::string_view s) {
  // strtod needs a terminator and skips leading whitespace; a token has
  // neither, and any embedded NUL stops the parse short of the end.
  const std::string tok(s);
  if (tok.empty() || std::isspace(static_cast<unsigned char>(tok[0]))) {
    return std::nullopt;
  }
  char* end = nullptr;
  // ERANGE is deliberately ignored: subnormal scores set it on underflow
  // yet round-trip exactly.
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) return std::nullopt;
  return v;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::uint64_t> parse_hex16(std::string_view s) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    return std::nullopt;
  }
  return parse_u64(s, 16);
}

std::uint64_t fnv1a64(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a64_u64(std::uint64_t h, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  return fnv1a64(h, b, sizeof b);
}

// -- Record reader -----------------------------------------------------------

std::ifstream open_record_file(const std::string& path, const char* kind) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error(std::string(kind) + ": cannot open '" + path +
                             "' for reading");
  }
  return is;
}

void RecordReader::fail(const std::string& what) const {
  throw std::runtime_error(std::string(kind_) + ": " + what);
}

unsigned RecordReader::preamble(const char* magic, unsigned max_version) {
  std::string tok;
  if (!(is_ >> tok)) fail("empty file");
  if (tok != magic) {
    fail("bad magic '" + tok + "' (expected " + magic + ")");
  }
  tok = token("format version");
  for (unsigned v = 1; v <= max_version; ++v) {
    if (tok == "v" + std::to_string(v)) return v;
  }
  fail("unsupported format version '" + tok + "' (this build reads v1" +
       (max_version > 1 ? "..v" + std::to_string(max_version) : "") +
       "; an unsupported version comes from another trigen release)");
}

std::string RecordReader::token(const char* what) {
  std::string tok;
  if (!(is_ >> tok)) fail(std::string("truncated file: missing ") + what);
  return tok;
}

void RecordReader::expect_key(const char* key) {
  const std::string tok = token(key);
  if (tok != key) {
    fail("expected '" + std::string(key) + "', got '" + tok + "'");
  }
}

std::uint64_t RecordReader::u64(const char* what, int base) {
  const std::string tok = token(what);
  const auto v = parse_u64(tok, base);
  if (!v) fail(std::string("malformed ") + what + " '" + tok + "'");
  return *v;
}

std::uint64_t RecordReader::u64_field(const char* key, int base) {
  expect_key(key);
  return u64(key, base);
}

std::uint64_t RecordReader::hex16_field(const char* key) {
  expect_key(key);
  const std::string tok = token(key);
  const auto v = parse_hex16(tok);
  if (!v) fail(std::string("malformed ") + key + " '" + tok + "'");
  return *v;
}

double RecordReader::hexfloat(const char* what) {
  const std::string tok = token(what);
  const auto v = parse_hexfloat(tok);
  if (!v) fail(std::string("malformed ") + what + " '" + tok + "'");
  return *v;
}

std::uint64_t RecordReader::count(const char* key, std::uint64_t max) {
  const std::uint64_t n = u64_field(key);
  if (n > max) {
    fail(std::string(key) + " count " + std::to_string(n) +
         " exceeds the limit of " + std::to_string(max));
  }
  return n;
}

std::string RecordReader::rest_of_line(const char* what) {
  if (is_.get() != ' ') fail(std::string("malformed ") + what + " record");
  std::string line;
  std::getline(is_, line);
  return line;
}

void RecordReader::end(const char* magic) {
  expect_key("end");
  if (magic != nullptr) {
    const std::string tok = token("trailer magic");
    if (tok != magic) {
      fail("trailer names '" + tok + "' (expected " + magic + ")");
    }
  }
  std::string extra;
  if (is_ >> extra) {
    fail("trailing content after the end trailer: '" + extra + "'");
  }
}

}  // namespace trigen
