#pragma once
/// \file durable.hpp
/// \brief The durable-record layer under every trigen text artifact.
///
/// Shard results, checkpoints and the fleet lease table are all small
/// line-oriented text files that must survive crashes and reject
/// corruption.  This module holds the plumbing they share:
///
/// - one writer, write_file_durably: write → fsync → rename → directory
///   sync, with one retry/errno policy and path + errno errors;
/// - one strict codec: unsigned integers, `%a` hex floats, 16-digit hex
///   fingerprints and the FNV-1a 64 hash behind them;
/// - one record reader, a token cursor with a `MAGIC vN` preamble, keyed
///   and typed fields, bounded counts and an `end` trailer.
///
/// The formats themselves (field order, validation, messages naming the
/// first violation) stay with their modules.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace trigen {

/// Thrown when an OS-level step of a durable write fails after the
/// writer's own bounded retries.  Carries the path and errno so callers can
/// report precisely, and a transient/permanent classification: EINTR/EAGAIN
/// exhaustion is transient (retrying the whole write may succeed, which
/// shard::run_shard_of does for checkpoints), ENOENT/EACCES/ENOSPC/EFBIG-class
/// failures are not.
class DurableWriteError : public std::runtime_error {
 public:
  DurableWriteError(const std::string& what, std::string path,
                    int error_number, bool transient)
      : std::runtime_error(what),
        path_(std::move(path)),
        error_number_(error_number),
        transient_(transient) {}

  const std::string& path() const { return path_; }
  int error_number() const { return error_number_; }
  bool transient() const { return transient_; }

 private:
  std::string path_;
  int error_number_;
  bool transient_;
};

/// Atomic, crash-durable write of `body` to `path`: the body is written and
/// fsynced into `path + ".tmp"` (EINTR retried at once, EAGAIN with bounded
/// backoff), renamed over `path`, and the parent directory is synced so the
/// rename survives power loss.  Readers therefore only ever see the old
/// complete file or the new complete file.  On any failure the `.tmp` file
/// is removed, `path` is left untouched, and DurableWriteError is thrown;
/// `kind` names the artifact in its message.
void write_file_durably(const std::string& path, const char* kind,
                        const std::string& body);

// -- Strict codec ------------------------------------------------------------

/// Whole-string unsigned parse in `base` (10 or 16).  Rejects an empty
/// string, a sign, a `0x` prefix, any trailing character and values that do
/// not fit 64 bits.
std::optional<std::uint64_t> parse_u64(std::string_view s, int base = 10);

/// C99 hex float (`%a`): an exact, locale-independent double round trip.
std::string format_hexfloat(double v);
/// Whole-string inverse of format_hexfloat (any strtod spelling is read).
std::optional<double> parse_hexfloat(std::string_view s);

/// Exactly 16 lowercase hex digits: the spelling of every fingerprint.
std::string hex16(std::uint64_t v);
/// Strict inverse of hex16: exactly 16 digits of [0-9a-f].
std::optional<std::uint64_t> parse_hex16(std::string_view s);

/// FNV-1a 64 offset basis: the starting value of every digest.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;
/// Folds `n` bytes into the FNV-1a 64 state `h`.
std::uint64_t fnv1a64(std::uint64_t h, const void* data, std::size_t n);
/// Folds `v` as 8 little-endian bytes, so digests are byte-order independent.
std::uint64_t fnv1a64_u64(std::uint64_t h, std::uint64_t v);

// -- Record reader -----------------------------------------------------------

/// Opens `path` for a RecordReader; throws std::runtime_error
/// "<kind>: cannot open '<path>' for reading" when it cannot.
std::ifstream open_record_file(const std::string& path, const char* kind);

/// Whitespace-token cursor over one text artifact.  Every failure throws
/// std::runtime_error "<kind>: <what>", so a reader built on it throws
/// nothing else for any input.
class RecordReader {
 public:
  RecordReader(std::istream& is, const char* kind) : is_(is), kind_(kind) {}

  [[noreturn]] void fail(const std::string& what) const;

  /// `MAGIC vN` with N in [1, max_version]; returns N.
  unsigned preamble(const char* magic, unsigned max_version);
  /// The next token; `what` names it in the truncation message.
  std::string token(const char* what);
  void expect_key(const char* key);
  std::uint64_t u64(const char* what, int base = 10);
  /// `key <u64>`.
  std::uint64_t u64_field(const char* key, int base = 10);
  /// `key <hex16>`.
  std::uint64_t hex16_field(const char* key);
  double hexfloat(const char* what);
  /// `key <n>` with n <= max: the only way a record count is read, so no
  /// caller reserves more than this bound.
  std::uint64_t count(const char* key, std::uint64_t max);
  /// The rest of the current line after the single space that follows
  /// the last token (a free-text field such as a CPU brand).
  std::string rest_of_line(const char* what);
  /// `end` (followed by `magic` unless it is null), then nothing but
  /// whitespace.
  void end(const char* magic);

 private:
  std::istream& is_;
  const char* kind_;
};

}  // namespace trigen
