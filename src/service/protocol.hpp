#pragma once

/// \file protocol.hpp
/// The `dts serve` wire format: a line-oriented, length-delimited request/
/// response protocol simple enough to drive from a shell script and strict
/// enough to fuzz (tests/protocol_fuzz_test.cpp).
///
/// Request frame (client -> server):
///
///     dts1 solve <id>
///     solver <name>                 (optional; default from the service)
///     capacity <bytes>              (or capacity-factor <f> of min_capacity;
///                                    exactly one required for solve)
///     machine <name>                (optional; binds bytes-only traces)
///     seed <n>                      (optional)
///     batch <n>                     (optional)
///     no-cache                      (optional; bypass the result cache)
///     trace <nbytes>
///     <exactly nbytes of dts-trace text>
///     end
///
/// `<id>` is an opaque client token echoed in the response (no whitespace).
/// Besides `solve`, the verbs are `stats <id>` (counter snapshot),
/// `ping <id>` and `quit <id>`, each terminated by `end` with no headers.
///
/// Response frame (server -> client):
///
///     dts1 response <id> ok
///     cache hit|miss|coalesced|bypass
///     winner <name>
///     makespan <seconds, %.17g>
///     evaluations <n>
///     proved-optimal 0|1
///     lower-bound <seconds, %.17g>
///     gap <relative, %.17g>         (only when a finite gap exists: a
///                                    positive lower bound and a finite
///                                    makespan; 0 when proved optimal)
///     order <n>
///     <n task ids, space-separated, chunked over short lines>
///     schedule <n>
///     <n lines: "<comm_start> <comp_start>", %.17g>
///     end
///
/// Both the order block and the schedule block are length-delimited and
/// written in short chunks, so a response of any instance size stays
/// within the reader's per-line limit. Every number on the wire goes
/// through the number-text codec (support/text.hpp): doubles are
/// byte-identical to printf("%.17g") and parse back bit for bit, with no
/// dependence on any locale.
///
/// or `dts1 response <id> shed` + `reason queue-full|admission` + `end`
/// (back-pressure: retry later), `dts1 response <id> draining` + `end`
/// (the service is shutting down), or `dts1 response <id> error` +
/// `message <one line, truncated by the writer to stay under the line
/// limit>` + `end`. Stats responses carry `requests`, `hits`, `misses`,
/// `coalesced`, `shed`, `errors`, `inserts`, `evictions`, `cache-size`
/// header lines instead.
///
/// Parsing is resilient by construction: any malformed frame raises
/// ProtocolError *after* the reader has resynced to the next `end` line
/// (or EOF), so one bad request costs one error response, never a
/// desynced or hung connection. Hard limits (line length, header count,
/// trace payload size) bound memory against hostile input.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace dts {

/// Malformed frame. The reader has already consumed input up to and
/// including the frame's `end` line (or EOF) when this is thrown.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Bounds on hostile input. Exceeding any of them is a ProtocolError.
struct ProtocolLimits {
  std::size_t max_line_bytes = 64 * 1024;
  std::size_t max_header_lines = 64;
  std::size_t max_trace_bytes = 16 * 1024 * 1024;
};

/// A parsed request frame, still in wire terms (the trace payload stays
/// text; the service parses it so trace errors map to error responses).
struct WireRequest {
  enum class Verb { kSolve, kStats, kPing, kQuit };

  Verb verb = Verb::kSolve;
  std::string id;
  std::string solver;              ///< Empty = service default.
  std::optional<double> capacity;  ///< Absolute bytes.
  std::optional<double> capacity_factor;  ///< Multiple of min_capacity.
  std::string machine;             ///< Empty = none.
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> batch;
  bool no_cache = false;
  std::string trace_text;          ///< Raw dts-trace payload.
};

/// Reads one frame. Returns std::nullopt on clean EOF before any frame
/// content; throws ProtocolError for malformed frames (after resyncing —
/// see the class comment) and for streams that die mid-frame.
[[nodiscard]] std::optional<WireRequest> read_request(
    std::istream& in, const ProtocolLimits& limits = {});

/// A response frame in wire terms.
struct WireResponse {
  enum class Status { kOk, kShed, kDraining, kError };
  enum class CacheOutcome { kHit, kMiss, kCoalesced, kBypass };

  Status status = Status::kOk;
  std::string id;

  // kOk (solve):
  CacheOutcome cache = CacheOutcome::kMiss;
  std::string winner;
  double makespan = 0.0;
  std::uint64_t evaluations = 0;
  /// The solver proved the schedule optimal (SolveResult::proved_optimal).
  bool proved_optimal = false;
  /// Strongest solver-proven makespan lower bound; 0 when none.
  double lower_bound = 0.0;
  /// Relative optimality gap, present only when finite on the wire
  /// (parse_double rejects non-finite values by design).
  std::optional<double> gap;
  std::vector<std::uint32_t> order;
  /// Start-time pairs (comm, comp) indexed by task id; empty for
  /// non-solve responses.
  std::vector<std::pair<double, double>> schedule;

  // kOk (stats / ping): preformatted "key value" lines.
  std::vector<std::string> extra;

  // kShed:
  std::string shed_reason;  ///< "queue-full" or "admission".

  // kError:
  std::string error;  ///< One line, sanitized and length-capped by the writer.
};

/// Serializes one response frame (terminated by `end`, no flush).
void write_response(std::ostream& out, const WireResponse& response);

/// Client-side reader for tests and the scripted CI session: parses one
/// response frame. Returns std::nullopt on clean EOF; throws
/// ProtocolError on malformed frames.
[[nodiscard]] std::optional<WireResponse> read_response(
    std::istream& in, const ProtocolLimits& limits = {});

[[nodiscard]] std::string to_string(WireResponse::Status status);
[[nodiscard]] std::string to_string(WireResponse::CacheOutcome outcome);

}  // namespace dts
