#include "service/protocol.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string_view>

#include "support/text.hpp"

namespace dts {
namespace {

/// Read access to a streambuf's get area, which std::streambuf opens
/// only to derived classes: naming the members through this subclass
/// yields pointers to them that apply to any std::streambuf.
struct GetArea : std::streambuf {
  /// The buffered characters not yet consumed (empty for an unbuffered
  /// streambuf or when the buffer is exhausted).
  static std::string_view of(std::streambuf& buffer) {
    const char* const begin = (buffer.*&GetArea::gptr)();
    const char* const end = (buffer.*&GetArea::egptr)();
    return {begin, static_cast<std::size_t>(
                       std::min<std::ptrdiff_t>(end - begin, INT_MAX))};
  }
  /// Consumes `count` characters of of(buffer).
  static void consume(std::streambuf& buffer, std::size_t count) {
    (buffer.*&GetArea::gbump)(static_cast<int>(count));
  }
};

constexpr std::size_t kNoLine = std::string::npos;

/// Consumes one line of `in` through its '\n' (or to EOF), keeping at
/// most `keep` of its characters in `out`; the rest are skipped, never
/// buffered. Returns the line's full length without the '\n', or kNoLine
/// when no character was left. Scans the streambuf's get area a chunk at
/// a time; like istream::get(), reaching EOF sets eofbit and failbit.
std::size_t take_line(std::istream& in, std::size_t keep, std::string& out) {
  out.clear();
  const std::istream::sentry ok(in, /*noskipws=*/true);
  if (!ok) return kNoLine;
  std::streambuf& buffer = *in.rdbuf();
  std::size_t length = 0;
  for (;;) {
    if (std::char_traits<char>::eq_int_type(buffer.sgetc(),
                                            std::char_traits<char>::eof())) {
      in.setstate(std::ios::eofbit | std::ios::failbit);
      return length == 0 ? kNoLine : length;
    }
    const std::string_view chunk = GetArea::of(buffer);
    if (chunk.empty()) {  // unbuffered: one character at a time
      const char c = std::char_traits<char>::to_char_type(buffer.sbumpc());
      if (c == '\n') return length;
      if (length < keep) out.push_back(c);
      ++length;
      continue;
    }
    const std::size_t n = std::min(chunk.find('\n'), chunk.size());
    if (length < keep) out.append(chunk.substr(0, std::min(n, keep - length)));
    length += n;
    const bool newline = n < chunk.size();
    GetArea::consume(buffer, n + (newline ? 1 : 0));
    if (newline) return length;
  }
}

/// Reads one line bounded by `max_bytes`. Returns false on EOF with no
/// characters read. An overlong line drains to its newline (bounded
/// memory against hostile input) and throws.
bool read_line(std::istream& in, std::size_t max_bytes, std::string& out) {
  const std::size_t length = take_line(in, max_bytes, out);
  if (length == kNoLine) return false;
  if (length > max_bytes) {
    throw ProtocolError("line exceeds " + std::to_string(max_bytes) +
                        " bytes");
  }
  if (!out.empty() && out.back() == '\r') out.pop_back();
  return true;
}

/// Splits on single spaces; empty tokens (doubled spaces, leading or
/// trailing space) are malformed — the format is machine-generated, so
/// strictness costs nothing and keeps the fuzz surface small. The views
/// alias `line`.
void split_tokens(std::string_view line,
                  std::vector<std::string_view>& tokens) {
  split_on(line, ' ', tokens);
  for (const std::string_view token : tokens) {
    if (token.empty()) {
      throw ProtocolError("empty token in: " + std::string(line));
    }
  }
}

double wire_double(std::string_view token, const char* what) {
  const std::optional<double> value = parse_double(token);
  if (!value || !std::isfinite(*value)) {
    throw ProtocolError(std::string(what) + ": bad number '" +
                        std::string(token) + "'");
  }
  return *value;
}

std::uint64_t wire_count(std::string_view token, const char* what) {
  const std::optional<std::uint64_t> value = parse_uint(token);
  if (!value) {
    throw ProtocolError(std::string(what) + ": bad count '" +
                        std::string(token) + "'");
  }
  return *value;
}

/// Consumes input until an `end` line or EOF so the next frame starts
/// clean. Only a line's first few characters are kept (hostile lines
/// never accumulate), and a last line cut off by EOF never counts.
void resync(std::istream& in) {
  std::string head;
  for (;;) {
    const std::size_t length = take_line(in, 4, head);
    if (length == kNoLine || in.eof()) return;
    if ((length == 3 && head == "end") || (length == 4 && head == "end\r")) {
      return;
    }
  }
}

/// Parses from the frame-header line through the `end` line. Throws
/// mid-frame on malformed content — the caller resyncs. Structural
/// checks that need the whole frame live in parse_request_frame so their
/// errors are raised with the frame already consumed (resyncing again
/// would eat the next frame).
WireRequest parse_request_headers(std::istream& in,
                                  const ProtocolLimits& limits,
                                  const std::string& first_line) {
  std::vector<std::string_view> head;
  split_tokens(first_line, head);
  if (head.size() != 3 || head[0] != "dts1") {
    throw ProtocolError("bad frame header: " + first_line);
  }
  WireRequest req;
  if (head[1] == "solve") {
    req.verb = WireRequest::Verb::kSolve;
  } else if (head[1] == "stats") {
    req.verb = WireRequest::Verb::kStats;
  } else if (head[1] == "ping") {
    req.verb = WireRequest::Verb::kPing;
  } else if (head[1] == "quit") {
    req.verb = WireRequest::Verb::kQuit;
  } else {
    throw ProtocolError("unknown verb: " + std::string(head[1]));
  }
  req.id = head[2];

  bool have_trace = false;
  std::string line;
  std::vector<std::string_view> tokens;
  for (std::size_t n_headers = 0;; ++n_headers) {
    if (n_headers > limits.max_header_lines) {
      throw ProtocolError("more than " +
                          std::to_string(limits.max_header_lines) +
                          " header lines");
    }
    if (!read_line(in, limits.max_line_bytes, line)) {
      throw ProtocolError("stream ended mid-frame (missing 'end')");
    }
    if (line == "end") break;
    split_tokens(line, tokens);
    const std::string_view key = tokens[0];
    if (req.verb != WireRequest::Verb::kSolve) {
      throw ProtocolError("unexpected header for '" + std::string(head[1]) +
                          "': " + line);
    }
    if (key == "solver" && tokens.size() == 2) {
      req.solver = tokens[1];
    } else if (key == "capacity" && tokens.size() == 2) {
      req.capacity = wire_double(tokens[1], "capacity");
    } else if (key == "capacity-factor" && tokens.size() == 2) {
      req.capacity_factor = wire_double(tokens[1], "capacity-factor");
    } else if (key == "machine" && tokens.size() == 2) {
      req.machine = tokens[1];
    } else if (key == "seed" && tokens.size() == 2) {
      req.seed = wire_count(tokens[1], "seed");
    } else if (key == "batch" && tokens.size() == 2) {
      req.batch = wire_count(tokens[1], "batch");
    } else if (key == "no-cache" && tokens.size() == 1) {
      req.no_cache = true;
    } else if (key == "trace" && tokens.size() == 2) {
      if (have_trace) throw ProtocolError("duplicate trace payload");
      const std::uint64_t n_bytes = wire_count(tokens[1], "trace");
      if (n_bytes > limits.max_trace_bytes) {
        throw ProtocolError("trace payload of " + std::string(tokens[1]) +
                            " bytes exceeds limit of " +
                            std::to_string(limits.max_trace_bytes));
      }
      req.trace_text.resize(static_cast<std::size_t>(n_bytes));
      in.read(req.trace_text.data(),
              static_cast<std::streamsize>(req.trace_text.size()));
      if (static_cast<std::uint64_t>(in.gcount()) != n_bytes) {
        throw ProtocolError("stream ended inside trace payload");
      }
      have_trace = true;
    } else {
      throw ProtocolError("bad header line: " + line);
    }
  }
  return req;
}

WireRequest parse_request_frame(std::istream& in, const ProtocolLimits& limits,
                                const std::string& first_line) {
  WireRequest req;
  try {
    req = parse_request_headers(in, limits, first_line);
  } catch (const ProtocolError&) {
    resync(in);  // mid-frame failure: skip to the next `end`
    throw;
  }
  // From here the frame is fully consumed (its `end` included): whole-
  // frame validation must not resync or it would eat the next frame.
  if (req.verb == WireRequest::Verb::kSolve) {
    if (req.trace_text.empty()) {
      throw ProtocolError("solve frame without trace payload");
    }
    if (req.capacity.has_value() == req.capacity_factor.has_value()) {
      throw ProtocolError(
          "solve frame needs exactly one of capacity / capacity-factor");
    }
  }
  return req;
}

}  // namespace

std::optional<WireRequest> read_request(std::istream& in,
                                        const ProtocolLimits& limits) {
  std::string line;
  for (;;) {  // skip blank lines between frames
    try {
      if (!read_line(in, limits.max_line_bytes, line)) return std::nullopt;
    } catch (const ProtocolError&) {
      resync(in);
      throw;
    }
    if (!line.empty()) break;
  }
  return parse_request_frame(in, limits, line);
}

std::string to_string(WireResponse::Status status) {
  switch (status) {
    case WireResponse::Status::kOk: return "ok";
    case WireResponse::Status::kShed: return "shed";
    case WireResponse::Status::kDraining: return "draining";
    case WireResponse::Status::kError: return "error";
  }
  return "error";
}

std::string to_string(WireResponse::CacheOutcome outcome) {
  switch (outcome) {
    case WireResponse::CacheOutcome::kHit: return "hit";
    case WireResponse::CacheOutcome::kMiss: return "miss";
    case WireResponse::CacheOutcome::kCoalesced: return "coalesced";
    case WireResponse::CacheOutcome::kBypass: return "bypass";
  }
  return "miss";
}

namespace {

/// Flush threshold for chunked blocks: far below ProtocolLimits'
/// smallest sensible max_line_bytes, so a written response always
/// round-trips through read_response regardless of instance size.
constexpr std::size_t kChunkBytes = 4000;

/// Error messages can echo (bounded) hostile input; cap what goes on the
/// wire so a `message` line never busts the reader's line limit.
constexpr std::size_t kMaxErrorBytes = 1024;

/// A rendered frame reaches the stream in writes of about this size: one
/// write for an ordinary response, bounded memory for a huge one.
constexpr std::size_t kWriteBytes = 64 * 1024;

}  // namespace

void write_response(std::ostream& out, const WireResponse& response) {
  std::string frame;
  const auto spill = [&frame, &out](std::size_t at_least) {
    if (frame.size() < at_least) return;
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    frame.clear();
  };
  const auto text_line = [&frame](std::string_view key,
                                  std::string_view value) {
    frame += key;
    frame += ' ';
    frame += value;
    frame += '\n';
  };
  const auto double_line = [&frame](std::string_view key, double value) {
    frame += key;
    frame += ' ';
    append_double(frame, value);
    frame += '\n';
  };
  const auto count_line = [&frame](std::string_view key,
                                   std::uint64_t value) {
    frame += key;
    frame += ' ';
    append_uint(frame, value);
    frame += '\n';
  };

  text_line("dts1 response " + response.id, to_string(response.status));
  switch (response.status) {
    case WireResponse::Status::kOk:
      if (!response.winner.empty()) {
        text_line("cache", to_string(response.cache));
        text_line("winner", response.winner);
        double_line("makespan", response.makespan);
        count_line("evaluations", response.evaluations);
        count_line("proved-optimal", response.proved_optimal ? 1 : 0);
        double_line("lower-bound", response.lower_bound);
        if (response.gap && std::isfinite(*response.gap)) {
          double_line("gap", *response.gap);
        }
        count_line("order", response.order.size());
        std::size_t line_start = frame.size();
        for (std::uint32_t id : response.order) {
          if (frame.size() > line_start) frame += ' ';
          append_uint(frame, id);
          if (frame.size() - line_start >= kChunkBytes) {
            frame += '\n';
            spill(kWriteBytes);
            line_start = frame.size();
          }
        }
        if (frame.size() > line_start) frame += '\n';
        count_line("schedule", response.schedule.size());
        for (const auto& [comm, comp] : response.schedule) {
          append_double(frame, comm);
          frame += ' ';
          append_double(frame, comp);
          frame += '\n';
          spill(kWriteBytes);
        }
      }
      for (const std::string& extra : response.extra) {
        frame += extra;
        frame += '\n';
      }
      break;
    case WireResponse::Status::kShed:
      text_line("reason", response.shed_reason);
      break;
    case WireResponse::Status::kDraining:
      break;
    case WireResponse::Status::kError: {
      std::string message = response.error.empty() ? "request failed"
                                                   : response.error;
      for (char& c : message) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      if (message.size() > kMaxErrorBytes) {
        message.resize(kMaxErrorBytes);
        message += " [truncated]";
      }
      text_line("message", message);
      break;
    }
  }
  frame += "end\n";
  spill(0);
}

std::optional<WireResponse> read_response(std::istream& in,
                                          const ProtocolLimits& limits) {
  std::string line;
  for (;;) {
    if (!read_line(in, limits.max_line_bytes, line)) return std::nullopt;
    if (!line.empty()) break;
  }
  std::vector<std::string_view> head;
  split_tokens(line, head);
  if (head.size() != 4 || head[0] != "dts1" || head[1] != "response") {
    throw ProtocolError("bad response header: " + line);
  }
  WireResponse res;
  res.id = head[2];
  if (head[3] == "ok") {
    res.status = WireResponse::Status::kOk;
  } else if (head[3] == "shed") {
    res.status = WireResponse::Status::kShed;
  } else if (head[3] == "draining") {
    res.status = WireResponse::Status::kDraining;
  } else if (head[3] == "error") {
    res.status = WireResponse::Status::kError;
  } else {
    throw ProtocolError("unknown response status: " + std::string(head[3]));
  }

  std::vector<std::string_view> tokens;
  for (std::size_t n_headers = 0;; ++n_headers) {
    if (n_headers > limits.max_header_lines) {
      throw ProtocolError("more than " +
                          std::to_string(limits.max_header_lines) +
                          " response header lines");
    }
    if (!read_line(in, limits.max_line_bytes, line)) {
      throw ProtocolError("stream ended mid-response (missing 'end')");
    }
    if (line == "end") break;
    // `message` carries free-form text (e.g. the offending input echoed
    // back); parse it as a raw remainder, not as strict tokens.
    if (line.rfind("message ", 0) == 0) {
      res.error = line.substr(8);
      continue;
    }
    split_tokens(line, tokens);
    const std::string_view key = tokens[0];
    if (key == "cache" && tokens.size() == 2) {
      if (tokens[1] == "hit") {
        res.cache = WireResponse::CacheOutcome::kHit;
      } else if (tokens[1] == "miss") {
        res.cache = WireResponse::CacheOutcome::kMiss;
      } else if (tokens[1] == "coalesced") {
        res.cache = WireResponse::CacheOutcome::kCoalesced;
      } else if (tokens[1] == "bypass") {
        res.cache = WireResponse::CacheOutcome::kBypass;
      } else {
        throw ProtocolError("unknown cache outcome: " +
                            std::string(tokens[1]));
      }
    } else if (key == "winner" && tokens.size() == 2) {
      res.winner = tokens[1];
    } else if (key == "makespan" && tokens.size() == 2) {
      res.makespan = wire_double(tokens[1], "makespan");
    } else if (key == "evaluations" && tokens.size() == 2) {
      res.evaluations = wire_count(tokens[1], "evaluations");
    } else if (key == "proved-optimal" && tokens.size() == 2) {
      const std::uint64_t v = wire_count(tokens[1], "proved-optimal");
      if (v > 1) throw ProtocolError("proved-optimal must be 0 or 1");
      res.proved_optimal = v == 1;
    } else if (key == "lower-bound" && tokens.size() == 2) {
      res.lower_bound = wire_double(tokens[1], "lower-bound");
    } else if (key == "gap" && tokens.size() == 2) {
      res.gap = wire_double(tokens[1], "gap");
    } else if (key == "order" && tokens.size() == 2) {
      const std::uint64_t n = wire_count(tokens[1], "order");
      if (n > limits.max_trace_bytes) {
        throw ProtocolError("order length exceeds limits");
      }
      res.order.clear();
      res.order.reserve(static_cast<std::size_t>(n));
      while (res.order.size() < n) {
        if (!read_line(in, limits.max_line_bytes, line)) {
          throw ProtocolError("stream ended inside order block");
        }
        split_tokens(line, tokens);
        for (const std::string_view token : tokens) {
          if (res.order.size() >= n) {
            throw ProtocolError("order block carries more than " +
                                std::to_string(n) + " ids");
          }
          res.order.push_back(
              static_cast<std::uint32_t>(wire_count(token, "order")));
        }
      }
    } else if (key == "schedule" && tokens.size() == 2) {
      const std::uint64_t n = wire_count(tokens[1], "schedule");
      if (n > limits.max_trace_bytes) {
        throw ProtocolError("schedule length exceeds limits");
      }
      res.schedule.clear();
      res.schedule.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        if (!read_line(in, limits.max_line_bytes, line)) {
          throw ProtocolError("stream ended inside schedule block");
        }
        split_tokens(line, tokens);
        if (tokens.size() != 2) {
          throw ProtocolError("bad schedule line: " + line);
        }
        res.schedule.emplace_back(wire_double(tokens[0], "schedule"),
                                  wire_double(tokens[1], "schedule"));
      }
    } else if (key == "reason" && tokens.size() == 2) {
      res.shed_reason = tokens[1];
    } else {
      res.extra.push_back(line);
    }
  }
  return res;
}

}  // namespace dts
