/// Fuzz-style negative tests for the `dts serve` wire protocol (in the
/// style of tests/trace_fuzz_test.cpp): truncated frames, oversized
/// payloads and header floods, interleaved garbage, CRLF endings and
/// random byte soup. Every malformed frame must raise a clean
/// ProtocolError with the reader resynced to the next `end` (one bad
/// request costs one error response, never a desynced connection), and a
/// live serve_stream session must answer every malformed frame with a
/// well-formed error response — no crash, no hang, no silent misparse.
/// The suite name matches the `Service` CI filter so it also runs under
/// TSan alongside the service tests (ASan/UBSan run the whole suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "service/protocol.hpp"
#include "service/serve.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"

namespace dts {
namespace {

ProtocolError request_failure(const std::string& text,
                              const ProtocolLimits& limits = {}) {
  std::istringstream in(text);
  try {
    (void)read_request(in, limits);
  } catch (const ProtocolError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ProtocolError for:\n" << text;
  return ProtocolError("did not throw");
}

/// The resync contract: after a malformed frame throws, the same stream
/// must yield the next frame intact.
void expect_error_then_ping(const std::string& bad_frame) {
  std::istringstream in(bad_frame + "dts1 ping after\nend\n");
  EXPECT_THROW((void)read_request(in), ProtocolError) << bad_frame;
  std::optional<WireRequest> next;
  ASSERT_NO_THROW(next = read_request(in)) << bad_frame;
  ASSERT_TRUE(next.has_value()) << bad_frame;
  EXPECT_EQ(next->verb, WireRequest::Verb::kPing) << bad_frame;
  EXPECT_EQ(next->id, "after") << bad_frame;
}

TEST(ServiceProtocolFuzz, TruncatedFramesThrowCleanly) {
  for (const char* text :
       {"dts1 solve a\n",                        // EOF before any header
        "dts1 solve a",                          // EOF mid-line
        "dts1 solve a\ncapacity 1\n",            // EOF before `end`
        "dts1 solve a\ntrace 50\nshort",         // EOF inside the payload
        "dts1 solve a\ncapacity 1\ntrace 5\nabc" /* payload short */}) {
    (void)request_failure(text);
  }
}

TEST(ServiceProtocolFuzz, BadFrameHeadersThrowAndResync) {
  for (const char* header :
       {"garbage here now", "dts2 solve a", "dts1 bogus a", "dts1 solve",
        "dts1 solve a extra", "dts1  solve a", " dts1 solve a",
        "dts1 solve a "}) {
    expect_error_then_ping(std::string(header) + "\nend\n");
  }
}

TEST(ServiceProtocolFuzz, MalformedSolveHeadersThrowAndResync) {
  // Each bad header inside an otherwise plausible solve frame; the tiny
  // one-byte payload keeps the protocol layer honest (it never parses
  // trace text, only counts bytes).
  for (const char* header :
       {"solver", "capacity abc", "capacity inf", "capacity nan",
        "capacity 1e400", "capacity 1 2", "capacity-factor two", "seed -1",
        "seed 1.5", "batch 0x10", "no-cache yes", "frobnicate 1",
        "trace -1", "trace abc"}) {
    expect_error_then_ping("dts1 solve a\n" + std::string(header) +
                           "\ntrace 1\nX\nend\n");
  }
}

TEST(ServiceProtocolFuzz, SolveFrameStructuralErrors) {
  // No trace payload at all.
  expect_error_then_ping("dts1 solve a\ncapacity 1\nend\n");
  // Neither capacity form, and both at once.
  expect_error_then_ping("dts1 solve a\ntrace 1\nX\nend\n");
  expect_error_then_ping(
      "dts1 solve a\ncapacity 1\ncapacity-factor 1.5\ntrace 1\nX\nend\n");
  // Duplicate payload.
  expect_error_then_ping(
      "dts1 solve a\ncapacity 1\ntrace 1\nX\ntrace 1\nY\nend\n");
}

TEST(ServiceProtocolFuzz, HeadersOnHeaderlessVerbsThrowAndResync) {
  expect_error_then_ping("dts1 ping p\ncapacity 1\nend\n");
  expect_error_then_ping("dts1 stats s\nsolver auto\nend\n");
  expect_error_then_ping("dts1 quit q\ntrace 1\nX\nend\n");
}

TEST(ServiceProtocolFuzz, OversizedInputsAreBoundedErrors) {
  ProtocolLimits tight;
  tight.max_line_bytes = 32;
  tight.max_header_lines = 4;
  tight.max_trace_bytes = 100;

  // A header line over the byte bound drains to its newline and throws —
  // and the reader still resyncs for the next frame.
  {
    const std::string long_line(200, 'a');
    std::istringstream in("dts1 solve a\n" + long_line +
                          "\nend\ndts1 ping after\nend\n");
    EXPECT_THROW((void)read_request(in, tight), ProtocolError);
    std::optional<WireRequest> next;
    ASSERT_NO_THROW(next = read_request(in, tight));
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->verb, WireRequest::Verb::kPing);
  }

  // Header flood past max_header_lines.
  {
    std::string frame = "dts1 solve a\n";
    for (int i = 0; i < 8; ++i) frame += "solver x\n";
    frame += "end\n";
    (void)request_failure(frame, tight);
  }

  // Declared trace size over the limit is refused before any buffering.
  (void)request_failure("dts1 solve a\ncapacity 1\ntrace 101\n", tight);
  // Absurd declared sizes under the default limits, including u64
  // overflow in the count itself.
  (void)request_failure(
      "dts1 solve a\ncapacity 1\ntrace 18446744073709551615\n");
  (void)request_failure(
      "dts1 solve a\ncapacity 1\ntrace 99999999999999999999999\n");
}

TEST(ServiceProtocolFuzz, CrlfAndBlankLinesAreTolerated) {
  // CRLF endings are stripped per line (shell here-docs and Windows
  // clients), and blank lines between frames are skipped.
  std::istringstream in("dts1 ping p\r\nend\r\n\n\ndts1 quit q\nend\n");
  std::optional<WireRequest> ping = read_request(in);
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->verb, WireRequest::Verb::kPing);
  std::optional<WireRequest> quit = read_request(in);
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(quit->verb, WireRequest::Verb::kQuit);
  EXPECT_FALSE(read_request(in).has_value());  // clean EOF
}

TEST(ServiceProtocolFuzz, TruncatedResponsesThrowCleanly) {
  for (const char* text :
       {"dts1 response a ok\n",                      // EOF before `end`
        "dts1 response a ok\nschedule 3\n1 2\n",     // EOF inside block
        "dts1 response a ok\nschedule 3\n1 2\nend\n",  // block cut short
        "dts1 response a ok\norder 4\n1 2\n",        // EOF inside order
        "dts1 response a ok\norder 2\n1 2 3\nend\n",   // order overfull
        "dts1 response a maybe\nend\n",              // unknown status
        "dts1 response a\nend\n"}) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_response(in), ProtocolError) << text;
  }
}

TEST(ServiceProtocolFuzz, LargeResponsesRoundTripWithinLineLimits) {
  // ~20k tasks would bust the reader's 64 KB line limit if the order were
  // a single line; the chunked order block must round-trip regardless of
  // instance size (a solve well within max_trace_bytes must never yield
  // an unreadable ok response).
  WireResponse big;
  big.status = WireResponse::Status::kOk;
  big.id = "big";
  big.winner = "local-search";
  big.makespan = 123.0625;
  big.evaluations = 7;
  constexpr std::uint32_t kTasks = 20000;
  for (std::uint32_t i = 0; i < kTasks; ++i) {
    big.order.push_back(kTasks - 1 - i);
    big.schedule.emplace_back(0.5 * i, 0.5 * i + 0.25);
  }
  std::ostringstream wire;
  write_response(wire, big);

  const ProtocolLimits limits;
  std::istringstream lines(wire.str());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), limits.max_line_bytes);
  }

  std::istringstream in(wire.str());
  std::optional<WireResponse> read;
  ASSERT_NO_THROW(read = read_response(in, limits));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->id, big.id);
  EXPECT_EQ(read->winner, big.winner);
  EXPECT_EQ(read->makespan, big.makespan);  // bitwise via %.17g
  EXPECT_EQ(read->order, big.order);
  EXPECT_EQ(read->schedule, big.schedule);
}

TEST(ServiceProtocolFuzz, OversizedErrorMessagesAreTruncatedNotUnreadable) {
  // Error messages may echo a (bounded) hostile input line; the writer
  // must cap them so the client reader never chokes on its own server.
  WireResponse error;
  error.status = WireResponse::Status::kError;
  error.id = "e";
  error.error = std::string(2 * ProtocolLimits{}.max_line_bytes, 'x');
  std::ostringstream wire;
  write_response(wire, error);

  std::istringstream in(wire.str());
  std::optional<WireResponse> read;
  ASSERT_NO_THROW(read = read_response(in));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->status, WireResponse::Status::kError);
  EXPECT_FALSE(read->error.empty());
  EXPECT_LT(read->error.size(), 2048u);  // truncated, not echoed whole
}

TEST(ServiceProtocolFuzz, LiveSessionAnswersGarbageWithErrorResponses) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);

  // Interleave well-formed frames with garbage on one stream: every
  // garbage frame costs exactly one error response and nothing else.
  std::ostringstream session;
  session << "dts1 ping p\nend\n"
          << "total garbage frame\nwith more lines\nend\n"
          << "dts1 solve s\ncapacity abc\ntrace 1\nX\nend\n"
          << "dts1 stats t\nend\n"
          << "dts1 quit q\nend\n";
  std::istringstream in(session.str());
  std::ostringstream out;
  const ServeStats stats = serve_stream(service, in, out);
  EXPECT_EQ(stats.frames, 3u);  // ping, stats, quit
  EXPECT_EQ(stats.protocol_errors, 2u);
  EXPECT_TRUE(stats.saw_quit);

  std::istringstream replies(out.str());
  const char* expected[] = {"ok", "error", "error", "ok", "ok"};
  for (const char* status : expected) {
    std::optional<WireResponse> response;
    ASSERT_NO_THROW(response = read_response(replies));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(to_string(response->status), status);
    if (response->status == WireResponse::Status::kError) {
      EXPECT_FALSE(response->error.empty());
    }
  }
  EXPECT_FALSE(read_response(replies).has_value());  // nothing extra
}

TEST(ServiceProtocolFuzz, RandomByteSoupNeverCrashesTheReader) {
  Rng rng(20260808);
  for (int round = 0; round < 300; ++round) {
    std::string text;
    const std::size_t len = rng.index(500);
    for (std::size_t i = 0; i < len; ++i) {
      // Protocol-ish tokens and separators: enough structure to reach
      // every parser path, enough noise to break all of them.
      const char alphabet[] = "dts1 solverespncaitymchnbq0123456789.e+-\n\r ";
      text += alphabet[rng.index(sizeof(alphabet) - 1)];
    }
    std::istringstream in(text);
    // Each call either consumes at least one line or hits EOF, so this
    // terminates; the only allowed outcomes are a frame, an error, EOF.
    for (;;) {
      try {
        if (!read_request(in).has_value()) break;
      } catch (const ProtocolError&) {
      }
    }
  }
}

TEST(ServiceProtocolFuzz, RandomByteSoupSessionsAlwaysAnswerWellFormed) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);

  Rng rng(20260809);
  for (int round = 0; round < 60; ++round) {
    std::string text;
    const std::size_t len = rng.index(400);
    for (std::size_t i = 0; i < len; ++i) {
      const char alphabet[] = "dts1 solverespncaitymchnbq0123456789.e+-\n ";
      text += alphabet[rng.index(sizeof(alphabet) - 1)];
    }
    text += "\ndts1 quit q\nend\n";  // bounded session
    std::istringstream in(text);
    std::ostringstream out;
    (void)serve_stream(service, in, out);
    // Whatever went in, what came out must parse as response frames.
    std::istringstream replies(out.str());
    for (;;) {
      std::optional<WireResponse> response;
      ASSERT_NO_THROW(response = read_response(replies)) << text;
      if (!response.has_value()) break;
    }
  }
}

/// A streambuf over `text` that refills its get area `chunk` characters
/// at a time, so lines straddle refills; chunk 0 is unbuffered (the get
/// area stays empty and uflow() hands out one character per call).
class PiecewiseBuf final : public std::streambuf {
 public:
  PiecewiseBuf(std::string text, std::size_t chunk)
      : text_(std::move(text)), chunk_(chunk) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == text_.size()) return traits_type::eof();
    if (chunk_ == 0) return traits_type::to_int_type(text_[next_]);
    const std::size_t n = std::min(chunk_, text_.size() - next_);
    char* const begin = text_.data() + next_;
    setg(begin, begin, begin + n);
    next_ += n;
    return traits_type::to_int_type(*gptr());
  }

  int_type uflow() override {
    if (chunk_ != 0) return std::streambuf::uflow();
    if (next_ == text_.size()) return traits_type::eof();
    return traits_type::to_int_type(text_[next_++]);
  }

 private:
  std::string text_;
  std::size_t chunk_;
  std::size_t next_ = 0;
};

/// Every frame, error and the final EOF read_request reports on `in`.
std::string request_transcript(std::istream& in,
                               const ProtocolLimits& limits) {
  std::string log;
  for (;;) {
    try {
      const std::optional<WireRequest> frame = read_request(in, limits);
      if (!frame.has_value()) break;
      log += "frame " + frame->id + " trace=" + frame->trace_text + "\n";
    } catch (const ProtocolError& e) {
      log += std::string("error ") + e.what() + "\n";
    }
  }
  return log + "eof state=" + std::to_string(in.rdstate());
}

TEST(ServiceProtocolFuzz, ReaderIsIndependentOfStreamBuffering) {
  ProtocolLimits tight;
  tight.max_line_bytes = 12;
  tight.max_header_lines = 4;
  // Lines at the byte bound pass and one past it fail, '\r' included.
  const std::string pieces[] = {
      "dts1 ping ab\nend\n", "dts1 ping abc\nend\n", "dts1 ping a\r\nend\r\n",
      "dts1 ping ab\r\nend\n",
      "dts1 solve s\ncapacity 1\ntrace 5\nab\ncd\nend\n", "\n\n", "end\n",
      "garbage\n", std::string(40, 'x') + "\n", "dts1 ping", "\r"};
  Rng rng(20261017);
  for (int round = 0; round < 200; ++round) {
    std::string text;
    const std::size_t count = 1 + rng.index(12);
    for (std::size_t i = 0; i < count; ++i) {
      text += pieces[rng.index(std::size(pieces))];
    }
    std::istringstream whole(text);
    const std::string expected = request_transcript(whole, tight);
    for (const std::size_t chunk : {0, 1, 2, 3, 7, 64}) {
      PiecewiseBuf buffer(text, chunk);
      std::istream in(&buffer);
      EXPECT_EQ(request_transcript(in, tight), expected)
          << "chunk " << chunk << " on:\n" << text;
    }
    if (::testing::Test::HasFailure()) return;
  }

  std::istringstream bounds("dts1 ping ab\nend\ndts1 ping a\r\nend\n"
                            "dts1 ping abc\nend\ndts1 ping ab\r\nend\n");
  EXPECT_EQ(request_transcript(bounds, tight),
            "frame ab trace=\nframe a trace=\n"
            "error line exceeds 12 bytes\nerror line exceeds 12 bytes\n"
            "eof state=6");
}

}  // namespace
}  // namespace dts
