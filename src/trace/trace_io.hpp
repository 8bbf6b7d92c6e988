#pragma once

/// \file trace_io.hpp
/// Plain-text trace format, one task per line:
///
///     # dts-trace v1
///     # optional comment lines
///     task <name> <comm_seconds> <comp_seconds> <mem_bytes> [<channel>]
///         [bytes=<comm_bytes>] [deps=<i>,<j>,...]
///
/// Durations are decimal seconds, memory decimal bytes; `<name>` contains
/// no whitespace; fields are separated by any run of spaces, tabs,
/// vertical tabs or form feeds. Task-record numbers go through the
/// number-text codec (support/text.hpp): byte-identical to
/// printf("%.17g"), locale-free, and read back bit for bit (the summary
/// comment after the header keeps the stream's default precision).
///
/// The optional fifth field is the copy engine the transfer occupies
/// (default 0, the single link of v1 traces); it is only legal under a
/// "# dts-trace v2" (or later) header — a 5th column in a v1 trace is
/// rejected rather than silently becoming a channel assignment.
///
/// Version 3 ("# dts-trace v3") adds the machine-independent transfer
/// *size*: a trailing `bytes=<B>` annotation per task, gated on the v3
/// header exactly like the channel column is gated on v2. A
/// byte-annotated task can be re-costed for different hardware with
/// bind(inst, machine) (model/machine.hpp) or `dts recost`. Under v3 the
/// `<comm_seconds>` field may also be `?` — a *time-less* task whose cost
/// must come from its byte annotation (only legal together with
/// `bytes=`); such bytes-only traces are the machine-independent workload
/// interchange format.
///
/// Version 4 ("# dts-trace v4") adds precedence: a trailing
/// `deps=<i>,<j>,...` annotation per task, listing the 0-based file
/// positions of its predecessor tasks (the transfer may not start before
/// each listed task's computation ends). It is always the *last* column —
/// after the channel column and `bytes=` — and is gated on the v4 header
/// exactly like `bytes=` is gated on v3. The reader checks the ids are
/// well-formed numbers; dangling ids, self-edges and cycles are rejected
/// by Instance construction with its exact diagnostics.
///
/// Writers emit the lowest version that can represent the instance (v2
/// only for multi-channel, v3 only for byte-annotated or time-less
/// tasks, v4 only when some task declares dependency edges), so legacy
/// traces stay byte-identical to v1 and old readers keep working on
/// them — in particular every edge-free instance round-trips through
/// v1–v3 unchanged. The format round-trips every Instance the library
/// can represent and is the interchange point for users who bring
/// measured traces from their own runtimes (the paper's experiments
/// consumed such per-process trace files).

#include <filesystem>
#include <iosfwd>
#include <stdexcept>
#include <string_view>

#include "core/instance.hpp"

namespace dts {

/// Error with 1-based line information for malformed trace text.
class TraceIoError : public std::runtime_error {
 public:
  TraceIoError(std::size_t line, const std::string& message)
      : std::runtime_error("trace line " + std::to_string(line) + ": " +
                           message),
        line_(line) {}
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// Serializes the instance; includes a summary comment header. Stream
/// failures are left in the stream's state.
void write_trace(std::ostream& out, const Instance& inst);
/// As write_trace, to a file; throws std::runtime_error naming the path
/// when the file cannot be opened or written.
void write_trace_file(const std::filesystem::path& path, const Instance& inst);

/// Parses trace text in place (no copy of the payload); throws
/// TraceIoError on malformed input.
[[nodiscard]] Instance read_trace(std::string_view text);
/// Reads the rest of the stream and parses it with read_trace(text).
[[nodiscard]] Instance read_trace(std::istream& in);
/// As read_trace(std::istream&); throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] Instance read_trace_file(const std::filesystem::path& path);

}  // namespace dts
