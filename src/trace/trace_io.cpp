#include "trace/trace_io.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/text.hpp"

namespace dts {

namespace {

constexpr std::string_view kMagicV1 = "# dts-trace v1";
constexpr std::string_view kMagicV2 = "# dts-trace v2";
constexpr std::string_view kMagicV3 = "# dts-trace v3";
constexpr std::string_view kMagicV4 = "# dts-trace v4";
constexpr std::string_view kBytesPrefix = "bytes=";
constexpr std::string_view kDepsPrefix = "deps=";
/// Task records reach the stream in writes of about this size.
constexpr std::size_t kWriteBytes = 64 * 1024;

/// Parses one comma-separated predecessor list ("0,3,17"). Only the
/// lexical shape is checked here — ids must be in-range numbers with no
/// empty elements; dangling references, self-edges and cycles are the
/// Instance constructor's job (it has the exact diagnostics).
std::vector<TaskId> parse_deps_field(std::size_t line_no,
                                     std::string_view field,
                                     std::string_view list) {
  if (list.empty()) {
    throw TraceIoError(line_no,
                       "empty dependency list '" + std::string(field) + "'");
  }
  std::vector<TaskId> deps;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = std::min(list.find(',', begin), list.size());
    const std::string_view element = list.substr(begin, comma - begin);
    const std::optional<std::uint64_t> id = parse_uint(element);
    if (!id || *id > std::numeric_limits<TaskId>::max()) {
      throw TraceIoError(line_no, "malformed dependency id '" +
                                      std::string(element) + "' in '" +
                                      std::string(field) + "'");
    }
    deps.push_back(static_cast<TaskId>(*id));
    begin = comma + 1;
  }
  return deps;
}

/// Full-token double parse; TraceIoError names the offending field.
/// from_chars (not strtod) so hex soup ("0x10") and locale surprises stay
/// loud errors, and out-of-range magnitudes ("1e400") never saturate. A
/// single leading '+' is accepted for compatibility with the stream
/// extraction the v1/v2 parser used (externally-written "+1.5" fields
/// must keep loading).
double parse_double_field(std::size_t line_no, const char* field,
                          std::string_view text) {
  std::string_view digits = text;
  if (!digits.empty() && digits.front() == '+') digits.remove_prefix(1);
  const std::optional<double> value = parse_double(digits);
  if (!value) {
    throw TraceIoError(line_no, std::string("malformed ") + field + " '" +
                                    std::string(text) + "'");
  }
  return *value;
}

/// Parses one `task` record (already split into fields, at least five).
Task parse_task(std::size_t line_no, int version,
                const std::vector<std::string_view>& tokens) {
  Task t;
  t.name = tokens[1];
  if (tokens[2] == "?") {
    // A time-less task only makes sense when a byte annotation can
    // eventually cost it — both are v3 features.
    if (version < 3) {
      throw TraceIoError(line_no,
                         "time-less comm '?' needs the '" +
                             std::string(kMagicV3) + "' header");
    }
    t.comm = kUnboundTime;
  } else {
    t.comm = parse_double_field(line_no, "comm", tokens[2]);
    if (t.comm < 0.0) {
      // Only '?' may mark a time-less task — a literal negative number
      // must not silently alias the kUnboundTime sentinel.
      throw TraceIoError(line_no,
                         "negative comm '" + std::string(tokens[2]) + "'");
    }
  }
  t.comp = parse_double_field(line_no, "comp", tokens[3]);
  t.mem = parse_double_field(line_no, "mem", tokens[4]);

  bool channel_seen = false;
  bool bytes_seen = false;
  bool deps_seen = false;
  for (std::size_t i = 5; i < tokens.size(); ++i) {
    const std::string_view field = tokens[i];
    if (field.starts_with(kDepsPrefix)) {
      if (version < 4) {
        // A stray deps= column in an old trace must stay a loud error.
        throw TraceIoError(line_no, "unexpected '" + std::string(field) +
                                        "' (dependency edges need the '" +
                                        std::string(kMagicV4) + "' header)");
      }
      if (deps_seen) {
        throw TraceIoError(line_no, "duplicate dependency list '" +
                                        std::string(field) + "'");
      }
      t.deps = parse_deps_field(line_no, field,
                                field.substr(kDepsPrefix.size()));
      deps_seen = true;
    } else if (deps_seen) {
      // deps= is defined as the last column of a record.
      throw TraceIoError(line_no,
                         "trailing content '" + std::string(field) + "'");
    } else if (field.starts_with(kBytesPrefix)) {
      if (version < 3) {
        // A stray bytes= column in an old trace must stay a loud error.
        throw TraceIoError(line_no, "unexpected '" + std::string(field) +
                                        "' (byte annotations need the '" +
                                        std::string(kMagicV3) + "' header)");
      }
      if (bytes_seen) {
        throw TraceIoError(line_no, "duplicate byte annotation '" +
                                        std::string(field) + "'");
      }
      t.comm_bytes = parse_double_field(line_no, "bytes",
                                        field.substr(kBytesPrefix.size()));
      if (!(t.comm_bytes >= 0.0)) {  // negated form also catches NaN
        throw TraceIoError(line_no, "negative or non-finite byte "
                                    "annotation '" + std::string(field) + "'");
      }
      bytes_seen = true;
    } else if (!channel_seen && !bytes_seen) {
      if (version < 2) {
        // A stray extra numeric column in a v1 trace must stay a loud
        // error, not silently become a copy-engine assignment.
        throw TraceIoError(line_no,
                           "unexpected 5th column '" + std::string(field) +
                               "' in a v1 trace (channel columns need the '" +
                               std::string(kMagicV2) + "' header)");
      }
      // Parsed from the raw token, so overflow ("4294967296") and
      // negatives fail instead of wrapping.
      const std::optional<std::uint64_t> channel = parse_uint(field);
      if (!channel || *channel >= kMaxChannels) {
        throw TraceIoError(line_no, "channel '" + std::string(field) +
                                        "' out of range [0, " +
                                        std::to_string(kMaxChannels) + ")");
      }
      t.channel = static_cast<ChannelId>(*channel);
      channel_seen = true;
    } else {
      throw TraceIoError(line_no,
                         "trailing content '" + std::string(field) + "'");
    }
  }
  if (!t.time_bound() && !t.has_comm_bytes()) {
    throw TraceIoError(line_no, "time-less task without a bytes= annotation");
  }
  if (!is_valid(t)) {
    throw TraceIoError(line_no, "negative or non-finite task fields");
  }
  return t;
}

}  // namespace

void write_trace(std::ostream& out, const Instance& inst) {
  const InstanceStats stats = inst.stats();
  const bool multi = !inst.single_channel();
  // The lowest version that can represent this instance: dependency
  // edges need v4, bytes and time-less tasks v3, extra channels v2;
  // everything else stays v1 so legacy readers keep working.
  bool bytes = false;
  // An upper bound on one rendered record: a number field needs at most
  // kNumberTextRoom characters plus a separator.
  std::size_t record_bound = 0;
  for (const Task& t : inst) {
    bytes = bytes || t.has_comm_bytes() || !t.time_bound();
    const std::size_t numbers = 4 + (multi ? 1 : 0) +
                                (t.has_comm_bytes() ? 1 : 0) + t.deps.size();
    record_bound = std::max(record_bound,
                            std::string_view("task ").size() + t.name.size() +
                                kBytesPrefix.size() + kDepsPrefix.size() +
                                numbers * (kNumberTextRoom + 1));
  }
  const bool deps = inst.has_dependencies();
  out << (deps ? kMagicV4 : bytes ? kMagicV3 : multi ? kMagicV2 : kMagicV1)
      << '\n';
  out << "# tasks=" << stats.n_tasks << " sum_comm=" << stats.sum_comm
      << " sum_comp=" << stats.sum_comp << " max_mem=" << stats.max_mem;
  if (multi) out << " channels=" << inst.num_channels();
  out << '\n';

  // Task records: exact (%.17g) number text, rendered through a cursor
  // into a chunk that reaches the stream in writes of about kWriteBytes.
  // It has room for one more record past that, so no write overruns it.
  const auto chunk =
      std::make_unique_for_overwrite<char[]>(kWriteBytes + record_bound);
  char* const begin = chunk.get();
  const auto flush = [&out, begin](const char* end) {
    out.write(begin, static_cast<std::streamsize>(end - begin));
  };
  const auto put = [](char* p, std::string_view text) {
    std::memcpy(p, text.data(), text.size());
    return p + text.size();
  };
  char* p = begin;
  for (const Task& t : inst) {
    if (static_cast<std::size_t>(p - begin) >= kWriteBytes) {
      flush(p);
      p = begin;
    }
    p = put(p, "task ");
    if (t.name.empty()) {
      *p++ = 'T';
      p = write_uint(p, t.id);
    } else {
      p = put(p, t.name);
    }
    *p++ = ' ';
    if (t.time_bound()) {
      p = write_double(p, t.comm);
    } else {
      *p++ = '?';  // time-less: cost comes from the byte annotation
    }
    *p++ = ' ';
    p = write_double(p, t.comp);
    *p++ = ' ';
    const char* const mem_text = p;
    p = write_double(p, t.mem);
    const std::string_view mem(mem_text,
                               static_cast<std::size_t>(p - mem_text));
    if (multi) {
      *p++ = ' ';
      p = write_uint(p, t.channel);
    }
    if (t.has_comm_bytes()) {
      *p++ = ' ';
      p = put(p, kBytesPrefix);
      // Generated tasks footprint exactly the bytes they move: reuse the
      // mem text when the bit patterns match (== would equate +0.0 and
      // -0.0, which print differently).
      if (std::bit_cast<std::uint64_t>(t.comm_bytes) ==
          std::bit_cast<std::uint64_t>(t.mem)) {
        p = put(p, mem);
      } else {
        p = write_double(p, t.comm_bytes);
      }
    }
    if (!t.deps.empty()) {
      *p++ = ' ';
      p = put(p, kDepsPrefix);
      for (std::size_t i = 0; i < t.deps.size(); ++i) {
        if (i > 0) *p++ = ',';
        p = write_uint(p, t.deps[i]);
      }
    }
    *p++ = '\n';
  }
  flush(p);
}

void write_trace_file(const std::filesystem::path& path, const Instance& inst) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_trace_file: cannot open " + path.string());
  }
  write_trace(out, inst);
  out.flush();
  if (!out) {
    throw std::runtime_error("write_trace_file: cannot write " + path.string());
  }
}

Instance read_trace(std::string_view text) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n')));
  std::vector<std::string_view> tokens;
  std::size_t line_no = 0;
  int version = 1;

  // Lines as std::getline yields them: '\n'-terminated, the last one
  // possibly unterminated, no empty line after a final '\n'.
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t newline = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, newline - pos);
    pos = newline + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      // A silently stripped '\r' would *usually* work (it separates
      // fields like any whitespace) but can leak into the last field of
      // a record — reject CRLF input loudly instead of misparsing quietly.
      throw TraceIoError(line_no,
                         "CRLF line ending; dts traces use LF line endings");
    }
    if (line_no == 1) {
      if (line == kMagicV1) {
        version = 1;
      } else if (line == kMagicV2) {
        version = 2;
      } else if (line == kMagicV3) {
        version = 3;
      } else if (line == kMagicV4) {
        version = 4;
      } else {
        throw TraceIoError(line_no, "missing header '" + std::string(kMagicV1) +
                                        "', '" + std::string(kMagicV2) +
                                        "', '" + std::string(kMagicV3) +
                                        "' or '" + std::string(kMagicV4) + "'");
      }
      continue;
    }
    if (line.empty() || line[0] == '#') continue;

    split_fields(line, tokens);
    if (tokens.empty() || tokens[0] != "task") {
      throw TraceIoError(line_no,
                         "unknown record '" +
                             std::string(tokens.empty() ? "" : tokens[0]) +
                             "'");
    }
    if (tokens.size() < 5) {
      throw TraceIoError(line_no,
                         "expected 'task <name> <comm> <comp> <mem> "
                         "[<channel>] [bytes=<B>]'");
    }
    tasks.push_back(parse_task(line_no, version, tokens));
  }
  if (line_no == 0) throw TraceIoError(1, "empty trace");
  return Instance(std::move(tasks));
}

Instance read_trace(std::istream& in) {
  std::string text;
  std::streambuf* const buffer = in.rdbuf();
  if (buffer != nullptr && buffer->in_avail() > 0) {
    text.reserve(static_cast<std::size_t>(buffer->in_avail()));
  }
  char chunk[1 << 14];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return read_trace(std::string_view(text));
}

Instance read_trace_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_trace_file: cannot open " + path.string());
  }
  return read_trace(in);
}

}  // namespace dts
