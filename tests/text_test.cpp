/// Tests for the number-text codec (support/text.hpp) and the trace
/// writer/reader built on it: append_double is byte-identical to
/// printf("%.17g") and round-trips every finite double bit for bit; the
/// field splitter matches `>> std::string` extraction; write_trace emits
/// exactly the bytes of the stream writer it replaced (kept below as the
/// reference); and read_trace still separates fields on any whitespace.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/machine.hpp"
#include "support/rng.hpp"
#include "support/text.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"
#include "trace/transforms.hpp"

namespace dts {
namespace {

std::string printf_17g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string codec_text(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

void expect_exact_round_trip(double value) {
  const std::string text = codec_text(value);
  EXPECT_EQ(text, printf_17g(value));
  const std::optional<double> back = parse_double(text);
  ASSERT_TRUE(back.has_value()) << text;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
            std::bit_cast<std::uint64_t>(value))
      << text;
}

TEST(TextCodec, AppendDoubleMatchesPrintfOnEdgeValues) {
  for (const double value :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), DBL_MIN, -DBL_MIN,
        DBL_MAX, -DBL_MAX, 0.1, 176000.0, 1.8e9, 1.0, 1e16, 1e17, 123456789.0,
        1.0 / 3.0, 5e-324, 2.2250738585072009e-308, 0.30000000000000004}) {
    expect_exact_round_trip(value);
  }
  for (const double value : {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(codec_text(value), printf_17g(value));
  }
}

TEST(TextCodec, AppendDoubleMatchesPrintfOnRandomBitPatterns) {
  Rng rng(20261017);
  int checked = 0;
  while (checked < 100000) {
    const double value = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(value)) continue;
    expect_exact_round_trip(value);
    if (::testing::Test::HasFailure()) return;  // one report, not 100k
    ++checked;
  }
}

// The fast path covers finite magnitudes of about 1e-11 to 1.7e38; the
// cases below aim at it and at its edges (random bit patterns mostly
// land in the std::to_chars fallback).

TEST(TextCodec, AppendDoubleMatchesPrintfOnLogUniformMagnitudes) {
  Rng rng(15);
  for (int i = 0; i < 100000; ++i) {
    const double magnitude = std::pow(10.0, rng.uniform(-20.0, 40.0));
    expect_exact_round_trip(i % 2 == 0 ? magnitude : -magnitude);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TextCodec, AppendDoubleMatchesPrintfNextToPowersOfTen) {
  for (int k = -20; k <= 40; ++k) {
    const std::optional<double> power =
        parse_double("1e" + std::to_string(k));
    ASSERT_TRUE(power.has_value());
    for (const double toward : {0.0, std::numeric_limits<double>::infinity()}) {
      double value = *power;
      for (int ulp = 0; ulp <= 2; ++ulp) {
        expect_exact_round_trip(value);
        expect_exact_round_trip(-value);
        value = std::nextafter(value, toward);
      }
    }
  }
  // The unrounded digits pick the exponent: the double nearest 1e-6 lies
  // just below it, so its text keeps the exponent -7.
  EXPECT_EQ(codec_text(1e-6), "9.9999999999999995e-07");
}

TEST(TextCodec, AppendDoubleRoundsExactTiesToEven) {
  // Odd integers below 2^53 over 4 and 8 end in ...25/...75 and
  // ...125/...875; where that is the 18th significant digit the 17-digit
  // text sits exactly half-way and printf rounds to even.
  constexpr std::uint64_t kMax = (std::uint64_t{1} << 53) - 1;
  Rng rng(16);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t odd = rng.uniform_u64(1'000'000'000'000'000, kMax) | 1;
    for (const double divisor : {2.0, 4.0, 8.0, 16.0}) {
      expect_exact_round_trip(static_cast<double>(odd) / divisor);
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(codec_text(625000000000000.125), "625000000000000.12");
  EXPECT_EQ(codec_text(625000000000000.375), "625000000000000.38");
}

TEST(TextCodec, AppendDoubleMatchesPrintfOnIntegersNear2To53And1e17) {
  const double two_53 = 9007199254740992.0;
  for (int d = -2000; d <= 2000; ++d) {
    expect_exact_round_trip(two_53 + d);
    expect_exact_round_trip(1e17 + 16.0 * d);  // 16 is the spacing there
    expect_exact_round_trip(-(1e16 + d));
  }
  EXPECT_EQ(codec_text(99999999999999999.0), "1e+17");  // rounds to 1e17
  EXPECT_EQ(codec_text(99999999999999984.0), "99999999999999984");
  EXPECT_EQ(codec_text(1e17 + 16.0), "1.0000000000000002e+17");
  EXPECT_EQ(codec_text(-123456.0), "-123456");
}

TEST(TextCodec, AppendDoubleMatchesPrintfOnEveryGeneratedNumber) {
  const Machine machines[] = {machine_from_name("paper"),
                              machine_from_name("pcie-gpu"),
                              machine_from_name("duplex-pcie")};
  std::size_t checked = 0;
  const auto check = [&checked](const Instance& inst) {
    const InstanceStats stats = inst.stats();
    for (const double value : {stats.sum_comm, stats.sum_comp, stats.max_mem}) {
      expect_exact_round_trip(value);
    }
    for (const Task& t : inst) {
      for (const double value : {t.comm, t.comp, t.mem, t.comm_bytes}) {
        if (std::isfinite(value)) expect_exact_round_trip(value);
      }
      checked += 4;
    }
  };
  for (const Machine& machine : machines) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      TraceConfig config;
      config.seed = seed;
      config.machine = machine;
      check(generate_trace(ChemistryKernel::kHartreeFock, config));
      check(generate_trace(ChemistryKernel::kCoupledClusterSD, config));
      check(generate_ccsd_dag_trace(config));
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Byte-annotated traces re-costed on every registered machine.
  TraceConfig config;
  config.seed = 4;
  const Instance bytes_only = strip_comm_times(generate_ccsd_trace(config));
  for (const MachineListing& listing : list_machines()) {
    check(bind(bytes_only, machine_from_name(listing.name)));
  }
  EXPECT_GT(checked, 50000u);
}

TEST(TextCodec, CursorWritersStayWithinTheirRoom) {
  std::vector<double> values = {0.0, -0.0, DBL_MAX, -DBL_MIN, 5e-324,
                                1.0 / 3.0, -123456789.125, 1e-5, 0.5};
  Rng rng(34);
  for (int i = 0; i < 20000; ++i) {
    const double magnitude = std::pow(10.0, rng.uniform(-12.0, 20.0));
    values.push_back(i % 2 == 0 ? magnitude : -magnitude);
  }
  // Distinct neighbouring bytes, so that a block shifted past the room
  // shows even where it copies the buffer's own contents.
  const auto pattern = [](std::size_t i) {
    return static_cast<char>('A' + i % 26);
  };
  for (const double value : values) {
    char buffer[kNumberTextRoom + 24];
    for (std::size_t i = 0; i < std::size(buffer); ++i) buffer[i] = pattern(i);
    const char* const end = write_double(buffer, value);
    EXPECT_EQ(std::string(buffer, static_cast<std::size_t>(end - buffer)),
              printf_17g(value));
    for (std::size_t i = kNumberTextRoom; i < std::size(buffer); ++i) {
      EXPECT_EQ(buffer[i], pattern(i)) << printf_17g(value) << " at " << i;
    }
    if (::testing::Test::HasFailure()) return;
  }
  char buffer[kNumberTextRoom];
  const char* const end =
      write_uint(buffer, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(std::string(buffer, static_cast<std::size_t>(end - buffer)),
            "18446744073709551615");
}

TEST(TextCodec, AppendAppendsWithoutClobbering) {
  std::string out = "x=";
  append_double(out, 0.5);
  out += ' ';
  append_uint(out, 0);
  out += ' ';
  append_uint(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "x=0.5 0 18446744073709551615");
}

TEST(TextCodec, ParsersAcceptOnlyWholeTokens) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-2e3"), -2000.0);
  EXPECT_TRUE(parse_double("inf").has_value());
  for (const char* bad : {"", "+1", " 1", "1 ", "1.5x", "0x10", "1e400",
                          "--1", "."}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad :
       {"", "-1", "+1", "18446744073709551616", "1.0", "1e2", "0x1", "7 "}) {
    EXPECT_FALSE(parse_uint(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(TextCodec, SplitFieldsMatchesStreamExtraction) {
  const std::string alphabet = "ab1. \t\v\f\r";
  Rng rng(77);
  std::vector<std::string_view> fields;
  for (int round = 0; round < 2000; ++round) {
    std::string line;
    const std::size_t length = rng.index(24);
    for (std::size_t i = 0; i < length; ++i) {
      line += alphabet[rng.index(alphabet.size())];
    }
    std::istringstream stream(line);
    std::vector<std::string> expected;
    for (std::string token; stream >> token;) expected.push_back(token);

    split_fields(line, fields);
    ASSERT_EQ(fields.size(), expected.size()) << "'" << line << "'";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      EXPECT_EQ(fields[i], expected[i]);
    }
  }
}

TEST(TextCodec, SplitOnKeepsEmptyPieces) {
  std::vector<std::string_view> tokens;
  split_on("a  b", ' ', tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"a", "", "b"}));
  split_on("", ' ', tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{""}));
  split_on(" x ", ' ', tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"", "x", ""}));
}

/// The stream-based writer write_trace replaced, verbatim: the reference
/// the codec-based writer must reproduce byte for byte.
void legacy_write_trace(std::ostream& out, const Instance& inst) {
  const InstanceStats stats = inst.stats();
  const bool multi = !inst.single_channel();
  bool bytes = false;
  for (const Task& t : inst) {
    bytes = bytes || t.has_comm_bytes() || !t.time_bound();
  }
  const bool deps = inst.has_dependencies();
  out << (deps    ? "# dts-trace v4"
          : bytes ? "# dts-trace v3"
          : multi ? "# dts-trace v2"
                  : "# dts-trace v1")
      << '\n';
  out << "# tasks=" << stats.n_tasks << " sum_comm=" << stats.sum_comm
      << " sum_comp=" << stats.sum_comp << " max_mem=" << stats.max_mem;
  if (multi) out << " channels=" << inst.num_channels();
  out << '\n';
  out.precision(17);
  for (const Task& t : inst) {
    out << "task " << (t.name.empty() ? "T" + std::to_string(t.id) : t.name)
        << ' ';
    if (t.time_bound()) {
      out << t.comm;
    } else {
      out << '?';
    }
    out << ' ' << t.comp << ' ' << t.mem;
    if (multi) out << ' ' << t.channel;
    if (t.has_comm_bytes()) out << ' ' << "bytes=" << t.comm_bytes;
    if (!t.deps.empty()) {
      out << ' ' << "deps=";
      for (std::size_t i = 0; i < t.deps.size(); ++i) {
        if (i > 0) out << ',';
        out << t.deps[i];
      }
    }
    out << '\n';
  }
}

std::string written(const Instance& inst) {
  std::ostringstream out;
  write_trace(out, inst);
  return out.str();
}

std::string legacy_written(const Instance& inst) {
  std::ostringstream out;
  legacy_write_trace(out, inst);
  return out.str();
}

/// Spreads a byte-annotated trace over the 12 engines of
/// summit-multi-gpu and costs it there (two-digit channel columns).
Instance summit_multi_gpu_trace() {
  TraceConfig config;
  config.seed = 3;
  std::vector<Task> tasks(
      strip_comm_times(generate_ccsd_trace(config)).tasks());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].channel = static_cast<ChannelId>(i % 12);
  }
  return bind(Instance(std::move(tasks)),
              machine_from_name("summit-multi-gpu"));
}

/// Random finite non-negative values from raw bit patterns: subnormals,
/// huge exponents, integers and everything in between.
Instance bit_pattern_trace() {
  Rng rng(5);
  const auto value = [&rng] {
    for (;;) {
      const double v = std::abs(std::bit_cast<double>(rng.next_u64()));
      if (std::isfinite(v)) return v;
    }
  };
  std::vector<Task> tasks;
  for (int i = 0; i < 500; ++i) {
    Task t;
    t.comm = value();
    t.comp = value();
    t.mem = value();
    t.channel = static_cast<ChannelId>(i % 3);
    if (i % 2 == 0) t.comm_bytes = value();
    if (i % 5 != 0) t.name = "task_" + std::to_string(i);
    tasks.push_back(t);
  }
  return Instance(std::move(tasks));
}

/// Tasks that guard the writer's reuse of the mem text for bytes=: +0.0
/// and -0.0 compare equal but print differently, one ulp apart prints
/// differently too, and an exact zero comm takes the zero path.
Instance text_reuse_trace() {
  std::vector<Task> tasks(3);
  tasks[0].comm = 1.5;
  tasks[0].comp = 2.0;
  tasks[0].mem = 0.0;
  tasks[0].comm_bytes = -0.0;
  tasks[1].comm = 0.25;
  tasks[1].comp = 1.0;
  tasks[1].mem = 1048576.1;
  tasks[1].comm_bytes = std::nextafter(tasks[1].mem, 2e6);
  tasks[2].comm = 0.0;
  tasks[2].comp = 3.0;
  tasks[2].mem = 4096.0;
  tasks[2].comm_bytes = 4096.0;
  return Instance(std::move(tasks));
}

TEST(TraceText, WriterIsByteIdenticalToTheLegacyStreamWriter) {
  TraceConfig config;
  config.seed = 9;
  TraceConfig duplex = config;
  duplex.machine = machine_from_name("duplex-pcie");
  duplex.writeback_fraction = 1.0;

  std::vector<Task> mixed(generate_hf_trace(config).tasks());
  mixed[1].comm = kUnboundTime;  // a time-less '?' task among timed ones
  mixed[1].comm_bytes = 4096.0;
  TraceConfig large = config;  // several of the writer's 64 KiB writes
  large.min_tasks = 3000;
  large.max_tasks = 3000;

  const std::vector<std::pair<const char*, Instance>> cases = {
      {"HF", generate_hf_trace(config)},
      {"CCSD", generate_ccsd_trace(config)},
      {"duplex write-back", generate_trace(ChemistryKernel::kHartreeFock,
                                           duplex)},
      {"CCSD-DAG", generate_ccsd_dag_trace(duplex)},
      {"summit-multi-gpu", summit_multi_gpu_trace()},
      {"bytes-only v3", strip_comm_times(generate_ccsd_trace(duplex))},
      {"time-less task", Instance(std::move(mixed))},
      {"bit patterns", bit_pattern_trace()},
      {"large CCSD", generate_ccsd_trace(large)},
      {"text reuse guards", text_reuse_trace()},
      {"empty", Instance{}},
  };
  for (const auto& [name, inst] : cases) {
    const std::string text = written(inst);
    EXPECT_EQ(text, legacy_written(inst)) << name;
    // And the reader takes every byte of it back exactly.
    EXPECT_EQ(written(read_trace(text)), text) << name;
  }
}

TEST(TraceText, ReaderSplitsFieldsOnAnyWhitespaceRun) {
  TraceConfig config;
  config.seed = 4;
  config.min_tasks = 30;
  config.max_tasks = 30;
  config.machine = machine_from_name("duplex-pcie");
  const Instance inst = generate_ccsd_dag_trace(config);
  const std::string text = written(inst);

  // Re-separate every field with a random run of the whitespace the old
  // stream parser skipped: tabs, vertical tabs, form feeds, doubled
  // spaces, and a '\r' that is not at the end of its line.
  const std::string separators[] = {"\t", "\v", "\f", "  ", " \t ", "\r "};
  Rng rng(8);
  const std::size_t body = text.find('\n') + 1;  // the magic line stays
  std::string messy = text.substr(0, body);
  for (const char c : text.substr(body)) {
    messy += c == ' ' ? separators[rng.index(std::size(separators))]
                      : std::string(1, c);
  }
  ASSERT_NE(messy, text);

  const Instance back = read_trace(messy);
  ASSERT_EQ(back.size(), inst.size());
  EXPECT_EQ(written(back), text);

  // Leading whitespace before `task` and trailing blanks are fine too.
  const Instance padded = read_trace(
      "# dts-trace v1\n \ttask a 1 2 3\t\n\vtask b 4 5 6  \n");
  ASSERT_EQ(padded.size(), 2u);
  EXPECT_EQ(padded[1].name, "b");
  EXPECT_EQ(padded[1].mem, 6.0);
}

TEST(TraceText, StreamAndTextEntryPointsAgree) {
  TraceConfig config;
  config.seed = 12;
  const std::string text = written(generate_hf_trace(config));
  std::istringstream stream(text);
  EXPECT_EQ(written(read_trace(stream)), written(read_trace(text)));

  // Diagnostics (message and line) are the same through both.
  const std::string bad = "# dts-trace v1\n# c\ntask a 1 2 3\ntask b 1 x 3\n";
  std::istringstream bad_stream(bad);
  std::string from_stream;
  std::string from_text;
  try {
    (void)read_trace(bad_stream);
  } catch (const TraceIoError& e) {
    from_stream = e.what();
    EXPECT_EQ(e.line(), 4u);
  }
  try {
    (void)read_trace(bad);
  } catch (const TraceIoError& e) {
    from_text = e.what();
  }
  EXPECT_EQ(from_stream, "trace line 4: malformed comp 'x'");
  EXPECT_EQ(from_text, from_stream);
}

}  // namespace
}  // namespace dts
