#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/registry.hpp"

namespace dts::cli {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

/// Runs one command; `stdin_text` feeds trace arguments given as '-'.
CliRun run(const std::vector<std::string>& args,
           const std::string& stdin_text = {}) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const auto& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  std::istringstream in(stdin_text);
  const int code =
      run_cli(static_cast<int>(argv.size()), argv.data(), out, err, in);
  return CliRun{code, out.str(), err.str()};
}

/// Unique temp file path per test, cleaned up on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("dts_cli_test_" + name)) {
    std::filesystem::remove(path_);
  }
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(CommandLineParse, SplitsCommandFlagsAndPositional) {
  const char* argv[] = {"schedule", "file.trace", "--heuristic=LCMR",
                        "--gantt"};
  const CommandLine cmd = parse_command_line(4, argv);
  EXPECT_EQ(cmd.command, "schedule");
  ASSERT_EQ(cmd.positional.size(), 1u);
  EXPECT_EQ(cmd.positional[0], "file.trace");
  EXPECT_EQ(cmd.flag("heuristic").value_or(""), "LCMR");
  EXPECT_EQ(cmd.flag("gantt").value_or(""), "true");
  EXPECT_FALSE(cmd.flag("absent").has_value());
  EXPECT_DOUBLE_EQ(cmd.flag_or("absent", 7.5), 7.5);
}

TEST(CommandLineParse, RejectsMalformedFlags) {
  const char* empty[] = {"--"};
  EXPECT_THROW((void)parse_command_line(1, empty), std::invalid_argument);
  const char* noname[] = {"--=3"};
  EXPECT_THROW((void)parse_command_line(1, noname), std::invalid_argument);
}

TEST(Cli, NoCommandShowsUsage) {
  const CliRun r = run({});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, HelpExitsZero) {
  const CliRun r = run({"help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("generate"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliRun r = run({"frobnicate"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateInfoScheduleRoundTrip) {
  TempFile file("roundtrip.trace");
  const CliRun gen = run({"generate", "--kernel=HF", "--seed=5",
                          "--min-tasks=40", "--max-tasks=60",
                          "--out=" + file.str()});
  ASSERT_EQ(gen.exit_code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote"), std::string::npos);

  const CliRun info = run({"info", file.str()});
  ASSERT_EQ(info.exit_code, 0) << info.err;
  EXPECT_NE(info.out.find("OMIM lower bound"), std::string::npos);
  EXPECT_NE(info.out.find("176KB"), std::string::npos);

  const CliRun sched = run({"schedule", file.str(), "--heuristic=OOLCMR",
                            "--capacity-factor=1.5", "--gantt"});
  ASSERT_EQ(sched.exit_code, 0) << sched.err;
  EXPECT_NE(sched.out.find("ratio to OMIM"), std::string::npos);
  EXPECT_NE(sched.out.find("comm |"), std::string::npos);
}

TEST(Cli, GenerateResolvesMachinesInTheRegistry) {
  // "cascade" is a registry alias of "paper": the same bytes.
  const auto generated = [](const std::string& machine) {
    TempFile file("gen_" + machine + ".trace");
    EXPECT_EQ(run({"generate", "--kernel=CCSD", "--seed=4", "--min-tasks=30",
                   "--max-tasks=40", "--machine=" + machine,
                   "--out=" + file.str()})
                  .exit_code,
              0);
    std::ifstream in(file.str(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string paper = generated("paper");
  EXPECT_FALSE(paper.empty());
  EXPECT_EQ(paper, generated("cascade"));

  // A registered machine without compute rates cannot generate; the error
  // names it and lists the presets that can.
  TempFile out("gen_nvlink.trace");
  for (const char* machine : {"nvlink", "summit-node"}) {
    const CliRun r = run({"generate", "--kernel=HF",
                          std::string("--machine=") + machine,
                          "--out=" + out.str()});
    EXPECT_EQ(r.exit_code, 1) << machine;
    EXPECT_NE(r.err.find(std::string("machine '") + machine + "'"),
              std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("no compute rates"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("paper, cascade, pcie-gpu, duplex-pcie"),
              std::string::npos)
        << r.err;
    EXPECT_FALSE(std::filesystem::exists(out.str())) << machine;
  }
}

TEST(Cli, GenerateCcsdDagWritesV4AndSolves) {
  TempFile file("dag.trace");
  const CliRun gen = run({"generate", "--kernel=CCSD-DAG", "--seed=3",
                          "--min-tasks=12", "--max-tasks=16",
                          "--out=" + file.str()});
  ASSERT_EQ(gen.exit_code, 0) << gen.err;
  EXPECT_NE(gen.out.find("CCSD-DAG"), std::string::npos);

  std::ifstream in(file.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "# dts-trace v4");

  const CliRun solve =
      run({"solve", file.str(), "--capacity-factor=1.5"});
  ASSERT_EQ(solve.exit_code, 0) << solve.err;
  EXPECT_NE(solve.out.find("winner:"), std::string::npos);

  const CliRun milp = run({"solve", file.str(), "--solver=milp",
                           "--capacity-factor=1.5"});
  EXPECT_NE(milp.exit_code, 0);
  EXPECT_NE(milp.err.find("independent task sets only"), std::string::npos);
}

TEST(Cli, CompareListsEveryHeuristic) {
  TempFile file("compare.trace");
  ASSERT_EQ(run({"generate", "--kernel=CCSD", "--seed=2", "--min-tasks=30",
                 "--max-tasks=40", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r = run({"compare", file.str(), "--capacity-factor=1.25"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  for (const auto& h : all_heuristics()) {
    EXPECT_NE(r.out.find(std::string(h.name)), std::string::npos) << h.name;
  }
  EXPECT_NE(r.out.find("best:"), std::string::npos);
}

TEST(Cli, RecommendNamesARegime) {
  TempFile file("recommend.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=3", "--min-tasks=30",
                 "--max-tasks=40", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r = run({"recommend", file.str(), "--capacity-factor=1.05"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("capacity regime:"), std::string::npos);
  EXPECT_NE(r.out.find("recommended heuristic:"), std::string::npos);
}

TEST(Cli, ImproveReportsGain) {
  TempFile file("improve.trace");
  ASSERT_EQ(run({"generate", "--kernel=CCSD", "--seed=4", "--min-tasks=25",
                 "--max-tasks=30", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r = run({"improve", file.str(), "--capacity-factor=1.25",
                        "--iterations=400"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("improved makespan"), std::string::npos);
}

TEST(Cli, MissingFileIsAUserError) {
  const CliRun r = run({"info", "/nonexistent/path.trace"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, UnknownHeuristicIsAUserError) {
  TempFile file("badheur.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=1", "--min-tasks=20",
                 "--max-tasks=25", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r =
      run({"schedule", file.str(), "--heuristic=NOPE", "--capacity-factor=2"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown heuristic"), std::string::npos);
}

TEST(Cli, ConflictingCapacityFlagsRejected) {
  TempFile file("conflict.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=1", "--min-tasks=20",
                 "--max-tasks=25", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r = run({"compare", file.str(), "--capacity=1000000",
                        "--capacity-factor=1.5"});
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Cli, GenerateValidatesTaskRange) {
  TempFile file("range.trace");
  const CliRun r = run({"generate", "--kernel=HF", "--min-tasks=50",
                        "--max-tasks=10", "--out=" + file.str()});
  EXPECT_EQ(r.exit_code, 1);
}

TEST(CommandLineParse, MalformedNumericFlagValuesRejected) {
  const char* argv[] = {"x", "--capacity-factor=abc", "--iterations=12x",
                        "--seed=-3"};
  const CommandLine cmd = parse_command_line(4, argv);
  EXPECT_THROW((void)cmd.flag_or("capacity-factor", 1.5),
               std::invalid_argument);
  EXPECT_THROW((void)cmd.count_or("iterations", 100), std::invalid_argument);
  EXPECT_THROW((void)cmd.count_or("seed", 1), std::invalid_argument);
  EXPECT_EQ(cmd.count_or("absent", 7u), 7u);
}

TEST(Cli, MalformedCapacityFactorIsAClearUserError) {
  TempFile file("badfactor.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=1", "--min-tasks=20",
                 "--max-tasks=25", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r = run({"compare", file.str(), "--capacity-factor=abc"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("invalid value for --capacity-factor"),
            std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("'abc'"), std::string::npos) << r.err;

  const CliRun neg = run({"compare", file.str(), "--capacity-factor=-2"});
  EXPECT_EQ(neg.exit_code, 1);
  EXPECT_NE(neg.err.find("must be positive"), std::string::npos) << neg.err;

  // NaN parses as a double but is not a usable capacity.
  const CliRun nan_cap = run({"compare", file.str(), "--capacity=nan"});
  EXPECT_EQ(nan_cap.exit_code, 1);
  EXPECT_NE(nan_cap.err.find("must be positive"), std::string::npos)
      << nan_cap.err;
}

TEST(Cli, CompareRejectsBatchWindow) {
  TempFile file("comparebatch.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=1", "--min-tasks=20",
                 "--max-tasks=25", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r =
      run({"compare", file.str(), "--capacity-factor=1.5", "--batch=4"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("auto-batch"), std::string::npos) << r.err;
}

TEST(Cli, SolveRunsAnyRegisteredSolver) {
  TempFile file("solve.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=6", "--min-tasks=30",
                 "--max-tasks=40", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r =
      run({"solve", file.str(), "--capacity-factor=1.25"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("winner:"), std::string::npos);
  EXPECT_NE(r.out.find("ratio to OMIM"), std::string::npos);
  EXPECT_NE(r.out.find("wall time:"), std::string::npos);

  const CliRun named = run({"solve", file.str(), "--solver=OOLCMR",
                            "--capacity-factor=1.25"});
  ASSERT_EQ(named.exit_code, 0) << named.err;
  EXPECT_NE(named.out.find("winner: OOLCMR"), std::string::npos);

  const CliRun batched = run({"solve", file.str(), "--solver=auto-batch:8",
                              "--capacity-factor=1.25"});
  ASSERT_EQ(batched.exit_code, 0) << batched.err;
  EXPECT_NE(batched.out.find("batch wins"), std::string::npos);
}

TEST(Cli, SolveUnknownSolverListsAvailable) {
  TempFile file("badsolver.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=1", "--min-tasks=20",
                 "--max-tasks=25", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r = run({"solve", file.str(), "--solver=nope",
                        "--capacity-factor=1.5"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown solver"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("available:"), std::string::npos) << r.err;
}

TEST(Cli, ListSolversBothSpellings) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"solvers"},
        std::vector<std::string>{"--list-solvers"}}) {
    const CliRun r = run(args);
    ASSERT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("auto-batch"), std::string::npos);
    EXPECT_NE(r.out.find("branch-bound"), std::string::npos);
    EXPECT_NE(r.out.find("OOLCMR"), std::string::npos);
    EXPECT_NE(r.out.find("duplex-balance"), std::string::npos);
    // Per-solver dependency capability column; milp is the one builtin
    // that schedules independent task sets only.
    EXPECT_NE(r.out.find("deps"), std::string::npos);
    EXPECT_NE(r.out.find("any"), std::string::npos);
    EXPECT_NE(r.out.find("independent"), std::string::npos);
  }
}

TEST(Cli, EmptyTraceIsAClearUserError) {
  // A header-only trace has zero tasks; "solving" it used to print a
  // degenerate all-zero analysis. Every scheduling command must point at
  // the real problem and exit nonzero instead.
  TempFile file("empty.trace");
  {
    std::ofstream out(file.str());
    out << "# dts-trace v1\n";
  }
  for (const char* command : {"solve", "schedule", "compare", "recommend",
                              "improve", "solve-batch"}) {
    const CliRun r = run({command, file.str(), "--capacity-factor=1.5"});
    EXPECT_EQ(r.exit_code, 1) << command;
    EXPECT_NE(r.err.find("contains no tasks"), std::string::npos)
        << command << ": " << r.err;
  }
  // info still works on an empty trace (inspecting one is legitimate).
  EXPECT_EQ(run({"info", file.str()}).exit_code, 0);
}

TEST(Cli, SolveBatchEmitsCsvAndThroughput) {
  TempFile a("batch_a.trace");
  TempFile b("batch_b.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=21", "--min-tasks=30",
                 "--max-tasks=40", "--out=" + a.str()})
                .exit_code,
            0);
  ASSERT_EQ(run({"generate", "--kernel=CCSD", "--seed=22", "--min-tasks=30",
                 "--max-tasks=40", "--out=" + b.str()})
                .exit_code,
            0);
  const CliRun r = run({"solve-batch", a.str(), b.str(), a.str(),
                        "--capacity-factor=1.25", "--workers=2"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find(
                "trace,solver,status,winner,makespan,ratio_to_omim,"
                "wall_seconds"),
            std::string::npos);
  EXPECT_NE(r.out.find(a.str() + ",auto,done,"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find(b.str() + ",auto,done,"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("jobs/sec"), std::string::npos);
  EXPECT_NE(r.out.find("3 jobs on 2 workers"), std::string::npos);

  // --csv=FILE moves the table into the file; the summary stays on stdout.
  TempFile csv("batch_out.csv");
  const CliRun to_file =
      run({"solve-batch", a.str(), b.str(), "--capacity-factor=1.25",
           "--workers=2", "--csv=" + csv.str(), "--policy=priority"});
  ASSERT_EQ(to_file.exit_code, 0) << to_file.err;
  EXPECT_EQ(to_file.out.find("trace,solver"), std::string::npos);
  std::ifstream in(csv.str());
  std::stringstream csv_text;
  csv_text << in.rdbuf();
  EXPECT_NE(csv_text.str().find("trace,solver,status"), std::string::npos);

  const CliRun bad_policy =
      run({"solve-batch", a.str(), "--capacity-factor=1.25",
           "--policy=fastest"});
  EXPECT_EQ(bad_policy.exit_code, 1);
  EXPECT_NE(bad_policy.err.find("unknown --policy"), std::string::npos);

  const CliRun no_files = run({"solve-batch", "--capacity-factor=1.25"});
  EXPECT_EQ(no_files.exit_code, 1);
  EXPECT_NE(no_files.err.find("at least one trace file"), std::string::npos);

  // Jobs that expire before producing any schedule are not success: a
  // zero deadline is already expired at submission, so every job lands
  // in kCancelled without a result and the command exits nonzero.
  const CliRun expired =
      run({"solve-batch", a.str(), b.str(), "--capacity-factor=1.25",
           "--workers=1", "--time-limit=0"});
  EXPECT_EQ(expired.exit_code, 1) << expired.out;
  EXPECT_NE(expired.out.find("expired without a result"), std::string::npos)
      << expired.out;
}

TEST(Cli, MachinesListsEveryPresetBothSpellings) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"machines"},
        std::vector<std::string>{"--list-machines"}}) {
    const CliRun r = run(args);
    ASSERT_EQ(r.exit_code, 0) << r.err;
    for (const char* machine :
         {"paper", "cascade", "pcie-gpu", "duplex-pcie", "summit-node",
          "nvlink"}) {
      EXPECT_NE(r.out.find(machine), std::string::npos) << machine;
    }
    EXPECT_NE(r.out.find("H2D+D2H"), std::string::npos);
  }
}

TEST(Cli, RecostPipesIntoSolve) {
  // The acceptance pipeline: dts recost T --machine=nvlink | dts solve -.
  TempFile file("recost.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=9", "--min-tasks=30",
                 "--max-tasks=40", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun recost = run({"recost", file.str(), "--machine=nvlink"});
  ASSERT_EQ(recost.exit_code, 0) << recost.err;
  EXPECT_NE(recost.out.find("# dts-trace v3"), std::string::npos);
  EXPECT_NE(recost.out.find("bytes="), std::string::npos);

  const CliRun solved =
      run({"solve", "-", "--capacity-factor=1.25"}, recost.out);
  ASSERT_EQ(solved.exit_code, 0) << solved.err;
  EXPECT_NE(solved.out.find("winner:"), std::string::npos);

  // Re-costing for a faster machine must shrink the trace's total comm:
  // solve the original and the nvlink-bound trace and compare makespans.
  const CliRun base = run({"solve", file.str(), "--solver=OS",
                           "--capacity-factor=1.25"});
  const CliRun fast = run({"solve", file.str(), "--solver=OS",
                           "--capacity-factor=1.25", "--machine=nvlink"});
  ASSERT_EQ(base.exit_code, 0) << base.err;
  ASSERT_EQ(fast.exit_code, 0) << fast.err;
  EXPECT_NE(fast.out.find("on machine nvlink"), std::string::npos);
  EXPECT_NE(base.out, fast.out);

  // --out writes the trace to a file instead of stdout.
  TempFile out_file("recost_out.trace");
  const CliRun to_file = run({"recost", file.str(), "--machine=paper",
                              "--out=" + out_file.str()});
  ASSERT_EQ(to_file.exit_code, 0) << to_file.err;
  EXPECT_EQ(to_file.out.find("# dts-trace"), std::string::npos);
  std::ifstream in(out_file.str());
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("# dts-trace v3"), std::string::npos);

  // Unknown machines list the registry, and --machine is required.
  const CliRun unknown = run({"recost", file.str(), "--machine=nope"});
  EXPECT_EQ(unknown.exit_code, 1);
  EXPECT_NE(unknown.err.find("unknown machine"), std::string::npos);
  EXPECT_NE(unknown.err.find("paper"), std::string::npos);
  EXPECT_EQ(run({"recost", file.str()}).exit_code, 1);
}

TEST(Cli, RecostRejectsTracesWithoutByteAnnotations) {
  TempFile file("recost_v1.trace");
  {
    std::ofstream out(file.str());
    out << "# dts-trace v1\ntask a 1 2 3\n";
  }
  const CliRun r = run({"recost", file.str(), "--machine=paper"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("byte-annotated"), std::string::npos) << r.err;
}

TEST(Cli, TraceWritesToAFullDeviceFail) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  const CliRun generated =
      run({"generate", "--kernel=HF", "--min-tasks=4000", "--max-tasks=4000",
           "--out=/dev/full"});
  EXPECT_EQ(generated.exit_code, 1);
  EXPECT_EQ(generated.out.find("wrote"), std::string::npos) << generated.out;
  EXPECT_NE(generated.err.find("/dev/full"), std::string::npos)
      << generated.err;

  // recost writes to stdout when --out is absent; here stdout is full.
  TempFile file("full_recost.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--min-tasks=30",
                 "--max-tasks=40", "--out=" + file.str()})
                .exit_code,
            0);
  const std::string args[] = {"recost", file.str(), "--machine=nvlink"};
  const char* const argv[] = {args[0].c_str(), args[1].c_str(),
                              args[2].c_str()};
  std::ofstream full("/dev/full");
  ASSERT_TRUE(full.is_open());
  std::ostringstream err;
  std::istringstream in;
  EXPECT_EQ(run_cli(3, argv, full, err, in), 1);
  EXPECT_NE(err.str().find("error:"), std::string::npos) << err.str();
}

TEST(Cli, SolveMachineRecostsByteAnnotatedTraces) {
  // A bytes-only (time-less) trace solves only with --machine.
  TempFile file("timeless.trace");
  {
    std::ofstream out(file.str());
    out << "# dts-trace v3\n"
        << "task a ? 0.001 100000 bytes=100000\n"
        << "task b ? 0.002 50000 bytes=50000\n";
  }
  const CliRun without = run({"solve", file.str(), "--capacity-factor=2"});
  EXPECT_EQ(without.exit_code, 1);
  EXPECT_NE(without.err.find("time-less"), std::string::npos) << without.err;

  const CliRun with_machine = run({"solve", file.str(), "--capacity-factor=2",
                                   "--machine=paper"});
  ASSERT_EQ(with_machine.exit_code, 0) << with_machine.err;
  EXPECT_NE(with_machine.out.find("winner:"), std::string::npos);

  // recommend never reaches solve()'s guard, so it repeats it: a
  // time-less trace is rejected without --machine and costed with it.
  const CliRun rec_without = run({"recommend", file.str(),
                                  "--capacity-factor=2"});
  EXPECT_EQ(rec_without.exit_code, 1);
  EXPECT_NE(rec_without.err.find("time-less"), std::string::npos)
      << rec_without.err;
  const CliRun rec_with = run({"recommend", file.str(), "--capacity-factor=2",
                               "--machine=paper"});
  ASSERT_EQ(rec_with.exit_code, 0) << rec_with.err;
  EXPECT_NE(rec_with.out.find("recommended heuristic:"), std::string::npos);

  // --machine on a trace without byte annotations would keep the old
  // times while reporting the new machine's name — rejected, same as
  // recost.
  TempFile legacy("legacy_v1.trace");
  {
    std::ofstream out(legacy.str());
    out << "# dts-trace v1\ntask a 1 2 3\n";
  }
  const CliRun hybrid = run({"solve", legacy.str(), "--capacity-factor=2",
                             "--machine=nvlink"});
  EXPECT_EQ(hybrid.exit_code, 1);
  EXPECT_NE(hybrid.err.find("byte-annotated"), std::string::npos)
      << hybrid.err;
}

TEST(Cli, SolveBatchAcceptsMachine) {
  // The SolverPool service path re-costs traces too: same trace, two
  // machines, different makespans in the CSV.
  TempFile file("batch_machine.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=31", "--min-tasks=30",
                 "--max-tasks=40", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun slow = run({"solve-batch", file.str(), "--solver=OS",
                           "--capacity-factor=1.25", "--workers=1",
                           "--machine=paper"});
  ASSERT_EQ(slow.exit_code, 0) << slow.err;
  const CliRun fast = run({"solve-batch", file.str(), "--solver=OS",
                           "--capacity-factor=1.25", "--workers=1",
                           "--machine=nvlink"});
  ASSERT_EQ(fast.exit_code, 0) << fast.err;
  const auto makespan_cell = [](const std::string& csv) {
    // trace,solver,status,winner,makespan,... -> the 5th cell of row 2.
    std::istringstream lines(csv);
    std::string header, row;
    std::getline(lines, header);
    std::getline(lines, row);
    std::istringstream cells(row);
    std::string cell;
    for (int i = 0; i < 5; ++i) std::getline(cells, cell, ',');
    return cell;
  };
  EXPECT_NE(makespan_cell(slow.out), makespan_cell(fast.out))
      << slow.out << fast.out;

  const CliRun unknown = run({"solve-batch", file.str(),
                              "--capacity-factor=1.25", "--machine=nope"});
  EXPECT_EQ(unknown.exit_code, 1);
  EXPECT_NE(unknown.err.find("unknown machine"), std::string::npos);
}

TEST(Cli, CalibrateFitsSamples) {
  TempFile file("samples.txt");
  {
    std::ofstream out(file.str());
    out << "# bytes seconds (perfect affine: 2us + bytes / 1e9)\n";
    for (double bytes = 1000.0; bytes <= 1e8; bytes *= 10.0) {
      out << bytes << " " << (2.0e-6 + bytes / 1.0e9) << "\n";
    }
  }
  const CliRun r = run({"calibrate", file.str()});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("latency"), std::string::npos);
  EXPECT_NE(r.out.find("bandwidth"), std::string::npos);
  EXPECT_NE(r.out.find("1.00GB/s"), std::string::npos) << r.out;

  const CliRun split = run({"calibrate", file.str(), "--split=100000"});
  ASSERT_EQ(split.exit_code, 0) << split.err;
  EXPECT_NE(split.out.find("piecewise"), std::string::npos);

  // Malformed sample lines are a clear user error.
  TempFile bad("bad_samples.txt");
  {
    std::ofstream out(bad.str());
    out << "100 abc\n";
  }
  EXPECT_EQ(run({"calibrate", bad.str()}).exit_code, 1);
  EXPECT_EQ(run({"calibrate", "/nonexistent/samples"}).exit_code, 1);
}

TEST(Cli, InfoReportsByteAnnotationAndTimelessTraces) {
  TempFile file("info_v3.trace");
  ASSERT_EQ(run({"generate", "--kernel=HF", "--seed=12", "--min-tasks=20",
                 "--max-tasks=25", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun annotated = run({"info", file.str()});
  ASSERT_EQ(annotated.exit_code, 0) << annotated.err;
  EXPECT_NE(annotated.out.find("byte-annotated"), std::string::npos);

  TempFile timeless("info_timeless.trace");
  {
    std::ofstream out(timeless.str());
    out << "# dts-trace v3\ntask a ? 1 2 bytes=100\n";
  }
  const CliRun r = run({"info", timeless.str()});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("time-less"), std::string::npos);
  EXPECT_NE(r.out.find("recost"), std::string::npos);
}

TEST(Cli, ScheduleAcceptsBatchWindow) {
  TempFile file("batchflag.trace");
  ASSERT_EQ(run({"generate", "--kernel=CCSD", "--seed=8", "--min-tasks=30",
                 "--max-tasks=40", "--out=" + file.str()})
                .exit_code,
            0);
  const CliRun r = run({"schedule", file.str(), "--heuristic=OOSIM",
                        "--capacity-factor=1.5", "--batch=8"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("ratio to OMIM"), std::string::npos);

  const CliRun bad = run({"schedule", file.str(), "--heuristic=OOSIM",
                          "--capacity-factor=1.5", "--batch=0"});
  EXPECT_EQ(bad.exit_code, 1);
}

}  // namespace
}  // namespace dts::cli
