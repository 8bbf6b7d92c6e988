#include "cli/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include <iostream>

#include "core/pool.hpp"
#include "core/recommend.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "model/calibrate.hpp"
#include "model/machine.hpp"
#include "report/csv.hpp"
#include "service/serve.hpp"
#include "service/service.hpp"
#include "report/gantt.hpp"
#include "report/schedule_stats.hpp"
#include "report/table.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"
#include "trace/workload_stats.hpp"

namespace dts::cli {

namespace {

constexpr std::string_view kUsage =
    "usage: dts <command> [args]     (trace FILE arguments accept '-' for\n"
    "                                stdin, so commands pipe into each other)\n"
    "commands:\n"
    "  generate  --kernel=HF|CCSD|CCSD-DAG [--seed=N] [--min-tasks=N] [--max-tasks=N]\n"
    "            [--machine=paper|cascade|pcie-gpu|duplex-pcie]\n"
    "            [--writeback-fraction=F]\n"
    "            --out=FILE          synthesize a byte-annotated (v3) process\n"
    "                                trace; a duplex machine emits\n"
    "                                bidirectional traces with D2H result\n"
    "                                write-back tasks\n"
    "  info      FILE [--channels]   bounds and workload characteristics\n"
    "                                (--channels adds the per-engine loads)\n"
    "  solve     FILE [--solver=NAME] (--capacity=B | --capacity-factor=F)\n"
    "            [--batch=N] [--iterations=N] [--seed=N] [--time-limit=S]\n"
    "            [--machine=NAME] [--gantt]  run any registered solver;\n"
    "                                --machine re-costs byte-annotated\n"
    "                                traces for a registered machine\n"
    "  solve-batch FILE... [--solver=NAME]\n"
    "            (--capacity=B | --capacity-factor=F) [--workers=N]\n"
    "            [--queue=N] [--policy=fifo|priority] [--time-limit=S]\n"
    "            [--batch=N] [--machine=NAME] [--csv=FILE]\n"
    "                                solve many traces concurrently on a\n"
    "                                SolverPool; emits a CSV of per-trace\n"
    "                                makespans, wall times and jobs/sec.\n"
    "                                --time-limit is a per-job deadline\n"
    "                                (queue wait included); the priority\n"
    "                                policy runs larger traces first\n"
    "  schedule  FILE --heuristic=NAME (--capacity=B | --capacity-factor=F)\n"
    "            [--batch=N] [--gantt]  run one heuristic, print the analysis\n"
    "  compare   FILE (--capacity=B | --capacity-factor=F)\n"
    "                                all 14 heuristics side by side\n"
    "  recommend FILE (--capacity=B | --capacity-factor=F)\n"
    "                                the Table-6 recommendation\n"
    "  improve   FILE (--capacity=B | --capacity-factor=F) [--iterations=N]\n"
    "                                local search on top of the best heuristic\n"
    "  recost    FILE --machine=NAME [--out=FILE]\n"
    "                                re-cost a byte-annotated trace for a\n"
    "                                registered machine; writes the machine-\n"
    "                                costed v3 trace to stdout (or --out)\n"
    "  calibrate FILE [--split=BYTES]  least-squares fit a transfer model\n"
    "                                from '<bytes> <seconds>' sample lines\n"
    "                                (--split fits the small/large-message\n"
    "                                regimes separately, as the paper does)\n"
    "  machines                      list every registered machine model\n"
    "                                (also available as dts --list-machines)\n"
    "  solvers                       list every registered solver\n"
    "                                (also available as dts --list-solvers)\n"
    "  serve     [--workers=N] [--queue=N] [--cache=N] [--max-inflight=N]\n"
    "            [--solver=NAME] [--socket=PATH] [--stats]\n"
    "                                run the long-lived solver service: speaks\n"
    "                                the dts1 request protocol on stdin/stdout\n"
    "                                (and, with --socket, on a local AF_UNIX\n"
    "                                socket) with a canonical-instance result\n"
    "                                cache, single-flight coalescing and\n"
    "                                admission control; drains on stdin EOF or\n"
    "                                a quit frame (--stats then prints the\n"
    "                                service counters)\n";

/// Full-string numeric parse with a flag-specific error message.
double parse_double_flag(std::string_view key, const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end != begin + text.size() || text.empty() || errno == ERANGE) {
    throw std::invalid_argument("invalid value for --" + std::string(key) +
                                ": '" + text + "' (expected a number)");
  }
  return value;
}

std::size_t parse_count_flag(std::string_view key, const std::string& text) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || text.empty()) {
    throw std::invalid_argument("invalid value for --" + std::string(key) +
                                ": '" + text +
                                "' (expected a non-negative integer)");
  }
  return value;
}

/// Resolves the capacity flags against the trace. Throws on bad input.
Mem resolve_capacity(const CommandLine& cmd, const Instance& inst) {
  const auto absolute = cmd.flag("capacity");
  const auto factor = cmd.flag("capacity-factor");
  if (absolute && factor) {
    throw std::invalid_argument("give either --capacity or --capacity-factor");
  }
  if (absolute) {
    const double bytes = parse_double_flag("capacity", *absolute);
    if (!(bytes > 0.0)) {  // negated form also rejects NaN
      throw std::invalid_argument("--capacity must be positive");
    }
    return bytes;
  }
  const double f =
      factor ? parse_double_flag("capacity-factor", *factor) : 1.5;
  if (!(f > 0.0)) {
    throw std::invalid_argument("--capacity-factor must be positive");
  }
  return inst.min_capacity() * f;
}

/// Loads one trace argument; '-' reads the injected stdin stream so
/// commands compose in pipes (dts recost ... | dts solve -).
Instance load_trace(const std::string& file, std::istream& in) {
  if (file == "-") return read_trace(in);
  return read_trace_file(file);
}

Instance load(const CommandLine& cmd, std::istream& in) {
  if (cmd.positional.empty()) {
    throw std::invalid_argument("missing trace file argument");
  }
  return load_trace(cmd.positional.front(), in);
}

/// Scheduling commands reject empty traces: "solving" zero tasks would
/// print a degenerate all-zero analysis instead of pointing at the broken
/// input.
void expect_tasks(const Instance& inst, const std::string& file) {
  if (inst.empty()) {
    throw std::invalid_argument("trace '" + file +
                                "' contains no tasks; nothing to solve");
  }
}

/// Builds the SolveRequest shared by every scheduling command from one
/// trace file (solve-batch calls this per positional file). --machine
/// resolves in the MachineRegistry and re-costs the trace's
/// byte-annotated tasks for that hardware up front — the CLI binds
/// eagerly (rather than through SolveRequest::machine) so the printed
/// schedule analysis sees the same machine-costed tasks the solver does.
SolveRequest make_request(const CommandLine& cmd, const std::string& file,
                          std::istream& in) {
  SolveRequest request;
  request.instance = load_trace(file, in);
  expect_tasks(request.instance, file);
  request.capacity = resolve_capacity(cmd, request.instance);
  if (cmd.flag("batch")) {
    const std::size_t batch = cmd.count_or("batch", 0);
    if (batch == 0) {
      throw std::invalid_argument("--batch must be a positive integer");
    }
    request.batch_size = batch;
  }
  if (const auto machine_name = cmd.flag("machine")) {
    // Same guard as recost: re-costing a trace whose tasks lack byte
    // annotations would keep their old times while reporting the new
    // machine's name — a silent hybrid costing. bind() itself permits
    // per-task fallthrough (the library contract); the CLI insists the
    // whole trace is re-costable.
    if (!request.instance.fully_byte_annotated()) {
      throw std::invalid_argument(
          "trace '" + file +
          "' is not fully byte-annotated (v3 bytes= column), so --machine "
          "cannot re-cost it; regenerate it as v3 or drop --machine");
    }
    const Machine machine = machine_from_name(*machine_name);
    request.instance = bind(request.instance, machine);
  }
  return request;
}

SolveRequest make_request(const CommandLine& cmd, std::istream& in) {
  if (cmd.positional.empty()) {
    throw std::invalid_argument("missing trace file argument");
  }
  return make_request(cmd, cmd.positional.front(), in);
}

SolveOptions make_options(const CommandLine& cmd) {
  SolveOptions options;
  options.max_iterations = cmd.count_or("iterations", options.max_iterations);
  options.seed = cmd.count_or("seed", 1);
  if (const auto limit = cmd.flag("time-limit")) {
    const double seconds = parse_double_flag("time-limit", *limit);
    if (!(seconds >= 0.0)) {  // negated form also rejects NaN
      throw std::invalid_argument("--time-limit must be non-negative");
    }
    options.time_limit_seconds = seconds;
  }
  return options;
}

int cmd_generate(const CommandLine& cmd, std::ostream& out) {
  const auto kernel_name = cmd.flag("kernel").value_or("HF");
  const auto out_file = cmd.flag("out");
  if (!out_file) throw std::invalid_argument("generate needs --out=FILE");
  ChemistryKernel kernel = ChemistryKernel::kCoupledClusterSD;
  bool dag = false;
  if (kernel_name == "HF") {
    kernel = ChemistryKernel::kHartreeFock;
  } else if (kernel_name == "CCSD") {
    kernel = ChemistryKernel::kCoupledClusterSD;
  } else if (kernel_name == "CCSD-DAG") {
    dag = true;
  } else {
    throw std::invalid_argument("unknown kernel '" + kernel_name +
                                "' (use HF, CCSD, or CCSD-DAG)");
  }
  TraceConfig config;
  config.seed = cmd.count_or("seed", 1);
  config.min_tasks = cmd.count_or("min-tasks", 300);
  config.max_tasks = cmd.count_or("max-tasks", 800);
  if (config.min_tasks == 0 || config.min_tasks > config.max_tasks) {
    throw std::invalid_argument("need 0 < min-tasks <= max-tasks");
  }
  if (const auto machine = cmd.flag("machine")) {
    config.machine = machine_from_name(*machine);
    if (!config.machine.has_compute_rates()) {
      // Generation costs computations too, so transfer-only presets
      // such as nvlink cannot drive it.
      std::string generating;
      for (const MachineListing& listing : list_machines()) {
        try {
          if (!machine_from_name(listing.name).has_compute_rates()) continue;
        } catch (const std::logic_error&) {
          continue;  // a registration that cannot build cannot generate
        }
        generating += (generating.empty() ? "" : ", ") + listing.name;
      }
      throw std::invalid_argument("machine '" + *machine +
                                  "' has no compute rates, so it cannot "
                                  "generate traces (presets that can: " +
                                  generating + ")");
    }
  }
  if (const auto fraction = cmd.flag("writeback-fraction")) {
    if (!config.machine.duplex()) {
      throw std::invalid_argument(
          "--writeback-fraction only applies to a duplex machine "
          "(--machine=duplex-pcie)");
    }
    config.writeback_fraction =
        parse_double_flag("writeback-fraction", *fraction);
    if (!(config.writeback_fraction > 0.0) ||
        config.writeback_fraction > 1.0) {
      throw std::invalid_argument("--writeback-fraction must be in (0, 1]");
    }
  }
  const Instance inst =
      dag ? generate_ccsd_dag_trace(config) : generate_trace(kernel, config);
  write_trace_file(*out_file, inst);
  out << "wrote " << inst.size() << " "
      << (dag ? std::string("CCSD-DAG") : std::string(to_string(kernel)))
      << " tasks to " << *out_file
      << " (mc = " << format_si_bytes(inst.min_capacity());
  if (!inst.single_channel()) {
    out << ", " << inst.num_channels() << " channels";
  }
  out << ")\n";
  return 0;
}

int cmd_info(const CommandLine& cmd, std::ostream& out,
             std::istream& in) {
  const Instance inst = load(cmd, in);
  const InstanceStats stats = inst.stats();
  if (!inst.fully_bound()) {
    // A bytes-only workload has no times to characterize yet; show what
    // is machine independent and point at recost.
    TextTable table({"quantity", "value"});
    table.add_row({"tasks", std::to_string(stats.n_tasks)});
    table.add_row({"channels", std::to_string(inst.num_channels())});
    table.add_row({"time-less (bytes-only)", "yes — bind with `dts recost "
                   "FILE --machine=NAME` to cost it"});
    table.add_row({"minimum capacity (mc)", format_si_bytes(stats.max_mem)});
    table.add_row({"total memory footprint",
                   format_si_bytes(stats.total_mem)});
    out << table.to_ascii();
    return 0;
  }
  const WorkloadCharacteristics wc = characterize(inst);
  TextTable table({"quantity", "value"});
  table.add_row({"tasks", std::to_string(stats.n_tasks)});
  table.add_row({"channels", std::to_string(inst.num_channels())});
  table.add_row({"byte-annotated (recostable)",
                 inst.fully_byte_annotated() ? "yes" : "no"});
  table.add_row({"sum comm", format_seconds(wc.bounds.sum_comm)});
  if (cmd.flag("channels") && !inst.single_channel()) {
    for (std::size_t ch = 0; ch < wc.bounds.sum_comm_per_channel.size();
         ++ch) {
      table.add_row({"  channel " + std::to_string(ch) + " comm",
                     format_seconds(wc.bounds.sum_comm_per_channel[ch])});
    }
  }
  table.add_row({"sum comp", format_seconds(wc.bounds.sum_comp)});
  table.add_row({"OMIM lower bound", format_seconds(wc.bounds.omim_lower)});
  table.add_row({"sequential upper bound",
                 format_seconds(wc.bounds.sequential_upper)});
  table.add_row({"overlap headroom",
                 format_fixed(100.0 * wc.overlap_potential(), 1) + "%"});
  table.add_row({"minimum capacity (mc)", format_si_bytes(stats.max_mem)});
  table.add_row({"total memory footprint", format_si_bytes(stats.total_mem)});
  table.add_row({"compute-intensive tasks",
                 format_fixed(100.0 * stats.compute_intensive_fraction(), 1) +
                     "%"});
  out << table.to_ascii();
  return 0;
}

void print_schedule_analysis(std::ostream& out, const Instance& inst,
                             const Schedule& sched,
                             const CapacityAwareBounds& lb, bool gantt) {
  const ScheduleBreakdown breakdown = analyze_schedule(inst, sched);
  TextTable table({"quantity", "value"});
  table.add_row({"makespan", format_seconds(breakdown.makespan)});
  table.add_row({"ratio to OMIM",
                 format_fixed(breakdown.makespan / lb.omim, 4)});
  table.add_row({"ratio to capacity-aware bound",
                 format_fixed(breakdown.makespan / lb.combined, 4)});
  table.add_row({"link utilization",
                 format_fixed(100.0 * breakdown.link_utilization(), 1) + "%"});
  table.add_row({"processor utilization",
                 format_fixed(100.0 * breakdown.proc_utilization(), 1) + "%"});
  table.add_row({"comm-comp overlap",
                 format_fixed(100.0 * breakdown.overlap, 1) + "%"});
  out << table.to_ascii();
  if (gantt) out << render_gantt(inst, sched, {.width = 72});
}

int cmd_solve(const CommandLine& cmd, std::ostream& out,
              std::istream& in) {
  const SolveRequest request = make_request(cmd, in);
  const SolveOptions options = make_options(cmd);
  const auto solver = cmd.flag("solver").value_or("auto");
  const SolveResult res = solve(request, solver, options);
  out << "solver " << solver << " at capacity "
      << format_si_bytes(request.capacity);
  if (const auto machine = cmd.flag("machine")) {
    out << " on machine " << *machine;
  }
  if (request.batch_size) out << " (batches of " << *request.batch_size << ")";
  out << ":\n";
  out << "winner: " << res.winner;
  if (!res.detail.empty()) out << "  (" << res.detail << ")";
  out << "\n";
  if (res.cancelled) {
    out << "stopped early (deadline or cancellation); best incumbent shown\n";
  }
  if (res.proved_optimal) {
    out << "proved optimal (lower bound " << format_seconds(res.lower_bound)
        << ")\n";
  } else if (res.lower_bound > 0.0) {
    out << "lower bound " << format_seconds(res.lower_bound) << " (gap "
        << format_fixed(100.0 * res.optimality_gap(), 2) << "%)\n";
  }
  if (!res.outcomes.empty()) {
    const bool batch_mode = res.outcomes.front().makespan == kInfiniteTime;
    TextTable table({"candidate", batch_mode ? "batch wins" : "makespan"});
    for (const CandidateOutcome& o : res.outcomes) {
      table.add_row({o.name, batch_mode ? std::to_string(o.batch_wins)
                                        : format_seconds(o.makespan)});
    }
    out << table.to_ascii();
  }
  print_schedule_analysis(out, request.instance, res.schedule, res.bounds,
                          cmd.flag("gantt").has_value());
  out << "wall time: " << format_fixed(1e3 * res.wall_seconds, 2) << " ms ("
      << res.evaluations << " evaluations)\n";
  return 0;
}

/// Fixed-precision number for CSV cells (full precision is noise here).
std::string csv_number(double value, int digits = 6) {
  return format_fixed(value, digits);
}

int cmd_solve_batch(const CommandLine& cmd, std::ostream& out,
                    std::istream& in) {
  if (cmd.positional.empty()) {
    throw std::invalid_argument("solve-batch needs at least one trace file");
  }
  const std::string solver{cmd.flag("solver").value_or("auto")};

  SolverPoolOptions pool_options;
  pool_options.workers = cmd.count_or("workers", 0);
  pool_options.queue_capacity =
      std::max<std::size_t>(1, cmd.count_or("queue", 1024));
  if (const auto policy = cmd.flag("policy")) {
    if (*policy == "fifo") {
      pool_options.policy = SolverPoolOptions::Policy::kFifo;
    } else if (*policy == "priority") {
      pool_options.policy = SolverPoolOptions::Policy::kPriority;
    } else {
      throw std::invalid_argument("unknown --policy '" + *policy +
                                  "' (use fifo or priority)");
    }
  }

  // stdin is one stream: a second '-' would read it after the first
  // drained it and fail with a baffling "empty trace".
  if (std::count(cmd.positional.begin(), cmd.positional.end(), "-") > 1) {
    throw std::invalid_argument(
        "solve-batch: '-' (stdin) may be given at most once");
  }

  std::vector<JobRequest> jobs;
  jobs.reserve(cmd.positional.size());
  for (const std::string& file : cmd.positional) {
    JobRequest job;
    job.tag = file;
    job.request = make_request(cmd, file, in);
    job.solver = solver;
    job.options = make_options(cmd);
    // --time-limit becomes the service-level deadline (it covers queue
    // wait, and the pool maps the remainder onto time_limit_seconds when
    // the job starts). Inner candidate fan-out runs on the pool's own
    // crew, so jobs never oversubscribe the workers.
    job.deadline_seconds = job.options.time_limit_seconds;
    job.options.time_limit_seconds.reset();
    // Under the priority policy, larger traces go first (longest-job-first
    // keeps the tail short when the mix is skewed).
    job.priority = static_cast<int>(job.request.instance.size());
    jobs.push_back(std::move(job));
  }

  SolverPool pool(pool_options);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<JobOutcome> outcomes = solve_all(pool, std::move(jobs));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  pool.shutdown(DrainMode::kDrain);

  std::ofstream csv_file;
  if (const auto csv_path = cmd.flag("csv")) {
    csv_file.open(*csv_path);
    if (!csv_file) {
      throw std::runtime_error("solve-batch: cannot open " + *csv_path);
    }
  }
  std::ostream& csv_out = csv_file.is_open() ? csv_file : out;
  CsvWriter csv(csv_out);
  csv.row({"trace", "solver", "status", "winner", "makespan",
           "ratio_to_omim", "wall_seconds"});
  std::size_t failed = 0;
  std::size_t unsolved = 0;  // cancelled/expired without any schedule
  std::size_t solved = 0;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const JobOutcome& outcome = outcomes[k];
    const bool has = outcome.has_result;
    if (outcome.status == JobStatus::kFailed) {
      ++failed;
    } else if (!has) {
      ++unsolved;
    } else {
      ++solved;
    }
    csv.row({cmd.positional[k], solver, std::string(to_string(outcome.status)),
             has ? outcome.result.winner : outcome.error,
             has ? csv_number(outcome.result.makespan) : "",
             has ? csv_number(outcome.result.ratio_to_optimal(), 4) : "",
             has ? csv_number(outcome.result.wall_seconds) : ""});
  }
  out << "# " << outcomes.size() << " jobs on " << pool.worker_count()
      << " workers: " << format_fixed(wall, 3) << " s wall, "
      << format_fixed(wall > 0.0 ? solved / wall : 0.0, 2)
      << " solved jobs/sec";
  if (unsolved > 0) out << ", " << unsolved << " expired without a result";
  if (failed > 0) out << ", " << failed << " failed";
  out << "\n";
  // Success means every job yielded a schedule (a deadline-stopped
  // best-so-far result counts; an expired-in-queue job does not).
  return failed == 0 && unsolved == 0 ? 0 : 1;
}

int cmd_schedule(const CommandLine& cmd, std::ostream& out,
                 std::istream& in) {
  const auto name = cmd.flag("heuristic").value_or("OOSIM");
  if (!heuristic_from_name(name)) {
    throw std::invalid_argument("unknown heuristic '" + name +
                                "' (see `dts compare` for the list)");
  }
  const SolveRequest request = make_request(cmd, in);
  const SolveResult res = solve(request, name);
  out << name << " at capacity " << format_si_bytes(request.capacity) << ":\n";
  print_schedule_analysis(out, request.instance, res.schedule, res.bounds,
                          cmd.flag("gantt").has_value());
  return 0;
}

int cmd_compare(const CommandLine& cmd, std::ostream& out,
                std::istream& in) {
  if (cmd.flag("batch")) {
    // Batched candidates report per-batch wins, not makespans, which this
    // table cannot render.
    throw std::invalid_argument(
        "compare does not take --batch; use `dts solve --solver=auto-batch:N`");
  }
  const SolveRequest request = make_request(cmd, in);
  const SolveResult res = solve(request, "auto");
  TextTable table({"heuristic", "family", "makespan", "ratio to OMIM"});
  for (const CandidateOutcome& o : res.outcomes) {
    const auto id = heuristic_from_name(o.name);
    table.add_row({o.name,
                   id ? std::string(name_of(info(*id).category)) : "?",
                   format_seconds(o.makespan),
                   format_fixed(o.makespan / res.bounds.omim, 4)});
  }
  out << "capacity " << format_si_bytes(request.capacity) << " (OMIM "
      << format_seconds(res.bounds.omim) << "):\n"
      << table.to_ascii() << "best: " << res.winner << " at ratio "
      << format_fixed(res.ratio_to_optimal(), 4) << "\n";
  return 0;
}

int cmd_recommend(const CommandLine& cmd, std::ostream& out,
                  std::istream& in) {
  // Through make_request so --machine re-costs here too; recommend()
  // never reaches solve()'s time-less guard, so repeat it.
  const SolveRequest request = make_request(cmd, in);
  if (!request.instance.fully_bound()) {
    throw std::invalid_argument(
        "trace '" + cmd.positional.front() +
        "' has time-less (bytes-only) tasks; pass --machine=NAME to cost "
        "them");
  }
  const Recommendation rec = recommend(request.instance, request.capacity);
  out << "capacity regime: " << to_string(rec.regime) << "\n"
      << "recommended heuristic: " << name_of(rec.primary) << "\n"
      << "rationale (Table 6): " << rec.rationale << "\n";
  return 0;
}

int cmd_improve(const CommandLine& cmd, std::ostream& out,
                std::istream& in) {
  const SolveRequest request = make_request(cmd, in);
  const SolveResult res = solve(request, "local-search", make_options(cmd));
  const Time initial =
      res.outcomes.empty() ? res.makespan : res.outcomes.front().makespan;
  const double gain = initial <= 0.0 ? 0.0 : 1.0 - res.makespan / initial;
  out << "seed makespan:     " << format_seconds(initial) << "\n"
      << "improved makespan: " << format_seconds(res.makespan) << "  ("
      << format_fixed(100.0 * gain, 2) << "% better, " << res.detail << ")\n";
  print_schedule_analysis(out, request.instance, res.schedule, res.bounds,
                          cmd.flag("gantt").has_value());
  return 0;
}

int cmd_solvers(std::ostream& out) {
  TextTable table({"solver", "arguments", "deps", "description"});
  for (const SolverListing& listing : list_solvers()) {
    table.add_row({listing.name, listing.params,
                   listing.traits.dag ? "any" : "independent",
                   listing.description});
  }
  out << table.to_ascii();
  return 0;
}

int cmd_machines(std::ostream& out) {
  TextTable table({"machine", "channels", "description"});
  for (const MachineListing& listing : list_machines()) {
    table.add_row({listing.name, listing.channels, listing.description});
  }
  out << table.to_ascii();
  return 0;
}

int cmd_recost(const CommandLine& cmd, std::ostream& out, std::istream& in) {
  const auto machine_name = cmd.flag("machine");
  if (!machine_name) {
    throw std::invalid_argument("recost needs --machine=NAME (see `dts "
                                "machines`)");
  }
  const Instance inst = load(cmd, in);
  if (!inst.fully_byte_annotated()) {
    throw std::invalid_argument(
        "trace '" + cmd.positional.front() +
        "' is not fully byte-annotated (v3 bytes= column); re-costing "
        "needs the machine-independent transfer sizes");
  }
  const Machine machine = machine_from_name(*machine_name);
  const Instance bound = bind(inst, machine);
  if (const auto out_file = cmd.flag("out")) {
    write_trace_file(*out_file, bound);
  } else {
    write_trace(out, bound);
    out.flush();
    if (!out) {
      throw std::runtime_error("recost: cannot write the trace to stdout");
    }
  }
  return 0;
}

int cmd_serve(const CommandLine& cmd, std::ostream& out, std::ostream& err,
              std::istream& in) {
  ServiceOptions options;
  options.workers = cmd.count_or("workers", 0);
  options.queue_capacity = std::max<std::size_t>(1, cmd.count_or("queue", 64));
  options.cache_capacity = cmd.count_or("cache", 4096);
  options.max_inflight =
      std::max<std::size_t>(1, cmd.count_or("max-inflight", 256));
  if (const auto solver = cmd.flag("solver")) options.default_solver = *solver;

  SolverService service(options);
  std::optional<SocketServer> socket;
  if (const auto path = cmd.flag("socket")) {
    socket.emplace(service, *path);
    socket->start();
    err << "listening on " << *path << "\n";
  }

  // The stdin pump doubles as the lifetime control: EOF or a quit frame
  // ends the service, which then drains in-flight work gracefully.
  serve_stream(service, in, out);
  if (socket) socket->stop();
  service.drain();

  if (cmd.flag("stats")) {
    const ServiceCounters c = service.counters();
    out << "requests " << c.received << "\n"
        << "ok " << c.ok << "\n"
        << "shed " << c.shed << "\n"
        << "draining " << c.draining << "\n"
        << "errors " << c.errors << "\n"
        << "hits " << c.cache.hits << "\n"
        << "misses " << c.cache.misses << "\n"
        << "coalesced " << c.cache.coalesced << "\n"
        << "inserts " << c.cache.inserts << "\n"
        << "evictions " << c.cache.evictions << "\n"
        << "cache-size " << c.cache_size << "\n";
  }
  return 0;
}

int cmd_calibrate(const CommandLine& cmd, std::ostream& out,
                  std::istream& in) {
  if (cmd.positional.empty()) {
    throw std::invalid_argument(
        "calibrate needs a sample file of '<bytes> <seconds>' lines");
  }
  const std::string& file = cmd.positional.front();
  std::ifstream file_stream;
  if (file != "-") {
    // ifstream::open succeeds on a directory on Linux and only the reads
    // fail, which would surface as a baffling "need at least two
    // samples" — check explicitly.
    if (std::filesystem::is_directory(file)) {
      throw std::runtime_error("calibrate: " + file + " is a directory");
    }
    file_stream.open(file);
    if (!file_stream) {
      throw std::runtime_error("calibrate: cannot open " + file);
    }
  }
  std::istream& samples_in = file == "-" ? in : file_stream;

  std::vector<TransferSample> samples;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(samples_in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    TransferSample s;
    std::string trailing;
    if (!(fields >> s.bytes >> s.seconds) || fields >> trailing) {
      throw std::invalid_argument("sample line " + std::to_string(line_no) +
                                  ": expected '<bytes> <seconds>'");
    }
    samples.push_back(s);
  }

  TextTable table({"quantity", "value"});
  table.add_row({"samples", std::to_string(samples.size())});
  if (const auto split = cmd.flag("split")) {
    const double split_bytes = parse_double_flag("split", *split);
    const PiecewiseTransferModel model =
        calibrate_piecewise(samples, split_bytes);
    table.add_row({"model", model.describe()});
    out << table.to_ascii();
    return 0;
  }
  const CalibratedFit fit = calibrate(samples);
  table.add_row({"latency", format_seconds(fit.latency)});
  table.add_row({"bandwidth", format_si_bytes(fit.bandwidth) + "/s"});
  table.add_row({"rmse", format_seconds(fit.rmse)});
  table.add_row({"max relative error",
                 format_fixed(100.0 * fit.max_rel_error, 2) + "%"});
  out << table.to_ascii();
  return 0;
}

}  // namespace

std::optional<std::string> CommandLine::flag(std::string_view key) const {
  const auto it = flags.find(key);
  if (it == flags.end()) return std::nullopt;
  return it->second;
}

double CommandLine::flag_or(std::string_view key, double fallback) const {
  const auto value = flag(key);
  return value ? parse_double_flag(key, *value) : fallback;
}

std::size_t CommandLine::count_or(std::string_view key,
                                  std::size_t fallback) const {
  const auto value = flag(key);
  return value ? parse_count_flag(key, *value) : fallback;
}

CommandLine parse_command_line(int argc, const char* const* argv) {
  CommandLine cmd;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (cmd.command.empty() && arg.rfind("--", 0) != 0) {
      cmd.command = arg;
    } else if (arg.rfind("--", 0) == 0) {
      const std::string body = arg.substr(2);
      if (body.empty()) throw std::invalid_argument("stray '--'");
      const std::size_t eq = body.find('=');
      if (eq == std::string::npos) {
        cmd.flags[body] = "true";
      } else if (eq == 0) {
        throw std::invalid_argument("malformed flag '" + arg + "'");
      } else {
        cmd.flags[body.substr(0, eq)] = body.substr(eq + 1);
      }
    } else {
      cmd.positional.push_back(arg);
    }
  }
  return cmd;
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  return run_cli(argc, argv, out, err, std::cin);
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err, std::istream& in) {
  try {
    const CommandLine cmd = parse_command_line(argc, argv);
    if (cmd.command.empty() || cmd.command == "help") {
      if (cmd.flag("list-solvers")) return cmd_solvers(out);
      if (cmd.flag("list-machines")) return cmd_machines(out);
      out << kUsage;
      return cmd.command.empty() ? 2 : 0;
    }
    if (cmd.command == "generate") return cmd_generate(cmd, out);
    if (cmd.command == "info") return cmd_info(cmd, out, in);
    if (cmd.command == "solve") return cmd_solve(cmd, out, in);
    if (cmd.command == "solve-batch") return cmd_solve_batch(cmd, out, in);
    if (cmd.command == "schedule") return cmd_schedule(cmd, out, in);
    if (cmd.command == "compare") return cmd_compare(cmd, out, in);
    if (cmd.command == "recommend") return cmd_recommend(cmd, out, in);
    if (cmd.command == "improve") return cmd_improve(cmd, out, in);
    if (cmd.command == "recost") return cmd_recost(cmd, out, in);
    if (cmd.command == "calibrate") return cmd_calibrate(cmd, out, in);
    if (cmd.command == "serve") return cmd_serve(cmd, out, err, in);
    if (cmd.command == "machines") return cmd_machines(out);
    if (cmd.command == "solvers") return cmd_solvers(out);
    err << "unknown command '" << cmd.command << "'\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dts::cli
