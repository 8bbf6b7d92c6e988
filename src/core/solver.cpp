#include "core/solver.hpp"

#include <algorithm>
#include <charconv>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace dts {

namespace detail {
// Defined in solvers_builtin.cpp. Referencing it from here guarantees the
// built-in adapters' translation unit is pulled out of a static library
// even when the program only ever names solvers by string.
void register_builtin_solvers(SolverRegistry& registry);
}  // namespace detail

SolverSpec SolverSpec::parse(std::string_view name) {
  SolverSpec spec;
  spec.full = std::string(name);
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = name.find(':', start);
    const std::string_view part =
        name.substr(start, colon == std::string_view::npos ? colon
                                                           : colon - start);
    if (spec.base.empty() && start == 0) {
      spec.base = std::string(part);
    } else {
      spec.args.emplace_back(part);
    }
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  if (spec.base.empty()) {
    throw std::invalid_argument("solver name must not be empty");
  }
  return spec;
}

std::size_t SolverSpec::size_arg(std::size_t index,
                                 std::size_t fallback) const {
  if (index >= args.size()) return fallback;
  const std::string& text = args[index];
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value == 0) {
    throw std::invalid_argument("solver '" + full +
                                "': argument '" + text +
                                "' is not a positive integer");
  }
  return value;
}

namespace {

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

Machine MachineRef::resolve() const {
  if (const Machine* inline_model = model()) return *inline_model;
  if (const std::string* key = name()) return machine_from_name(*key);
  throw std::logic_error("MachineRef::resolve called on an unset ref");
}

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry registry;
  static std::once_flag builtin_once;
  std::call_once(builtin_once,
                 [] { detail::register_builtin_solvers(registry); });
  return registry;
}

void SolverRegistry::add(std::string key, std::string params,
                         std::string description, SolverTraits traits,
                         Factory factory) {
  if (key.empty()) throw std::logic_error("solver key must not be empty");
  if (key.find(':') != std::string::npos) {
    throw std::logic_error("solver key '" + key +
                           "' must not contain ':' (reserved for arguments)");
  }
  const std::lock_guard<std::mutex> lock(registry_mutex());
  for (const Entry& entry : entries_) {
    if (entry.key == key) {
      throw std::logic_error("solver '" + key + "' registered twice");
    }
  }
  entries_.push_back(Entry{std::move(key), std::move(params),
                           std::move(description), traits,
                           std::move(factory)});
}

std::unique_ptr<Solver> SolverRegistry::make(std::string_view name) const {
  const SolverSpec spec = SolverSpec::parse(name);
  Factory factory;
  std::size_t max_args = 0;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    for (const Entry& entry : entries_) {
      if (entry.key == spec.base) {
        factory = entry.factory;
        max_args = static_cast<std::size_t>(
            std::count(entry.params.begin(), entry.params.end(), ':'));
        break;
      }
    }
  }
  if (!factory) {
    std::ostringstream message;
    message << "unknown solver '" << spec.base << "'; available:";
    for (const std::string& key : keys()) message << " " << key;
    throw std::invalid_argument(message.str());
  }
  // The declared arity is checked here, so no factory sees extra arguments.
  if (spec.args.size() > max_args) {
    if (max_args == 0) {
      throw std::invalid_argument("solver '" + spec.base +
                                  "' takes no ':' arguments (got '" +
                                  spec.full + "')");
    }
    const std::string most = max_args == 1   ? "one argument"
                             : max_args == 2 ? "two arguments"
                                             : std::to_string(max_args) +
                                                   " arguments";
    throw std::invalid_argument("solver '" + spec.full +
                                "': expected at most " + most);
  }
  return factory(spec);
}

bool SolverRegistry::contains(std::string_view key) const {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  for (const Entry& entry : entries_) {
    if (entry.key == key) return true;
  }
  return false;
}

std::vector<SolverListing> SolverRegistry::listings() const {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<SolverListing> rows;
  rows.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    rows.push_back(SolverListing{entry.key, entry.params, entry.description,
                                 entry.traits});
  }
  return rows;
}

std::optional<SolverTraits> SolverRegistry::traits(
    std::string_view key) const {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  for (const Entry& entry : entries_) {
    if (entry.key == key) return entry.traits;
  }
  return std::nullopt;
}

std::vector<std::string> SolverRegistry::keys() const {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const Entry& entry : entries_) keys.push_back(entry.key);
  return keys;
}

namespace {

/// The solve pipeline after machine binding: every task has a real time.
SolveResult solve_bound(const SolveRequest& request, std::string_view solver,
                        const SolveOptions& options) {
  if (!request.instance.empty() &&
      definitely_less(request.capacity, request.instance.min_capacity())) {
    throw std::invalid_argument(
        "solve: capacity below the instance's minimum feasible capacity");
  }
  if (request.batch_size && *request.batch_size == 0) {
    throw std::invalid_argument("solve: batch_size must be > 0");
  }
  // The declared traits are enforced here, in the order DAG edges (before
  // the factory runs), arguments (make), batch window, so no solver ever
  // sees a request it did not declare. An unknown key gets the defaults
  // and make() reports it.
  const SolverRegistry& registry = SolverRegistry::global();
  const SolverSpec spec = SolverSpec::parse(solver);
  const SolverTraits traits =
      registry.traits(spec.base).value_or(SolverTraits{});
  if (!traits.dag && request.instance.has_dependencies()) {
    throw std::invalid_argument(
        "solve: solver '" + spec.base +
        "' schedules independent task sets only (deps=independent), but "
        "the instance declares dependency edges");
  }
  const std::unique_ptr<Solver> impl = registry.make(solver);
  if (request.batch_size && !traits.batch) {
    throw std::invalid_argument("solver '" + spec.base +
                                "' does not support a batch window");
  }
  const auto start = std::chrono::steady_clock::now();
  SolveResult result = impl->run(request, options);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (options.compute_bounds && !request.instance.empty()) {
    result.bounds = capacity_aware_bounds(request.instance, request.capacity);
  }
  if (result.winner.empty()) result.winner = std::string(solver);
  return result;
}

}  // namespace

SolveResult solve(const SolveRequest& request, std::string_view solver,
                  const SolveOptions& options) {
  // Machine-parameterized solving: bind the instance to the requested
  // hardware before anything else, so capacity checks, bounds and the
  // solver itself all see the machine-costed workload.
  if (request.machine) {
    const Machine resolved = request.machine.resolve();
    // Whole-request copy (not field-by-field) so fields added to
    // SolveRequest later cannot silently vanish on the machine path; the
    // copied instance is immediately replaced by its bound version.
    SolveRequest bound_request = request;
    bound_request.machine.reset();
    bound_request.instance = bind(request.instance, resolved);
    return solve_bound(bound_request, solver, options);
  }
  if (!request.instance.fully_bound()) {
    throw std::invalid_argument(
        "solve: the instance has time-less (bytes-only) tasks; set "
        "SolveRequest::machine to a machine name or descriptor to cost "
        "them");
  }
  return solve_bound(request, solver, options);
}

std::vector<SolverListing> list_solvers() {
  return SolverRegistry::global().listings();
}

}  // namespace dts
