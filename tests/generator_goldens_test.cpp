/// \file generator_goldens_test.cpp
/// Trace-text digests of the chemistry generators: a safety net for
/// changes to the machine descriptors and the costing they feed. Each row
/// is 64-bit FNV-1a over the bytes `dts generate` writes (write_trace's
/// text: every comm, comp, mem and bytes= field plus channels and edges),
/// so a row changes when any generated number moves by even one ulp.
///
/// Rows are one per (kernel, machine, seed): HF, CCSD and CCSD-DAG on the
/// paper's machine, the half-duplex PCIe GPU and the duplex PCIe GPU,
/// seeds 1-3, plus duplex HF with every fetched byte written back. The
/// traces go through the CLI because its machine names are the stable
/// surface. A change meant to move generated traces refreshes the table
/// from the failure output, which prints every changed row ready to
/// paste, and reports how many rows changed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"

namespace dts {
namespace {

/// FNV-1a (64-bit) over a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

/// Runs `dts generate` with `flags` and returns the trace file's bytes.
std::string generated_text(const std::vector<std::string>& flags) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "dts_generator_goldens.trace";
  std::vector<std::string> args = {"generate", "--out=" + path.string()};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out;
  std::ostringstream err;
  std::istringstream in;
  const int code = cli::run_cli(static_cast<int>(argv.size()), argv.data(),
                                out, err, in);
  EXPECT_EQ(code, 0) << err.str();
  std::ifstream file(path, std::ios::binary);
  std::string text{std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>()};
  file.close();
  std::filesystem::remove(path);
  return text;
}

// clang-format off
const std::map<std::string, std::uint64_t> kGoldens = {
    {"CCSD-DAG-duplex-pcie-1", 0x67fc29c418b768aeULL},
    {"CCSD-DAG-duplex-pcie-2", 0x8af8e359e3f0e6b6ULL},
    {"CCSD-DAG-duplex-pcie-3", 0x0eca725b17ee7f30ULL},
    {"CCSD-DAG-paper-1", 0x0fd5a5859296c962ULL},
    {"CCSD-DAG-paper-2", 0x998e4a9a3255938aULL},
    {"CCSD-DAG-paper-3", 0xba347bb7e31d4f9fULL},
    {"CCSD-DAG-pcie-gpu-1", 0xe2ae00be8f7134edULL},
    {"CCSD-DAG-pcie-gpu-2", 0xb76f3d49f68dbe8aULL},
    {"CCSD-DAG-pcie-gpu-3", 0x4f50be5a68d4147eULL},
    {"CCSD-duplex-pcie-1", 0x0fb68fa6d4f81203ULL},
    {"CCSD-duplex-pcie-2", 0xe34578965b9942d1ULL},
    {"CCSD-duplex-pcie-3", 0x322475942f42b9deULL},
    {"CCSD-paper-1", 0x3514cc088da57d6fULL},
    {"CCSD-paper-2", 0x7a699742b5367e95ULL},
    {"CCSD-paper-3", 0xd21458022750f60bULL},
    {"CCSD-pcie-gpu-1", 0x8e7dd40155b415f9ULL},
    {"CCSD-pcie-gpu-2", 0x32b5b8d53d2f2dddULL},
    {"CCSD-pcie-gpu-3", 0xd48c253fa98a5cb5ULL},
    {"HF-duplex-pcie-1", 0xc24a4e08595d73f6ULL},
    {"HF-duplex-pcie-2", 0xec197b6be9ff4176ULL},
    {"HF-duplex-pcie-3", 0x42cacc55e9517a06ULL},
    {"HF-duplex-pcie-wb1-1", 0x8f26472dddf1390fULL},
    {"HF-duplex-pcie-wb1-2", 0x9f1a417d5e25651dULL},
    {"HF-duplex-pcie-wb1-3", 0xdd26b952a6470092ULL},
    {"HF-paper-1", 0xef5d9693bceb9b78ULL},
    {"HF-paper-2", 0x3bbb0cbf6dea7b8fULL},
    {"HF-paper-3", 0xb60a560150282acfULL},
    {"HF-pcie-gpu-1", 0x02e939e34a7f43f3ULL},
    {"HF-pcie-gpu-2", 0x0e55730156b5255eULL},
    {"HF-pcie-gpu-3", 0xcdbdb8ab2093ed08ULL},
};
// clang-format on

TEST(GeneratorGoldens, TraceTextDigestsPerMachine) {
  const char* const kernels[] = {"HF", "CCSD", "CCSD-DAG"};
  const char* const machines[] = {"paper", "pcie-gpu", "duplex-pcie"};
  std::map<std::string, std::uint64_t> actual;
  for (const char* kernel : kernels) {
    for (const char* machine : machines) {
      for (int seed = 1; seed <= 3; ++seed) {
        const std::string label = std::string(kernel) + "-" + machine + "-" +
                                  std::to_string(seed);
        actual[label] = fnv1a(generated_text(
            {std::string("--kernel=") + kernel,
             std::string("--machine=") + machine,
             "--seed=" + std::to_string(seed)}));
      }
    }
  }
  for (int seed = 1; seed <= 3; ++seed) {
    actual["HF-duplex-pcie-wb1-" + std::to_string(seed)] =
        fnv1a(generated_text({"--kernel=HF", "--machine=duplex-pcie",
                              "--writeback-fraction=1",
                              "--seed=" + std::to_string(seed)}));
  }

  std::string changed;
  std::size_t n_changed = 0;
  for (const auto& [label, digest] : actual) {
    const auto it = kGoldens.find(label);
    if (it != kGoldens.end() && it->second == digest) continue;
    ++n_changed;
    char row[128];
    std::snprintf(row, sizeof row, "    {\"%s\", 0x%016llxULL},\n",
                  label.c_str(), static_cast<unsigned long long>(digest));
    changed += row;
  }
  for (const auto& [label, digest] : kGoldens) {
    if (actual.count(label) == 0) {
      ++n_changed;
      changed += "    (stale row) " + label + "\n";
    }
  }
  EXPECT_EQ(n_changed, 0u) << n_changed << " of " << actual.size()
                           << " digest rows changed:\n"
                           << changed;
}

}  // namespace
}  // namespace dts
