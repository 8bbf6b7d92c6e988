/// \file engine_goldens_test.cpp
/// Schedule digests of every registered solver on a stock chemistry
/// corpus: a safety net for changes to the timing engine. A digest is
/// 64-bit FNV-1a over the round-trip text (support/text.hpp, the `%.17g`
/// codec) of every task's (comm_start, comp_start), so a row changes when
/// any start time moves by even one ulp.
///
/// Rows are one per (solver, trace); each folds the schedules at the four
/// capacities 1, 1.25, 1.5 and 2 times mc. A change meant to move
/// schedules refreshes the table from the failure output, which prints
/// every changed row ready to paste, and reports how many rows changed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/solver.hpp"
#include "model/machine.hpp"
#include "support/rng.hpp"
#include "support/text.hpp"
#include "trace/generators.hpp"

namespace dts {
namespace {

constexpr double kCapacityFactors[] = {1.0, 1.25, 1.5, 2.0};

/// FNV-1a (64-bit) over the text form of a schedule's start times.
struct Digest {
  std::uint64_t state = 0xcbf29ce484222325ULL;

  void add(const Schedule& sched) {
    std::string text;
    for (TaskId id = 0; id < sched.size(); ++id) {
      append_double(text, sched[id].comm_start);
      text.push_back(' ');
      append_double(text, sched[id].comp_start);
      text.push_back('\n');
    }
    for (const char c : text) {
      state ^= static_cast<unsigned char>(c);
      state *= 0x100000001b3ULL;
    }
  }
};

struct Trace {
  std::string label;
  Instance instance;
};

/// HF and CCSD, seeds 1-3, on the paper's machine and the duplex PCIe
/// machine, plus one CCSD contraction-chain DAG — about 300 tasks each.
std::vector<Trace> stock_corpus() {
  std::vector<Trace> corpus;
  const std::pair<const char*, Machine> machines[] = {
      {"paper", machine_from_name("paper")},
      {"duplex", machine_from_name("duplex-pcie")}};
  const std::pair<const char*, ChemistryKernel> kernels[] = {
      {"hf", ChemistryKernel::kHartreeFock},
      {"ccsd", ChemistryKernel::kCoupledClusterSD}};
  for (const auto& [kernel_name, kernel] : kernels) {
    for (const auto& [machine_name, machine] : machines) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const TraceConfig config{.seed = seed,
                                 .min_tasks = 300,
                                 .max_tasks = 300,
                                 .machine = machine};
        corpus.push_back({std::string(kernel_name) + "-" + machine_name +
                              "-" + std::to_string(seed),
                          generate_trace(kernel, config)});
      }
    }
  }
  corpus.push_back({"ccsd-dag-1",
                    generate_ccsd_dag_trace(TraceConfig{.seed = 1,
                                                        .min_tasks = 300,
                                                        .max_tasks = 300})});
  return corpus;
}

/// The six-task duplex instance the exact-solver goldens use.
Instance tiny_duplex_instance() {
  Rng rng(20260809);
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) {
    Task t;
    t.comm = rng.uniform(0.0, 10.0);
    t.comp = rng.uniform(0.0, 10.0);
    t.mem = rng.uniform(0.1, 10.0);
    t.channel = static_cast<ChannelId>(i % 2);
    tasks.push_back(std::move(t));
  }
  return Instance(std::move(tasks));
}

bool is_exact(const std::string& name) {
  return name == "exhaustive" || name == "branch-bound" || name == "milp";
}

using Key = std::pair<std::string, std::string>;  // (solver, trace)

// clang-format off
const std::map<Key, std::uint64_t> kGoldens = {
    {{"BP", "ccsd-dag-1"}, 0x1931822d7bb0d9adULL},
    {{"BP", "ccsd-duplex-1"}, 0x8027e444fe37d5bfULL},
    {{"BP", "ccsd-duplex-2"}, 0x91a6c5b668c879d5ULL},
    {{"BP", "ccsd-duplex-3"}, 0x75f1709c0bddd39cULL},
    {{"BP", "ccsd-paper-1"}, 0x3e1aa5d124628922ULL},
    {{"BP", "ccsd-paper-2"}, 0xd6dc54e303368124ULL},
    {{"BP", "ccsd-paper-3"}, 0x84dd81b3e1c6626fULL},
    {{"BP", "hf-duplex-1"}, 0x8aa1d908479c3185ULL},
    {{"BP", "hf-duplex-2"}, 0x9105cac513e13eb2ULL},
    {{"BP", "hf-duplex-3"}, 0x40864fad19399e6cULL},
    {{"BP", "hf-paper-1"}, 0xdfe65780cbbb08f1ULL},
    {{"BP", "hf-paper-2"}, 0x6cdd1919e00818dbULL},
    {{"BP", "hf-paper-3"}, 0xbcbf2d85fa8ae10cULL},
    {{"DOCCS", "ccsd-dag-1"}, 0xcfecb4e9651b5b11ULL},
    {{"DOCCS", "ccsd-duplex-1"}, 0x20efb1ed784e3aa5ULL},
    {{"DOCCS", "ccsd-duplex-2"}, 0xfe4a40a0fc593a10ULL},
    {{"DOCCS", "ccsd-duplex-3"}, 0x55069137dbdd96baULL},
    {{"DOCCS", "ccsd-paper-1"}, 0x26e205c9b6322ad7ULL},
    {{"DOCCS", "ccsd-paper-2"}, 0x2b218d810047fb1eULL},
    {{"DOCCS", "ccsd-paper-3"}, 0xacf1bb5a16f36bc8ULL},
    {{"DOCCS", "hf-duplex-1"}, 0xcb673fd4b54614eeULL},
    {{"DOCCS", "hf-duplex-2"}, 0xeec46827b230e3caULL},
    {{"DOCCS", "hf-duplex-3"}, 0x8806e10771007c58ULL},
    {{"DOCCS", "hf-paper-1"}, 0x0e80859496abf9f6ULL},
    {{"DOCCS", "hf-paper-2"}, 0x3078569eb71cc26fULL},
    {{"DOCCS", "hf-paper-3"}, 0x3b3bb70405798ae7ULL},
    {{"DOCPS", "ccsd-dag-1"}, 0x91bcecde04d32dd6ULL},
    {{"DOCPS", "ccsd-duplex-1"}, 0xb505dfdcdc9dc001ULL},
    {{"DOCPS", "ccsd-duplex-2"}, 0x272e195a98d47c6fULL},
    {{"DOCPS", "ccsd-duplex-3"}, 0xaecd07ace3584462ULL},
    {{"DOCPS", "ccsd-paper-1"}, 0x5fe17f75c2fc4e85ULL},
    {{"DOCPS", "ccsd-paper-2"}, 0x164fe229175ff0bcULL},
    {{"DOCPS", "ccsd-paper-3"}, 0x0750db3ec6564f05ULL},
    {{"DOCPS", "hf-duplex-1"}, 0x1bd58580aef10bb5ULL},
    {{"DOCPS", "hf-duplex-2"}, 0x587e07b1c07bda71ULL},
    {{"DOCPS", "hf-duplex-3"}, 0xf2fbd01a76476cd1ULL},
    {{"DOCPS", "hf-paper-1"}, 0x527d279dd02aa29cULL},
    {{"DOCPS", "hf-paper-2"}, 0x723b463f9fcd20c0ULL},
    {{"DOCPS", "hf-paper-3"}, 0xa29db57721062064ULL},
    {{"GG", "ccsd-dag-1"}, 0xe6d4bae3c6f03a2dULL},
    {{"GG", "ccsd-duplex-1"}, 0xbfa4af4818af1498ULL},
    {{"GG", "ccsd-duplex-2"}, 0x9493a992e3b29e75ULL},
    {{"GG", "ccsd-duplex-3"}, 0x55bba6db86918b4bULL},
    {{"GG", "ccsd-paper-1"}, 0xafdaacaa5ede2a40ULL},
    {{"GG", "ccsd-paper-2"}, 0x18ddfc3a885ebfc2ULL},
    {{"GG", "ccsd-paper-3"}, 0x9be64d5585e0c336ULL},
    {{"GG", "hf-duplex-1"}, 0x65f5977e10f376d0ULL},
    {{"GG", "hf-duplex-2"}, 0x85bb0a0601de686cULL},
    {{"GG", "hf-duplex-3"}, 0xd38fb807527cabfcULL},
    {{"GG", "hf-paper-1"}, 0x49459f1a6f563a46ULL},
    {{"GG", "hf-paper-2"}, 0x0d69d4c2283f163dULL},
    {{"GG", "hf-paper-3"}, 0x68664132b741e16fULL},
    {{"IOCCS", "ccsd-dag-1"}, 0xcda6809c1bfdfe95ULL},
    {{"IOCCS", "ccsd-duplex-1"}, 0x409c671924fbcae2ULL},
    {{"IOCCS", "ccsd-duplex-2"}, 0xf0c2ae5a7478ebfdULL},
    {{"IOCCS", "ccsd-duplex-3"}, 0x0f2312bd6e698a0eULL},
    {{"IOCCS", "ccsd-paper-1"}, 0x0fe2fb1b1d4c1802ULL},
    {{"IOCCS", "ccsd-paper-2"}, 0xcc57ec5564028b8dULL},
    {{"IOCCS", "ccsd-paper-3"}, 0x58739d260aefcf48ULL},
    {{"IOCCS", "hf-duplex-1"}, 0xe77ee7365f03c7a1ULL},
    {{"IOCCS", "hf-duplex-2"}, 0x4e9484577061491dULL},
    {{"IOCCS", "hf-duplex-3"}, 0xd8a9693440eb878bULL},
    {{"IOCCS", "hf-paper-1"}, 0x6d910141b8b6954bULL},
    {{"IOCCS", "hf-paper-2"}, 0x7969079a8ddbe2a7ULL},
    {{"IOCCS", "hf-paper-3"}, 0xa2a08020e9bd5b70ULL},
    {{"IOCMS", "ccsd-dag-1"}, 0x3100bb4414322391ULL},
    {{"IOCMS", "ccsd-duplex-1"}, 0x470c7b9a80186394ULL},
    {{"IOCMS", "ccsd-duplex-2"}, 0xffebb495ae58c024ULL},
    {{"IOCMS", "ccsd-duplex-3"}, 0x6f75c42ec78a6b1aULL},
    {{"IOCMS", "ccsd-paper-1"}, 0xebe5f4dfa8d2873aULL},
    {{"IOCMS", "ccsd-paper-2"}, 0x216016bef98a1d33ULL},
    {{"IOCMS", "ccsd-paper-3"}, 0x77af457512cc7353ULL},
    {{"IOCMS", "hf-duplex-1"}, 0xa17c7a42b356db3aULL},
    {{"IOCMS", "hf-duplex-2"}, 0x37606bbfde338eeaULL},
    {{"IOCMS", "hf-duplex-3"}, 0x35374ddf4de42790ULL},
    {{"IOCMS", "hf-paper-1"}, 0x7af3b5b30bc0dd50ULL},
    {{"IOCMS", "hf-paper-2"}, 0x176af75e512192c9ULL},
    {{"IOCMS", "hf-paper-3"}, 0x84856394ad41aee0ULL},
    {{"LCMR", "ccsd-dag-1"}, 0xb260c433592fed6aULL},
    {{"LCMR", "ccsd-duplex-1"}, 0x74322324f11912b6ULL},
    {{"LCMR", "ccsd-duplex-2"}, 0xc4b9ba8a6d31eccfULL},
    {{"LCMR", "ccsd-duplex-3"}, 0x79550ee22e21b636ULL},
    {{"LCMR", "ccsd-paper-1"}, 0x316fb9b06010892aULL},
    {{"LCMR", "ccsd-paper-2"}, 0xd8f4424c229f60bbULL},
    {{"LCMR", "ccsd-paper-3"}, 0x5ea8a0a725957150ULL},
    {{"LCMR", "hf-duplex-1"}, 0x83aa6aae9b3b5bb6ULL},
    {{"LCMR", "hf-duplex-2"}, 0x0ca9941494c05f47ULL},
    {{"LCMR", "hf-duplex-3"}, 0x26f34b372f7c9e63ULL},
    {{"LCMR", "hf-paper-1"}, 0xc54e1a91fe9e169fULL},
    {{"LCMR", "hf-paper-2"}, 0x6a646bb3958ebf36ULL},
    {{"LCMR", "hf-paper-3"}, 0xdcba0320e76ad649ULL},
    {{"MAMR", "ccsd-dag-1"}, 0xd8130c658d7225abULL},
    {{"MAMR", "ccsd-duplex-1"}, 0x5e4f3b1220ac54dcULL},
    {{"MAMR", "ccsd-duplex-2"}, 0x0b78f785c6edda07ULL},
    {{"MAMR", "ccsd-duplex-3"}, 0x8a2f41aefc92c7caULL},
    {{"MAMR", "ccsd-paper-1"}, 0x62c2de4111c8a704ULL},
    {{"MAMR", "ccsd-paper-2"}, 0x29a71bb91f180749ULL},
    {{"MAMR", "ccsd-paper-3"}, 0x49775938046c812aULL},
    {{"MAMR", "hf-duplex-1"}, 0xd15650812395ec61ULL},
    {{"MAMR", "hf-duplex-2"}, 0x88f6e2c1004567bdULL},
    {{"MAMR", "hf-duplex-3"}, 0x2411285e38dc64b1ULL},
    {{"MAMR", "hf-paper-1"}, 0x0ef6f54118b22218ULL},
    {{"MAMR", "hf-paper-2"}, 0xe5d6405e402f69bfULL},
    {{"MAMR", "hf-paper-3"}, 0x0fc0dc4feba96040ULL},
    {{"OOLCMR", "ccsd-dag-1"}, 0xfd9915e4a1dc80fdULL},
    {{"OOLCMR", "ccsd-duplex-1"}, 0xd9ba0411117efd70ULL},
    {{"OOLCMR", "ccsd-duplex-2"}, 0x1ee14bda120d445aULL},
    {{"OOLCMR", "ccsd-duplex-3"}, 0xb1f7648ca4a121b5ULL},
    {{"OOLCMR", "ccsd-paper-1"}, 0x094c65efe249a144ULL},
    {{"OOLCMR", "ccsd-paper-2"}, 0xe4acff7bfac56c30ULL},
    {{"OOLCMR", "ccsd-paper-3"}, 0x32c826d91f01284eULL},
    {{"OOLCMR", "hf-duplex-1"}, 0x1efafc101be50653ULL},
    {{"OOLCMR", "hf-duplex-2"}, 0x22ed50f35f727fe1ULL},
    {{"OOLCMR", "hf-duplex-3"}, 0x5e23f7e3a353ad33ULL},
    {{"OOLCMR", "hf-paper-1"}, 0x1f975591296b330eULL},
    {{"OOLCMR", "hf-paper-2"}, 0xd752184c19024f02ULL},
    {{"OOLCMR", "hf-paper-3"}, 0x73151cf90060d63bULL},
    {{"OOMAMR", "ccsd-dag-1"}, 0xa34617d3fa28ecf2ULL},
    {{"OOMAMR", "ccsd-duplex-1"}, 0xce37271fbc9a2ba2ULL},
    {{"OOMAMR", "ccsd-duplex-2"}, 0xd54e82915b767013ULL},
    {{"OOMAMR", "ccsd-duplex-3"}, 0x5667eb7379eb8b41ULL},
    {{"OOMAMR", "ccsd-paper-1"}, 0x3a033087764cdbc8ULL},
    {{"OOMAMR", "ccsd-paper-2"}, 0xdc8c4855ea6376c4ULL},
    {{"OOMAMR", "ccsd-paper-3"}, 0xdbc20cd8221f52e8ULL},
    {{"OOMAMR", "hf-duplex-1"}, 0xdcde307773bf5d0aULL},
    {{"OOMAMR", "hf-duplex-2"}, 0xe0b5f7d09be7f652ULL},
    {{"OOMAMR", "hf-duplex-3"}, 0xdc5432d6a4ecf492ULL},
    {{"OOMAMR", "hf-paper-1"}, 0x7ac95fd6fa5600e4ULL},
    {{"OOMAMR", "hf-paper-2"}, 0xd752184c19024f02ULL},
    {{"OOMAMR", "hf-paper-3"}, 0x73151cf90060d63bULL},
    {{"OOSCMR", "ccsd-dag-1"}, 0xc07709f389605f51ULL},
    {{"OOSCMR", "ccsd-duplex-1"}, 0x450bf7652e6acbc8ULL},
    {{"OOSCMR", "ccsd-duplex-2"}, 0xae923e7c96772e70ULL},
    {{"OOSCMR", "ccsd-duplex-3"}, 0xfbdf0511b67da8f0ULL},
    {{"OOSCMR", "ccsd-paper-1"}, 0xbbd90124269b0703ULL},
    {{"OOSCMR", "ccsd-paper-2"}, 0x48a52dd063c67b27ULL},
    {{"OOSCMR", "ccsd-paper-3"}, 0x97d4452c13959360ULL},
    {{"OOSCMR", "hf-duplex-1"}, 0xf6b6f14d3a5397f4ULL},
    {{"OOSCMR", "hf-duplex-2"}, 0x9829768977772c3eULL},
    {{"OOSCMR", "hf-duplex-3"}, 0xfeb6242fd50f0984ULL},
    {{"OOSCMR", "hf-paper-1"}, 0x79eddbec733c19a2ULL},
    {{"OOSCMR", "hf-paper-2"}, 0x02955efd3086566eULL},
    {{"OOSCMR", "hf-paper-3"}, 0xfee8ae0661bd7499ULL},
    {{"OOSIM", "ccsd-dag-1"}, 0x4e9591789ab1dc61ULL},
    {{"OOSIM", "ccsd-duplex-1"}, 0x98a3240f1ece6200ULL},
    {{"OOSIM", "ccsd-duplex-2"}, 0x985afcf9fc37880bULL},
    {{"OOSIM", "ccsd-duplex-3"}, 0xc3ad75a67ea3904cULL},
    {{"OOSIM", "ccsd-paper-1"}, 0x3ff536a232de3c99ULL},
    {{"OOSIM", "ccsd-paper-2"}, 0x1d03a3251f1e936fULL},
    {{"OOSIM", "ccsd-paper-3"}, 0xc5f973614820edddULL},
    {{"OOSIM", "hf-duplex-1"}, 0xd73db57a74c69830ULL},
    {{"OOSIM", "hf-duplex-2"}, 0x2ce2a8ea6101cf15ULL},
    {{"OOSIM", "hf-duplex-3"}, 0x0144b9bff091320fULL},
    {{"OOSIM", "hf-paper-1"}, 0x9930b83f88b965f7ULL},
    {{"OOSIM", "hf-paper-2"}, 0xde3a45e342f8eeb2ULL},
    {{"OOSIM", "hf-paper-3"}, 0x80ca3f1e315f116aULL},
    {{"OS", "ccsd-dag-1"}, 0x3278803bb8947095ULL},
    {{"OS", "ccsd-duplex-1"}, 0x5434dc7e2f0fff0eULL},
    {{"OS", "ccsd-duplex-2"}, 0x5f053c80ee523874ULL},
    {{"OS", "ccsd-duplex-3"}, 0x0d2b58dd0511315cULL},
    {{"OS", "ccsd-paper-1"}, 0x8d27706898989718ULL},
    {{"OS", "ccsd-paper-2"}, 0xbc878efc475e4d8cULL},
    {{"OS", "ccsd-paper-3"}, 0xad359f2fa1b3a3f3ULL},
    {{"OS", "hf-duplex-1"}, 0x336b7ec119675491ULL},
    {{"OS", "hf-duplex-2"}, 0x8dc4bc4d48a89bcaULL},
    {{"OS", "hf-duplex-3"}, 0x77076284466e460bULL},
    {{"OS", "hf-paper-1"}, 0x515f127a97130f7bULL},
    {{"OS", "hf-paper-2"}, 0xa1a09a3100d09045ULL},
    {{"OS", "hf-paper-3"}, 0x0e2258b390447842ULL},
    {{"SCMR", "ccsd-dag-1"}, 0x5fc8789b1328b516ULL},
    {{"SCMR", "ccsd-duplex-1"}, 0xb652ed50df015110ULL},
    {{"SCMR", "ccsd-duplex-2"}, 0xb1f37fd65286576eULL},
    {{"SCMR", "ccsd-duplex-3"}, 0x3f27e000ed4ee769ULL},
    {{"SCMR", "ccsd-paper-1"}, 0xebe5f4dfa8d2873aULL},
    {{"SCMR", "ccsd-paper-2"}, 0x216016bef98a1d33ULL},
    {{"SCMR", "ccsd-paper-3"}, 0x77af457512cc7353ULL},
    {{"SCMR", "hf-duplex-1"}, 0x5c22edfd3a7d7ea5ULL},
    {{"SCMR", "hf-duplex-2"}, 0x6564cce2646c93f4ULL},
    {{"SCMR", "hf-duplex-3"}, 0xd9afe006b963cad3ULL},
    {{"SCMR", "hf-paper-1"}, 0x7af3b5b30bc0dd50ULL},
    {{"SCMR", "hf-paper-2"}, 0x176af75e512192c9ULL},
    {{"SCMR", "hf-paper-3"}, 0x84856394ad41aee0ULL},
    {{"auto", "ccsd-dag-1"}, 0xb260c433592fed6aULL},
    {{"auto", "ccsd-duplex-1"}, 0xb76261b86c9ce7b5ULL},
    {{"auto", "ccsd-duplex-2"}, 0x5c192befbc879a6eULL},
    {{"auto", "ccsd-duplex-3"}, 0x79550ee22e21b636ULL},
    {{"auto", "ccsd-paper-1"}, 0x6f6bf4cdc9f5e6b7ULL},
    {{"auto", "ccsd-paper-2"}, 0xd20825e5266ec21fULL},
    {{"auto", "ccsd-paper-3"}, 0x4da2ae93b4962743ULL},
    {{"auto", "hf-duplex-1"}, 0x2672d5620dd3d7eaULL},
    {{"auto", "hf-duplex-2"}, 0xf948ee48e2fb4424ULL},
    {{"auto", "hf-duplex-3"}, 0x77076284466e460bULL},
    {{"auto", "hf-paper-1"}, 0xe5754252f2f61fa5ULL},
    {{"auto", "hf-paper-2"}, 0x7045dfdfa0823d4aULL},
    {{"auto", "hf-paper-3"}, 0x6541ab5f49ae05ebULL},
    {{"auto-batch", "ccsd-dag-1"}, 0x5ed74813ef1fce5aULL},
    {{"auto-batch", "ccsd-duplex-1"}, 0x97e777d10afed7b4ULL},
    {{"auto-batch", "ccsd-duplex-2"}, 0xd85d3070bf6d8346ULL},
    {{"auto-batch", "ccsd-duplex-3"}, 0xebf0243e16d41626ULL},
    {{"auto-batch", "ccsd-paper-1"}, 0x5d955f28997d0297ULL},
    {{"auto-batch", "ccsd-paper-2"}, 0x87780b47e18c2750ULL},
    {{"auto-batch", "ccsd-paper-3"}, 0x10944719d839a3b3ULL},
    {{"auto-batch", "hf-duplex-1"}, 0xa11e488ea0eeb883ULL},
    {{"auto-batch", "hf-duplex-2"}, 0xbf38cb0e186c664bULL},
    {{"auto-batch", "hf-duplex-3"}, 0xce7e2538ab1ee647ULL},
    {{"auto-batch", "hf-paper-1"}, 0x02519b10148128fbULL},
    {{"auto-batch", "hf-paper-2"}, 0xb8f315560b4373bbULL},
    {{"auto-batch", "hf-paper-3"}, 0x2c39be5c52f005cdULL},
    {{"branch-bound", "tiny-duplex"}, 0x80670daa91673617ULL},
    {{"duplex-balance", "ccsd-dag-1"}, 0x4e9591789ab1dc61ULL},
    {{"duplex-balance", "ccsd-duplex-1"}, 0x2ee8137e9c81bf2cULL},
    {{"duplex-balance", "ccsd-duplex-2"}, 0x249e8f94f3e0fdafULL},
    {{"duplex-balance", "ccsd-duplex-3"}, 0xd93405b9e9e9dc9bULL},
    {{"duplex-balance", "ccsd-paper-1"}, 0x3ff536a232de3c99ULL},
    {{"duplex-balance", "ccsd-paper-2"}, 0x1d03a3251f1e936fULL},
    {{"duplex-balance", "ccsd-paper-3"}, 0xc5f973614820edddULL},
    {{"duplex-balance", "hf-duplex-1"}, 0x5bfefb178b05a4c8ULL},
    {{"duplex-balance", "hf-duplex-2"}, 0x48ffee04cc5b310bULL},
    {{"duplex-balance", "hf-duplex-3"}, 0xfa4c246a6ddb327cULL},
    {{"duplex-balance", "hf-paper-1"}, 0x9930b83f88b965f7ULL},
    {{"duplex-balance", "hf-paper-2"}, 0xde3a45e342f8eeb2ULL},
    {{"duplex-balance", "hf-paper-3"}, 0x80ca3f1e315f116aULL},
    {{"exhaustive", "tiny-duplex"}, 0x26d18857a6206268ULL},
    {{"local-search", "ccsd-dag-1"}, 0x9f19e0165e444ad3ULL},
    {{"local-search", "ccsd-duplex-1"}, 0x734feb4876757eafULL},
    {{"local-search", "ccsd-duplex-2"}, 0x879137715c0f740bULL},
    {{"local-search", "ccsd-duplex-3"}, 0xa0c226230381136fULL},
    {{"local-search", "ccsd-paper-1"}, 0xf2efd405d6b2040fULL},
    {{"local-search", "ccsd-paper-2"}, 0x8f154782faa706a3ULL},
    {{"local-search", "ccsd-paper-3"}, 0xfd4076d3388e786fULL},
    {{"local-search", "hf-duplex-1"}, 0x83a098f3b6f87cc6ULL},
    {{"local-search", "hf-duplex-2"}, 0x58100d70e1eb0452ULL},
    {{"local-search", "hf-duplex-3"}, 0x199b0df51422ea3fULL},
    {{"local-search", "hf-paper-1"}, 0x025d639127b6c78dULL},
    {{"local-search", "hf-paper-2"}, 0xf802f2edcc630c6eULL},
    {{"local-search", "hf-paper-3"}, 0xb183d40f7ded46e6ULL},
    {{"milp", "tiny-duplex"}, 0xd97f6b611b10be2cULL},
    {{"window", "ccsd-dag-1"}, 0xd760754a4cbd8fc0ULL},
    {{"window", "ccsd-duplex-1"}, 0x80dec851aba6cf0aULL},
    {{"window", "ccsd-duplex-2"}, 0xf2e1f0910f8f5488ULL},
    {{"window", "ccsd-duplex-3"}, 0xf158103e56c07f75ULL},
    {{"window", "ccsd-paper-1"}, 0xd6ea3659a6bd491cULL},
    {{"window", "ccsd-paper-2"}, 0xb6bb3d65b0a8ab29ULL},
    {{"window", "ccsd-paper-3"}, 0xf9502775b8158664ULL},
    {{"window", "hf-duplex-1"}, 0x1e11f504d5984663ULL},
    {{"window", "hf-duplex-2"}, 0x4ac7d554e1fdc4b6ULL},
    {{"window", "hf-duplex-3"}, 0xe61eab2fe9048a67ULL},
    {{"window", "hf-paper-1"}, 0xcca6a6dfa7d9d3a8ULL},
    {{"window", "hf-paper-2"}, 0x3aadc68307fb3c89ULL},
    {{"window", "hf-paper-3"}, 0xcd034382a0f5c3b4ULL},
};
// clang-format on

/// Compares `actual` with `goldens` and, on any difference, fails with
/// every changed, missing or stale row printed ready to paste.
void expect_goldens(const std::map<Key, std::uint64_t>& actual,
                    const std::map<Key, std::uint64_t>& goldens) {
  std::string changed;
  std::size_t n_changed = 0;
  for (const auto& [key, digest] : actual) {
    const auto it = goldens.find(key);
    if (it != goldens.end() && it->second == digest) continue;
    ++n_changed;
    char row[160];
    std::snprintf(row, sizeof row, "    {{\"%s\", \"%s\"}, 0x%016llxULL},\n",
                  key.first.c_str(), key.second.c_str(),
                  static_cast<unsigned long long>(digest));
    changed += row;
  }
  for (const auto& [key, digest] : goldens) {
    if (actual.count(key) == 0) {
      ++n_changed;
      changed += "    (stale row) " + key.first + " / " + key.second + "\n";
    }
  }
  EXPECT_EQ(n_changed, 0u) << n_changed << " of " << actual.size()
                           << " digest rows changed:\n"
                           << changed;
}

TEST(EngineGoldens, ScheduleDigestsOnStockCorpus) {
  SolveOptions options;
  options.max_iterations = 50;
  options.parallel_candidates = false;
  options.compute_bounds = false;

  std::map<Key, std::uint64_t> actual;
  const std::vector<Trace> corpus = stock_corpus();
  for (const SolverListing& listing : list_solvers()) {
    if (listing.name.rfind("test-", 0) == 0) continue;  // test-only solvers
    if (is_exact(listing.name)) {
      SolveRequest request;
      request.instance = tiny_duplex_instance();
      Digest digest;
      for (const double f : kCapacityFactors) {
        request.capacity = f * request.instance.min_capacity();
        digest.add(solve(request, listing.name, options).schedule);
      }
      actual[{listing.name, "tiny-duplex"}] = digest.state;
      continue;
    }
    for (const Trace& trace : corpus) {
      SolveRequest request;
      request.instance = trace.instance;
      Digest digest;
      for (const double f : kCapacityFactors) {
        request.capacity = f * trace.instance.min_capacity();
        digest.add(solve(request, listing.name, options).schedule);
      }
      actual[{listing.name, trace.label}] = digest.state;
    }
  }

  expect_goldens(actual, kGoldens);
}

/// Digest of `solver` on `inst` at the four capacity factors, whole or in
/// batches of `batch` tasks.
std::uint64_t capacity_digest(const Instance& inst, const std::string& solver,
                              std::optional<std::size_t> batch) {
  SolveOptions options;
  options.parallel_candidates = false;
  options.compute_bounds = false;
  SolveRequest request;
  request.instance = inst;
  request.batch_size = batch;
  Digest digest;
  for (const double f : kCapacityFactors) {
    request.capacity = f * inst.min_capacity();
    digest.add(solve(request, solver, options).schedule);
  }
  return digest.state;
}

constexpr std::size_t kBatch = 16;

// clang-format off
const std::map<Key, std::uint64_t> kBatchedGoldens = {
    {{"BP", "ccsd-dag-1"}, 0xfe97a1ff330ae948ULL},
    {{"BP", "ccsd-duplex-1"}, 0x8de72dad595bbdc6ULL},
    {{"BP", "ccsd-duplex-2"}, 0x085af79ae8ff1ca2ULL},
    {{"BP", "ccsd-duplex-3"}, 0x403d1758f6274bfcULL},
    {{"BP", "ccsd-paper-1"}, 0x7b0a1b40d33d77a0ULL},
    {{"BP", "ccsd-paper-2"}, 0x35334d65c086aaafULL},
    {{"BP", "ccsd-paper-3"}, 0xce4888133a618e01ULL},
    {{"BP", "hf-duplex-1"}, 0xa106df1142f63edaULL},
    {{"BP", "hf-duplex-2"}, 0xdde13106e8f79cfcULL},
    {{"BP", "hf-duplex-3"}, 0xe02cc91ba69713b7ULL},
    {{"BP", "hf-paper-1"}, 0xf8d7a509cddeb0b5ULL},
    {{"BP", "hf-paper-2"}, 0xf2690f3de55d9952ULL},
    {{"BP", "hf-paper-3"}, 0xd30a2fe74cf76457ULL},
    {{"DOCCS", "ccsd-dag-1"}, 0x794461f76194da67ULL},
    {{"DOCCS", "ccsd-duplex-1"}, 0xa4915f8e6f3a5676ULL},
    {{"DOCCS", "ccsd-duplex-2"}, 0x59f5e2891553681fULL},
    {{"DOCCS", "ccsd-duplex-3"}, 0x634db8bab6b1e696ULL},
    {{"DOCCS", "ccsd-paper-1"}, 0x1087b54aaf0630b5ULL},
    {{"DOCCS", "ccsd-paper-2"}, 0xe63958e59ebb8746ULL},
    {{"DOCCS", "ccsd-paper-3"}, 0x1c5252acbe0a41acULL},
    {{"DOCCS", "hf-duplex-1"}, 0x53e65a90f17ae761ULL},
    {{"DOCCS", "hf-duplex-2"}, 0x1031bf5ebc0ca136ULL},
    {{"DOCCS", "hf-duplex-3"}, 0x1f5d0e7d8fdedb12ULL},
    {{"DOCCS", "hf-paper-1"}, 0xfccdc3721d3f0a86ULL},
    {{"DOCCS", "hf-paper-2"}, 0xf9dbb32612459412ULL},
    {{"DOCCS", "hf-paper-3"}, 0x63af85361ecef192ULL},
    {{"DOCPS", "ccsd-dag-1"}, 0x48f1fa284d05a993ULL},
    {{"DOCPS", "ccsd-duplex-1"}, 0x16e59bfa18e4a84eULL},
    {{"DOCPS", "ccsd-duplex-2"}, 0x3824013e49c2842dULL},
    {{"DOCPS", "ccsd-duplex-3"}, 0x4401d7a18643279aULL},
    {{"DOCPS", "ccsd-paper-1"}, 0x05ce5f2cf48b3949ULL},
    {{"DOCPS", "ccsd-paper-2"}, 0x50fecdf19e36c2cbULL},
    {{"DOCPS", "ccsd-paper-3"}, 0xdb828ec69ce381daULL},
    {{"DOCPS", "hf-duplex-1"}, 0x8718480354f74c4fULL},
    {{"DOCPS", "hf-duplex-2"}, 0x5103ea3fd5645b64ULL},
    {{"DOCPS", "hf-duplex-3"}, 0x3336cbd66d296694ULL},
    {{"DOCPS", "hf-paper-1"}, 0xd4d7addb0a9f57e2ULL},
    {{"DOCPS", "hf-paper-2"}, 0xcf6365c6658c696cULL},
    {{"DOCPS", "hf-paper-3"}, 0xfcdba15e21439a51ULL},
    {{"GG", "ccsd-dag-1"}, 0xa969d0ecd31abf2cULL},
    {{"GG", "ccsd-duplex-1"}, 0xca8a8c2dddb488faULL},
    {{"GG", "ccsd-duplex-2"}, 0xe06d84945ad75a90ULL},
    {{"GG", "ccsd-duplex-3"}, 0x91873ca4018d3a13ULL},
    {{"GG", "ccsd-paper-1"}, 0x65ea103caf70c989ULL},
    {{"GG", "ccsd-paper-2"}, 0x06cf9f24ec514897ULL},
    {{"GG", "ccsd-paper-3"}, 0x81779ad688317ee3ULL},
    {{"GG", "hf-duplex-1"}, 0x53d9aa6002f31c8fULL},
    {{"GG", "hf-duplex-2"}, 0x4c0e8bc2c1e83dcbULL},
    {{"GG", "hf-duplex-3"}, 0xa49f1be8440b3a14ULL},
    {{"GG", "hf-paper-1"}, 0x82a656c300cffa9bULL},
    {{"GG", "hf-paper-2"}, 0x0bad8969ee88e62eULL},
    {{"GG", "hf-paper-3"}, 0x9ec1926f94980aa0ULL},
    {{"IOCCS", "ccsd-dag-1"}, 0x6e0893fad3c3f665ULL},
    {{"IOCCS", "ccsd-duplex-1"}, 0xa353040f0fa93129ULL},
    {{"IOCCS", "ccsd-duplex-2"}, 0x551e6a02917ad9c0ULL},
    {{"IOCCS", "ccsd-duplex-3"}, 0xd5ad2b4674afd051ULL},
    {{"IOCCS", "ccsd-paper-1"}, 0xcec2aa8a4a1c8da7ULL},
    {{"IOCCS", "ccsd-paper-2"}, 0x34eda041429d05f2ULL},
    {{"IOCCS", "ccsd-paper-3"}, 0x227c5e3187d55161ULL},
    {{"IOCCS", "hf-duplex-1"}, 0x08e2ca2715c0f461ULL},
    {{"IOCCS", "hf-duplex-2"}, 0xb97e69e654df724dULL},
    {{"IOCCS", "hf-duplex-3"}, 0x693c34161b6ca68dULL},
    {{"IOCCS", "hf-paper-1"}, 0x1bdb6c99a11f54cbULL},
    {{"IOCCS", "hf-paper-2"}, 0xf627cb87e6ddb9e3ULL},
    {{"IOCCS", "hf-paper-3"}, 0x020365ed8bc25428ULL},
    {{"IOCMS", "ccsd-dag-1"}, 0x5f9969e6c2cabc41ULL},
    {{"IOCMS", "ccsd-duplex-1"}, 0x9b1cc74aa82d6306ULL},
    {{"IOCMS", "ccsd-duplex-2"}, 0xa0494d6935a174e1ULL},
    {{"IOCMS", "ccsd-duplex-3"}, 0x7033ec100a220242ULL},
    {{"IOCMS", "ccsd-paper-1"}, 0xe76288a48bd65a0aULL},
    {{"IOCMS", "ccsd-paper-2"}, 0x98e32a87592ccea8ULL},
    {{"IOCMS", "ccsd-paper-3"}, 0xd6ed1571a65a5435ULL},
    {{"IOCMS", "hf-duplex-1"}, 0x71441b0323fba814ULL},
    {{"IOCMS", "hf-duplex-2"}, 0xbf69542a764ea820ULL},
    {{"IOCMS", "hf-duplex-3"}, 0x28088f7228b73907ULL},
    {{"IOCMS", "hf-paper-1"}, 0xba2123913e338895ULL},
    {{"IOCMS", "hf-paper-2"}, 0xc67b2f1626d7ab90ULL},
    {{"IOCMS", "hf-paper-3"}, 0xa529fd503d87b069ULL},
    {{"LCMR", "ccsd-dag-1"}, 0x78e5de46e8132929ULL},
    {{"LCMR", "ccsd-duplex-1"}, 0x663e867d88724462ULL},
    {{"LCMR", "ccsd-duplex-2"}, 0xa591b9599a989dfeULL},
    {{"LCMR", "ccsd-duplex-3"}, 0x42bee777cc7024d8ULL},
    {{"LCMR", "ccsd-paper-1"}, 0xf305a5f790c7dc1eULL},
    {{"LCMR", "ccsd-paper-2"}, 0xbad784727df63813ULL},
    {{"LCMR", "ccsd-paper-3"}, 0xe9695408ce9d5350ULL},
    {{"LCMR", "hf-duplex-1"}, 0x882cf2039c6ac279ULL},
    {{"LCMR", "hf-duplex-2"}, 0xf9fc75238be9eb9eULL},
    {{"LCMR", "hf-duplex-3"}, 0xbe236885453e5ec0ULL},
    {{"LCMR", "hf-paper-1"}, 0x8e62264088691538ULL},
    {{"LCMR", "hf-paper-2"}, 0x04320d838ab59614ULL},
    {{"LCMR", "hf-paper-3"}, 0x57642fca9b29fabeULL},
    {{"MAMR", "ccsd-dag-1"}, 0x98fa24d6295a15a1ULL},
    {{"MAMR", "ccsd-duplex-1"}, 0x4b34f6e46d1bcedbULL},
    {{"MAMR", "ccsd-duplex-2"}, 0xa1933d102e2566d9ULL},
    {{"MAMR", "ccsd-duplex-3"}, 0x76b2aaca24119bd9ULL},
    {{"MAMR", "ccsd-paper-1"}, 0xa75fe8a771c296d7ULL},
    {{"MAMR", "ccsd-paper-2"}, 0xd7f7e439bebefb15ULL},
    {{"MAMR", "ccsd-paper-3"}, 0x04c384a74509e6a1ULL},
    {{"MAMR", "hf-duplex-1"}, 0x7112ce1e31a638a2ULL},
    {{"MAMR", "hf-duplex-2"}, 0xbe016cdd3257d413ULL},
    {{"MAMR", "hf-duplex-3"}, 0xc5a4af7f378fe8e7ULL},
    {{"MAMR", "hf-paper-1"}, 0x6490b0d138d6f818ULL},
    {{"MAMR", "hf-paper-2"}, 0xea18c249e30ff469ULL},
    {{"MAMR", "hf-paper-3"}, 0xe036af8097221af1ULL},
    {{"OOLCMR", "ccsd-dag-1"}, 0xfef7e15bf4907736ULL},
    {{"OOLCMR", "ccsd-duplex-1"}, 0x8a5a57e5e7b2fbf5ULL},
    {{"OOLCMR", "ccsd-duplex-2"}, 0xebe6610e8e6604f2ULL},
    {{"OOLCMR", "ccsd-duplex-3"}, 0xde0d29ff40677c77ULL},
    {{"OOLCMR", "ccsd-paper-1"}, 0xcadff55e0b771fefULL},
    {{"OOLCMR", "ccsd-paper-2"}, 0x5c2957ccfc54ff1fULL},
    {{"OOLCMR", "ccsd-paper-3"}, 0x982e06d1d3342c0fULL},
    {{"OOLCMR", "hf-duplex-1"}, 0x55a8b6a1d31cd6c7ULL},
    {{"OOLCMR", "hf-duplex-2"}, 0x141d27f1eec358e0ULL},
    {{"OOLCMR", "hf-duplex-3"}, 0x7a6804fcd75e4cd3ULL},
    {{"OOLCMR", "hf-paper-1"}, 0xa9465bff4176541cULL},
    {{"OOLCMR", "hf-paper-2"}, 0x8465bfb458bf6732ULL},
    {{"OOLCMR", "hf-paper-3"}, 0x56c80a11d7bc39d2ULL},
    {{"OOMAMR", "ccsd-dag-1"}, 0x8266d3a138b48f3dULL},
    {{"OOMAMR", "ccsd-duplex-1"}, 0x631fe55000c3f5ffULL},
    {{"OOMAMR", "ccsd-duplex-2"}, 0x6c0543f49a5a365bULL},
    {{"OOMAMR", "ccsd-duplex-3"}, 0x240cc620d04cd324ULL},
    {{"OOMAMR", "ccsd-paper-1"}, 0x1478abdc2d4c87c6ULL},
    {{"OOMAMR", "ccsd-paper-2"}, 0x8826069d162fa6f6ULL},
    {{"OOMAMR", "ccsd-paper-3"}, 0x9a46d4f6dd04e922ULL},
    {{"OOMAMR", "hf-duplex-1"}, 0xee2b99fcf1cc28a5ULL},
    {{"OOMAMR", "hf-duplex-2"}, 0x24aeabcc3f72084aULL},
    {{"OOMAMR", "hf-duplex-3"}, 0x684bc9711f4965c2ULL},
    {{"OOMAMR", "hf-paper-1"}, 0xa9465bff4176541cULL},
    {{"OOMAMR", "hf-paper-2"}, 0x8465bfb458bf6732ULL},
    {{"OOMAMR", "hf-paper-3"}, 0x56c80a11d7bc39d2ULL},
    {{"OOSCMR", "ccsd-dag-1"}, 0x20530c6fbcd544abULL},
    {{"OOSCMR", "ccsd-duplex-1"}, 0x47d9aaceaef64972ULL},
    {{"OOSCMR", "ccsd-duplex-2"}, 0x22d3de1d08b4a2d4ULL},
    {{"OOSCMR", "ccsd-duplex-3"}, 0x6dd2cd7d6277e107ULL},
    {{"OOSCMR", "ccsd-paper-1"}, 0xa6952afc9a34651cULL},
    {{"OOSCMR", "ccsd-paper-2"}, 0xd9b68e98d4c54f19ULL},
    {{"OOSCMR", "ccsd-paper-3"}, 0x9cc2f44d94f43c2cULL},
    {{"OOSCMR", "hf-duplex-1"}, 0x3bbb6cd002214485ULL},
    {{"OOSCMR", "hf-duplex-2"}, 0xb857ec0fdc6e4bc4ULL},
    {{"OOSCMR", "hf-duplex-3"}, 0x5e45175422da3735ULL},
    {{"OOSCMR", "hf-paper-1"}, 0xa9465bff4176541cULL},
    {{"OOSCMR", "hf-paper-2"}, 0x8465bfb458bf6732ULL},
    {{"OOSCMR", "hf-paper-3"}, 0x56c80a11d7bc39d2ULL},
    {{"OOSIM", "ccsd-dag-1"}, 0x473a50912c755495ULL},
    {{"OOSIM", "ccsd-duplex-1"}, 0xea62edca636154e4ULL},
    {{"OOSIM", "ccsd-duplex-2"}, 0x85d52cd3debcc990ULL},
    {{"OOSIM", "ccsd-duplex-3"}, 0x33ffe2978e571ae6ULL},
    {{"OOSIM", "ccsd-paper-1"}, 0x6d2b664dfee853b8ULL},
    {{"OOSIM", "ccsd-paper-2"}, 0x06b35d2968270474ULL},
    {{"OOSIM", "ccsd-paper-3"}, 0x6e0d800d2141b270ULL},
    {{"OOSIM", "hf-duplex-1"}, 0x79467e0ae5ffd7f0ULL},
    {{"OOSIM", "hf-duplex-2"}, 0x0daf8a2f9e117e11ULL},
    {{"OOSIM", "hf-duplex-3"}, 0x40b85e1d5c72904fULL},
    {{"OOSIM", "hf-paper-1"}, 0xc1204335d50ae2eeULL},
    {{"OOSIM", "hf-paper-2"}, 0x7271c038f4894f46ULL},
    {{"OOSIM", "hf-paper-3"}, 0xd28044378248684eULL},
    {{"OS", "ccsd-dag-1"}, 0x3278803bb8947095ULL},
    {{"OS", "ccsd-duplex-1"}, 0x5434dc7e2f0fff0eULL},
    {{"OS", "ccsd-duplex-2"}, 0x5f053c80ee523874ULL},
    {{"OS", "ccsd-duplex-3"}, 0x0d2b58dd0511315cULL},
    {{"OS", "ccsd-paper-1"}, 0x8d27706898989718ULL},
    {{"OS", "ccsd-paper-2"}, 0xbc878efc475e4d8cULL},
    {{"OS", "ccsd-paper-3"}, 0xad359f2fa1b3a3f3ULL},
    {{"OS", "hf-duplex-1"}, 0x336b7ec119675491ULL},
    {{"OS", "hf-duplex-2"}, 0x8dc4bc4d48a89bcaULL},
    {{"OS", "hf-duplex-3"}, 0x77076284466e460bULL},
    {{"OS", "hf-paper-1"}, 0x515f127a97130f7bULL},
    {{"OS", "hf-paper-2"}, 0xa1a09a3100d09045ULL},
    {{"OS", "hf-paper-3"}, 0x0e2258b390447842ULL},
    {{"SCMR", "ccsd-dag-1"}, 0x2d81f25c32197844ULL},
    {{"SCMR", "ccsd-duplex-1"}, 0x8984bfde258101e4ULL},
    {{"SCMR", "ccsd-duplex-2"}, 0xc034f77b812744d7ULL},
    {{"SCMR", "ccsd-duplex-3"}, 0x6232a10ebd817e45ULL},
    {{"SCMR", "ccsd-paper-1"}, 0xe76288a48bd65a0aULL},
    {{"SCMR", "ccsd-paper-2"}, 0x98e32a87592ccea8ULL},
    {{"SCMR", "ccsd-paper-3"}, 0xd6ed1571a65a5435ULL},
    {{"SCMR", "hf-duplex-1"}, 0xce27d865f5fb3376ULL},
    {{"SCMR", "hf-duplex-2"}, 0x157cf11c39bed105ULL},
    {{"SCMR", "hf-duplex-3"}, 0x3087ffa9e23315d9ULL},
    {{"SCMR", "hf-paper-1"}, 0xba2123913e338895ULL},
    {{"SCMR", "hf-paper-2"}, 0xc67b2f1626d7ab90ULL},
    {{"SCMR", "hf-paper-3"}, 0xa529fd503d87b069ULL},
};
// clang-format on

/// Every paper heuristic batch by batch (§6.3) through solve(): the batch
/// runtime computes each order on the batch alone and carries the engine
/// from one batch into the next.
TEST(EngineGoldens, BatchedHeuristicDigestsOnStockCorpus) {
  std::map<Key, std::uint64_t> actual;
  for (const Trace& trace : stock_corpus()) {
    for (const HeuristicInfo& h : all_heuristics()) {
      const std::string name(h.name);
      actual[{name, trace.label}] =
          capacity_digest(trace.instance, name, kBatch);
    }
  }
  expect_goldens(actual, kBatchedGoldens);
}

// clang-format off
const std::map<Key, std::uint64_t> kRelabeledDagGoldens = {
    {{"BP", "ccsd-dag-shuffled-1"}, 0x56ce128b7077d7b8ULL},
    {{"BP", "ccsd-dag-shuffled-1-batch"}, 0xc0878e73f747af32ULL},
    {{"BP", "ccsd-dag-shuffled-2"}, 0xc4a38719bda683d4ULL},
    {{"BP", "ccsd-dag-shuffled-2-batch"}, 0x55ce8c4004a8f88bULL},
    {{"BP", "ccsd-dag-shuffled-3"}, 0xe9e21bef5ead2469ULL},
    {{"BP", "ccsd-dag-shuffled-3-batch"}, 0xf0adf8b546040c0aULL},
    {{"DOCCS", "ccsd-dag-shuffled-1"}, 0xfdd3482c32348d87ULL},
    {{"DOCCS", "ccsd-dag-shuffled-1-batch"}, 0xdc2a9658764675ddULL},
    {{"DOCCS", "ccsd-dag-shuffled-2"}, 0x3845e445ed4ea3baULL},
    {{"DOCCS", "ccsd-dag-shuffled-2-batch"}, 0xaf18ab8ee4b49b2fULL},
    {{"DOCCS", "ccsd-dag-shuffled-3"}, 0xcfc6b23dedaccb12ULL},
    {{"DOCCS", "ccsd-dag-shuffled-3-batch"}, 0x237cb2ee469b82e9ULL},
    {{"DOCPS", "ccsd-dag-shuffled-1"}, 0x5abf81ebb88961deULL},
    {{"DOCPS", "ccsd-dag-shuffled-1-batch"}, 0xe49b1203da484f02ULL},
    {{"DOCPS", "ccsd-dag-shuffled-2"}, 0xb9a8aaf4b6a870e8ULL},
    {{"DOCPS", "ccsd-dag-shuffled-2-batch"}, 0x22b6c58ccbb3a2b9ULL},
    {{"DOCPS", "ccsd-dag-shuffled-3"}, 0xa07a75633a324d94ULL},
    {{"DOCPS", "ccsd-dag-shuffled-3-batch"}, 0xd7230742f811bd86ULL},
    {{"GG", "ccsd-dag-shuffled-1"}, 0x6a0abfbda4e8ae41ULL},
    {{"GG", "ccsd-dag-shuffled-1-batch"}, 0x0619242b4aa5bbe3ULL},
    {{"GG", "ccsd-dag-shuffled-2"}, 0xd84d181975721ca5ULL},
    {{"GG", "ccsd-dag-shuffled-2-batch"}, 0x61b348dbc93508d1ULL},
    {{"GG", "ccsd-dag-shuffled-3"}, 0x724bff8d3c6bdf84ULL},
    {{"GG", "ccsd-dag-shuffled-3-batch"}, 0xd78432a97d68d134ULL},
    {{"IOCCS", "ccsd-dag-shuffled-1"}, 0x186ec32e5318490dULL},
    {{"IOCCS", "ccsd-dag-shuffled-1-batch"}, 0x52a9a6406f2b114dULL},
    {{"IOCCS", "ccsd-dag-shuffled-2"}, 0x7e6231dbbee5964dULL},
    {{"IOCCS", "ccsd-dag-shuffled-2-batch"}, 0x8c038d1bdd95b6d4ULL},
    {{"IOCCS", "ccsd-dag-shuffled-3"}, 0xf471004f8efa26e5ULL},
    {{"IOCCS", "ccsd-dag-shuffled-3-batch"}, 0x758db19396865906ULL},
    {{"IOCMS", "ccsd-dag-shuffled-1"}, 0xa2f48dbb3ed878d1ULL},
    {{"IOCMS", "ccsd-dag-shuffled-1-batch"}, 0x04b0a5bc62a2b9daULL},
    {{"IOCMS", "ccsd-dag-shuffled-2"}, 0xb7c828e214e6a9ddULL},
    {{"IOCMS", "ccsd-dag-shuffled-2-batch"}, 0xc539a4d937a6e8c5ULL},
    {{"IOCMS", "ccsd-dag-shuffled-3"}, 0x336e2af934a7b5f5ULL},
    {{"IOCMS", "ccsd-dag-shuffled-3-batch"}, 0x8d8234d407197e9dULL},
    {{"LCMR", "ccsd-dag-shuffled-1"}, 0xc1bb0cfbdf31e018ULL},
    {{"LCMR", "ccsd-dag-shuffled-1-batch"}, 0xde01cd79efcf1ab9ULL},
    {{"LCMR", "ccsd-dag-shuffled-2"}, 0xd9bac9fd9c1dbb27ULL},
    {{"LCMR", "ccsd-dag-shuffled-2-batch"}, 0x32d38eb0328cf52eULL},
    {{"LCMR", "ccsd-dag-shuffled-3"}, 0xcb024fdc2635d72cULL},
    {{"LCMR", "ccsd-dag-shuffled-3-batch"}, 0xae40cca86952664cULL},
    {{"MAMR", "ccsd-dag-shuffled-1"}, 0xc7fb50d927e578cdULL},
    {{"MAMR", "ccsd-dag-shuffled-1-batch"}, 0x6e4e9b01ee47d60fULL},
    {{"MAMR", "ccsd-dag-shuffled-2"}, 0x5428ae15765e7390ULL},
    {{"MAMR", "ccsd-dag-shuffled-2-batch"}, 0xb07808c8c3177b50ULL},
    {{"MAMR", "ccsd-dag-shuffled-3"}, 0x43d0451011437784ULL},
    {{"MAMR", "ccsd-dag-shuffled-3-batch"}, 0x978db7d4de0a1616ULL},
    {{"OOLCMR", "ccsd-dag-shuffled-1"}, 0x884467ee6aff9e02ULL},
    {{"OOLCMR", "ccsd-dag-shuffled-1-batch"}, 0x100298b9ef899e36ULL},
    {{"OOLCMR", "ccsd-dag-shuffled-2"}, 0x2218100d2daf848fULL},
    {{"OOLCMR", "ccsd-dag-shuffled-2-batch"}, 0xa017617c5d57158cULL},
    {{"OOLCMR", "ccsd-dag-shuffled-3"}, 0x26d7828ff8ace54dULL},
    {{"OOLCMR", "ccsd-dag-shuffled-3-batch"}, 0xc31917bc3974340bULL},
    {{"OOMAMR", "ccsd-dag-shuffled-1"}, 0xd829c1c607a1f1f4ULL},
    {{"OOMAMR", "ccsd-dag-shuffled-1-batch"}, 0x24ae20d13c982aa7ULL},
    {{"OOMAMR", "ccsd-dag-shuffled-2"}, 0xea1202f925577501ULL},
    {{"OOMAMR", "ccsd-dag-shuffled-2-batch"}, 0xf3762ca6d00d23fdULL},
    {{"OOMAMR", "ccsd-dag-shuffled-3"}, 0x6c059b82c99a7565ULL},
    {{"OOMAMR", "ccsd-dag-shuffled-3-batch"}, 0xb14a2ca91dbb45c2ULL},
    {{"OOSCMR", "ccsd-dag-shuffled-1"}, 0xaf2e8260b2599130ULL},
    {{"OOSCMR", "ccsd-dag-shuffled-1-batch"}, 0xba2e5a5f31d2742cULL},
    {{"OOSCMR", "ccsd-dag-shuffled-2"}, 0xf72fa68210f6b489ULL},
    {{"OOSCMR", "ccsd-dag-shuffled-2-batch"}, 0xcfb85777355aba36ULL},
    {{"OOSCMR", "ccsd-dag-shuffled-3"}, 0xa47d4c9d0f3b7c77ULL},
    {{"OOSCMR", "ccsd-dag-shuffled-3-batch"}, 0xecfb7a12c2fcf12fULL},
    {{"OOSIM", "ccsd-dag-shuffled-1"}, 0xf3e51c116cb3f9ecULL},
    {{"OOSIM", "ccsd-dag-shuffled-1-batch"}, 0x6b7e3408b9466481ULL},
    {{"OOSIM", "ccsd-dag-shuffled-2"}, 0x8fd90f67d411cef3ULL},
    {{"OOSIM", "ccsd-dag-shuffled-2-batch"}, 0x1e8179668489bb6cULL},
    {{"OOSIM", "ccsd-dag-shuffled-3"}, 0x31273b5a78172ed1ULL},
    {{"OOSIM", "ccsd-dag-shuffled-3-batch"}, 0x1207d1372387f669ULL},
    {{"OS", "ccsd-dag-shuffled-1"}, 0xf11a3ea759383b9dULL},
    {{"OS", "ccsd-dag-shuffled-1-batch"}, 0xf11a3ea759383b9dULL},
    {{"OS", "ccsd-dag-shuffled-2"}, 0x5938365fee3e8dcaULL},
    {{"OS", "ccsd-dag-shuffled-2-batch"}, 0x5938365fee3e8dcaULL},
    {{"OS", "ccsd-dag-shuffled-3"}, 0x4e7a49054051279eULL},
    {{"OS", "ccsd-dag-shuffled-3-batch"}, 0x4e7a49054051279eULL},
    {{"SCMR", "ccsd-dag-shuffled-1"}, 0xe8047d2b083c58b0ULL},
    {{"SCMR", "ccsd-dag-shuffled-1-batch"}, 0x4c577df57337ccc0ULL},
    {{"SCMR", "ccsd-dag-shuffled-2"}, 0x7621d4579aba41f6ULL},
    {{"SCMR", "ccsd-dag-shuffled-2-batch"}, 0x6f65a0ae53d5bdc4ULL},
    {{"SCMR", "ccsd-dag-shuffled-3"}, 0x6402731409cc17f2ULL},
    {{"SCMR", "ccsd-dag-shuffled-3-batch"}, 0xeccef4db94d072d0ULL},
    {{"auto", "ccsd-dag-shuffled-1"}, 0xc1bb0cfbdf31e018ULL},
    {{"auto", "ccsd-dag-shuffled-1-batch"}, 0xe6fe8499032db20dULL},
    {{"auto", "ccsd-dag-shuffled-2"}, 0xd9bac9fd9c1dbb27ULL},
    {{"auto", "ccsd-dag-shuffled-2-batch"}, 0xcf4d11b00d46e4acULL},
    {{"auto", "ccsd-dag-shuffled-3"}, 0xcb024fdc2635d72cULL},
    {{"auto", "ccsd-dag-shuffled-3-batch"}, 0xb5b1119b4124fd52ULL},
    {{"auto-batch", "ccsd-dag-shuffled-1"}, 0xe6fe8499032db20dULL},
    {{"auto-batch", "ccsd-dag-shuffled-2"}, 0xcf4d11b00d46e4acULL},
    {{"auto-batch", "ccsd-dag-shuffled-3"}, 0xb5b1119b4124fd52ULL},
};
// clang-format on

/// CCSD contraction-chain DAGs whose task ids are shuffled, so submission
/// order is not topological: the whole-instance runtime repairs each
/// heuristic's order against the edges, while the batch runtime walks a
/// topological sequence and renumbers every batch.
TEST(EngineGoldens, RelabeledDagDigests) {
  std::vector<std::string> solvers = {"auto", "auto-batch"};
  for (const HeuristicInfo& h : all_heuristics()) solvers.emplace_back(h.name);

  std::map<Key, std::uint64_t> actual;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance dag = generate_ccsd_dag_trace(
        TraceConfig{.seed = seed, .min_tasks = 300, .max_tasks = 300});
    std::vector<TaskId> perm = dag.submission_order();
    Rng rng(seed);
    for (std::size_t k = perm.size(); k > 1; --k) {
      std::swap(perm[k - 1], perm[rng.index(k)]);
    }
    const Instance shuffled = dag.subset(perm);
    ASSERT_FALSE(shuffled.is_topological_order(shuffled.submission_order()));

    const std::string label = "ccsd-dag-shuffled-" + std::to_string(seed);
    for (const std::string& solver : solvers) {
      actual[{solver, label}] = capacity_digest(shuffled, solver, std::nullopt);
      if (solver == "auto-batch") continue;  // batched by construction
      actual[{solver, label + "-batch"}] =
          capacity_digest(shuffled, solver, kBatch);
    }
  }
  expect_goldens(actual, kRelabeledDagGoldens);
}

}  // namespace
}  // namespace dts
