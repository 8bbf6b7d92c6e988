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
#include <string>
#include <utility>
#include <vector>

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

  std::string changed;
  std::size_t n_changed = 0;
  for (const auto& [key, digest] : actual) {
    const auto it = kGoldens.find(key);
    if (it != kGoldens.end() && it->second == digest) continue;
    ++n_changed;
    char row[160];
    std::snprintf(row, sizeof row, "    {{\"%s\", \"%s\"}, 0x%016llxULL},\n",
                  key.first.c_str(), key.second.c_str(),
                  static_cast<unsigned long long>(digest));
    changed += row;
  }
  for (const auto& [key, digest] : kGoldens) {
    if (actual.count(key) == 0) {
      ++n_changed;
      changed += "    (stale row) " + key.first + " / " + key.second + "\n";
    }
  }
  EXPECT_EQ(n_changed, 0u) << n_changed << " of " << actual.size()
                           << " digest rows changed:\n"
                           << changed;
}

}  // namespace
}  // namespace dts
