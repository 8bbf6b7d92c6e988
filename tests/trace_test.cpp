#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "model/machine.hpp"
#include "trace/generators.hpp"
#include "trace/tensor_tasks.hpp"
#include "trace/trace_io.hpp"
#include "trace/workload_stats.hpp"

namespace dts {
namespace {

TEST(TileSpec, ElementsAndBytes) {
  EXPECT_EQ((TileSpec{{100, 100}}.elements()), 10000u);
  EXPECT_DOUBLE_EQ((TileSpec{{100, 100}}.bytes()), 80000.0);
  EXPECT_EQ((TileSpec{{}}.elements()), 0u);
  EXPECT_EQ((TileSpec{{4, 5, 6}}.elements()), 120u);
}

TEST(TensorTasks, TransposeIsCommunicationIntensive) {
  const Machine m = machine_from_name("paper");
  const Task t = make_transpose_task(m, TileSpec{{100, 100}}, "tr");
  EXPECT_FALSE(t.compute_intensive());
  EXPECT_DOUBLE_EQ(t.mem, 80000.0);
  EXPECT_GT(t.comm, 0.0);
  EXPECT_GT(t.comp, 0.0);
}

TEST(TensorTasks, LargeContractionIsComputeIntensive) {
  const Machine m = machine_from_name("paper");
  const Task t = make_contraction_task(m, 2000, 2000, 200, "ct");
  EXPECT_TRUE(t.compute_intensive());
  EXPECT_DOUBLE_EQ(t.mem, 8.0 * (2000.0 * 200 + 200 * 2000));
}

TEST(MachineModel, TransferIncludesLatency) {
  // The paper's machine costs transfers on its one link and computations
  // through its compute rates.
  const Machine m = machine_from_name("paper");
  EXPECT_GT(m.transfer_time(kChannelH2D, 0.0), 0.0);
  EXPECT_GT(m.transfer_time(kChannelH2D, 1e6),
            m.transfer_time(kChannelH2D, 1e3));
  EXPECT_DOUBLE_EQ(m.compute_time(1.2e10), 1.0);
  EXPECT_DOUBLE_EQ(m.streaming_time(2.0e9), 1.0);
}

TEST(Generators, RejectMachinesWithoutComputeRates) {
  TraceConfig config;
  config.machine = machine_from_name("nvlink");
  EXPECT_THROW((void)generate_hf_trace(config), std::invalid_argument);
}

TEST(Generators, Deterministic) {
  TraceConfig config;
  config.seed = 77;
  const Instance a = generate_hf_trace(config);
  const Instance b = generate_hf_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (TaskId i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].comm, b[i].comm);
    EXPECT_DOUBLE_EQ(a[i].comp, b[i].comp);
    EXPECT_DOUBLE_EQ(a[i].mem, b[i].mem);
  }
}

TEST(Generators, TaskCountsInConfiguredRange) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TraceConfig config;
    config.seed = seed;
    const Instance hf = generate_hf_trace(config);
    EXPECT_GE(hf.size(), 300u);
    EXPECT_LE(hf.size(), 800u);
    const Instance ccsd = generate_ccsd_trace(config);
    EXPECT_GE(ccsd.size(), 300u);
    EXPECT_LE(ccsd.size(), 800u);
  }
}

TEST(Generators, HfMinimumCapacityIs176KB) {
  // The paper's HF experiments use mc = 176 KB.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TraceConfig config;
    config.seed = seed;
    EXPECT_DOUBLE_EQ(generate_hf_trace(config).min_capacity(), 176000.0);
  }
}

TEST(Generators, CcsdMinimumCapacityNear1Point8GB) {
  // The paper's CCSD experiments use mc = 1.8 GB.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TraceConfig config;
    config.seed = seed;
    const Mem mc = generate_ccsd_trace(config).min_capacity();
    EXPECT_GE(mc, 0.97 * 1.8e9);
    EXPECT_LE(mc, 1.8e9);
  }
}

TEST(Generators, HfShapeMatchesFig8) {
  // HF is communication dominated: at most ~20-25% overlap is available
  // and the sum of computation is well below the sum of communication.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TraceConfig config;
    config.seed = seed;
    const WorkloadCharacteristics wc = characterize(generate_hf_trace(config));
    EXPECT_GT(wc.bounds.sum_comm, wc.bounds.sum_comp);
    const double ratio = wc.bounds.sum_comp / wc.bounds.sum_comm;
    EXPECT_GT(ratio, 0.10) << "seed " << seed;
    EXPECT_LT(ratio, 0.45) << "seed " << seed;
    EXPECT_LT(wc.overlap_potential(), 0.30) << "seed " << seed;
    EXPECT_NEAR(wc.comm_over_omim, 1.0, 0.05) << "OMIM ~ sum comm for HF";
  }
}

TEST(Generators, CcsdShapeMatchesFig8) {
  // CCSD is roughly balanced: substantial overlap is available.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TraceConfig config;
    config.seed = seed;
    const WorkloadCharacteristics wc =
        characterize(generate_ccsd_trace(config));
    const double ratio = wc.bounds.sum_comp / wc.bounds.sum_comm;
    EXPECT_GT(ratio, 0.55) << "seed " << seed;
    EXPECT_LT(ratio, 1.8) << "seed " << seed;
    EXPECT_GT(wc.overlap_potential(), 0.30) << "seed " << seed;
  }
}

TEST(Generators, HfComputeIntensiveTasksHaveSmallComm) {
  // The structural property the paper uses to explain SCMR's strength on
  // HF: the compute-intensive tasks are the small-communication ones.
  TraceConfig config;
  config.seed = 3;
  const Instance inst = generate_hf_trace(config);
  double ci_comm = 0.0, other_comm = 0.0;
  std::size_t ci = 0, other = 0;
  for (const Task& t : inst) {
    if (t.compute_intensive()) {
      ci_comm += t.comm;
      ++ci;
    } else {
      other_comm += t.comm;
      ++other;
    }
  }
  ASSERT_GT(ci, 0u);
  ASSERT_GT(other, 0u);
  EXPECT_LT(ci_comm / static_cast<double>(ci),
            other_comm / static_cast<double>(other));
}

TEST(Generators, CcsdHasBothTaskTypesInQuantity) {
  TraceConfig config;
  config.seed = 4;
  const Instance inst = generate_ccsd_trace(config);
  const double frac = inst.stats().compute_intensive_fraction();
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.75);
}

TEST(Generators, CcsdMoreHeterogeneousThanHf) {
  TraceConfig config;
  config.seed = 5;
  const auto cv = [](const Instance& inst) {
    double sum = 0.0, sq = 0.0;
    for (const Task& t : inst) sum += t.comm;
    const double mean = sum / static_cast<double>(inst.size());
    for (const Task& t : inst) sq += (t.comm - mean) * (t.comm - mean);
    return std::sqrt(sq / static_cast<double>(inst.size())) / mean;
  };
  EXPECT_GT(cv(generate_ccsd_trace(config)), 2.0 * cv(generate_hf_trace(config)));
}

TEST(Generators, FleetProducesDistinctTraces) {
  const auto traces =
      generate_process_traces(ChemistryKernel::kHartreeFock, 5, 1000);
  ASSERT_EQ(traces.size(), 5u);
  EXPECT_FALSE(traces[0].size() == traces[1].size() &&
               traces[1].size() == traces[2].size() &&
               traces[2].size() == traces[3].size() &&
               traces[3].size() == traces[4].size())
      << "five identical task counts would suggest a seeding bug";
}

TEST(TraceIo, RoundTrip) {
  TraceConfig config;
  config.seed = 9;
  config.min_tasks = 50;
  config.max_tasks = 60;
  const Instance original = generate_ccsd_trace(config);
  std::stringstream buffer;
  write_trace(buffer, original);
  // Generated traces carry byte annotations, so the writer picks v3.
  EXPECT_NE(buffer.str().find("# dts-trace v3"), std::string::npos);
  const Instance loaded = read_trace(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (TaskId i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].comm, original[i].comm) << i;
    EXPECT_DOUBLE_EQ(loaded[i].comp, original[i].comp) << i;
    EXPECT_DOUBLE_EQ(loaded[i].mem, original[i].mem) << i;
    EXPECT_DOUBLE_EQ(loaded[i].comm_bytes, original[i].comm_bytes) << i;
    EXPECT_EQ(loaded[i].name, original[i].name) << i;
  }
}

TEST(TraceIo, WriteTraceFileReportsAFailedWrite) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  // /dev/full opens fine and refuses every byte: a trace that fits the
  // stream's buffer fails at the flush, a larger one while writing.
  for (const std::size_t n : {std::size_t{4}, std::size_t{4000}}) {
    TraceConfig config;
    config.min_tasks = n;
    config.max_tasks = n;
    const Instance inst = generate_hf_trace(config);
    try {
      write_trace_file("/dev/full", inst);
      ADD_FAILURE() << n << " tasks: no error for a failed write";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceIo, WriterPicksTheLowestSufficientVersion) {
  // No bytes, one channel -> v1 (legacy readers keep working).
  const Instance v1 = Instance::from_comm_comp({{1, 2}, {3, 4}});
  std::stringstream v1_buffer;
  write_trace(v1_buffer, v1);
  EXPECT_NE(v1_buffer.str().find("# dts-trace v1\n"), std::string::npos);

  // Bytes on a single-channel instance -> v3.
  std::vector<Task> tasks;
  tasks.push_back(Task{.id = 0, .comm = 1.0, .comp = 2.0, .mem = 3.0,
                       .comm_bytes = 4096.0, .name = "a"});
  std::stringstream v3_buffer;
  write_trace(v3_buffer, Instance(std::move(tasks)));
  const std::string text = v3_buffer.str();
  EXPECT_NE(text.find("# dts-trace v3\n"), std::string::npos);
  EXPECT_NE(text.find("bytes=4096"), std::string::npos);
}

TEST(TraceIo, V3RoundTripWithBytesChannelsAndTimelessTasks) {
  std::vector<Task> tasks;
  tasks.push_back(Task{.id = 0, .comm = 1.5, .comp = 2.0, .mem = 3.0,
                       .channel = kChannelH2D, .comm_bytes = 176000.0,
                       .name = "in"});
  tasks.push_back(Task{.id = 0, .comm = kUnboundTime, .comp = 0.0, .mem = 1.0,
                       .channel = kChannelD2H, .comm_bytes = 70400.0,
                       .name = "out"});
  tasks.push_back(Task{.id = 0, .comm = 0.25, .comp = 0.5, .mem = 2.0,
                       .channel = kChannelH2D, .name = "legacy"});
  const Instance inst(std::move(tasks));
  std::stringstream buffer;
  write_trace(buffer, inst);
  EXPECT_NE(buffer.str().find("# dts-trace v3"), std::string::npos);
  EXPECT_NE(buffer.str().find(" ? "), std::string::npos);  // time-less comm
  const Instance back = read_trace(buffer);
  ASSERT_EQ(back.size(), inst.size());
  for (TaskId i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(back[i].comm, inst[i].comm) << i;  // incl. the sentinel
    EXPECT_DOUBLE_EQ(back[i].comp, inst[i].comp) << i;
    EXPECT_DOUBLE_EQ(back[i].mem, inst[i].mem) << i;
    EXPECT_EQ(back[i].channel, inst[i].channel) << i;
    EXPECT_DOUBLE_EQ(back[i].comm_bytes, inst[i].comm_bytes) << i;
  }
  EXPECT_FALSE(back.fully_bound());
  EXPECT_FALSE(back.fully_byte_annotated());
}

TEST(TraceIo, V3AcceptsBytesWithoutChannelColumn) {
  std::stringstream buffer(
      "# dts-trace v3\n"
      "task a 1 2 3 bytes=4096\n"
      "task b ? 1 2 bytes=100\n");
  const Instance inst = read_trace(buffer);
  ASSERT_EQ(inst.size(), 2u);
  EXPECT_DOUBLE_EQ(inst[0].comm_bytes, 4096.0);
  EXPECT_EQ(inst[0].channel, 0u);
  EXPECT_EQ(inst[1].comm, kUnboundTime);
  EXPECT_TRUE(inst.fully_byte_annotated());
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream buffer("task a 1 2 3\n");
  EXPECT_THROW((void)read_trace(buffer), TraceIoError);
}

TEST(TraceIo, RejectsUnknownRecord) {
  std::stringstream buffer("# dts-trace v1\njob a 1 2 3\n");
  try {
    (void)read_trace(buffer);
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(TraceIo, RejectsShortRecord) {
  std::stringstream buffer("# dts-trace v1\ntask a 1 2\n");
  EXPECT_THROW((void)read_trace(buffer), TraceIoError);
}

TEST(TraceIo, FifthFieldIsTheChannelInV2Only) {
  std::stringstream buffer("# dts-trace v2\ntask a 1 2 3 1\n");
  const Instance inst = read_trace(buffer);
  ASSERT_EQ(inst.size(), 1u);
  EXPECT_EQ(inst[0].channel, 1u);
  EXPECT_EQ(inst.num_channels(), 2u);

  // A stray extra numeric column in a v1 trace must not silently become
  // a copy-engine assignment.
  std::stringstream v1("# dts-trace v1\ntask a 1 2 3 1\n");
  EXPECT_THROW((void)read_trace(v1), TraceIoError);
}

TEST(TraceIo, RejectsTrailingFields) {
  std::stringstream buffer("# dts-trace v2\ntask a 1 2 3 0 9\n");
  EXPECT_THROW((void)read_trace(buffer), TraceIoError);
}

TEST(TraceIo, RejectsOutOfRangeChannel) {
  for (const char* channel : {"4096", "4294967296", "-1", "1x", "0.5"}) {
    std::stringstream buffer(std::string("# dts-trace v2\ntask a 1 2 3 ") +
                             channel + "\n");
    EXPECT_THROW((void)read_trace(buffer), TraceIoError) << channel;
  }
}

TEST(TraceIo, MultiChannelRoundTrip) {
  std::vector<Task> tasks;
  tasks.push_back(Task{.id = 0, .comm = 1.5, .comp = 2.0, .mem = 3.0,
                       .channel = kChannelH2D, .name = "in"});
  tasks.push_back(Task{.id = 0, .comm = 0.5, .comp = 0.0, .mem = 1.0,
                       .channel = kChannelD2H, .name = "out"});
  const Instance inst(std::move(tasks));
  std::stringstream buffer;
  write_trace(buffer, inst);
  EXPECT_NE(buffer.str().find("# dts-trace v2"), std::string::npos);
  const Instance back = read_trace(buffer);
  ASSERT_EQ(back.size(), inst.size());
  for (TaskId i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(back[i].channel, inst[i].channel);
    EXPECT_DOUBLE_EQ(back[i].comm, inst[i].comm);
    EXPECT_DOUBLE_EQ(back[i].mem, inst[i].mem);
  }
}

TEST(TraceIo, AcceptsExplicitPlusSignsLikeTheLegacyParser) {
  // Externally-written v1 traces with "+1.5" fields loaded under the old
  // stream-extraction parser and must keep loading.
  std::stringstream buffer("# dts-trace v1\ntask a +1.5 +2 +3\n");
  const Instance inst = read_trace(buffer);
  ASSERT_EQ(inst.size(), 1u);
  EXPECT_DOUBLE_EQ(inst[0].comm, 1.5);
  EXPECT_DOUBLE_EQ(inst[0].comp, 2.0);
  EXPECT_DOUBLE_EQ(inst[0].mem, 3.0);
  // But a bare or doubled sign stays malformed.
  std::stringstream bare("# dts-trace v1\ntask a + 2 3\n");
  EXPECT_THROW((void)read_trace(bare), TraceIoError);
  std::stringstream doubled("# dts-trace v1\ntask a ++1 2 3\n");
  EXPECT_THROW((void)read_trace(doubled), TraceIoError);
}

TEST(TraceIo, RejectsNegativeDurations) {
  std::stringstream buffer("# dts-trace v1\ntask a -1 2 3\n");
  EXPECT_THROW((void)read_trace(buffer), TraceIoError);
}

TEST(TraceIo, RejectsEmptyInput) {
  std::stringstream buffer("");
  EXPECT_THROW((void)read_trace(buffer), TraceIoError);
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream buffer(
      "# dts-trace v1\n# comment\n\ntask a 1 2 3\n\n# end\n");
  const Instance inst = read_trace(buffer);
  ASSERT_EQ(inst.size(), 1u);
  EXPECT_EQ(inst[0].name, "a");
}

TEST(WorkloadStats, RatiosConsistent) {
  TraceConfig config;
  config.seed = 6;
  config.min_tasks = 40;
  config.max_tasks = 50;
  const Instance inst = generate_hf_trace(config);
  const WorkloadCharacteristics wc = characterize(inst);
  EXPECT_NEAR(wc.total_over_omim, wc.comm_over_omim + wc.comp_over_omim, 1e-9);
  EXPECT_GE(wc.max_over_omim, wc.comm_over_omim - 1e-12);
  EXPECT_LE(wc.max_over_omim, 1.0 + 1e-9)
      << "max(sum comm, sum comp) lower-bounds OMIM";
}

TEST(WorkloadStats, CharacterizeAllMatchesIndividual) {
  const auto traces =
      generate_process_traces(ChemistryKernel::kCoupledClusterSD, 3, 50);
  const auto all = characterize_all(traces);
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(all[i].comm_over_omim,
                     characterize(traces[i]).comm_over_omim);
  }
}

}  // namespace
}  // namespace dts
