// lint-as: bench/bench_new_study.cpp
// Rows land in BENCH_new_study.json, or wherever --json=FILE points.
int main(int argc, char** argv) {
  const bench::Options options = bench::Options::parse(argc, argv);
  std::vector<bench::Row> rows;
  rows.emplace_back("HF/paper").exact("median_makespan_seconds", 0.5);
  return bench::write_rows(options, "new_study", rows) ? 0 : 1;
}
