// lint-as: bench/bench_new_study.cpp
void write_json(const std::string& path, double makespan) {
  std::ofstream json(path);
  json << "{\"median_makespan_seconds\": " << makespan << "}\n";
}
