// lint-as: bench/bench_new_study.cpp
std::string take_json_flag(int& argc, char** argv) {
  std::string json = "BENCH_new_study.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json = arg.substr(7);
  }
  return json;
}
