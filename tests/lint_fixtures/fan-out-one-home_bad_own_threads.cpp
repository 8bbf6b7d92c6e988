// lint-as: bench/fig13_batches.cpp
void sweep(const std::vector<Instance>& traces, std::vector<double>& out) {
  parallel_for(0, traces.size(), [&](std::size_t t) {
    out[t] = omim(traces[t]);
  });
  std::thread side([&] { out.push_back(0.0); });
  side.join();
  auto later = std::async(std::launch::async, [&] { return out.size(); });
}
