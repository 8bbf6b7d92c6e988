// lint-as: bench/fig13_batches.cpp
// Fans out on the bench's one SolverPool; a comment naming std::thread or
// parallel_for is prose, not code, and std::this_thread is not a thread.
void sweep(const std::vector<Instance>& traces, std::vector<double>& out) {
  bench::pool().for_each(traces.size(), [&](std::size_t t) {
    out[t] = omim(traces[t]);
    std::this_thread::yield();
  });
}
