// lint-as: src/heuristics/dynamic.cpp
TaskId pick_candidate(const CompiledInstance& ci, const Engine& engine,
                      std::span<const TaskId> candidates,
                      DynamicCriterion criterion, std::span<const Time> ready) {
  return candidates.empty() ? kInvalidTask : candidates.front();
}

void execute_dynamic(const CompiledInstance& ci, std::span<const TaskId> ids,
                     DynamicCriterion criterion, Engine& engine,
                     Schedule& out, SelectionStats* stats) {
  CandidateIndex index(ci, ids, criterion, out);
  while (!index.empty()) {
    const std::size_t pos = index.pick(engine);
    if (pos == CandidateIndex::npos) {
      index.wait("execute_dynamic", engine);
    } else {
      index.start(pos, engine);
    }
  }
}
