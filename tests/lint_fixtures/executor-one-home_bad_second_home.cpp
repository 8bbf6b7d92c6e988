// lint-as: src/core/batch.cpp
void execute_corrected(const CompiledInstance& ci,
                       std::span<const TaskId> base_order,
                       DynamicCriterion criterion, Engine& engine,
                       Schedule& out, SelectionStats* stats) {
  CandidateIndex index(ci, base_order, criterion, out);
  while (!index.empty()) index.start(index.head(), engine);
}
