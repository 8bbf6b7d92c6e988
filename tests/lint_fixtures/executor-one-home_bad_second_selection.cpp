// lint-as: src/heuristics/dynamic.cpp
void ReadyPicker::step(const CompiledInstance& ci, DynamicCriterion criterion,
                       Engine& engine, Schedule& out) {
  fitting.clear();
  for (const TaskId id : pending) {
    if (engine.fits(ci.mem(id))) fitting.push_back(id);
  }
  const TaskId chosen = pick_candidate(ci, engine, fitting, criterion);
  const TaskTimes tt = engine.start(chosen);
  out.set(chosen, tt.comm_start, tt.comp_start);
}
