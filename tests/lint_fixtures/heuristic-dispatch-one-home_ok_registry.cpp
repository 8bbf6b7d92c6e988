// lint-as: src/core/registry.cpp
DynamicCriterion criterion_of(HeuristicId id) {
  switch (id) {
    case HeuristicId::kLCMR: return DynamicCriterion::kLargestComm;
    case HeuristicId::kSCMR: return DynamicCriterion::kSmallestComm;
    default: return DynamicCriterion::kMaxAcceleration;
  }
}
