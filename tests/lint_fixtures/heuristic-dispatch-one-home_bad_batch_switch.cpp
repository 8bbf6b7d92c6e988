// lint-as: src/core/batch.cpp
DynamicCriterion criterion_for_batch(HeuristicId id) {
  switch (id) {
    case HeuristicId::kLCMR: return DynamicCriterion::kLargestComm;
    case HeuristicId::kSCMR: return DynamicCriterion::kSmallestComm;
    default: return DynamicCriterion::kMaxAcceleration;
  }
}
