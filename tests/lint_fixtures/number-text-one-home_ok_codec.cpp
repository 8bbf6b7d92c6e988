// lint-as: src/service/protocol.cpp
// Numbers are %.17g-identical via the codec; precision(17) and
// std::istringstream named in a comment are prose, not code.
void write_makespan(std::string& frame, double makespan) {
  frame += "makespan ";
  append_double(frame, makespan);
  frame += "\n";
}
