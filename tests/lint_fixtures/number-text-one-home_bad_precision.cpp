// lint-as: src/trace/trace_io.cpp
void write_comm(std::ostream& out, const Task& t) {
  out.precision(17);
  out << t.comm;
}
