// lint-as: src/service/service.cpp
Instance parse_payload(const std::string& text) {
  std::istringstream trace(text);
  return read_trace(trace);
}
