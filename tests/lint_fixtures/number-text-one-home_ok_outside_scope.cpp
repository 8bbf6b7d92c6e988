// lint-as: src/report/table.cpp
std::string cell(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  std::istringstream back(os.str());
  return os.str();
}
