// lint-as: src/model/fixture.cpp
void register_builtin_machines(MachineRegistry& registry) {
  registry.add("fixture", MachineChannels{"link"}, "a machine",
               [] { return fixture_machine(); });
}
