#pragma once

/// \file machine.hpp
/// Compatibility shim: the one machine descriptor is Machine
/// (model/machine.hpp), and presets are named via machine_from_name().

#include "model/machine.hpp"

namespace dts {

struct MachineModel {
  [[nodiscard]] static Machine duplex_pcie() {
    return machine_from_name("duplex-pcie");
  }
};

}  // namespace dts
