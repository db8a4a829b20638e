// Input generation for the workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/coo_tensor.hpp"

namespace spttn {
class Rng;
}

namespace perfbench {

/// Fiber-structured stand-in for one of the paper's datasets (the shapes
/// and mean fan-outs of spttn::tensor_presets(), scaled like
/// spttn::make_preset_tensor). Unlike the library generator, the fan-out of
/// every CSF node is drawn from a fixed multiset of geometric quantiles and
/// only its placement and the coordinates come from `rng`, so every seed
/// yields exactly the same nonzero count and nodes per CSF level: seeds
/// change where the work falls, not how much there is.
spttn::CooTensor standin(const std::string& preset, double scale,
                         spttn::Rng& rng);

}  // namespace perfbench
