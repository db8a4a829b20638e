// The benchmark's own contraction evaluator and output comparisons. It
// shares no code with the library: it parses the einsum text itself and
// loops over the sparse tensor's nonzeros times every combination of the
// dense-only indices, so it checks the planner, compiler and executor
// against a computation they took no part in.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "tensor/coo_tensor.hpp"
#include "tensor/dense_tensor.hpp"

namespace perfbench {

/// Evaluate `expr` with input "T" as the sparse tensor and `dense` bound to
/// the other inputs in order of appearance. A dense output is returned
/// row-major over the output's index order; an output whose indices equal
/// T's is returned as one value per nonzero in T's entry order.
std::vector<double> reference_eval(const std::string& expr,
                                   const spttn::CooTensor& t,
                                   const std::vector<const spttn::DenseTensor*>&
                                       dense);

/// |got - ref|_max <= rtol * max(1e-300, |ref|_max) and equal lengths.
bool close_to(std::span<const double> got, std::span<const double> ref,
              double rtol, const std::string& what, std::string* why);

}  // namespace perfbench
