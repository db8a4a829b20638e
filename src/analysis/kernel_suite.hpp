// The paper's kernel families (Fig. 7 MTTKRP, Fig. 8 scaling, Fig. 10 loop
// orders, plus the TTMc/TTTP/TTTc families and stress shapes) as one shared
// suite, so the lint tool, the verifier bench, and the test fixtures all
// iterate the same kernels instead of each keeping a private copy.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/spttn.hpp"

namespace spttn {

/// One kernel template: expression plus every index extent and the sparse
/// operand's nonzero fraction.
struct SuiteKernel {
  std::string name;
  std::string expr;
  std::vector<std::pair<std::string, std::int64_t>> dims;
  double sparsity = 0.05;

  /// Extent of index `name`, or -1 when the suite entry does not bind it.
  std::int64_t dim_of(const std::string& index_name) const;
  /// Dims of the sparse operand's indices, in CSF (expression) order.
  std::vector<std::int64_t> sparse_dims() const;
};

/// The paper kernels at test-friendly sizes. Order is stable; names are
/// unique (tests and the lint tool key on them).
const std::vector<SuiteKernel>& paper_kernel_suite();

/// A suite kernel instantiated with deterministic random tensors: the
/// sparse operand, the dense factors (order of appearance), and the bound
/// kernel referencing both. Heap-allocated so BoundKernel's internal
/// pointers stay valid across moves.
struct SuiteInstance {
  CooTensor sparse;
  std::vector<DenseTensor> factors;
  BoundKernel bound;

  /// The dense operand slots in kernel-input order, as executors take them.
  std::span<const DenseTensor* const> dense_slots() const {
    return bound.dense;
  }
};

std::unique_ptr<SuiteInstance> make_suite_instance(const SuiteKernel& sk,
                                                   std::uint64_t seed);

/// One named planner-option set of the lint sweep.
struct LintOptionSet {
  std::string name;
  PlannerOptions options;
};

/// The planner option sets spttn_lint sweeps (default, bound1 forcing the
/// relaxation loop, one per alternative cost model, and the anytime
/// strategy uncapped and node-budgeted). Shared with the lowered-execution
/// tests so "every paper kernel under every lint option set" means the
/// same sweep everywhere.
const std::vector<LintOptionSet>& lint_option_sets();

}  // namespace spttn
