// Shared fixtures for the spttn test suite: kernel templates from the paper
// plus randomized instantiation helpers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "exec/reference.hpp"
#include "exec/spttn.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spttn::testing {

/// Pin the global pool to real lanes for the scope of a test (single-core
/// CI boxes otherwise degrade the pool to one inline lane and the nested
/// partitioner correctly refuses to over-split), then restore the default
/// on destruction — including on early return from a failed ASSERT, so one
/// failure cannot leak a pinned pool into later tests.
struct ScopedLanes {
  explicit ScopedLanes(int lanes) { ThreadPool::set_global_threads(lanes); }
  ~ScopedLanes() { ThreadPool::set_global_threads(0); }
  ScopedLanes(const ScopedLanes&) = delete;
  ScopedLanes& operator=(const ScopedLanes&) = delete;
};

/// Kernel templates and instantiation live in the library's shared suite
/// (analysis/kernel_suite.hpp) so the lint tool, the verifier bench, and
/// the tests all iterate the same kernels; these aliases keep the
/// historical testing:: names working.
using KernelCase = SuiteKernel;
using Instance = SuiteInstance;

/// The paper's kernel families (Section 2.3) at test-friendly sizes, plus a
/// few stress shapes (shared factor indices, all-mode contraction, deep
/// chains).
inline std::vector<KernelCase> paper_kernels() { return paper_kernel_suite(); }

inline std::unique_ptr<Instance> make_instance(const KernelCase& kc,
                                               std::uint64_t seed) {
  return make_suite_instance(kc, seed);
}

/// reference_execute's output for `inst`: the dense output's values in
/// storage order, or one value per nonzero for a sparse output.
inline std::vector<double> reference_values(const Instance& inst) {
  const Kernel& k = inst.bound.kernel;
  if (k.output_is_sparse()) {
    std::vector<double> out(static_cast<std::size_t>(inst.sparse.nnz()), 0.0);
    reference_execute(k, inst.sparse, inst.dense_slots(), nullptr, out);
    return out;
  }
  DenseTensor out = make_output(inst.bound);
  reference_execute(k, inst.sparse, inst.dense_slots(), &out, {});
  return {out.values().begin(), out.values().end()};
}

/// A generated network as a suite kernel with the given nonzero fraction.
inline SuiteKernel to_suite(const GeneratedNetwork& net, double sparsity) {
  SuiteKernel sk;
  sk.name = net.name;
  sk.expr = net.expr;
  sk.dims = net.dims;
  sk.sparsity = sparsity;
  return sk;
}

}  // namespace spttn::testing
