// Lowered programs: the executable form of a compiled loop nest (the CoNST
// direction — one generated form per plan).
//
// Everything the per-nonzero walk needs is decided by the plan before the
// first nonzero is touched, so the lowerer (lower.cpp) settles it once at
// compile time and emits this flat IR, which is all execute() runs:
//
//  - operands carry an interned base-pointer slot plus their outer
//    (index, stride) dependencies as a range of the program's flat `deps`
//    table;
//  - every term's innermost kernel (dot / axpy / hadamard, unit or generic
//    stride) is selected at lower time (InnerKind); the collapsed dense
//    levels above it are a range of the flat `levels` table;
//  - a sparse loop whose body is exactly one term fuses into an LChain: one
//    tight loop over the nonzero range with branchless per-operand
//    addressing `invariant_base + idx[p]*idx_mult + p*leaf_mult`, dispatched
//    through a template instantiation per InnerKind so the kernel switch is
//    hoisted out of the nonzero loop entirely;
//  - the top-level action sequence lowers too (`top`), so top-level scalar
//    terms and resets run through the same ops as everything else.
//
// The side tables have no fixed capacity, so every compiled program lowers
// whole. Numerical contract: each inner kernel accumulates in the order of
// the matching kernels.cpp routine (xdot / xaxpy / xhad), so a run's output
// bits depend only on the plan, the inputs and the partition shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/compiled_program.hpp"

namespace spttn {
class CsfTensor;
}  // namespace spttn

namespace spttn::lowered {

/// One pre-resolved outer dependency: add idx_val[idx] * stride.
struct Dep {
  std::int32_t idx = 0;
  std::int64_t stride = 0;
};

/// A term operand: its base pointer interned into the slot table, and its
/// outer offset as the dependency range [dep_begin, dep_begin + ndeps) of
/// LoweredProgram::deps.
struct Operand {
  std::int32_t slot = 0;
  /// Add the current CSF leaf node position (sparse values / sparse output).
  bool leaf = false;
  std::int32_t dep_begin = 0;
  std::int32_t ndeps = 0;
};

/// Innermost kernel selected at lower time (out-stride 0 => dot, lhs-stride
/// 0 => axpy with lhs as alpha, rhs-stride 0 => axpy with rhs as alpha, else
/// hadamard). The U variants are the unit-stride instantiations.
enum class InnerKind : std::uint8_t {
  kScalar,  ///< depth 0: *out += *lhs * *rhs
  kDotU,
  kDotG,
  kAxpyLU,
  kAxpyLG,
  kAxpyRU,
  kAxpyRG,
  kHadU,
  kHadG,
};

/// One collapsed dense level above a term's innermost kernel: trip count
/// and the per-iteration advance of each operand.
struct Level {
  std::int64_t ext = 0;
  std::int64_t ls = 0, rs = 0, os = 0;
};

/// A lowered term: three operands, the pre-selected innermost kernel over
/// `n` elements with constant strides, and the collapsed outer levels
/// [level_begin, level_begin + outer_depth) of LoweredProgram::levels, run
/// outermost first.
struct LTerm {
  Operand lhs, rhs, out;
  InnerKind inner = InnerKind::kScalar;
  std::int64_t n = 0;                   ///< innermost trip count
  std::int64_t ls = 0, rs = 0, os = 0;  ///< innermost strides
  std::int32_t level_begin = 0;
  std::int32_t outer_depth = 0;
};

/// Fused sparse loop + single term: per operand, the loop-varying part of
/// the address is idx[p] * idx_mult + p * leaf_mult (leaf_mult is 1 for
/// leaf-addressed operands, which only fuse when the chain loop is the CSF
/// leaf level); the loop-invariant part is resolved once before the
/// nonzero loop.
struct LChain {
  std::int64_t l_idx = 0, l_leaf = 0;
  std::int64_t r_idx = 0, r_leaf = 0;
  std::int64_t o_idx = 0, o_leaf = 0;
  std::int32_t term = 0;  ///< LTerm holding the invariant operand parts
};

/// One lowered action: a loop body statement or a top-level action.
struct LOp {
  enum class Kind : std::uint8_t { kLoop, kTerm, kReset } kind;
  std::int32_t id;
};

/// Pre-resolved buffer reset (memset run).
struct LReset {
  std::int32_t slot = 0;
  std::int64_t len = 0;
};

struct LLoop {
  std::int32_t index = -1;
  bool sparse = false;
  std::int32_t csf_level = -1;
  std::int64_t extent = 0;  ///< dense trip count (unused for CSF loops)
  bool is_chain = false;
  LChain chain{};
  std::vector<LOp> body;  ///< empty when is_chain
};

/// Where a slot's base pointer comes from (bound once per worker runtime).
struct SlotSource {
  cprog::Base base = cprog::Base::kDense;
  std::int32_t id = 0;
};

/// The lowered program. `top` mirrors the compiled top-level action
/// sequence position for position, and `loop_of` maps every compiled loop
/// id to its lowered counterpart, so the executor's partitioner can run a
/// root loop (or its second level) over any sub-range.
struct LoweredProgram {
  std::vector<LOp> top;
  std::vector<LLoop> loops;
  std::vector<LTerm> terms;
  std::vector<LReset> resets;
  std::vector<Dep> deps;
  std::vector<Level> levels;
  std::vector<SlotSource> slots;
  std::vector<std::int32_t> loop_of;

  /// Heap footprint of this program (for cache byte budgeting).
  std::size_t bytes() const;
};

/// A lowered program bound to one worker's runtime state: raw pointers into
/// its index/node arrays and its resolved slot table (one base pointer per
/// LoweredProgram::slots entry).
struct ExecCtx {
  std::int64_t* idx_val = nullptr;
  std::int64_t* csf_node = nullptr;
  const CsfTensor* csf = nullptr;
  std::int32_t leaf_level = 0;
  double* const* table = nullptr;
};

/// Run one action: a loop over its full range (all root nodes for a CSF
/// level-0 loop, the children of the bound parent node below that, the
/// extent for dense loops), a term, or a buffer reset.
void run_op(const LoweredProgram& p, const ExecCtx& ctx, const LOp& op);

/// Run lowered loop `loop` over [begin, end) — node range for sparse loops,
/// index range for dense ones. Parallel partitioning (root chunks, nested
/// second-level splits) enters here.
void run_loop(const LoweredProgram& p, const ExecCtx& ctx, std::int32_t loop,
              std::int64_t begin, std::int64_t end);

}  // namespace spttn::lowered
