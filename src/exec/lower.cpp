#include "exec/lower.hpp"

#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace spttn {

namespace {

using cprog::Base;
using cprog::CAccess;
using cprog::CActionRef;
using cprog::CLoop;
using cprog::CompiledView;
using cprog::CTerm;
using lowered::InnerKind;
using lowered::LChain;
using lowered::LLoop;
using lowered::LOp;
using lowered::LoweredProgram;
using lowered::LTerm;
using lowered::Operand;

bool leaf_addressed(const CAccess& a) {
  return a.base == Base::kSparseVal || a.base == Base::kOutSparse;
}

struct Lowerer {
  const CompiledView& prog;
  LoweredProgram out;

  /// Intern a base pointer source. Slots are few (inputs + buffers +
  /// outputs), so a linear scan beats hashing.
  std::int32_t slot_for(Base base, int id) {
    for (std::size_t s = 0; s < out.slots.size(); ++s) {
      if (out.slots[s].base == base && out.slots[s].id == id) {
        return static_cast<std::int32_t>(s);
      }
    }
    out.slots.push_back({base, id});
    return static_cast<std::int32_t>(out.slots.size()) - 1;
  }

  /// Lower one access. Under a fused chain loop over index `chain_index`
  /// (-1: none), the dependency on that index becomes the chain's idx
  /// multiplier and leaf addressing its position multiplier; both are then
  /// left out of the loop-invariant operand. An access names each index at
  /// most once (Kernel::parse rejects repeated indices within a tensor).
  Operand lower_operand(const CAccess& a, int chain_index,
                        std::int64_t* idx_mult, std::int64_t* leaf_mult) {
    Operand o;
    // kSparseVal / kOutSparse are leaf-addressed singletons; the others key
    // the slot table by their id.
    const bool indexed = a.base == Base::kDense || a.base == Base::kBuffer;
    o.slot = slot_for(a.base, indexed ? a.id : 0);
    o.leaf = leaf_addressed(a);
    o.dep_begin = static_cast<std::int32_t>(out.deps.size());
    for (const auto& [idx, stride] : a.outer) {
      if (idx == chain_index) {
        *idx_mult = stride;
      } else {
        out.deps.push_back({idx, stride});
      }
    }
    o.ndeps = static_cast<std::int32_t>(out.deps.size()) - o.dep_begin;
    if (chain_index >= 0 && o.leaf) {
      *leaf_mult = 1;
      o.leaf = false;
    }
    return o;
  }

  /// Kernel selection: out stride 0 => dot, lhs 0 => axpy(alpha = *lhs),
  /// rhs 0 => axpy(alpha = *rhs), else hadamard, with the unit-stride
  /// instantiation chosen by the same conditions kernels.cpp fast-paths
  /// on. `c` receives the chain multipliers when `chain_index` >= 0.
  /// Returns the lowered term id.
  std::int32_t lower_term(const CTerm& ct, int chain_index, LChain* c) {
    LTerm t;
    t.lhs = lower_operand(ct.lhs, chain_index, &c->l_idx, &c->l_leaf);
    t.rhs = lower_operand(ct.rhs, chain_index, &c->r_idx, &c->r_leaf);
    t.out = lower_operand(ct.out, chain_index, &c->o_idx, &c->o_leaf);
    const std::size_t depth = ct.extent.size();
    if (depth > 0) {
      const std::size_t last = depth - 1;
      t.n = ct.extent[last];
      t.ls = ct.lhs.inner[last];
      t.rs = ct.rhs.inner[last];
      t.os = ct.out.inner[last];
      if (t.os == 0) {
        t.inner =
            t.ls == 1 && t.rs == 1 ? InnerKind::kDotU : InnerKind::kDotG;
      } else if (t.ls == 0) {
        t.inner =
            t.rs == 1 && t.os == 1 ? InnerKind::kAxpyLU : InnerKind::kAxpyLG;
      } else if (t.rs == 0) {
        t.inner =
            t.ls == 1 && t.os == 1 ? InnerKind::kAxpyRU : InnerKind::kAxpyRG;
      } else {
        t.inner = t.ls == 1 && t.rs == 1 && t.os == 1 ? InnerKind::kHadU
                                                      : InnerKind::kHadG;
      }
      t.level_begin = static_cast<std::int32_t>(out.levels.size());
      t.outer_depth = static_cast<std::int32_t>(last);
      for (std::size_t l = 0; l < last; ++l) {
        out.levels.push_back({ct.extent[l], ct.lhs.inner[l], ct.rhs.inner[l],
                              ct.out.inner[l]});
      }
    }
    out.terms.push_back(t);
    return static_cast<std::int32_t>(out.terms.size()) - 1;
  }

  LOp lower_action(const CActionRef& a) {
    switch (a.kind) {
      case CActionRef::Kind::kTerm: {
        LChain none;
        return {LOp::Kind::kTerm,
                lower_term(prog.terms[static_cast<std::size_t>(a.id)], -1,
                           &none)};
      }
      case CActionRef::Kind::kReset:
        out.resets.push_back(
            {slot_for(Base::kBuffer, a.id),
             prog.buffer_len[static_cast<std::size_t>(a.id)]});
        return {LOp::Kind::kReset,
                static_cast<std::int32_t>(out.resets.size()) - 1};
      case CActionRef::Kind::kLoop:
        break;
    }
    return {LOp::Kind::kLoop, lower_loop(a.id)};
  }

  /// Lower one compiled loop and its subtree; returns the lowered loop id.
  /// A sparse loop whose body is one term fuses into a chain, unless a
  /// leaf-addressed operand sits under a loop above the CSF leaf level (the
  /// leaf node is then not a function of the loop position).
  std::int32_t lower_loop(int cid) {
    const CLoop& cl = prog.loops[static_cast<std::size_t>(cid)];
    LLoop ll;
    ll.index = cl.index;
    ll.sparse = cl.sparse;
    ll.csf_level = cl.csf_level;
    ll.extent = cl.extent;
    bool chain = cl.sparse && cl.body.size() == 1 &&
                 cl.body.front().kind == CActionRef::Kind::kTerm;
    if (chain && cl.csf_level != prog.csf_order - 1) {
      const CTerm& ct = prog.terms[static_cast<std::size_t>(cl.body[0].id)];
      chain = !leaf_addressed(ct.lhs) && !leaf_addressed(ct.rhs) &&
              !leaf_addressed(ct.out);
    }
    if (chain) {
      ll.is_chain = true;
      ll.chain.term =
          lower_term(prog.terms[static_cast<std::size_t>(cl.body[0].id)],
                     cl.index, &ll.chain);
    } else {
      ll.body.reserve(cl.body.size());
      for (const CActionRef& a : cl.body) ll.body.push_back(lower_action(a));
    }
    out.loops.push_back(std::move(ll));
    const auto id = static_cast<std::int32_t>(out.loops.size()) - 1;
    out.loop_of[static_cast<std::size_t>(cid)] = id;
    return id;
  }
};

}  // namespace

lowered::LoweredProgram lower_program(const cprog::CompiledView& prog) {
  Lowerer lw{prog, {}};
  lw.out.loop_of.assign(prog.loops.size(), -1);
  lw.out.top.reserve(prog.top.size());
  for (const CActionRef& a : prog.top) {
    lw.out.top.push_back(lw.lower_action(a));
  }
  for (const std::int32_t li : lw.out.loop_of) {
    SPTTN_CHECK_MSG(li >= 0, "compiled loop unreachable from the top level");
  }
  return std::move(lw.out);
}

}  // namespace spttn
