#include "exec/executor.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "exec/compiled_program.hpp"
#include "exec/kernels.hpp"
#include "exec/lower.hpp"
#include "exec/lowered_program.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace spttn {

// The compiled-program IR lives in exec/compiled_program.hpp; the lowerer
// consumes it, and the parallel analysis below reads it.
using cprog::Base;
using cprog::CAccess;
using cprog::CActionRef;
using cprog::CLoop;
using cprog::CTerm;

struct FusedExecutor::Impl {
  Kernel kernel;  // copy: plans outlive callers' kernels
  ContractionPath path;
  LoopTree tree;

  std::vector<CLoop> loops;
  std::vector<CTerm> terms;
  std::vector<CActionRef> top;
  std::vector<std::int64_t> buffer_len;  // element counts per producing term
  int offloaded_terms = 0;
  int collapsed_loops = 0;

  /// Lowered form of the same program (lower.cpp), built at construction:
  /// the only form execute() runs.
  lowered::LoweredProgram low;

  bool collapse_dense = true;

  /// Sparsity fingerprint of the plan this nest was compiled from; 0 when
  /// built from a raw (path, order) pair or a plan with modeled stats.
  std::uint64_t plan_fingerprint = 0;

  // --- Parallel-execution metadata (analyze_parallel, at compile time) ---

  /// Parallelizability of one top-level action.
  struct TopMeta {
    bool par_safe = false;         ///< loop may be partitioned across workers
    bool writes_out_dense = false; ///< some term under it writes the output
    bool writes_out_sparse = false;
    /// Every dense-output write under the loop is strided by the loop's own
    /// index, so partitions write disjoint slices and no reduction is
    /// needed (the common case: MTTKRP rows, TTMc slices).
    bool out_dense_rooted = true;
    /// The sole second-level loop (loops[] id) when the root body is
    /// exactly one loop; -1 otherwise. Unit of the nested split.
    int inner_loop = -1;
    /// The root may be split across the second loop level: par_safe, a
    /// single-loop body at a consistent CSF level, and no shared-buffer
    /// writes under the root (two tasks sharing a root index would collide
    /// on the root-strided slice).
    bool nest_safe = false;
    /// Every dense-output write under the loop is also strided by the
    /// inner loop's index; together with out_dense_rooted this makes
    /// nested tasks' output slices disjoint (direct writes, no partials).
    bool out_dense_inner_rooted = true;
  };
  std::vector<TopMeta> top_meta;  // aligned with `top`
  int num_root_regions = 0;       ///< top-level kLoop actions
  /// Buffers that carry values across top-level actions (or are written in
  /// a non-parallelizable position); they live in storage shared by all
  /// workers. Non-shared buffers are private per worker runtime.
  std::vector<char> buffer_shared;

  /// Tensors bound for one execution.
  struct Bindings {
    const CsfTensor* csf = nullptr;
    std::span<const double* const> dense;  ///< one per kernel input
    double* out_dense = nullptr;
    double* out_sparse = nullptr;
  };

  /// Mutable per-execution (and per-thread) state: loop indices, CSF
  /// positions, private buffers, and the lowered program's slot table,
  /// bound once when the runtime is built. The compiled and lowered
  /// programs are immutable during execution, so parallel workers share
  /// them and own one Runtime each.
  struct Runtime {
    std::vector<std::int64_t> idx_val;
    std::vector<std::int64_t> csf_node;
    std::vector<std::vector<double>> owned;  // storage for private buffers
    std::vector<double*> slots;              // one per low.slots entry
    lowered::ExecCtx ctx;                    // points into the vectors above

    Runtime() = default;
    Runtime(Runtime&&) = default;
    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;
  };

  cprog::CompiledView view() const {
    return {loops, terms, top, buffer_len, kernel.sparse_ref().order()};
  }

  /// Build a runtime and bind every lowered slot to its base pointer.
  /// Buffers marked shared alias `shared` storage (one allocation all
  /// workers see, writes disjoint by construction); the rest are private
  /// zero-initialized copies. Pass null to own everything (sequential
  /// execution).
  Runtime make_runtime(const Bindings& b,
                       std::vector<std::vector<double>>* shared) const {
    Runtime rt;
    rt.idx_val.assign(static_cast<std::size_t>(kernel.num_indices()), 0);
    rt.csf_node.assign(static_cast<std::size_t>(kernel.sparse_ref().order()),
                       0);
    rt.owned.resize(buffer_len.size());
    rt.slots.reserve(low.slots.size());
    for (const lowered::SlotSource& src : low.slots) {
      const auto id = static_cast<std::size_t>(src.id);
      double* p = nullptr;
      switch (src.base) {
        case Base::kDense:
          p = const_cast<double*>(b.dense[id]);
          break;
        case Base::kBuffer:
          if (shared != nullptr && buffer_shared[id]) {
            p = (*shared)[id].data();
          } else {
            rt.owned[id].assign(static_cast<std::size_t>(buffer_len[id]),
                                0.0);
            p = rt.owned[id].data();
          }
          break;
        case Base::kSparseVal:
          p = const_cast<double*>(b.csf->vals().data());
          break;
        case Base::kOutDense:
          p = b.out_dense;
          break;
        case Base::kOutSparse:
          p = b.out_sparse;
          break;
      }
      rt.slots.push_back(p);
    }
    rt.ctx.idx_val = rt.idx_val.data();
    rt.ctx.csf_node = rt.csf_node.data();
    rt.ctx.csf = b.csf;
    rt.ctx.leaf_level = static_cast<std::int32_t>(rt.csf_node.size()) - 1;
    rt.ctx.table = rt.slots.data();
    return rt;
  }

  /// Run compiled loop `loop_id` over [begin, end) through its lowered
  /// form: the entry point of every parallel task (root chunks and nested
  /// second-level splits).
  void run_range(const Runtime& rt, int loop_id, std::int64_t begin,
                 std::int64_t end) const {
    lowered::run_loop(low, rt.ctx,
                      low.loop_of[static_cast<std::size_t>(loop_id)], begin,
                      end);
  }

  void compile(const LoopOrder& order);
  void analyze_parallel();
  CAccess make_access(const PathOperand& op,
                      const std::vector<int>& inner_chain);
  CAccess make_out_access(int term_id, const std::vector<int>& inner_chain);
  std::vector<std::int64_t> strides_for(
      const std::vector<int>& idx_order,
      const std::vector<std::int64_t>& dims) const;
  void split_access(const std::vector<int>& ids,
                    const std::vector<std::int64_t>& strides,
                    const std::vector<int>& inner_chain, CAccess* access);

  void execute_parallel(const Bindings& b, int want_threads,
                        std::int64_t dense_out_len, ExecStats* stats) const;
};

FusedExecutor::FusedExecutor(const Kernel& kernel,
                             const ContractionPath& path,
                             const LoopOrder& order, bool collapse_dense)
    : impl_(std::make_unique<Impl>()) {
  impl_->kernel = kernel;
  impl_->path = path;
  impl_->collapse_dense = collapse_dense;
  impl_->tree = LoopTree::build(kernel, path, order);
  impl_->compile(order);
  impl_->analyze_parallel();
  impl_->low = lower_program(impl_->view());
}

FusedExecutor::FusedExecutor(const Kernel& kernel, const Plan& plan)
    : FusedExecutor(kernel, plan.path, plan.order) {
  impl_->plan_fingerprint = plan.sparsity_fingerprint;
}

FusedExecutor::~FusedExecutor() = default;
FusedExecutor::FusedExecutor(FusedExecutor&&) noexcept = default;
FusedExecutor& FusedExecutor::operator=(FusedExecutor&&) noexcept = default;

const LoopTree& FusedExecutor::tree() const { return impl_->tree; }
int FusedExecutor::offloaded_terms() const { return impl_->offloaded_terms; }
int FusedExecutor::collapsed_loops() const { return impl_->collapsed_loops; }
bool FusedExecutor::collapse_dense() const { return impl_->collapse_dense; }

int FusedExecutor::lowered_regions() const {
  const auto& top = impl_->low.top;
  return static_cast<int>(
      std::count_if(top.begin(), top.end(), [](const lowered::LOp& op) {
        return op.kind == lowered::LOp::Kind::kLoop;
      }));
}

std::size_t FusedExecutor::program_bytes() const {
  const Impl& im = *impl_;
  std::size_t b = 0;
  b += im.loops.capacity() * sizeof(CLoop);
  for (const CLoop& l : im.loops) {
    b += l.body.capacity() * sizeof(CActionRef);
  }
  b += im.terms.capacity() * sizeof(CTerm);
  for (const CTerm& t : im.terms) {
    for (const CAccess* a : {&t.lhs, &t.rhs, &t.out}) {
      b += a->outer.capacity() * sizeof(std::pair<int, std::int64_t>);
      b += a->inner.capacity() * sizeof(std::int64_t);
    }
    b += t.extent.capacity() * sizeof(std::int64_t);
  }
  b += im.top.capacity() * sizeof(CActionRef);
  b += im.buffer_len.capacity() * sizeof(std::int64_t);
  b += im.top_meta.capacity() * sizeof(Impl::TopMeta);
  b += im.buffer_shared.capacity() * sizeof(char);
  b += im.low.bytes();
  return b;
}

std::vector<FusedExecutor::ParallelRegionInfo>
FusedExecutor::parallel_regions() const {
  std::vector<ParallelRegionInfo> out;
  const Impl& im = *impl_;
  for (std::size_t t = 0; t < im.top.size(); ++t) {
    if (im.top[t].kind != CActionRef::Kind::kLoop) continue;
    const CLoop& root = im.loops[static_cast<std::size_t>(im.top[t].id)];
    const Impl::TopMeta& meta = im.top_meta[t];
    ParallelRegionInfo info;
    info.top_position = static_cast<int>(t);
    info.root_index = root.index;
    info.sparse = root.sparse;
    info.par_safe = meta.par_safe;
    info.nest_safe = meta.nest_safe;
    info.writes_out_dense = meta.writes_out_dense;
    info.writes_out_sparse = meta.writes_out_sparse;
    info.out_dense_rooted = meta.out_dense_rooted;
    info.out_dense_inner_rooted = meta.out_dense_inner_rooted;
    out.push_back(info);
  }
  return out;
}

std::vector<char> FusedExecutor::shared_buffers() const {
  const Impl& im = *impl_;
  std::vector<char> out(im.buffer_shared.size(), 0);
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b] = (im.buffer_len[b] > 0 && im.buffer_shared[b]) ? 1 : 0;
  }
  return out;
}

std::vector<std::int64_t> FusedExecutor::Impl::strides_for(
    const std::vector<int>& idx_order,
    const std::vector<std::int64_t>& dims) const {
  std::vector<std::int64_t> strides(idx_order.size());
  std::int64_t s = 1;
  for (std::size_t m = idx_order.size(); m-- > 0;) {
    strides[m] = s;
    s *= dims[m];
  }
  return strides;
}

void FusedExecutor::Impl::split_access(
    const std::vector<int>& ids, const std::vector<std::int64_t>& strides,
    const std::vector<int>& inner_chain, CAccess* access) {
  access->inner.assign(inner_chain.size(), 0);
  for (std::size_t m = 0; m < ids.size(); ++m) {
    const auto it =
        std::find(inner_chain.begin(), inner_chain.end(), ids[m]);
    if (it != inner_chain.end()) {
      access->inner[static_cast<std::size_t>(it - inner_chain.begin())] =
          strides[m];
    } else {
      access->outer.emplace_back(ids[m], strides[m]);
    }
  }
}

CAccess FusedExecutor::Impl::make_access(const PathOperand& op,
                                         const std::vector<int>& inner_chain) {
  CAccess a;
  if (op.kind == PathOperand::Kind::kInput) {
    if (op.id == kernel.sparse_input()) {
      a.base = Base::kSparseVal;
      a.inner.assign(inner_chain.size(), 0);
      return a;
    }
    a.base = Base::kDense;
    a.id = op.id;
    const auto& ref = kernel.input(op.id);
    std::vector<std::int64_t> dims(ref.idx.size());
    for (std::size_t m = 0; m < ref.idx.size(); ++m) {
      dims[m] = kernel.index_dim(ref.idx[m]);
    }
    split_access(ref.idx, strides_for(ref.idx, dims), inner_chain, &a);
    return a;
  }
  // Intermediate buffer produced by an earlier term.
  a.base = Base::kBuffer;
  a.id = op.id;
  const BufferSpec& spec = tree.buffers()[static_cast<std::size_t>(op.id)];
  split_access(spec.indices, strides_for(spec.indices, spec.dims),
               inner_chain, &a);
  return a;
}

CAccess FusedExecutor::Impl::make_out_access(
    int term_id, const std::vector<int>& inner_chain) {
  CAccess a;
  if (term_id + 1 < path.num_terms()) {
    a.base = Base::kBuffer;
    a.id = term_id;
    const BufferSpec& spec =
        tree.buffers()[static_cast<std::size_t>(term_id)];
    split_access(spec.indices, strides_for(spec.indices, spec.dims),
                 inner_chain, &a);
    return a;
  }
  if (kernel.output_is_sparse()) {
    a.base = Base::kOutSparse;
    a.inner.assign(inner_chain.size(), 0);
    return a;
  }
  a.base = Base::kOutDense;
  const auto& ref = kernel.output();
  std::vector<std::int64_t> dims(ref.idx.size());
  for (std::size_t m = 0; m < ref.idx.size(); ++m) {
    dims[m] = kernel.index_dim(ref.idx[m]);
  }
  split_access(ref.idx, strides_for(ref.idx, dims), inner_chain, &a);
  return a;
}

void FusedExecutor::Impl::compile(const LoopOrder& order) {
  (void)order;
  // Record buffer sizes (storage itself lives in each Runtime).
  buffer_len.assign(static_cast<std::size_t>(path.num_terms()), 0);
  for (const BufferSpec& spec : tree.buffers()) {
    if (spec.producer < 0) continue;
    buffer_len[static_cast<std::size_t>(spec.producer)] = spec.size;
  }

  // Try to collapse a node's entire subtree into a dense single-term chain:
  // returns the chain of loop indices when the subtree is a pure chain of
  // dense loops ending at exactly one term (no resets inside).
  const auto try_collapse =
      [&](int node_id, std::vector<int>* chain) -> int /*term or -1*/ {
    int cur = node_id;
    while (true) {
      const LoopTree::Node& n =
          tree.nodes()[static_cast<std::size_t>(cur)];
      if (n.sparse || n.body.size() != 1) return -1;
      chain->push_back(n.index);
      const LoopTree::Action& a = n.body.front();
      if (a.kind == LoopTree::Action::Kind::kTerm) return a.id;
      if (a.kind != LoopTree::Action::Kind::kLoop) return -1;
      cur = a.id;
    }
  };

  const auto make_term = [&](int term_id, const std::vector<int>& chain) {
    CTerm t;
    t.term_id = term_id;
    t.extent.reserve(chain.size());
    for (int id : chain) {
      t.extent.push_back(kernel.index_dim(id));
    }
    const PathTerm& term = path.term(term_id);
    t.lhs = make_access(term.lhs, chain);
    t.rhs = make_access(term.rhs, chain);
    t.out = make_out_access(term_id, chain);
    if (!chain.empty()) {
      ++offloaded_terms;
      collapsed_loops += static_cast<int>(chain.size());
    }
    terms.push_back(std::move(t));
    return static_cast<int>(terms.size()) - 1;
  };

  const auto compile_body = [&](auto&& self,
                                const std::vector<LoopTree::Action>& body,
                                bool top_level) -> std::vector<CActionRef> {
    std::vector<CActionRef> out;
    for (const auto& a : body) {
      switch (a.kind) {
        case LoopTree::Action::Kind::kTerm:
          out.push_back(
              {CActionRef::Kind::kTerm, make_term(a.id, {})});
          break;
        case LoopTree::Action::Kind::kReset:
          out.push_back({CActionRef::Kind::kReset, a.id});
          break;
        case LoopTree::Action::Kind::kLoop: {
          // Root loops are kept explicit even when their whole subtree is a
          // collapsible dense chain: they are the unit of work partitioning
          // (their bodies still collapse, so sequential execution loses only
          // the outermost strided level).
          std::vector<int> chain;
          const int term_id = (collapse_dense && !top_level)
                                  ? try_collapse(a.id, &chain)
                                  : -1;
          if (term_id >= 0) {
            out.push_back(
                {CActionRef::Kind::kTerm, make_term(term_id, chain)});
            break;
          }
          const LoopTree::Node& n =
              tree.nodes()[static_cast<std::size_t>(a.id)];
          CLoop loop;
          loop.index = n.index;
          loop.sparse = n.sparse;
          loop.csf_level = n.csf_level;
          loop.extent = kernel.index_dim(n.index);
          loop.body = self(self, n.body, false);
          loops.push_back(std::move(loop));
          out.push_back(
              {CActionRef::Kind::kLoop, static_cast<int>(loops.size()) - 1});
          break;
        }
      }
    }
    return out;
  };
  top = compile_body(compile_body, tree.top(), true);
}

void FusedExecutor::Impl::analyze_parallel() {
  const std::size_t nb = buffer_len.size();
  // Where each buffer's producer term, consumer term and reset action sit in
  // the top-level action sequence (-1 = not found, e.g. unused slots).
  std::vector<int> producer_top(nb, -1);
  std::vector<int> consumer_top(nb, -1);
  std::vector<int> reset_top(nb, -1);
  top_meta.assign(top.size(), {});

  const auto walk = [&](auto&& self, const CActionRef& a, int t) -> void {
    TopMeta& meta = top_meta[static_cast<std::size_t>(t)];
    switch (a.kind) {
      case CActionRef::Kind::kReset:
        reset_top[static_cast<std::size_t>(a.id)] = t;
        break;
      case CActionRef::Kind::kTerm: {
        const CTerm& ct = terms[static_cast<std::size_t>(a.id)];
        if (ct.out.base == Base::kBuffer) {
          producer_top[static_cast<std::size_t>(ct.out.id)] = t;
        }
        if (ct.out.base == Base::kOutDense) {
          meta.writes_out_dense = true;
          if (top[static_cast<std::size_t>(t)].kind ==
              CActionRef::Kind::kLoop) {
            const CLoop& root = loops[static_cast<std::size_t>(
                top[static_cast<std::size_t>(t)].id)];
            const bool rooted = std::any_of(
                ct.out.outer.begin(), ct.out.outer.end(),
                [&](const auto& p) { return p.first == root.index; });
            if (!rooted) meta.out_dense_rooted = false;
          }
        }
        if (ct.out.base == Base::kOutSparse) meta.writes_out_sparse = true;
        for (const CAccess* side : {&ct.lhs, &ct.rhs}) {
          if (side->base == Base::kBuffer) {
            consumer_top[static_cast<std::size_t>(side->id)] = t;
          }
        }
        break;
      }
      case CActionRef::Kind::kLoop:
        for (const CActionRef& child :
             loops[static_cast<std::size_t>(a.id)].body) {
          self(self, child, t);
        }
        break;
    }
  };
  for (std::size_t t = 0; t < top.size(); ++t) {
    walk(walk, top[t], static_cast<int>(t));
  }

  // A buffer is worker-private only when its whole lifetime (reset, write,
  // read) sits under one top-level loop; the reset scope encodes whether
  // values carry across root iterations (LoopTree places it at the deepest
  // common ancestor of producer and consumer).
  buffer_shared.assign(nb, 1);
  for (std::size_t b = 0; b < nb; ++b) {
    if (buffer_len[b] == 0) continue;
    const int t = producer_top[b];
    const bool local = t >= 0 &&
                       top[static_cast<std::size_t>(t)].kind ==
                           CActionRef::Kind::kLoop &&
                       consumer_top[b] == t && reset_top[b] == t;
    buffer_shared[b] = local ? 0 : 1;
  }

  // A root loop partitions safely when (a) a sparse root starts at CSF
  // level 0 and (b) every shared buffer it writes is strided by the root
  // index, so partitions touch disjoint slices. Shared buffers it only
  // reads were fully produced by an earlier top-level action (barrier).
  num_root_regions = 0;
  for (std::size_t t = 0; t < top.size(); ++t) {
    if (top[t].kind != CActionRef::Kind::kLoop) continue;
    ++num_root_regions;
    const CLoop& root = loops[static_cast<std::size_t>(top[t].id)];
    bool safe = !root.sparse || root.csf_level == 0;
    for (std::size_t b = 0; b < nb && safe; ++b) {
      if (buffer_len[b] == 0 || !buffer_shared[b]) continue;
      // A reset inside a partitioned loop would zero a shared buffer from
      // every worker; the buffer-locality rule above makes this imply a
      // cross-root carry, which cannot be partitioned.
      if (reset_top[b] == static_cast<int>(t)) {
        safe = false;
        break;
      }
      if (producer_top[b] != static_cast<int>(t)) continue;
      const BufferSpec& spec = tree.buffers()[b];
      const bool rooted =
          std::find(spec.indices.begin(), spec.indices.end(), root.index) !=
          spec.indices.end();
      if (!rooted) safe = false;
    }
    top_meta[t].par_safe = safe;

    // Nested-split eligibility: the root body must be exactly one loop (so
    // no sibling term, reset, or cross-iteration buffer carry sits between
    // root iterations), at the CSF level directly below the root for
    // sparse inners, with no shared-buffer writes under the root at all
    // (root-strided slices are disjoint per root *index*, which nested
    // tasks sharing a root index would violate).
    int inner_id = -1;
    if (root.body.size() == 1 &&
        root.body.front().kind == CActionRef::Kind::kLoop) {
      inner_id = root.body.front().id;
    }
    top_meta[t].inner_loop = inner_id;
    bool nest = safe && inner_id >= 0;
    if (nest) {
      const CLoop& inner = loops[static_cast<std::size_t>(inner_id)];
      if (inner.sparse) {
        const int want_level = root.sparse ? root.csf_level + 1 : 0;
        nest = inner.csf_level == want_level;
      }
      for (std::size_t b = 0; b < nb && nest; ++b) {
        if (buffer_len[b] == 0 || !buffer_shared[b]) continue;
        if (producer_top[b] == static_cast<int>(t)) nest = false;
      }
    }
    top_meta[t].nest_safe = nest;
    if (nest) {
      // Dense-output stride check against the inner index: collect every
      // term under this root and require the inner index among the output
      // access's outer strides.
      const CLoop& inner = loops[static_cast<std::size_t>(inner_id)];
      const auto check = [&](auto&& self, const CActionRef& a) -> void {
        switch (a.kind) {
          case CActionRef::Kind::kTerm: {
            const CTerm& ct = terms[static_cast<std::size_t>(a.id)];
            if (ct.out.base == Base::kOutDense) {
              const bool strided = std::any_of(
                  ct.out.outer.begin(), ct.out.outer.end(),
                  [&](const auto& p) { return p.first == inner.index; });
              if (!strided) top_meta[t].out_dense_inner_rooted = false;
            }
            break;
          }
          case CActionRef::Kind::kLoop:
            for (const CActionRef& child :
                 loops[static_cast<std::size_t>(a.id)].body) {
              self(self, child);
            }
            break;
          case CActionRef::Kind::kReset:
            break;
        }
      };
      check(check, top[t]);
    }
  }
}

void FusedExecutor::execute(const ExecArgs& args) {
  Impl& im = *impl_;
  const Kernel& k = im.kernel;
  SPTTN_CHECK_MSG(args.sparse != nullptr, "sparse operand not bound");
  const CsfTensor& csf = *args.sparse;
  SPTTN_CHECK_MSG(csf.order() == k.sparse_ref().order(),
                  "CSF order mismatch with kernel sparse operand");
  for (int l = 0; l < csf.order(); ++l) {
    SPTTN_CHECK_MSG(
        csf.level_dims()[static_cast<std::size_t>(l)] ==
            k.index_dim(k.sparse_ref().idx[static_cast<std::size_t>(l)]),
        "CSF level " << l << " dimension mismatch");
    SPTTN_CHECK_MSG(csf.mode_order()[static_cast<std::size_t>(l)] == l,
                    "CSF must be built in the kernel's sparse index order");
  }
  // Stale-stats guard: a plan derived from exact sparsity statistics may
  // only execute against the structure it was planned for. Both sides are
  // stored hashes, so the comparison is O(1); either side being 0 (raw
  // (path, order) construction, modeled stats, default CSF) skips it.
  SPTTN_CHECK_MSG(im.plan_fingerprint == 0 ||
                      csf.structure_fingerprint() == 0 ||
                      im.plan_fingerprint == csf.structure_fingerprint(),
                  "sparsity fingerprint mismatch: the plan was derived from "
                  "a structurally different tensor than the CSF being "
                  "executed (stale cached plan?)");
  SPTTN_CHECK_MSG(static_cast<int>(args.dense.size()) == k.num_inputs(),
                  "expected one dense slot per kernel input");
  std::vector<const double*> dense_data(args.dense.size(), nullptr);
  for (int i = 0; i < k.num_inputs(); ++i) {
    if (i == k.sparse_input()) continue;
    const DenseTensor* d = args.dense[static_cast<std::size_t>(i)];
    SPTTN_CHECK_MSG(d != nullptr,
                    "dense input '" << k.input(i).name << "' not bound");
    const auto& ref = k.input(i);
    SPTTN_CHECK_MSG(d->order() == ref.order(),
                    "dense input '" << ref.name << "' order mismatch");
    for (int m = 0; m < ref.order(); ++m) {
      SPTTN_CHECK_MSG(
          d->dim(m) == k.index_dim(ref.idx[static_cast<std::size_t>(m)]),
          "dense input '" << ref.name << "' dim mismatch in mode " << m);
    }
    dense_data[static_cast<std::size_t>(i)] = d->data();
  }

  Impl::Bindings b;
  b.csf = &csf;
  b.dense = dense_data;
  std::int64_t dense_out_len = 0;
  if (k.output_is_sparse()) {
    SPTTN_CHECK_MSG(static_cast<std::int64_t>(args.out_sparse.size()) ==
                        csf.nnz(),
                    "sparse output must have one value per nonzero");
    b.out_sparse = args.out_sparse.data();
    if (!args.accumulate) {
      xzero(csf.nnz(), b.out_sparse, 1);
    }
  } else {
    SPTTN_CHECK_MSG(args.out_dense != nullptr, "dense output not bound");
    const auto& ref = k.output();
    SPTTN_CHECK_MSG(args.out_dense->order() == ref.order(),
                    "output order mismatch");
    for (int m = 0; m < ref.order(); ++m) {
      SPTTN_CHECK_MSG(args.out_dense->dim(m) ==
                          k.index_dim(ref.idx[static_cast<std::size_t>(m)]),
                      "output dim mismatch in mode " << m);
    }
    b.out_dense = args.out_dense->data();
    dense_out_len = args.out_dense->size();
    if (!args.accumulate) args.out_dense->zero();
  }

  const int want_threads = std::max(1, args.num_threads);
  if (want_threads > 1) {
    im.execute_parallel(b, want_threads, dense_out_len, args.stats);
    return;
  }
  const Impl::Runtime rt = im.make_runtime(b, nullptr);
  for (const lowered::LOp& op : im.low.top) {
    lowered::run_op(im.low, rt.ctx, op);
  }
  if (args.stats != nullptr) {
    // Report the sequential execution faithfully instead of clobbering the
    // caller's struct with defaults: the resolved thread count and the
    // region census make "ran sequentially" distinguishable from "stats
    // never populated".
    ExecStats st;
    st.populated = true;
    st.threads_requested = want_threads;
    st.threads_used = 1;
    st.total_regions = im.num_root_regions;
    *args.stats = st;
  }
}

namespace {

/// One unit of parallel work within a root region: a contiguous range of
/// root positions, optionally narrowed (for a single root position) to a
/// sub-range of the second-level loop. `weight` is the estimated work
/// (subtree nnz for sparse roots, proportional iteration count for dense
/// roots), used for imbalance reporting only.
struct ParTask {
  std::int64_t root_begin = 0;
  std::int64_t root_end = 0;
  std::int64_t inner_begin = -1;  ///< >= 0: nested (root range is one position)
  std::int64_t inner_end = -1;
  std::int64_t weight = 0;
};

/// Nonzero-balanced partition of a sparse root loop: `leaf_begin[i]` is the
/// first leaf (nonzero) under root node i, so chunk boundaries chosen on it
/// equalize work, not index ranges. Returns non-empty [begin, end) node
/// ranges; at most `parts` of them.
std::vector<std::pair<std::int64_t, std::int64_t>> partition_by_nnz(
    const std::vector<std::int64_t>& leaf_begin, int parts) {
  const auto extent = static_cast<std::int64_t>(leaf_begin.size()) - 1;
  const std::int64_t total = leaf_begin.back();
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  std::int64_t begin = 0;
  for (int c = 1; c <= parts && begin < extent; ++c) {
    std::int64_t end;
    if (c == parts) {
      end = extent;
    } else {
      const std::int64_t target = total * c / parts;
      end = std::lower_bound(leaf_begin.begin(), leaf_begin.end(), target) -
            leaf_begin.begin();
      end = std::clamp(end, begin, extent);
    }
    if (end > begin) chunks.emplace_back(begin, end);
    begin = end;
  }
  return chunks;
}

/// First-leaf offsets for every node of a CSF level (plus an end sentinel):
/// lb[i] is the first nonzero under node i at `level`, so lb[e] - lb[b]
/// counts the nonzeros below node range [b, e).
std::vector<std::int64_t> leaf_offsets(const CsfTensor& csf, int level) {
  const std::int64_t n = csf.num_nodes(level);
  std::vector<std::int64_t> lb(static_cast<std::size_t>(n) + 1);
  for (std::int64_t i = 0; i <= n; ++i) lb[static_cast<std::size_t>(i)] = i;
  for (int lvl = level; lvl + 1 < csf.order(); ++lvl) {
    const auto ptr = csf.level_ptr(lvl);
    for (auto& b : lb) b = ptr[static_cast<std::size_t>(b)];
  }
  return lb;
}

/// Deterministic tiled reduction of per-task output partials: the output
/// is cut into fixed-size tiles processed in parallel, and within a tile
/// the partials fold into dst in task order. The float summation shape
/// depends only on the partition shape (bit-identical run to run), while
/// each lane's working set stays O(tile) — one pass over memory instead of
/// the old pairwise tree's lg(P) full-length sweeps.
void reduce_partials(ThreadPool& pool,
                     std::vector<std::vector<double>>& parts,
                     std::int64_t len, double* dst) {
  if (parts.empty() || len <= 0) return;
  constexpr std::int64_t kTile = 4096;
  const std::int64_t tiles = (len + kTile - 1) / kTile;
  pool.parallel_apply(tiles, [&](std::int64_t tile) {
    const std::int64_t b = tile * kTile;
    const std::int64_t e = std::min(len, b + kTile);
    for (auto& p : parts) {
      xaxpy(e - b, 1.0, p.data() + b, 1, dst + b, 1);
    }
  });
}

}  // namespace

/// Parallel execution of the lowered program: top-level actions run in
/// order (each parallel_apply is a barrier), and every safe root loop is
/// partitioned across the process-wide work-stealing pool — by subtree
/// nonzero count for sparse roots, evenly for dense roots. A region whose
/// root partition is too coarse (extent below the lane budget) or too
/// skewed (one subtree owning most of the work) is re-partitioned with a
/// nested split: heavy root positions break into sub-ranges of the second
/// loop level. Outputs write directly when tasks are disjoint in the
/// partitioned indices, otherwise into per-task partials folded by a tiled
/// deterministic reduction.
void FusedExecutor::Impl::execute_parallel(const Bindings& b,
                                           int want_threads,
                                           std::int64_t dense_out_len,
                                           ExecStats* stats) const {
  ThreadPool& pool = ThreadPool::global();
  ExecStats st;
  st.populated = true;
  st.threads_requested = want_threads;
  st.total_regions = num_root_regions;
  const CsfTensor& csf = *b.csf;
  const std::int64_t sparse_out_len =
      b.out_sparse != nullptr ? csf.nnz() : 0;
  // Shared storage for buffers carrying values across top-level actions;
  // workers alias it (their writes are disjoint by the safety analysis).
  std::vector<std::vector<double>> shared_bufs(buffer_len.size());
  for (std::size_t i = 0; i < buffer_len.size(); ++i) {
    if (buffer_len[i] > 0 && buffer_shared[i]) {
      shared_bufs[i].assign(static_cast<std::size_t>(buffer_len[i]), 0.0);
    }
  }
  const Runtime rt = make_runtime(b, &shared_bufs);
  const auto run_top = [&](std::size_t t) {
    lowered::run_op(low, rt.ctx, low.top[t]);
  };
  /// Static root chunks whose weight skew exceeds this trigger the nested
  /// split (1.0 = perfectly balanced).
  constexpr double kNestSkewThreshold = 1.25;

  for (std::size_t t = 0; t < top.size(); ++t) {
    const CActionRef& a = top[t];
    const TopMeta& meta = top_meta[t];
    if (a.kind != CActionRef::Kind::kLoop) {
      run_top(t);  // scalar terms and shared-buffer resets
      continue;
    }
    const CLoop& root = loops[static_cast<std::size_t>(a.id)];
    if (!meta.par_safe) {
      ++st.fallback_regions;
      run_top(t);
      continue;
    }
    const CLoop* inner =
        meta.inner_loop >= 0
            ? &loops[static_cast<std::size_t>(meta.inner_loop)]
            : nullptr;

    // Work geometry of the root space. Sparse roots weigh positions by
    // subtree nnz; dense roots weigh every position by the (uniform) work
    // of one iteration so that small-extent roots still expose enough
    // total weight for the nested split to aim at.
    std::vector<std::int64_t> leaf_begin;  // sparse roots only
    std::int64_t extent = 0;
    std::int64_t dense_w_each = 1;
    if (root.sparse) {
      extent = csf.num_nodes(0);
      leaf_begin = leaf_offsets(csf, 0);
    } else {
      extent = root.extent;
      if (inner != nullptr) {
        dense_w_each = inner->sparse ? std::max<std::int64_t>(csf.nnz(), 1)
                                     : std::max<std::int64_t>(inner->extent, 1);
      }
    }
    const std::int64_t total_w =
        root.sparse ? (leaf_begin.empty() ? 0 : leaf_begin.back())
                    : extent * dense_w_each;
    const auto node_weight = [&](std::int64_t p) {
      return root.sparse ? leaf_begin[static_cast<std::size_t>(p + 1)] -
                               leaf_begin[static_cast<std::size_t>(p)]
                         : dense_w_each;
    };
    if (extent == 0 || total_w == 0) {
      run_top(t);
      continue;
    }

    // Every task pays a Runtime (private-buffer allocation), and tasks
    // beyond the pool's lanes only help by smoothing weight imbalance the
    // stealing pool can absorb, so budget disjoint-write regions at a few
    // tasks per lane. Regions whose output needs per-task partials also
    // pay a full output copy per task and are budgeted at the lane count.
    const bool flat_partials =
        (meta.writes_out_dense && !meta.out_dense_rooted) ||
        (meta.writes_out_sparse && !root.sparse);
    const int flat_budget = std::min(
        want_threads, flat_partials ? pool.size() : 4 * pool.size());
    const std::int64_t requested_eff =
        std::min<std::int64_t>(flat_budget, total_w);

    // Static nnz-balanced (or even) root chunking.
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    if (root.sparse) {
      chunks = partition_by_nnz(leaf_begin, flat_budget);
    } else {
      const auto parts = std::min<std::int64_t>(flat_budget, extent);
      for (std::int64_t c = 0; c < parts; ++c) {
        const std::int64_t b = extent * c / parts;
        const std::int64_t e = extent * (c + 1) / parts;
        if (e > b) chunks.emplace_back(b, e);
      }
    }
    std::vector<ParTask> tasks;
    tasks.reserve(chunks.size());
    std::int64_t max_chunk_w = 0;
    for (const auto& [b, e] : chunks) {
      ParTask task;
      task.root_begin = b;
      task.root_end = e;
      task.weight = root.sparse
                        ? leaf_begin[static_cast<std::size_t>(e)] -
                              leaf_begin[static_cast<std::size_t>(b)]
                        : (e - b) * dense_w_each;
      max_chunk_w = std::max(max_chunk_w, task.weight);
      tasks.push_back(task);
    }
    // True imbalance of the static partition measured against an even
    // `requested_eff`-way split — a single mega-chunk shows up as ~lanes
    // instead of hiding behind a chunk-count denominator of one.
    const double static_imbalance =
        requested_eff > 1 ? static_cast<double>(max_chunk_w) *
                                static_cast<double>(requested_eff) /
                                static_cast<double>(total_w)
                          : 1.0;

    // Decide whether to re-partition with the nested second-level split:
    // the static chunking failed to produce the requested parallelism
    // (small/skewed root) and the region admits it. Should the rebuild not
    // actually improve on the static chunking (e.g. the nested partials
    // budget is a single lane), the flat chunks below stay in effect.
    const bool want_nested =
        meta.nest_safe && inner != nullptr && requested_eff > 1 &&
        (static_cast<std::int64_t>(tasks.size()) < requested_eff ||
         static_imbalance > kNestSkewThreshold);
    bool has_nested = false;
    if (want_nested) {
      std::vector<ParTask> nested_tasks;
      // Rebuild the task list from scratch: heavy root positions split
      // into second-level sub-ranges aimed at `target` weight each; light
      // positions coalesce into contiguous chunks of ~target weight. The
      // shape depends only on the CSF structure and the budget, so the
      // partition (and therefore the reduction shape) is deterministic.
      const bool nested_partials =
          (meta.writes_out_dense &&
           !(meta.out_dense_rooted && meta.out_dense_inner_rooted)) ||
          (meta.writes_out_sparse && !(root.sparse && inner->sparse));
      const std::int64_t budget = std::max<std::int64_t>(
          1, std::min<std::int64_t>(
                 std::min(want_threads,
                          nested_partials ? pool.size() : 4 * pool.size()),
                 total_w));
      const std::int64_t target = (total_w + budget - 1) / budget;
      // Leaf offsets one level below the root for nnz-balanced inner cuts.
      std::vector<std::int64_t> inner_leaf;
      if (inner->sparse) {
        inner_leaf = leaf_offsets(csf, inner->csf_level);
      }
      const auto inner_range = [&](std::int64_t p) {
        if (!inner->sparse) {
          return std::pair<std::int64_t, std::int64_t>{0, inner->extent};
        }
        if (!root.sparse) {
          return std::pair<std::int64_t, std::int64_t>{
              0, csf.num_nodes(inner->csf_level)};
        }
        const auto ptr = csf.level_ptr(root.csf_level);
        return std::pair<std::int64_t, std::int64_t>{
            ptr[static_cast<std::size_t>(p)],
            ptr[static_cast<std::size_t>(p + 1)]};
      };
      const auto split_heavy = [&](std::int64_t p, std::int64_t w,
                                   std::int64_t tgt,
                                   std::vector<ParTask>* out) {
        const auto [ib, ie] = inner_range(p);
        const std::int64_t cap = ie - ib;
        const std::int64_t pieces = std::clamp<std::int64_t>(
            (w + tgt - 1) / tgt, 1, std::max<std::int64_t>(cap, 1));
        if (pieces < 2) {
          ParTask task;
          task.root_begin = p;
          task.root_end = p + 1;
          task.weight = w;
          out->push_back(task);
          return;
        }
        has_nested = true;
        std::int64_t prev = ib;
        for (std::int64_t c = 1; c <= pieces && prev < ie; ++c) {
          std::int64_t end;
          if (c == pieces) {
            end = ie;
          } else if (inner->sparse) {
            const std::int64_t goal =
                inner_leaf[static_cast<std::size_t>(ib)] +
                (inner_leaf[static_cast<std::size_t>(ie)] -
                 inner_leaf[static_cast<std::size_t>(ib)]) *
                    c / pieces;
            end = std::lower_bound(inner_leaf.begin() + ib,
                                   inner_leaf.begin() + ie, goal) -
                  inner_leaf.begin();
            end = std::clamp(end, prev, ie);
          } else {
            end = ib + cap * c / pieces;
            end = std::clamp(end, prev, ie);
          }
          if (end > prev) {
            ParTask task;
            task.root_begin = p;
            task.root_end = p + 1;
            task.inner_begin = prev;
            task.inner_end = end;
            task.weight =
                inner->sparse
                    ? inner_leaf[static_cast<std::size_t>(end)] -
                          inner_leaf[static_cast<std::size_t>(prev)]
                    : w * (end - prev) / std::max<std::int64_t>(cap, 1);
            out->push_back(task);
          }
          prev = end;
        }
      };
      std::int64_t run_begin = 0;
      std::int64_t run_w = 0;
      const auto flush_run = [&](std::int64_t end_exclusive) {
        if (run_begin < end_exclusive && run_w > 0) {
          ParTask task;
          task.root_begin = run_begin;
          task.root_end = end_exclusive;
          task.weight = run_w;
          nested_tasks.push_back(task);
        }
        run_begin = end_exclusive;
        run_w = 0;
      };
      for (std::int64_t p = 0; p < extent; ++p) {
        const std::int64_t w = node_weight(p);
        if (w > target) {
          flush_run(p);
          split_heavy(p, w, target, &nested_tasks);
          run_begin = p + 1;
          continue;
        }
        run_w += w;
        if (run_w >= target) flush_run(p + 1);
      }
      flush_run(extent);
      // Adopt the rebuild only when it improves the worst task — the flat
      // direct-write budget (4x lanes) often holds *more* tasks than the
      // partials-capped rebuild, so comparing counts would keep a
      // serialized mega-chunk just because the balanced partition is
      // smaller. Same output routing → any strict improvement wins; a
      // switch from direct writes to per-task partials additionally pays
      // an output copy per task plus the reduction pass, so it must beat
      // the flat partition by the skew threshold. A degenerate rebuild
      // (e.g. a one-lane partials budget) keeps the flat chunks.
      std::int64_t nested_max_w = 0;
      for (const ParTask& task : nested_tasks) {
        nested_max_w = std::max(nested_max_w, task.weight);
      }
      const bool same_routing = !nested_partials || flat_partials;
      const bool adopt =
          has_nested && nested_tasks.size() >= 2 &&
          (same_routing ? nested_max_w < max_chunk_w
                        : static_cast<double>(nested_max_w) *
                                  kNestSkewThreshold <
                              static_cast<double>(max_chunk_w));
      if (adopt) {
        tasks = std::move(nested_tasks);
      } else {
        has_nested = false;
        // Skew-aware heavy-chunk re-split (ROADMAP carried item). The
        // from-scratch rebuild above aims at the *partials* budget, which
        // can be far coarser than the flat chunking (direct-write regions
        // budget 4x the lanes, partials regions one task per lane); when
        // the flat partition already holds enough chunks but one of them
        // dwarfs the rest, the rebuild often degenerates (the heavy node
        // stays below the coarse target, nothing splits) and we used to
        // keep the skewed flat chunks and serialize behind the mega-chunk.
        // Instead, keep the light flat chunks and re-split only the heavy
        // ones against the flat partition's own per-task target.
        if (static_imbalance > kNestSkewThreshold) {
          const std::int64_t flat_target =
              (total_w + requested_eff - 1) / requested_eff;
          std::vector<ParTask> resplit;
          for (const ParTask& task : tasks) {
            if (task.weight <= flat_target) {
              resplit.push_back(task);
              continue;
            }
            // Walk the heavy chunk's root positions: heavy positions split
            // at the inner level, light runs coalesce to ~flat_target —
            // the scratch rebuild's shape, confined to this chunk.
            std::int64_t rb = task.root_begin;
            std::int64_t rw = 0;
            const auto flush = [&](std::int64_t end_exclusive) {
              if (rb < end_exclusive && rw > 0) {
                ParTask piece;
                piece.root_begin = rb;
                piece.root_end = end_exclusive;
                piece.weight = rw;
                resplit.push_back(piece);
              }
              rb = end_exclusive;
              rw = 0;
            };
            for (std::int64_t p = task.root_begin; p < task.root_end; ++p) {
              const std::int64_t w = node_weight(p);
              if (w > flat_target) {
                flush(p);
                if (meta.nest_safe && inner != nullptr) {
                  split_heavy(p, w, flat_target, &resplit);
                } else {
                  ParTask piece;
                  piece.root_begin = p;
                  piece.root_end = p + 1;
                  piece.weight = w;
                  resplit.push_back(piece);
                }
                rb = p + 1;
                continue;
              }
              rw += w;
              if (rw >= flat_target) flush(p + 1);
            }
            flush(task.root_end);
          }
          std::int64_t resplit_max_w = 0;
          for (const ParTask& task : resplit) {
            resplit_max_w = std::max(resplit_max_w, task.weight);
          }
          // split_heavy set has_nested iff the re-split produced inner
          // pieces; adoption mirrors the scratch rebuild — same routing
          // takes any strict improvement, a direct-write → partials switch
          // must clear the skew threshold.
          const bool resplit_same_routing =
              !has_nested || !nested_partials || flat_partials;
          const bool resplit_adopt =
              resplit.size() >= 2 &&
              (resplit_same_routing
                   ? resplit_max_w < max_chunk_w
                   : static_cast<double>(resplit_max_w) * kNestSkewThreshold <
                         static_cast<double>(max_chunk_w));
          if (resplit_adopt) {
            tasks = std::move(resplit);
          } else {
            has_nested = false;
          }
        }
      }
    }

    const auto n_tasks = static_cast<std::int64_t>(tasks.size());
    if (n_tasks < 2) {
      // Could not be split (single position, or all weight in unsplittable
      // work). Record the true skew of the attempted partition so the
      // serialization is observable, then run in place.
      if (requested_eff > 1) {
        st.partition_imbalance =
            std::max(st.partition_imbalance, static_imbalance);
      }
      run_top(t);
      continue;
    }

    // Output routing. Tasks disjoint in the root index write dense outputs
    // strided by the root directly; nested tasks additionally need the
    // inner stride. Sparse (pattern-aligned) outputs write directly when
    // tasks own disjoint leaf ranges — true for sparse roots, and for
    // nested tasks only when the inner loop is also sparse.
    const bool dense_direct =
        !meta.writes_out_dense ||
        (meta.out_dense_rooted &&
         (!has_nested || meta.out_dense_inner_rooted));
    const bool sparse_direct =
        !meta.writes_out_sparse ||
        (root.sparse && (!has_nested || inner->sparse));
    std::vector<std::vector<double>> dense_partial;
    std::vector<std::vector<double>> sparse_partial;
    if (!dense_direct) {
      dense_partial.assign(static_cast<std::size_t>(n_tasks), {});
    }
    if (!sparse_direct) {
      sparse_partial.assign(static_cast<std::size_t>(n_tasks), {});
    }

    pool.parallel_apply(n_tasks, [&](std::int64_t c) {
      Bindings wb = b;
      if (!dense_direct) {
        auto& p = dense_partial[static_cast<std::size_t>(c)];
        p.assign(static_cast<std::size_t>(dense_out_len), 0.0);
        wb.out_dense = p.data();
      }
      if (!sparse_direct) {
        auto& p = sparse_partial[static_cast<std::size_t>(c)];
        p.assign(static_cast<std::size_t>(sparse_out_len), 0.0);
        wb.out_sparse = p.data();
      }
      const Runtime wrt = make_runtime(wb, &shared_bufs);
      const ParTask& task = tasks[static_cast<std::size_t>(c)];
      if (task.inner_begin < 0) {
        run_range(wrt, a.id, task.root_begin, task.root_end);
      } else {
        // Nested task: bind the single root position, then run the second
        // loop over the narrowed range (the root body is exactly this
        // loop, by the nest_safe analysis).
        if (root.sparse) {
          const int lvl = root.csf_level;
          wrt.ctx.idx_val[root.index] =
              csf.level_idx(lvl)[static_cast<std::size_t>(task.root_begin)];
          wrt.ctx.csf_node[lvl] = task.root_begin;
        } else {
          wrt.ctx.idx_val[root.index] = task.root_begin;
        }
        run_range(wrt, meta.inner_loop, task.inner_begin, task.inner_end);
      }
    });

    if (!dense_direct) {
      reduce_partials(pool, dense_partial, dense_out_len, b.out_dense);
    }
    if (!sparse_direct) {
      reduce_partials(pool, sparse_partial, sparse_out_len, b.out_sparse);
    }

    ++st.parallel_regions;
    if (has_nested) ++st.nested_regions;
    // Fragmentation in the nested rebuild (heavy nodes interrupting light
    // runs) may emit a few more tasks than the lane budget; the surplus
    // only smooths imbalance, so the reported width honors the caller's
    // threads_used <= threads_requested contract.
    st.threads_used = std::max(
        st.threads_used,
        static_cast<int>(std::min<std::int64_t>(n_tasks, want_threads)));
    std::int64_t max_task_w = 0;
    for (const ParTask& task : tasks) {
      max_task_w = std::max(max_task_w, task.weight);
    }
    const double imbalance = static_cast<double>(max_task_w) *
                             static_cast<double>(n_tasks) /
                             static_cast<double>(total_w);
    st.partition_imbalance = std::max(st.partition_imbalance, imbalance);
  }
  if (stats != nullptr) *stats = st;
}

std::string FusedExecutor::describe(const Kernel& kernel) const {
  std::ostringstream os;
  os << impl_->tree.render(kernel, impl_->path);
  os << "offloaded terms: " << impl_->offloaded_terms << " (collapsed "
     << impl_->collapsed_loops << " dense loops)\n";
  return os.str();
}

}  // namespace spttn
