// cold-zoo: cold requests. One op is one pass on an empty KernelCache: a
// fresh Session over a paper-scale stand-in prepares the CP/Tucker kernel
// family (projection scans, search, verify, compile, lower), then every
// network on a fixed list is prepared and executed once. Order-5/6
// networks plan under the exact strategy, order-8 ones under a
// node-budgeted anytime strategy (never a wall-clock budget, so plans
// repeat). The op is the whole pass, never a single kernel, because
// planning times differ tenfold between kernels.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "serve/session.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using spttn::CooTensor;
using spttn::DenseTensor;
using spttn::GeneratedNetwork;

constexpr double kFamilyScale = 0.015;  ///< nell-2 stand-in, ~1.2M nonzeros
constexpr std::int64_t kRank = 16;
constexpr std::int64_t kTRank = 8;
constexpr std::int64_t kAnytimeNodes = 2048;

struct Net {
  GeneratedNetwork g;
  spttn::PlannerOptions options;
  CooTensor t;
  std::vector<DenseTensor> factors;
  std::vector<const DenseTensor*> dense;
  std::vector<double> ref;
  bool sparse_out = false;
  DenseTensor out;
  std::vector<double> out_sparse;
  spttn::Plan plan;
  // Planner inputs for the per-layer pass.
  spttn::Kernel kernel;
  spttn::SparsityStats stats;
};

/// The fixed network list. Structures come from fixed generator seeds so
/// every run plans the same kernels; --seed only changes the tensors.
std::vector<std::pair<GeneratedNetwork, bool>> zoo_list() {
  std::vector<std::pair<GeneratedNetwork, bool>> z;  // (network, anytime)
  for (std::uint64_t s : {11, 12}) {
    spttn::Rng g(s);
    z.push_back({spttn::random_network(5, 6, 4, g), false});
  }
  for (std::uint64_t s : {21, 22}) {
    spttn::Rng g(s);
    z.push_back({spttn::random_network(6, 5, 3, g), false});
  }
  z.push_back({spttn::tensor_train_network(5, 6, 3), false});
  z.push_back({spttn::tensor_train_network(6, 5, 3), false});
  for (std::uint64_t s : {31, 32}) {
    spttn::Rng g(s);
    z.push_back({spttn::random_network(8, 4, 3, g), true});
  }
  z.push_back({spttn::tensor_train_network(8, 4, 2), true});
  return z;
}

class ColdZoo final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    spttn::Rng rng(seed);
    big_ = standin("nell-2", kFamilyScale, rng);
    for (int m = 0; m < 3; ++m) {
      u_.push_back(spttn::random_dense({big_.dim(m), kRank}, rng));
      v_.push_back(spttn::random_dense({big_.dim(m), kTRank}, rng));
    }
    family_ = {
        {"M(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)", {&u_[1], &u_[2]}},
        {"M(j,r) = T(i,j,k)*U0(i,r)*U2(k,r)", {&u_[0], &u_[2]}},
        {"M(k,r) = T(i,j,k)*U0(i,r)*U1(j,r)", {&u_[0], &u_[1]}},
        {"Y(i,a,b) = T(i,j,k)*V1(j,a)*V2(k,b)", {&v_[1], &v_[2]}},
        {"Y(j,a,b) = T(i,j,k)*V0(i,a)*V2(k,b)", {&v_[0], &v_[2]}},
        {"Y(k,a,b) = T(i,j,k)*V0(i,a)*V1(j,b)", {&v_[0], &v_[1]}},
        {"G(a,b,c) = T(i,j,k)*V0(i,a)*V1(j,b)*V2(k,c)",
         {&v_[0], &v_[1], &v_[2]}},
        {"S(i,j,k) = T(i,j,k)*U0(i,r)*U1(j,r)*U2(k,r)",
         {&u_[0], &u_[1], &u_[2]}},
    };
    for (auto& [g, anytime] : zoo_list()) {
      auto n = std::make_unique<Net>();
      n->g = g;
      n->options = family_options_;
      if (anytime) {
        n->options.strategy = spttn::StrategyKind::kAnytime;
        n->options.budget.max_nodes = kAnytimeNodes;
      }
      // ~2% dense in the sparse extents, capped for the high orders.
      double space = 1;
      for (auto d : g.sparse_dims) space *= static_cast<double>(d);
      const auto nnz = static_cast<std::int64_t>(std::min(space * 0.02, 4000.0));
      n->t = spttn::random_coo(g.sparse_dims, nnz, rng);
      const spttn::Kernel k = spttn::Kernel::parse(g.expr);
      for (int i = 0; i < k.num_inputs(); ++i) {
        if (i == k.sparse_input()) continue;
        std::vector<std::int64_t> dims;
        for (int id : k.input(i).idx) dims.push_back(g.dim_of(k.index_name(id)));
        n->factors.push_back(spttn::random_dense(dims, rng));
      }
      for (const auto& f : n->factors) n->dense.push_back(&f);
      n->ref = reference_eval(g.expr, n->t, n->dense);
      n->sparse_out = k.output_is_sparse();
      nets_.push_back(std::move(n));
    }
  }

  void setup(Tracer*) override {}
  void teardown() override {}

  void run_op(Tracer* tr) override {
    spttn::KernelCache cache;
    {
      Span span(tr, "serve.bind:family");
      spttn::Session s(big_, family_options_, &cache);
      for (const auto& [expr, dense] : family_) {
        Span p(tr, "serve.prepare:family");
        s.prepare(expr, dense);
      }
    }
    for (auto& n : nets_) {
      Span span(tr, "serve.request:" + n->g.name);
      spttn::Session s(n->t, n->options, &cache);
      const int id = s.prepare(n->g.expr, n->dense);
      if (n->sparse_out) {
        n->out_sparse.assign(static_cast<std::size_t>(n->t.nnz()), 0.0);
        s.run(id, nullptr, n->out_sparse);
      } else {
        n->out = s.make_output(id);
        s.run(id, &n->out);
      }
      n->plan = s.plan(id);
    }
    counters_ = cache.counters();
  }

  bool check_op(std::string* why) override {
    for (auto& n : nets_) {
      const std::span<const double> got =
          n->sparse_out ? std::span<const double>(n->out_sparse)
                        : n->out.values();
      if (!close_to(got, n->ref, 1e-9, n->g.name, why)) return false;
      if (n->options.strategy == spttn::StrategyKind::kAnytime &&
          !(n->plan.flops >= n->plan.flops_lower_bound &&
            n->plan.optimality_gap >= 0)) {
        *why = n->g.name + ": anytime plan flops " +
               std::to_string(n->plan.flops) + " below its lower bound " +
               std::to_string(n->plan.flops_lower_bound) + " or gap " +
               std::to_string(n->plan.optimality_gap) + " < 0";
        return false;
      }
    }
    return true;
  }

  LayerInputs layer_inputs() override {
    LayerInputs in{&big_, {}};
    for (auto& n : nets_) {
      n->kernel = spttn::Kernel::parse(n->g.expr);
      for (const auto& [name, extent] : n->g.dims) {
        n->kernel.set_index_dim(n->kernel.index_id(name), extent);
      }
      n->stats = spttn::SparsityStats::from_coo(n->t);
      in.extra_plans.push_back({n->g.name, &n->kernel, &n->stats, &n->options});
    }
    return in;
  }

  void op_layer_metrics(Metrics* out) override {
    // The op's own empty-cache pass, not the layer pass's private cache.
    out->set("serve.cache_hits", static_cast<double>(counters_.hits), "count");
    out->set("serve.cache_misses", static_cast<double>(counters_.misses),
             "count");
    out->set("serve.planned", static_cast<double>(counters_.planned), "count");
    out->set("serve.bytes_resident",
             static_cast<double>(counters_.bytes_resident), "B");
  }

 private:
  /// Sequential search (plan-identical to the parallel one): with the
  /// search fanned out over the pool, which threads' malloc arenas keep
  /// the projection scans' buffers varies, and peak RSS moved between
  /// 160 and 234 MB from one run of the same code to the next.
  const spttn::PlannerOptions family_options_ = [] {
    spttn::PlannerOptions o;
    o.search_threads = 1;
    return o;
  }();
  CooTensor big_;
  std::vector<DenseTensor> u_, v_;
  std::vector<std::pair<std::string, std::vector<const DenseTensor*>>> family_;
  std::vector<std::unique_ptr<Net>> nets_;
  spttn::KernelCache::Counters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_cold_zoo() {
  return std::make_unique<ColdZoo>();
}

}  // namespace perfbench
