// paper-kernels: the Figure 7/8 view. One op is one pass over the paper's
// kernel families (MTTKRP per mode, TTMc, all-mode TTMc, TTTP, order-4
// MTTKRP and TTMc) on nell-2-, vast- and nips-like stand-ins, each kernel a
// warmed threaded Session::run. Planning happens only in set-up; the op
// exercises the lowered kernels, root partitioning, partial reduction and
// the work-stealing pool.
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

constexpr std::int64_t kRank = 16;  ///< MTTKRP / TTTP rank
constexpr std::int64_t kTRank = 8;  ///< order-3 TTMc ranks
constexpr std::int64_t kTRank4 = 6; ///< order-4 TTMc ranks

struct Request {
  std::string name;
  std::string expr;
  std::vector<const DenseTensor*> dense;
  std::vector<double> ref{};
  bool sparse_out = false;
  int id = -1;
  DenseTensor out{};
  std::vector<double> out_sparse{};
};

struct StandIn {
  std::string name;
  CooTensor t;
  std::vector<DenseTensor> u;  ///< (I_m x kRank)
  std::vector<DenseTensor> v;  ///< (I_m x TTMc rank)
  std::vector<Request> reqs;
  std::unique_ptr<spttn::Session> session;
};

void add_order3_family(StandIn* s) {
  const auto& u = s->u;
  const auto& v = s->v;
  s->reqs = {
      {"mttkrp3.m0", "M(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)", {&u[1], &u[2]}},
      {"mttkrp3.m1", "M(j,r) = T(i,j,k)*U0(i,r)*U2(k,r)", {&u[0], &u[2]}},
      {"mttkrp3.m2", "M(k,r) = T(i,j,k)*U0(i,r)*U1(j,r)", {&u[0], &u[1]}},
      {"ttmc3", "Y(i,a,b) = T(i,j,k)*V1(j,a)*V2(k,b)", {&v[1], &v[2]}},
      {"allttmc3", "G(a,b,c) = T(i,j,k)*V0(i,a)*V1(j,b)*V2(k,c)",
       {&v[0], &v[1], &v[2]}},
      {"tttp3", "S(i,j,k) = T(i,j,k)*U0(i,r)*U1(j,r)*U2(k,r)",
       {&u[0], &u[1], &u[2]}},
  };
  s->reqs.back().sparse_out = true;
}

void add_order4_family(StandIn* s) {
  const auto& u = s->u;
  const auto& v = s->v;
  s->reqs = {
      {"mttkrp4", "M(i,r) = T(i,j,k,l)*U1(j,r)*U2(k,r)*U3(l,r)",
       {&u[1], &u[2], &u[3]}},
      {"ttmc4", "Y(i,a,b,c) = T(i,j,k,l)*V1(j,a)*V2(k,b)*V3(l,c)",
       {&v[1], &v[2], &v[3]}},
  };
}

class PaperKernels final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    spttn::Rng rng(seed);
    // Three fiber shapes: nell-2 (few long roots), vast (many short roots,
    // a 2-wide last mode), nips (order 4).
    const struct {
      const char* name;
      const char* preset;
      double scale;
      std::int64_t trank;
    } specs[] = {{"nell2", "nell-2", 0.0065, kTRank},
                 {"vast", "vast-3d", 0.02, kTRank},
                 {"nips", "nips", 0.15, kTRank4}};
    for (const auto& sp : specs) {
      auto s = std::make_unique<StandIn>();
      s->name = sp.name;
      s->t = standin(sp.preset, sp.scale, rng);
      for (int m = 0; m < s->t.order(); ++m) {
        s->u.push_back(spttn::random_dense({s->t.dim(m), kRank}, rng));
        s->v.push_back(spttn::random_dense({s->t.dim(m), sp.trank}, rng));
      }
      if (s->t.order() == 3) {
        add_order3_family(s.get());
      } else {
        add_order4_family(s.get());
      }
      for (Request& r : s->reqs) r.ref = reference_eval(r.expr, s->t, r.dense);
      stands_.push_back(std::move(s));
    }
  }

  void setup(Tracer* tr) override {
    cache_ = std::make_unique<spttn::KernelCache>();
    for (auto& s : stands_) {
      {
        Span span(tr, "serve.bind:" + s->name);
        s->session = std::make_unique<spttn::Session>(
            s->t, spttn::PlannerOptions{}, cache_.get());
      }
      for (Request& r : s->reqs) {
        Span span(tr, "serve.prepare:" + s->name + "." + r.name);
        r.id = s->session->prepare(r.expr, r.dense);
        if (r.sparse_out) {
          r.out_sparse.assign(static_cast<std::size_t>(s->t.nnz()), 0.0);
        } else {
          r.out = s->session->make_output(r.id);
        }
      }
    }
  }

  void teardown() override {
    for (auto& s : stands_) s->session.reset();
    cache_.reset();
  }

  void run_op(Tracer* tr) override {
    // Half the host threads, not all: on a host whose vCPUs share cores
    // with other machines, every parallel region waits for its slowest
    // lane, and at nproc lanes ten-run spreads of op_p50_ms reached 58%.
    const int threads = std::max(1, host_threads() / 2);
    for (auto& s : stands_) {
      for (Request& r : s->reqs) {
        Span span(tr, "serve.run:" + s->name + "." + r.name);
        s->session->run(r.id, r.sparse_out ? nullptr : &r.out, r.out_sparse,
                        threads);
      }
    }
  }

  bool check_op(std::string* why) override {
    for (auto& s : stands_) {
      for (Request& r : s->reqs) {
        const std::span<const double> got =
            r.sparse_out ? std::span<const double>(r.out_sparse)
                         : r.out.values();
        if (!close_to(got, r.ref, 1e-9, s->name + "." + r.name, why)) {
          return false;
        }
      }
    }
    return true;
  }

  LayerInputs layer_inputs() override {
    return {&stands_.front()->t, {}};
  }

 private:
  std::vector<std::unique_ptr<StandIn>> stands_;
  std::unique_ptr<spttn::KernelCache> cache_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_kernels() {
  return std::make_unique<PaperKernels>();
}

}  // namespace perfbench
