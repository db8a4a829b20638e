// dist-shmem: the distributed runtime over the shared-memory transport.
// One op is one pass of DistSpttn::run over ShmemComm at one rank per host
// thread for MTTKRP, TTMc and TTTP (sparse output) on a paper-scale
// stand-in. Ranks are scheduled one after another, so each rank's measured
// kernel time is not shared with another rank.
#include <memory>

#include "bench.hpp"
#include "dist/dist_spttn.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "serve/kernel_cache.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using spttn::CooTensor;
using spttn::DenseTensor;

constexpr double kScale = 0.012;  ///< nell-2 stand-in, ~920K nonzeros
constexpr std::int64_t kRank = 16;
constexpr std::int64_t kTRank = 8;

struct DistKernel {
  std::string name;
  std::string expr;
  std::vector<const DenseTensor*> dense;
  bool sparse_out = false;
  std::vector<double> ref;
  std::unique_ptr<spttn::BoundKernel> bound;
  std::unique_ptr<spttn::DistSpttn> dist;
  std::unique_ptr<spttn::ShmemComm> comm;
  DenseTensor out;
  std::vector<double> out_sparse;
  spttn::DistResult result;
  std::int64_t first_bytes = -1;
  double wall_ms = 0;
};

class DistShmem final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    spttn::Rng rng(seed);
    t_ = standin("nell-2", kScale, rng);
    for (int m = 0; m < 3; ++m) {
      u_.push_back(spttn::random_dense({t_.dim(m), kRank}, rng));
      v_.push_back(spttn::random_dense({t_.dim(m), kTRank}, rng));
    }
    const auto add = [&](const char* name, const char* expr,
                         std::vector<const DenseTensor*> dense, bool sparse) {
      auto k = std::make_unique<DistKernel>();
      k->name = name;
      k->expr = expr;
      k->dense = std::move(dense);
      k->sparse_out = sparse;
      k->ref = reference_eval(k->expr, t_, k->dense);
      kernels_.push_back(std::move(k));
    };
    add("mttkrp3", "M(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)", {&u_[1], &u_[2]},
        false);
    add("ttmc3", "Y(i,a,b) = T(i,j,k)*V1(j,a)*V2(k,b)", {&v_[1], &v_[2]},
        false);
    add("tttp3", "S(i,j,k) = T(i,j,k)*U0(i,r)*U1(j,r)*U2(k,r)",
        {&u_[0], &u_[1], &u_[2]}, true);
  }

  void setup(Tracer* tr) override {
    const int ranks = host_threads();
    for (auto& k : kernels_) {
      {
        Span span(tr, "exec.bind:" + k->name);
        k->bound = std::make_unique<spttn::BoundKernel>(
            spttn::bind(k->expr, t_, k->dense));
      }
      {
        Span span(tr, "dist.partition:" + k->name);
        k->dist = std::make_unique<spttn::DistSpttn>(*k->bound, ranks);
      }
      k->comm = std::make_unique<spttn::ShmemComm>(ranks);
      if (k->sparse_out) {
        k->out_sparse.assign(static_cast<std::size_t>(t_.nnz()), 0.0);
      } else {
        k->out = spttn::make_output(*k->bound);
      }
      k->first_bytes = -1;
    }
  }

  void teardown() override {
    for (auto& k : kernels_) {
      k->comm.reset();
      k->dist.reset();
      k->bound.reset();
    }
    // DistSpttn::run plans through the process-wide cache.
    spttn::KernelCache::global().clear();
  }

  void run_op(Tracer* tr) override {
    for (auto& k : kernels_) {
      k->wall_ms = timed(tr, "dist.run:" + k->name, [&] {
        k->result = k->dist->run(*k->comm, spttn::PlannerOptions{},
                                 k->sparse_out ? nullptr : &k->out,
                                 k->out_sparse);
      });
    }
  }

  bool check_op(std::string* why) override {
    bool ok = true;
    for (auto& k : kernels_) {
      const std::span<const double> got =
          k->sparse_out ? std::span<const double>(k->out_sparse)
                        : k->out.values();
      // Sparse outputs arrive in global (sorted-COO) entry order, which is
      // the order the reference evaluator writes them in.
      if (ok && !close_to(got, k->ref, 1e-9, k->name, why)) ok = false;
      if (k->first_bytes < 0) k->first_bytes = k->result.comm_bytes;
      if (ok && k->result.comm_bytes != k->first_bytes) {
        *why = k->name + ": comm bytes " +
               std::to_string(k->result.comm_bytes) + " != first run's " +
               std::to_string(k->first_bytes);
        ok = false;
      }
    }
    record();
    return ok;
  }

  LayerInputs layer_inputs() override {
    return {&t_, {}};
  }

  void op_layer_metrics(Metrics* out) override {
    // The workload's own runs replace the layer pass's single dist probe.
    out->set("dist.local_max_ms", median(local_max_), "ms");
    out->set("dist.local_sum_ms", median(local_sum_), "ms");
    out->set("dist.allgather_ms", median(allgather_), "ms");
    out->set("dist.allreduce_ms", median(allreduce_), "ms");
    out->set("dist.other_ms", median(other_), "ms");
  }

 private:
  /// One op's sums over the pass's kernels.
  void record() {
    double lmax = 0, lsum = 0, ag = 0, ar = 0, other = 0;
    for (const auto& k : kernels_) {
      const spttn::DistResult& r = k->result;
      double sum = 0;
      for (double s : r.local_seconds) sum += s;
      lmax += r.max_local_seconds * 1e3;
      lsum += sum * 1e3;
      ag += r.breakdown(spttn::CollectiveKind::kAllgather).seconds * 1e3;
      ar += r.breakdown(spttn::CollectiveKind::kAllreduce).seconds * 1e3;
      other += k->wall_ms - sum * 1e3 - r.comm_seconds * 1e3;
    }
    local_max_.push_back(lmax);
    local_sum_.push_back(lsum);
    allgather_.push_back(ag);
    allreduce_.push_back(ar);
    other_.push_back(other);
  }

  CooTensor t_;
  std::vector<DenseTensor> u_, v_;
  std::vector<std::unique_ptr<DistKernel>> kernels_;
  std::vector<double> local_max_, local_sum_, allgather_, allreduce_, other_;
};

}  // namespace

std::unique_ptr<Workload> make_dist_shmem() {
  return std::make_unique<DistShmem>();
}

}  // namespace perfbench
