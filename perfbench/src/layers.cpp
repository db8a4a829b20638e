// The per-layer pass of a traced run. It calls each layer's public
// functions directly on the workload's own order-3 stand-in, under spans,
// so a change in an end-to-end number can be traced to one layer:
// tensor (CSF, stats, projections) -> core (make_plan) -> analysis
// (verify_plan) -> exec (compile, sequential and threaded execute, the
// hand-written kernels) -> serve (Session, KernelCache) -> dist (DistSpttn
// over ShmemComm) -> apps (the decomposition drivers, cp_fit).
#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "analysis/plan_verifier.hpp"
#include "apps/decompose.hpp"
#include "bench.hpp"
#include "dist/dist_spttn.hpp"
#include "exec/specialized.hpp"
#include "serve/session.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using spttn::CooTensor;
using spttn::DenseTensor;

/// Repetitions behind each median in this pass.
constexpr int kReps = 3;
/// CP (MTTKRP, TTTP) and Tucker (TTMc) ranks of the probed family.
constexpr std::int64_t kRank = 16;
constexpr std::int64_t kTRank = 8;

template <typename F>
double median_ms(Tracer* tr, const std::string& name, F&& fn) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) v.push_back(timed(tr, name, fn));
  return median(v);
}

struct FamilyKernel {
  std::string name;
  bool execute = false;  ///< also timed in the exec section
  std::string expr;
  std::vector<const DenseTensor*> dense;
  spttn::Kernel kernel;
  std::vector<const DenseTensor*> slots;
  spttn::Plan plan;
  std::unique_ptr<spttn::FusedExecutor> exec;
};

std::size_t csf_bytes(const spttn::CsfTensor& c) {
  std::size_t b = static_cast<std::size_t>(c.nnz()) * sizeof(double);
  for (int l = 0; l < c.order(); ++l) {
    b += static_cast<std::size_t>(c.num_nodes(l)) * sizeof(std::int64_t);
    if (l + 1 < c.order()) {
      b += c.level_ptr(l).size() * sizeof(std::int64_t);
    }
  }
  return b;
}

}  // namespace

void run_layer_pass(const LayerInputs& in, Tracer* tr, Metrics* out) {
  Span pass(tr, "layer_pass");
  const CooTensor& t = *in.tensor;
  const int threads = host_threads();
  const spttn::PlannerOptions opts;

  // Factors for the CP/Tucker/TTTP family.
  spttn::Rng rng(7);
  std::vector<DenseTensor> u, v;
  for (int m = 0; m < 3; ++m) {
    u.push_back(spttn::random_dense({t.dim(m), kRank}, rng));
    v.push_back(spttn::random_dense({t.dim(m), kTRank}, rng));
  }
  std::vector<FamilyKernel> fam(8);
  const auto def = [&](int i, const char* name, bool execute, const char* expr,
                       std::vector<const DenseTensor*> dense) {
    FamilyKernel& f = fam[static_cast<std::size_t>(i)];
    f.name = name;
    f.execute = execute;
    f.expr = expr;
    f.dense = std::move(dense);
  };
  def(0, "mttkrp3", true, "M(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)", {&u[1], &u[2]});
  def(1, "mttkrp3.m1", false, "M(j,r) = T(i,j,k)*U0(i,r)*U2(k,r)",
      {&u[0], &u[2]});
  def(2, "mttkrp3.m2", false, "M(k,r) = T(i,j,k)*U0(i,r)*U1(j,r)",
      {&u[0], &u[1]});
  def(3, "ttmc3", true, "Y(i,a,b) = T(i,j,k)*V1(j,a)*V2(k,b)", {&v[1], &v[2]});
  def(4, "ttmc3.m1", false, "Y(j,a,b) = T(i,j,k)*V0(i,a)*V2(k,b)",
      {&v[0], &v[2]});
  def(5, "ttmc3.m2", false, "Y(k,a,b) = T(i,j,k)*V0(i,a)*V1(j,b)",
      {&v[0], &v[1]});
  def(6, "allttmc3", true, "G(a,b,c) = T(i,j,k)*V0(i,a)*V1(j,b)*V2(k,c)",
      {&v[0], &v[1], &v[2]});
  def(7, "tttp3", true, "S(i,j,k) = T(i,j,k)*U0(i,r)*U1(j,r)*U2(k,r)",
      {&u[0], &u[1], &u[2]});


  // ---- tensor
  std::unique_ptr<spttn::CsfTensor> csf;
  out->set("tensor.csf_build_ms", median_ms(tr, "tensor.csf_build", [&] {
             csf = std::make_unique<spttn::CsfTensor>(t);
           }),
           "ms");
  out->set("tensor.stats_ms", median_ms(tr, "tensor.stats", [&] {
             (void)spttn::SparsityStats::from_coo(t);
           }),
           "ms");
  const spttn::SparsityStats stats = spttn::SparsityStats::from_coo(t);
  // The non-prefix projections a cold family plan scans for; prefix counts
  // come with the stats.
  double proj_ms = 0;
  for (std::uint64_t mask : {0b010u, 0b100u, 0b101u, 0b110u}) {
    proj_ms += timed(tr, "tensor.projection",
                     [&] { (void)stats.projection_nnz(mask); });
  }
  out->set("tensor.projection_ms", proj_ms, "ms");

  // ---- core and analysis
  for (FamilyKernel& f : fam) {
    f.kernel = spttn::bind_kernel_dims(f.expr, t, f.dense, &f.slots);
  }
  double plan_ms = 0, verify_ms = 0, compile_ms = 0;
  double paths_total = 0, paths_searched = 0, dp_evals = 0, nodes = 0;
  double plan_flops = 0, lowered = 0, regions = 0, program_b = 0;
  const auto plan_one = [&](const std::string& name, const spttn::Kernel& k,
                            const spttn::SparsityStats& st,
                            const spttn::PlannerOptions& o, spttn::Plan* plan,
                            std::unique_ptr<spttn::FusedExecutor>* exec) {
    plan_ms += timed(tr, "core.make_plan:" + name,
                     [&] { *plan = spttn::make_plan(k, st, o); });
    spttn::VerifyReport rep;
    verify_ms += timed(tr, "analysis.verify_plan:" + name,
                       [&] { rep = spttn::verify_plan(k, *plan, o, &st); });
    if (!rep.ok()) {
      throw std::runtime_error("verify_plan rejected " + name + ": " +
                               rep.to_string());
    }
    compile_ms += timed(tr, "exec.compile:" + name, [&] {
      *exec = std::make_unique<spttn::FusedExecutor>(k, *plan);
    });
    paths_total += plan->paths_total;
    paths_searched += plan->paths_searched;
    dp_evals += static_cast<double>(plan->dp_evaluations);
    nodes += static_cast<double>(plan->nodes_expanded);
    plan_flops += plan->flops;
    lowered += (*exec)->lowered_regions();
    regions += static_cast<double>((*exec)->parallel_regions().size());
    program_b += static_cast<double>((*exec)->program_bytes());
  };
  for (FamilyKernel& f : fam) {
    plan_one(f.name, f.kernel, stats, opts, &f.plan, &f.exec);
  }
  for (const PlanRequest& r : in.extra_plans) {
    spttn::Plan plan;
    std::unique_ptr<spttn::FusedExecutor> exec;
    plan_one(r.name, *r.kernel, *r.stats, *r.options, &plan, &exec);
  }
  out->set("core.plan_ms", plan_ms, "ms");
  out->set("core.paths_total", paths_total, "count");
  out->set("core.paths_searched", paths_searched, "count");
  out->set("core.dp_evaluations", dp_evals, "count");
  out->set("core.nodes_expanded", nodes, "count");
  out->set("core.plan_flops", plan_flops, "flop");
  out->set("analysis.verify_ms", verify_ms, "ms");
  out->set("exec.compile_ms", compile_ms, "ms");
  out->set("exec.lowered_regions", lowered, "count");
  out->set("exec.total_regions", regions, "count");
  out->set("exec.program_kb", program_b / 1024.0, "KiB");

  // ---- exec: sequential vs threaded, and the hand-written kernels
  double imbalance = 1, nested = 0, fallback = 0;
  std::map<std::string, double> seq_ms;
  for (FamilyKernel& f : fam) {
    if (!f.execute) continue;
    const bool sparse_out = f.kernel.output_is_sparse();
    DenseTensor dout;
    std::vector<double> sout;
    if (sparse_out) {
      sout.assign(static_cast<std::size_t>(t.nnz()), 0.0);
    } else {
      std::vector<std::int64_t> dims;
      for (int id : f.kernel.output().idx) dims.push_back(f.kernel.index_dim(id));
      dout = DenseTensor(dims);
    }
    spttn::ExecArgs args;
    args.sparse = csf.get();
    args.dense = f.slots;
    args.out_dense = sparse_out ? nullptr : &dout;
    args.out_sparse = sout;
    const double seq =
        median_ms(tr, "exec.execute:" + f.name, [&] { f.exec->execute(args); });
    spttn::ExecStats st;
    args.num_threads = threads;
    args.stats = &st;
    const double par = median_ms(tr, "exec.parallel_execute:" + f.name,
                                 [&] { f.exec->execute(args); });
    imbalance = std::max(imbalance, st.partition_imbalance);
    nested += st.nested_regions;
    fallback += st.fallback_regions;
    seq_ms[f.name] = seq;
    out->set("exec.execute_ms." + f.name, seq, "ms");
    out->set("exec.parallel_execute_ms." + f.name, par, "ms");
    out->set("exec.speedup." + f.name, seq / par, "x");
    out->set("exec.model_gflops." + f.name, f.plan.flops / (seq * 1e6),
             "GFLOP/s");
    double bytes = static_cast<double>(csf_bytes(*csf));
    for (const DenseTensor* d : f.dense) {
      bytes += static_cast<double>(d->size()) * sizeof(double);
    }
    bytes += static_cast<double>(sparse_out ? sout.size() : dout.size()) *
             sizeof(double);
    out->set("exec.computed_mb." + f.name, bytes / 1e6, "MB");
  }
  out->set("exec.partition_imbalance", imbalance, "ratio");
  out->set("exec.nested_regions", nested, "count");
  out->set("exec.fallback_regions", fallback, "count");
  {
    DenseTensor a({t.dim(0), kRank});
    const double s = median_ms(tr, "exec.specialized:mttkrp3", [&] {
      spttn::splatt_mttkrp3(*csf, u[1], u[2], &a);
    });
    out->set("exec.vs_specialized.mttkrp3", seq_ms["mttkrp3"] / s, "ratio");
    DenseTensor y({t.dim(0), kTRank, kTRank});
    const double s2 = median_ms(tr, "exec.specialized:ttmc3", [&] {
      spttn::ttmc3_specialized(*csf, v[1], v[2], &y);
    });
    out->set("exec.vs_specialized.ttmc3", seq_ms["ttmc3"] / s2, "ratio");
    std::vector<double> sv(static_cast<std::size_t>(t.nnz()));
    const double s3 = median_ms(tr, "exec.specialized:tttp3", [&] {
      spttn::tttp3_specialized(*csf, u[0], u[1], u[2], sv);
    });
    out->set("exec.vs_specialized.tttp3", seq_ms["tttp3"] / s3, "ratio");
  }

  // ---- serve
  {
    spttn::KernelCache cache;
    out->set("serve.bind_ms", median_ms(tr, "serve.bind", [&] {
               spttn::Session s(t, opts, &cache);
             }),
             "ms");
    spttn::Session s1(t, opts, &cache);
    std::vector<int> ids;
    double miss_ms = 0;
    for (FamilyKernel& f : fam) {
      miss_ms += timed(tr, "serve.prepare_miss",
                       [&] { ids.push_back(s1.prepare(f.expr, f.dense)); });
    }
    out->set("serve.prepare_miss_ms", miss_ms, "ms");
    spttn::Session s2(t, opts, &cache);
    double hit_ms = 0;
    for (FamilyKernel& f : fam) {
      hit_ms += timed(tr, "serve.prepare_hit", [&] { s2.prepare(f.expr, f.dense); });
    }
    out->set("serve.prepare_hit_us", hit_ms * 1e3 / static_cast<double>(fam.size()),
             "us");
    const auto c = cache.counters();
    // Session::run against the bare executor on the same plan, alternated,
    // on the first nonzeros only so the per-call cost is not lost in the
    // kernel's own run-to-run noise.
    spttn::CooTensor small(t.dims());
    for (std::int64_t e = 0; e < std::min<std::int64_t>(t.nnz(), 2000); ++e) {
      small.push_back(t.coord(e), t.value(e));
    }
    small.sort_dedup();
    spttn::KernelCache small_cache;
    spttn::Session ss(small, opts, &small_cache);
    const int sid = ss.prepare(fam[0].expr, fam[0].dense);
    spttn::FusedExecutor sexec(ss.kernel(sid), ss.plan(sid));
    const spttn::CsfTensor scsf(small);
    DenseTensor o1 = ss.make_output(sid);
    DenseTensor o2 = o1;
    spttn::ExecArgs args;
    args.sparse = &scsf;
    args.dense = fam[0].slots;
    args.out_dense = &o2;
    std::vector<double> diff;
    for (int i = 0; i < 201; ++i) {
      const double a = timed(nullptr, "", [&] { ss.run(sid, &o1); });
      const double b = timed(nullptr, "", [&] { sexec.execute(args); });
      diff.push_back((a - b) * 1e3);
    }
    // Mean of the middle half: robust to preemptions, and not pinned to
    // the clock's nanosecond grid as a median of differences is.
    std::sort(diff.begin(), diff.end());
    double mid = 0;
    for (std::size_t i = diff.size() / 4; i < diff.size() * 3 / 4; ++i) {
      mid += diff[i];
    }
    out->set("serve.run_overhead_us",
             mid / static_cast<double>(diff.size() * 3 / 4 - diff.size() / 4),
             "us");
    out->set("serve.cache_hits", static_cast<double>(c.hits), "count");
    out->set("serve.cache_misses", static_cast<double>(c.misses), "count");
    out->set("serve.planned", static_cast<double>(c.planned), "count");
    out->set("serve.bytes_resident", static_cast<double>(c.bytes_resident), "B");
  }

  // ---- dist: MTTKRP, TTMc, TTTP at one rank per host thread
  {
    double part = 0, lmax = 0, lsum = 0, ag = 0, ar = 0, other = 0, imb = 1;
    double bytes = 0;
    for (const FamilyKernel* f : {&fam[0], &fam[3], &fam[7]}) {
      const spttn::BoundKernel bound = spttn::bind(f->expr, t, f->dense);
      std::unique_ptr<spttn::DistSpttn> dist;
      part += timed(tr, "dist.partition:" + f->name, [&] {
        dist = std::make_unique<spttn::DistSpttn>(bound, threads);
      });
      spttn::ShmemComm comm(threads);
      const bool sparse_out = bound.kernel.output_is_sparse();
      DenseTensor dout = sparse_out ? DenseTensor() : spttn::make_output(bound);
      std::vector<double> sout(
          sparse_out ? static_cast<std::size_t>(t.nnz()) : 0);
      // The second run is measured: the first one also plans.
      spttn::DistResult r;
      double wall = 0;
      for (int rep = 0; rep < 2; ++rep) {
        wall = timed(tr, "dist.run:" + f->name, [&] {
          r = dist->run(comm, opts, sparse_out ? nullptr : &dout, sout);
        });
      }
      double sum = 0;
      for (double x : r.local_seconds) sum += x;
      lmax += r.max_local_seconds * 1e3;
      lsum += sum * 1e3;
      ag += r.breakdown(spttn::CollectiveKind::kAllgather).seconds * 1e3;
      ar += r.breakdown(spttn::CollectiveKind::kAllreduce).seconds * 1e3;
      other += wall - sum * 1e3 - r.comm_seconds * 1e3;
      bytes += static_cast<double>(r.comm_bytes);
      imb = std::max(imb, r.imbalance);
    }
    out->set("dist.partition_ms", part, "ms");
    out->set("dist.local_max_ms", lmax, "ms");
    out->set("dist.local_sum_ms", lsum, "ms");
    out->set("dist.allgather_ms", ag, "ms");
    out->set("dist.allreduce_ms", ar, "ms");
    out->set("dist.comm_bytes", bytes, "B");
    out->set("dist.imbalance", imb, "ratio");
    out->set("dist.other_ms", other, "ms");
  }

  // ---- apps: one sweep of each driver on fresh models
  {
    spttn::Rng mr(11);
    spttn::CpModel cp = spttn::make_cp_model(t, static_cast<int>(kRank), mr);
    spttn::TuckerModel tk =
        spttn::make_tucker_model(t, {kTRank, kTRank, kTRank}, mr);
    spttn::CpModel cm = spttn::make_cp_model(t, static_cast<int>(kRank), mr);
    double kernel_s = 0;
    double wall = timed(tr, "apps.cp_als", [&] {
      kernel_s = spttn::cp_als(t, &cp, 1).seconds_in_kernels;
    });
    out->set("apps.kernel_s.cp_als", kernel_s, "s");
    out->set("apps.other_s.cp_als", wall / 1e3 - kernel_s, "s");
    wall = timed(tr, "apps.tucker_hooi", [&] {
      kernel_s = spttn::tucker_hooi(t, &tk, 1).seconds_in_kernels;
    });
    out->set("apps.kernel_s.tucker_hooi", kernel_s, "s");
    out->set("apps.other_s.tucker_hooi", wall / 1e3 - kernel_s, "s");
    wall = timed(tr, "apps.cp_complete", [&] {
      kernel_s = spttn::cp_complete(t, &cm, 1, 1e-4).seconds_in_kernels;
    });
    out->set("apps.kernel_s.cp_complete", kernel_s, "s");
    out->set("apps.other_s.cp_complete", wall / 1e3 - kernel_s, "s");
    out->set("apps.fit_ms",
             median_ms(tr, "apps.cp_fit", [&] { (void)spttn::cp_fit(t, cp); }),
             "ms");
  }
}

}  // namespace perfbench
