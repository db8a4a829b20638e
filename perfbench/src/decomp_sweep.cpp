// decomp-sweep: the paper's motivating use (Section 2.3). One op is one
// round of cp_als, tucker_hooi and cp_complete on a nell-2-like stand-in
// whose values follow a planted low-rank model plus noise; the models carry
// over from round to round, so fits keep climbing while the work per round
// stays fixed.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "serve/kernel_cache.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using spttn::CooTensor;
using spttn::CpModel;
using spttn::DenseTensor;
using spttn::TuckerModel;

/// Row-major (n x r) element.
inline double at2(const DenseTensor& f, std::int64_t i, std::int64_t r) {
  return f.data()[i * f.dims()[1] + r];
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

double recompute_cp_fit(const CooTensor& t, const CpModel& m) {
  const int d = t.order();
  const std::int64_t r = m.rank;
  double tnorm2 = 0;
  double inner = 0;
  for (std::int64_t e = 0; e < t.nnz(); ++e) {
    const auto c = t.coord(e);
    double mv = 0;
    for (std::int64_t q = 0; q < r; ++q) {
      double p = 1;
      for (int k = 0; k < d; ++k) {
        p *= at2(m.factors[static_cast<std::size_t>(k)], c[k], q);
      }
      mv += p;
    }
    tnorm2 += t.value(e) * t.value(e);
    inner += t.value(e) * mv;
  }
  // |M|^2 = sum over (p,q) of the Hadamard product of the factor Grams.
  std::vector<double> had(static_cast<std::size_t>(r * r), 1.0);
  for (int k = 0; k < d; ++k) {
    const DenseTensor& f = m.factors[static_cast<std::size_t>(k)];
    for (std::int64_t p = 0; p < r; ++p) {
      for (std::int64_t q = 0; q < r; ++q) {
        double g = 0;
        for (std::int64_t i = 0; i < f.dims()[0]; ++i) {
          g += at2(f, i, p) * at2(f, i, q);
        }
        had[static_cast<std::size_t>(p * r + q)] *= g;
      }
    }
  }
  double mnorm2 = 0;
  for (double v : had) mnorm2 += v;
  const double resid2 = std::max(0.0, tnorm2 - 2 * inner + mnorm2);
  return 1.0 - std::sqrt(resid2) / std::sqrt(tnorm2);
}

double recompute_rmse(const CooTensor& t, const CpModel& m) {
  const int d = t.order();
  double se = 0;
  for (std::int64_t e = 0; e < t.nnz(); ++e) {
    const auto c = t.coord(e);
    double mv = 0;
    for (std::int64_t q = 0; q < m.rank; ++q) {
      double p = 1;
      for (int k = 0; k < d; ++k) {
        p *= at2(m.factors[static_cast<std::size_t>(k)], c[k], q);
      }
      mv += p;
    }
    se += (t.value(e) - mv) * (t.value(e) - mv);
  }
  return std::sqrt(se / static_cast<double>(t.nnz()));
}

bool check_cp_fit(const CooTensor& t, const CpModel& m, double reported,
                  std::string* why) {
  const double fit = recompute_cp_fit(t, m);
  if (!(std::fabs(fit - reported) <= 1e-8)) {
    *why = "cp_als fit " + num(reported) + " != recomputed " + num(fit);
    return false;
  }
  return true;
}

bool check_fits_rise(double prev, const std::vector<double>& fits,
                     std::string* why) {
  if (fits.empty()) {
    *why = "cp_als reported no fit";
    return false;
  }
  for (double f : fits) {
    if (!(f >= prev - 1e-9)) {
      *why = "cp_als fit fell from " + num(prev) + " to " + num(f);
      return false;
    }
    prev = f;
  }
  return true;
}

bool check_hooi(const CooTensor& t, const TuckerModel& m, std::string* why) {
  // Orthonormal factor columns.
  for (std::size_t k = 0; k < m.factors.size(); ++k) {
    const DenseTensor& u = m.factors[k];
    const std::int64_t n = u.dims()[0];
    const std::int64_t r = u.dims()[1];
    for (std::int64_t p = 0; p < r; ++p) {
      for (std::int64_t q = 0; q < r; ++q) {
        double g = 0;
        for (std::int64_t i = 0; i < n; ++i) g += at2(u, i, p) * at2(u, i, q);
        if (!(std::fabs(g - (p == q ? 1.0 : 0.0)) <= 1e-9)) {
          *why = "tucker factor " + std::to_string(k) +
                 " not orthonormal: gram(" + std::to_string(p) + "," +
                 std::to_string(q) + ") = " + num(g);
          return false;
        }
      }
    }
  }
  // Core recomputed fiber by fiber over the sorted nonzeros:
  // G(a,b,c) = sum_{i,j,k} T(i,j,k) U0(i,a) U1(j,b) U2(k,c).
  const DenseTensor& u0 = m.factors[0];
  const DenseTensor& u1 = m.factors[1];
  const DenseTensor& u2 = m.factors[2];
  const std::int64_t ra = u0.dims()[1];
  const std::int64_t rb = u1.dims()[1];
  const std::int64_t rc = u2.dims()[1];
  std::vector<double> g(static_cast<std::size_t>(ra * rb * rc), 0.0);
  std::vector<double> wk(static_cast<std::size_t>(rc));
  std::vector<double> wjk(static_cast<std::size_t>(rb * rc));
  std::int64_t e = 0;
  while (e < t.nnz()) {
    const std::int64_t i = t.coord(e)[0];
    std::fill(wjk.begin(), wjk.end(), 0.0);
    while (e < t.nnz() && t.coord(e)[0] == i) {
      const std::int64_t j = t.coord(e)[1];
      std::fill(wk.begin(), wk.end(), 0.0);
      while (e < t.nnz() && t.coord(e)[0] == i && t.coord(e)[1] == j) {
        const std::int64_t k = t.coord(e)[2];
        for (std::int64_t c = 0; c < rc; ++c) {
          wk[static_cast<std::size_t>(c)] += t.value(e) * at2(u2, k, c);
        }
        ++e;
      }
      for (std::int64_t b = 0; b < rb; ++b) {
        for (std::int64_t c = 0; c < rc; ++c) {
          wjk[static_cast<std::size_t>(b * rc + c)] +=
              at2(u1, j, b) * wk[static_cast<std::size_t>(c)];
        }
      }
    }
    for (std::int64_t a = 0; a < ra; ++a) {
      for (std::int64_t bc = 0; bc < rb * rc; ++bc) {
        g[static_cast<std::size_t>(a * rb * rc + bc)] +=
            at2(u0, i, a) * wjk[static_cast<std::size_t>(bc)];
      }
    }
  }
  return close_to(m.core.values(), g, 1e-9, "tucker core", why);
}

bool check_completion(double rmse_before,
                      const spttn::CompletionReport& report,
                      std::string* why) {
  if (report.rmse.empty()) {
    *why = "cp_complete reported no RMSE";
    return false;
  }
  if (!(std::fabs(report.rmse[0] - rmse_before) <= 1e-9 * rmse_before)) {
    *why = "cp_complete rmse[0] " + num(report.rmse[0]) +
           " != recomputed " + num(rmse_before);
    return false;
  }
  for (std::size_t e = 1; e < report.rmse.size(); ++e) {
    if (!(report.rmse[e] <= report.rmse[e - 1] * (1 + 1e-12))) {
      *why = "cp_complete RMSE rose from " + num(report.rmse[e - 1]) +
             " to " + num(report.rmse[e]);
      return false;
    }
  }
  return true;
}

namespace {

/// nell-2 at this scale has ~1.5M nonzeros in ~240 long root fibers.
constexpr double kScale = 0.02;
constexpr int kPlantedRank = 16;
constexpr double kNoise = 0.05;
constexpr int kCpRank = 16;
constexpr std::int64_t kTuckerRank = 8;
constexpr int kAlsSweeps = 1;
constexpr int kHooiSweeps = 1;
constexpr int kEpochs = 2;
/// Gradient step small enough that the RMSE never rises on this stand-in.
constexpr double kStep = 2e-3;

class DecompSweep final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    spttn::Rng rng(seed);
    t_ = standin("nell-2", kScale, rng);
    // Planted rank-16 model plus Gaussian noise.
    std::vector<DenseTensor> planted;
    for (int m = 0; m < t_.order(); ++m) {
      planted.push_back(spttn::random_dense({t_.dim(m), kPlantedRank}, rng));
    }
    for (std::int64_t e = 0; e < t_.nnz(); ++e) {
      const auto c = t_.coord(e);
      double v = 0;
      for (int q = 0; q < kPlantedRank; ++q) {
        double p = 1;
        for (int m = 0; m < t_.order(); ++m) p *= at2(planted[m], c[m], q);
        v += p;
      }
      t_.value(e) = v + kNoise * rng.next_normal();
    }
    cp0_ = spttn::make_cp_model(t_, kCpRank, rng);
    tk0_ = spttn::make_tucker_model(t_, {kTuckerRank, kTuckerRank, kTuckerRank},
                                    rng);
    cm0_ = spttn::make_cp_model(t_, kCpRank, rng);
  }

  void setup(Tracer*) override {
    // The drivers bind their own sessions on every call, so set-up is the
    // model state plus the warm-up round the harness runs next.
    cp_ = cp0_;
    tk_ = tk0_;
    cm_ = cm0_;
    prev_fit_ = -std::numeric_limits<double>::infinity();
    prev_rmse_ = std::numeric_limits<double>::infinity();
  }
  // The drivers plan through the process-wide cache; empty it so every
  // set-up pays the same cold planning.
  void teardown() override { spttn::KernelCache::global().clear(); }

  void before_op() override { rmse_before_ = recompute_rmse(t_, cm_); }

  void run_op(Tracer* tr) override {
    double ms =
        timed(tr, "apps.cp_als", [&] { als_ = spttn::cp_als(t_, &cp_, kAlsSweeps); });
    record("cp_als", ms, als_.seconds_in_kernels);
    ms = timed(tr, "apps.tucker_hooi",
               [&] { hooi_ = spttn::tucker_hooi(t_, &tk_, kHooiSweeps); });
    record("tucker_hooi", ms, hooi_.seconds_in_kernels);
    ms = timed(tr, "apps.cp_complete", [&] {
      comp_ = spttn::cp_complete(t_, &cm_, kEpochs, kStep);
    });
    record("cp_complete", ms, comp_.seconds_in_kernels);
  }

  bool check_op(std::string* why) override {
    bool ok = check_cp_fit(t_, cp_, als_.fits.back(), why) &&
              check_fits_rise(prev_fit_, als_.fits, why) &&
              check_hooi(t_, tk_, why) &&
              check_completion(rmse_before_, comp_, why);
    if (ok && !(rmse_before_ <= prev_rmse_ * (1 + 1e-12))) {
      *why = "cp_complete's last step raised the RMSE to " + num(rmse_before_);
      ok = false;
    }
    prev_fit_ = als_.fits.back();
    prev_rmse_ = comp_.rmse.empty() ? prev_rmse_ : comp_.rmse.back();
    return ok;
  }

  LayerInputs layer_inputs() override { return {&t_, {}}; }

  void op_layer_metrics(Metrics* out) override {
    for (const auto& [name, v] : kernel_s_) {
      out->set("apps.kernel_s." + name, median(v), "s");
      out->set("apps.other_s." + name, median(other_s_[name]), "s");
    }
  }

 private:
  /// One driver call's time in kernels and outside them.
  void record(const std::string& name, double wall_ms, double kernel_s) {
    kernel_s_[name].push_back(kernel_s);
    other_s_[name].push_back(wall_ms / 1e3 - kernel_s);
  }

  CooTensor t_;
  CpModel cp0_, cp_, cm0_, cm_;
  TuckerModel tk0_, tk_;
  spttn::AlsReport als_;
  spttn::HooiReport hooi_;
  spttn::CompletionReport comp_;
  double prev_fit_ = 0;
  double prev_rmse_ = 0;
  double rmse_before_ = 0;
  std::map<std::string, std::vector<double>> kernel_s_, other_s_;
};

}  // namespace

std::unique_ptr<Workload> make_decomp_sweep() {
  return std::make_unique<DecompSweep>();
}

}  // namespace perfbench
