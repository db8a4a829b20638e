#include "selftest.hpp"

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "reference.hpp"
#include "serve/session.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"

namespace perfbench {

int run_self_test() {
  spttn::Rng rng(5);
  // Cubic so that swapping two factors keeps every shape valid.
  const spttn::CooTensor t = spttn::random_coo({24, 24, 24}, 1500, rng);
  std::vector<spttn::DenseTensor> u;
  for (int m = 0; m < 3; ++m) u.push_back(spttn::random_dense({24, 6}, rng));

  // A kernel output and its independent reference.
  spttn::KernelCache cache;
  spttn::Session session(t, {}, &cache);
  const std::string expr = "M(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)";
  const int id = session.prepare(expr, {&u[1], &u[2]});
  spttn::DenseTensor out = session.make_output(id);
  session.run(id, &out);
  const std::vector<double> ref = reference_eval(expr, t, {&u[1], &u[2]});

  // Decomposition outputs.
  spttn::CpModel cp = spttn::make_cp_model(t, 4, rng);
  const spttn::AlsReport als = spttn::cp_als(t, &cp, 3);
  spttn::TuckerModel tk = spttn::make_tucker_model(t, {3, 3, 3}, rng);
  spttn::tucker_hooi(t, &tk, 2);
  spttn::CpModel cm = spttn::make_cp_model(t, 4, rng);
  const double rmse0 = recompute_rmse(t, cm);
  const spttn::CompletionReport comp = spttn::cp_complete(t, &cm, 3, 1e-3);

  struct Case {
    std::string name;
    bool corrupted;
    std::function<bool(std::string*)> check;
  };
  std::vector<Case> cases;
  cases.push_back({"kernel output (control)", false, [&](std::string* why) {
                     return close_to(out.values(), ref, 1e-9, "mttkrp", why);
                   }});
  cases.push_back({"kernel output, one element perturbed", true,
                   [&](std::string* why) {
                     spttn::DenseTensor bad = out;
                     bad.data()[bad.size() / 2] *= 1.0 + 1e-6;
                     bad.data()[bad.size() / 2] += 1e-6;
                     return close_to(bad.values(), ref, 1e-9, "mttkrp", why);
                   }});
  cases.push_back({"cp_als fit (control)", false, [&](std::string* why) {
                     return check_cp_fit(t, cp, als.fits.back(), why) &&
                            check_fits_rise(-1.0, als.fits, why);
                   }});
  cases.push_back({"cp_als fit, two factors swapped", true,
                   [&](std::string* why) {
                     spttn::CpModel bad = cp;
                     std::swap(bad.factors[1], bad.factors[2]);
                     return check_cp_fit(t, bad, als.fits.back(), why);
                   }});
  cases.push_back({"cp_als fits, fabricated falling sequence", true,
                   [&](std::string* why) {
                     return check_fits_rise(-1.0, {0.50, 0.62, 0.61}, why);
                   }});
  cases.push_back({"tucker_hooi core (control)", false, [&](std::string* why) {
                     return check_hooi(t, tk, why);
                   }});
  cases.push_back({"tucker_hooi, two factors swapped", true,
                   [&](std::string* why) {
                     spttn::TuckerModel bad = tk;
                     std::swap(bad.factors[0], bad.factors[2]);
                     return check_hooi(t, bad, why);
                   }});
  cases.push_back({"cp_complete RMSE (control)", false, [&](std::string* why) {
                     return check_completion(rmse0, comp, why);
                   }});
  cases.push_back({"cp_complete, fabricated rising RMSE", true,
                   [&](std::string* why) {
                     spttn::CompletionReport bad = comp;
                     bad.rmse.back() = bad.rmse.front() * 1.01;
                     return check_completion(rmse0, bad, why);
                   }});

  int wrong = 0;
  for (const Case& c : cases) {
    // Each case is one op through the same counting as a workload run.
    int attempted = 0;
    int failed = 0;
    std::string why;
    ++attempted;
    if (!c.check(&why)) ++failed;
    const bool as_expected = failed == (c.corrupted ? 1 : 0);
    wrong += as_expected ? 0 : 1;
    std::printf("%-44s attempted %d failed %d  %s%s%s\n", c.name.c_str(),
                attempted, failed, as_expected ? "ok" : "WRONG",
                why.empty() ? "" : "  -- ", why.c_str());
  }
  std::printf("self-test: %s\n", wrong == 0 ? "every corruption caught"
                                            : "checks missed a corruption");
  return wrong == 0 ? 0 : 1;
}

}  // namespace perfbench
