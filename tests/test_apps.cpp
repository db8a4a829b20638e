// Integration tests: the decomposition/completion drivers exercise the
// full stack (parser -> planner -> DP -> executor) on realistic workloads
// and must make optimization progress.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "apps/decompose.hpp"
#include "apps/linalg.hpp"
#include "tensor/generate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace spttn {
namespace {

TEST(Linalg, GramMatchesNaive) {
  Rng rng(1);
  const DenseTensor a = random_dense({7, 3}, rng);
  const DenseTensor g = gram(a);
  for (std::int64_t p = 0; p < 3; ++p) {
    for (std::int64_t q = 0; q < 3; ++q) {
      double want = 0;
      for (std::int64_t i = 0; i < 7; ++i) {
        want += a.at({i, p}) * a.at({i, q});
      }
      EXPECT_NEAR(g.at({p, q}), want, 1e-12);
    }
  }
}

TEST(Linalg, SolveNormalEquationsRecoversKnownSolution) {
  Rng rng(2);
  // Build SPD a = m^T m + I, pick x, compute b = x a, then solve.
  DenseTensor m = random_dense({6, 4}, rng);
  DenseTensor a = gram(m);
  for (std::int64_t i = 0; i < 4; ++i) a.at({i, i}) += 1.0;
  const DenseTensor x = random_dense({3, 4}, rng);
  DenseTensor b = matmul(x, a);
  solve_normal_equations(a, &b, 0.0);
  EXPECT_LT(x.max_abs_diff(b), 1e-8);
}

TEST(Linalg, SolveHandlesSingularWithRidge) {
  DenseTensor a({2, 2});  // all zeros: singular
  DenseTensor b({1, 2});
  b.at({0, 0}) = 1.0;
  EXPECT_NO_THROW(solve_normal_equations(a, &b));
}

TEST(Linalg, OrthonormalizeProducesOrthonormalColumns) {
  Rng rng(3);
  DenseTensor a = random_dense({10, 4}, rng);
  orthonormalize_columns(&a);
  const DenseTensor g = gram(a);
  for (std::int64_t p = 0; p < 4; ++p) {
    for (std::int64_t q = 0; q < 4; ++q) {
      EXPECT_NEAR(g.at({p, q}), p == q ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Linalg, OrthonormalizeHandlesRankDeficiency) {
  DenseTensor a({5, 3});  // zero matrix
  orthonormalize_columns(&a);
  const DenseTensor g = gram(a);
  for (std::int64_t p = 0; p < 3; ++p) EXPECT_NEAR(g.at({p, p}), 1.0, 1e-12);
}

TEST(Linalg, MatmulMatchesNaive) {
  Rng rng(4);
  const DenseTensor a = random_dense({3, 5}, rng);
  const DenseTensor b = random_dense({5, 2}, rng);
  const DenseTensor c = matmul(a, b);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 2; ++j) {
      double want = 0;
      for (std::int64_t k = 0; k < 5; ++k) want += a.at({i, k}) * b.at({k, j});
      EXPECT_NEAR(c.at({i, j}), want, 1e-12);
    }
  }
}

TEST(CpAls, RecoversDenselySampledLowRankTensor) {
  // A fully observed rank-4 tensor (stored sparsely) is exactly rank 4, so
  // ALS must drive the fit toward 1.
  Rng rng(42);
  const CooTensor t = lowrank_coo({15, 12, 10}, 4, 15 * 12 * 10, 0.0, rng);
  ASSERT_EQ(t.nnz(), 15 * 12 * 10);
  CpModel model = make_cp_model(t, 4, rng);
  const double fit0 = cp_fit(t, model);
  const AlsReport report = cp_als(t, &model, 10);
  ASSERT_EQ(report.sweeps, 10);
  EXPECT_GT(report.fits.back(), fit0);
  EXPECT_GT(report.fits.back(), 0.95);
  EXPECT_GE(report.fits.back(), report.fits.front() - 1e-9);
  EXPECT_GT(report.seconds_in_kernels, 0.0);
}

TEST(CpAls, ImprovesFitOnSparseTensor) {
  // On a genuinely sparse tensor ALS cannot reach fit 1, but every sweep
  // must still improve the objective.
  Rng rng(43);
  const CooTensor t = lowrank_coo({30, 25, 20}, 4, 3000, 0.01, rng);
  CpModel model = make_cp_model(t, 4, rng);
  const double fit0 = cp_fit(t, model);
  const AlsReport report = cp_als(t, &model, 6);
  EXPECT_GT(report.fits.back(), fit0);
  for (std::size_t s = 1; s < report.fits.size(); ++s) {
    EXPECT_GE(report.fits[s], report.fits[s - 1] - 1e-7);
  }
}

// cp_fit walks factor rows through pointers; it must equal the fit built
// from CpModel::value_at bit for bit (same products, same summation order).
TEST(CpFit, MatchesPerEntryModelValues) {
  Rng rng(45);
  const CooTensor t = lowrank_coo({12, 9, 7}, 3, 400, 0.05, rng);
  const CpModel model = make_cp_model(t, 3, rng);
  double tnorm2 = 0;
  for (double v : t.values()) tnorm2 += v * v;
  double inner = 0;
  for (std::int64_t e = 0; e < t.nnz(); ++e) {
    inner += t.value(e) * model.value_at(t.coord(e));
  }
  DenseTensor gprod;
  for (std::size_t m = 0; m < model.factors.size(); ++m) {
    const DenseTensor g = gram(model.factors[m]);
    gprod = (m == 0) ? g : hadamard(gprod, g);
  }
  const double tnorm = std::sqrt(tnorm2);
  const double squared = tnorm * tnorm;
  const double resid2 =
      std::max(0.0, squared - 2 * inner + element_sum(gprod));
  EXPECT_EQ(cp_fit(t, model), 1.0 - std::sqrt(resid2) / std::sqrt(squared));
}

TEST(CpFit, RejectsMisshapenModel) {
  Rng rng(46);
  const CooTensor t = lowrank_coo({6, 5, 4}, 2, 60, 0.0, rng);
  const CpModel good = make_cp_model(t, 2, rng);
  EXPECT_NO_THROW(cp_fit(t, good));

  CpModel short_rows = good;
  short_rows.factors[1] = DenseTensor({4, 2});  // mode 1 has extent 5
  EXPECT_THROW(cp_fit(t, short_rows), Error);

  CpModel wrong_rank = good;
  wrong_rank.rank = 3;  // factors hold 2 columns
  EXPECT_THROW(cp_fit(t, wrong_rank), Error);

  CpModel missing = good;
  missing.factors.pop_back();
  EXPECT_THROW(cp_fit(t, missing), Error);
}

TEST(CpAls, WorksOnOrder4) {
  Rng rng(44);
  const CooTensor t = lowrank_coo({8, 7, 6, 5}, 3, 8 * 7 * 6 * 5, 0.0, rng);
  CpModel model = make_cp_model(t, 3, rng);
  const AlsReport report = cp_als(t, &model, 12);
  EXPECT_GT(report.fits.back(), 0.9);
}

TEST(TuckerHooi, CoreNormGrows) {
  Rng rng(44);
  const CooTensor t = lowrank_coo({24, 20, 16}, 3, 2500, 0.02, rng);
  TuckerModel model = make_tucker_model(t, {3, 3, 3}, rng);
  const HooiReport report = tucker_hooi(t, &model, 5);
  ASSERT_EQ(report.sweeps, 5);
  // |G| increases monotonically toward |T| as the subspaces improve.
  for (std::size_t s = 1; s < report.core_norms.size(); ++s) {
    EXPECT_GE(report.core_norms[s], report.core_norms[s - 1] - 1e-9);
  }
  double tnorm = 0;
  for (double v : t.values()) tnorm += v * v;
  EXPECT_LE(report.core_norms.back(), std::sqrt(tnorm) + 1e-6);
  EXPECT_GT(report.core_norms.back(), 0.5 * std::sqrt(tnorm));
}

TEST(TuckerHooi, FactorsStayOrthonormal) {
  Rng rng(45);
  const CooTensor t = lowrank_coo({15, 14, 13}, 2, 1200, 0.05, rng);
  TuckerModel model = make_tucker_model(t, {2, 2, 2}, rng);
  tucker_hooi(t, &model, 3);
  for (const auto& u : model.factors) {
    const DenseTensor g = gram(u);
    for (std::int64_t p = 0; p < g.dim(0); ++p) {
      for (std::int64_t q = 0; q < g.dim(1); ++q) {
        EXPECT_NEAR(g.at({p, q}), p == q ? 1.0 : 0.0, 1e-8);
      }
    }
  }
}

TEST(CpCompletion, RmseDecreases) {
  Rng rng(46);
  const CooTensor observed = lowrank_coo({25, 22, 18}, 3, 2500, 0.005, rng);
  CpModel model = make_cp_model(observed, 3, rng);
  const CompletionReport report = cp_complete(observed, &model, 60, 0.03);
  ASSERT_EQ(report.epochs, 60);
  EXPECT_LT(report.rmse.back(), report.rmse.front() * 0.9)
      << "gradient completion should reduce observed RMSE";
  // No epoch may blow up.
  for (double r : report.rmse) EXPECT_LT(r, report.rmse.front() * 4);
}

TEST(CpCompletion, PredictsHeldOutEntries) {
  Rng rng(47);
  // Noise-free rank-2 ground truth; train on one sample of positions and
  // evaluate on another.
  const CooTensor train = lowrank_coo({20, 20, 20}, 2, 2400, 0.0, rng);
  CpModel model = make_cp_model(train, 2, rng);
  cp_complete(train, &model, 120, 0.03);
  // In-sample reconstruction should be decent.
  double se = 0;
  double norm = 0;
  for (std::int64_t e = 0; e < train.nnz(); ++e) {
    const double err = train.value(e) - model.value_at(train.coord(e));
    se += err * err;
    norm += train.value(e) * train.value(e);
  }
  EXPECT_LT(se, 0.35 * norm);
}

}  // namespace
}  // namespace spttn
