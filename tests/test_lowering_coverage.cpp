// Lowering coverage: the lowerer accepts every compiled program whole.
// Every top-level region of every plan must come out of lower_program —
// the paper suite under every lint option set, the generated networks of
// the planner-strategy tests, and the order-5/6/8 network structures the
// cold-planning benchmark plans — and the lowered run must agree with
// reference_execute, sequentially and on a 4-lane pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "exec/executor.hpp"
#include "test_helpers.hpp"

namespace spttn {
namespace {

using testing::ScopedLanes;
using testing::to_suite;

constexpr double kTol = 1e-9;

/// Plan `inst` under `options`, require every region to lower, then run at
/// 1 and 4 threads against the reference.
void expect_lowers_and_matches(const SuiteInstance& inst,
                               const PlannerOptions& options) {
  const Kernel& k = inst.bound.kernel;
  const Plan plan = make_plan(k, inst.bound.stats, options);
  FusedExecutor exec(k, plan);
  const auto regions = exec.parallel_regions();
  ASSERT_FALSE(regions.empty());
  EXPECT_EQ(exec.lowered_regions(), static_cast<int>(regions.size()));

  const std::vector<double> want = testing::reference_values(inst);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecArgs args;
    args.sparse = &inst.bound.csf;
    args.dense = inst.bound.dense;
    args.num_threads = threads;
    DenseTensor dense;
    std::vector<double> sparse;
    if (k.output_is_sparse()) {
      sparse.assign(want.size(), 0.0);
      args.out_sparse = sparse;
    } else {
      dense = make_output(inst.bound);
      args.out_dense = &dense;
    }
    exec.execute(args);
    const std::span<const double> got =
        k.output_is_sparse() ? std::span<const double>(sparse)
                             : dense.values();
    ASSERT_EQ(got.size(), want.size());
    double diff = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      diff = std::max(diff, std::abs(got[i] - want[i]));
    }
    EXPECT_LT(diff, kTol);
  }
}

TEST(LoweringCoverage, SuiteKernelsAcrossLintOptionSets) {
  ScopedLanes lanes(4);
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    const auto inst = make_suite_instance(sk, 42);
    for (const LintOptionSet& set : lint_option_sets()) {
      SCOPED_TRACE(sk.name + " [" + set.name + "]");
      expect_lowers_and_matches(*inst, set.options);
    }
  }
}

// The networks test_planner_strategy plans: the order-8 budgeted anytime
// case and the order-6 random and tensor-train networks.
TEST(LoweringCoverage, PlannerStrategyNetworks) {
  ScopedLanes lanes(4);
  PlannerOptions budgeted;
  budgeted.strategy = StrategyKind::kAnytime;
  budgeted.budget.max_nodes = 4096;
  Rng rng8(2024);
  const GeneratedNetwork net8 = random_network(8, 3, 3, rng8);
  {
    SCOPED_TRACE(net8.expr);
    expect_lowers_and_matches(*make_suite_instance(to_suite(net8, 0.002), 42),
                              budgeted);
  }
  PlannerOptions anytime;
  anytime.strategy = StrategyKind::kAnytime;
  Rng rng6(77);
  for (const GeneratedNetwork& net :
       {random_network(6, 3, 2, rng6), tensor_train_network(6, 3, 2)}) {
    SCOPED_TRACE(net.expr);
    expect_lowers_and_matches(*make_suite_instance(to_suite(net, 0.05), 42),
                              anytime);
  }
}

// The nine network structures of the cold-planning benchmark, from the
// same generator seeds and planner options: order 5/6 under the exact
// strategy, order 8 under a 2048-node anytime budget. The order-8 random
// networks are the shapes whose operands carry more outer index
// dependencies, and whose terms collapse more dense levels, than a
// fixed-capacity program can hold.
TEST(LoweringCoverage, ColdPlanningNetworks) {
  ScopedLanes lanes(4);
  std::vector<std::pair<GeneratedNetwork, bool>> zoo;  // (network, anytime)
  for (std::uint64_t s : {11, 12}) {
    Rng g(s);
    zoo.push_back({random_network(5, 6, 4, g), false});
  }
  for (std::uint64_t s : {21, 22}) {
    Rng g(s);
    zoo.push_back({random_network(6, 5, 3, g), false});
  }
  zoo.push_back({tensor_train_network(5, 6, 3), false});
  zoo.push_back({tensor_train_network(6, 5, 3), false});
  for (std::uint64_t s : {31, 32}) {
    Rng g(s);
    zoo.push_back({random_network(8, 4, 3, g), true});
  }
  zoo.push_back({tensor_train_network(8, 4, 2), true});

  for (const auto& [net, anytime] : zoo) {
    SCOPED_TRACE(net.expr);
    PlannerOptions options;
    options.search_threads = 1;
    if (anytime) {
      options.strategy = StrategyKind::kAnytime;
      options.budget.max_nodes = 2048;
    }
    // ~2% dense in the sparse extents, capped at 4000 nonzeros.
    double space = 1;
    for (auto d : net.sparse_dims) space *= static_cast<double>(d);
    const double sparsity = std::min(0.02, 4000.0 / space);
    expect_lowers_and_matches(*make_suite_instance(to_suite(net, sparsity), 7),
                              options);
  }
}

}  // namespace
}  // namespace spttn
