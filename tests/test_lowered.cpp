// Lowered execution against pinned outputs: every paper kernel under every
// lint planner-option set must reproduce, bit for bit, the output
// checksums in tests/golden/exec_checksums.txt — captured from the
// recursive interpreter the lowered programs replaced, at 1 and 4 threads
// on a 4-lane pool (the partition shape, and so the reduction order,
// depends on the lane count) — and must agree with reference_execute
// within tolerance. Also covers the cache byte accounting of the compiled
// programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "exec/executor.hpp"
#include "serve/kernel_cache.hpp"
#include "test_helpers.hpp"

namespace spttn {
namespace {

using spttn::testing::ScopedLanes;

constexpr double kTol = 1e-9;

struct LoweredRun {
  DenseTensor dense;
  std::vector<double> sparse;
  ExecStats stats;

  std::span<const double> values() const {
    return sparse.empty() ? dense.values() : std::span<const double>(sparse);
  }
};

LoweredRun run(FusedExecutor& exec, const SuiteInstance& inst, int threads) {
  LoweredRun r;
  ExecArgs args;
  args.sparse = &inst.bound.csf;
  args.dense = inst.bound.dense;
  args.num_threads = threads;
  args.stats = &r.stats;
  if (inst.bound.kernel.output_is_sparse()) {
    r.sparse.assign(static_cast<std::size_t>(inst.bound.csf.nnz()), 0.0);
    args.out_sparse = r.sparse;
  } else {
    r.dense = make_output(inst.bound);
    args.out_dense = &r.dense;
  }
  exec.execute(args);
  return r;
}

/// FNV-1a 64 over the IEEE-754 bit patterns, in storage order.
std::string checksum(std::span<const double> v) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// "kernel option_set threads" -> checksum.
const std::map<std::string, std::string>& pinned_checksums() {
  static const std::map<std::string, std::string> pinned = [] {
    std::map<std::string, std::string> m;
    std::ifstream in(std::string(SPTTN_SOURCE_DIR) +
                     "/tests/golden/exec_checksums.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string kernel, set, threads, sum;
      ls >> kernel >> set >> threads >> sum;
      m[kernel + " " + set + " " + threads] = sum;
    }
    return m;
  }();
  return pinned;
}

void expect_pinned(const LoweredRun& r, const std::vector<double>& want,
                   const std::string& kernel, const std::string& set,
                   int threads) {
  const std::string key = kernel + " " + set + " " + std::to_string(threads);
  const auto it = pinned_checksums().find(key);
  ASSERT_NE(it, pinned_checksums().end()) << "no pinned checksum for " << key;
  const std::string got = checksum(r.values());
  EXPECT_EQ(got, it->second) << "output bits drifted; now: " << key << " "
                             << got;
  const std::span<const double> v = r.values();
  ASSERT_EQ(v.size(), want.size()) << key;
  double diff = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    diff = std::max(diff, std::abs(v[i] - want[i]));
  }
  EXPECT_LT(diff, kTol) << key;
}

TEST(LoweredDifferential, SequentialSuiteAcrossAllLintOptionSets) {
  ScopedLanes lanes(4);
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    const auto inst = make_suite_instance(sk, 42);
    const std::vector<double> want = testing::reference_values(*inst);
    for (const LintOptionSet& set : lint_option_sets()) {
      const Plan plan =
          make_plan(inst->bound.kernel, inst->bound.stats, set.options);
      FusedExecutor exec(inst->bound.kernel, plan);
      const LoweredRun r = run(exec, *inst, /*threads=*/1);
      expect_pinned(r, want, sk.name, set.name, 1);
      EXPECT_TRUE(r.stats.populated);
      EXPECT_EQ(r.stats.total_regions, exec.lowered_regions()) << sk.name;
    }
  }
}

TEST(LoweredDifferential, ThreadedSuiteBitIdenticalToPinnedChecksumsAndReruns) {
  ScopedLanes lanes(4);
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    const auto inst = make_suite_instance(sk, 42);
    const std::vector<double> want = testing::reference_values(*inst);
    for (const LintOptionSet& set : lint_option_sets()) {
      const Plan plan =
          make_plan(inst->bound.kernel, inst->bound.stats, set.options);
      FusedExecutor exec(inst->bound.kernel, plan);
      // Same partition shape => bit-identical to the pinned run and across
      // reruns.
      expect_pinned(run(exec, *inst, /*threads=*/4), want, sk.name, set.name,
                    4);
      expect_pinned(run(exec, *inst, /*threads=*/4), want, sk.name, set.name,
                    4);
    }
  }
}

TEST(LoweredDifferential, EntryBytesAccountForTheCompiledPrograms) {
  const auto& suite = paper_kernel_suite();
  const auto inst = make_suite_instance(suite.front(), 13);
  const PlannerOptions options;
  const Plan plan =
      make_plan(inst->bound.kernel, inst->bound.stats, options);
  const FusedExecutor exec(inst->bound.kernel, plan);
  EXPECT_GT(exec.program_bytes(), 0u);

  const KernelSignature sig =
      make_signature(inst->bound.kernel, inst->bound.stats, options);
  const std::size_t with_exec =
      estimate_entry_bytes(sig, inst->bound.kernel, plan, &exec);
  const std::size_t heuristic =
      estimate_entry_bytes(sig, inst->bound.kernel, plan);
  // The exec-aware estimate swaps the per-action heuristic for the real
  // program footprint; both must include it (strictly more than the
  // structure-only parts, i.e. nonzero either way).
  EXPECT_GT(with_exec, exec.program_bytes());
  EXPECT_GT(heuristic, 0u);
}

}  // namespace
}  // namespace spttn
