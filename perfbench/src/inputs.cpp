#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "tensor/generate.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// `k` distinct values in [0, n), in random order (Floyd's algorithm).
std::vector<std::int64_t> distinct(std::int64_t k, std::int64_t n,
                                   spttn::Rng& rng) {
  std::unordered_set<std::int64_t> seen;
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  for (std::int64_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(j + 1)));
    const std::int64_t v = seen.insert(t).second ? t : j;
    if (v == j) seen.insert(j);
    out.push_back(v);
  }
  return out;
}

/// Child counts for `parents` nodes: geometric quantiles with mean `mean`,
/// capped at `cap`, assigned to parents in random order.
std::vector<std::int64_t> fanouts(std::int64_t parents, double mean,
                                  std::int64_t cap, spttn::Rng& rng) {
  std::vector<std::int64_t> c(static_cast<std::size_t>(parents), 1);
  if (mean > 1.0) {
    const double q = std::log(1.0 - 1.0 / mean);
    for (std::int64_t p = 0; p < parents; ++p) {
      const double u =
          (static_cast<double>(p) + 0.5) / static_cast<double>(parents);
      const auto extra =
          static_cast<std::int64_t>(std::floor(std::log(1.0 - u) / q));
      c[static_cast<std::size_t>(p)] = std::min(cap, 1 + extra);
    }
  }
  rng.shuffle(c);
  return c;
}

}  // namespace

spttn::CooTensor standin(const std::string& preset, double scale,
                         spttn::Rng& rng) {
  const spttn::TensorPreset& p = spttn::find_preset(preset);
  const double dim_scale = std::sqrt(scale);
  std::vector<std::int64_t> dims(p.dims.size());
  for (std::size_t m = 0; m < dims.size(); ++m) {
    dims[m] = std::max<std::int64_t>(
        4, std::llround(static_cast<double>(p.dims[m]) * dim_scale));
  }
  std::vector<double> mean(p.fanout.size());
  double per_root = 1;
  for (std::size_t l = 0; l < mean.size(); ++l) {
    mean[l] = std::min(p.fanout[l], static_cast<double>(dims[l + 1]) * 0.8);
    per_root *= mean[l];
  }
  const std::int64_t roots = std::clamp<std::int64_t>(
      std::llround(static_cast<double>(p.nnz) * scale / per_root), 1, dims[0]);

  // Node coordinates, flat with stride = level + 1.
  std::vector<std::int64_t> prefix = distinct(roots, dims[0], rng);
  for (std::size_t l = 1; l < dims.size(); ++l) {
    const std::size_t nodes = prefix.size() / l;
    const auto counts = fanouts(static_cast<std::int64_t>(nodes), mean[l - 1],
                                dims[l], rng);
    std::vector<std::int64_t> next;
    for (std::size_t n = 0; n < nodes; ++n) {
      for (std::int64_t c : distinct(counts[n], dims[l], rng)) {
        next.insert(next.end(), prefix.begin() + static_cast<std::ptrdiff_t>(n * l),
                    prefix.begin() + static_cast<std::ptrdiff_t>((n + 1) * l));
        next.push_back(c);
      }
    }
    prefix = std::move(next);
  }
  spttn::CooTensor t(dims);
  const std::size_t d = dims.size();
  for (std::size_t e = 0; e < prefix.size() / d; ++e) {
    t.push_back(std::span<const std::int64_t>(prefix.data() + e * d, d),
                2.0 * rng.next_double() - 1.0);
  }
  t.sort_dedup();
  return t;
}

}  // namespace perfbench
